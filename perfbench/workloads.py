"""The benchmark's workloads: lists of CLI cases built from a seed.

Each case is a dict holding the ``locmodel`` argv (without ``--format``)
and the parameters the oracles need.  The seed shuffles the order of the
cases and, for the adm/perm sweep, draws which parahoric subset I stands
for its symmetry class; the number of cases never depends on the seed.
"""

from __future__ import annotations

import itertools
import random

from oracles import minuscule_sum


def _csv(values):
    return ",".join(str(v) for v in values)


def minuscule_sums(d, max_terms):
    """Distinct coweights omega_(r_1) + ... + omega_(r_k), k <= max_terms."""
    return sorted(
        {
            minuscule_sum(d, combo)
            for k in range(1, max_terms + 1)
            for combo in itertools.combinations_with_replacement(range(d + 1), k)
        }
    )


def subset_classes(kind, n):
    """Nonempty parahoric subsets I, grouped into classes of conjugate ones.

    The length-zero element tau permutes the vertex labels: rotation
    i -> i+1 mod d for GL(d), the flip i -> g-i for GSp(g).  Conjugate
    I give isomorphic double-coset sets, so the sweep draws one per class.
    """
    labels = range(n) if kind == "GL" else range(n + 1)
    move = (lambda i: (i + 1) % n) if kind == "GL" else (lambda i: n - i)
    classes, seen = [], set()
    for k in range(1, len(labels) + 1):
        for I in itertools.combinations(labels, k):
            if I in seen:
                continue
            orbit, J = [], I
            while J not in orbit:
                orbit.append(J)
                J = tuple(sorted(move(i) for i in J))
            seen.update(orbit)
            classes.append(orbit)
    return classes


def _group(kind, n):
    """The CLI group flags and the vertex labels of GL(n) or GSp(n)."""
    if kind == "GL":
        return ["--group", "gl", "--d", str(n)], frozenset(range(n))
    return ["--group", "gsp", "--g", str(n)], frozenset(range(n + 1))


def _compare_case(kind, n, mu, I):
    group, labels = _group(kind, n)
    return {
        "argv": ["compare-adm-perm", *group, "--mu", _csv(mu), "--I", _csv(I)],
        "kind": kind,
        "n": n,
        "mu": tuple(mu),
        "I": frozenset(I),
        "labels": labels,
    }


def adm_perm_sweep(rng):
    """adm = perm for sums of minuscule coweights, one I per conjugacy class."""
    families = [("GL", 2, minuscule_sums(2, 3)), ("GL", 3, minuscule_sums(3, 3)), ("GL", 4, minuscule_sums(4, 2))]
    families += [("GSp", g, [(e,) * (g + 1) for e in (1, 2)]) for g in (1, 2)]
    cases = []
    for kind, n, mus in families:
        classes = subset_classes(kind, n)
        for mu in mus:
            cases += [_compare_case(kind, n, mu, rng.choice(orbit)) for orbit in classes]
    # GSp(3), e = 1: the Iwahori case is the Caratheodory worst case; the
    # two maximal special-vertex classes are cheap.
    for orbit in ([(0, 1, 2, 3)], [(0,), (3,)], [(1,), (2,)]):
        cases.append(_compare_case("GSp", 3, (1, 1, 1, 1), rng.choice(orbit)))
    return cases


def _model_case(what, kind, n, e, I, p, r=None, known_fault=None):
    group, labels = _group(kind, n)
    argv = ["verify", what, *group, "--e", str(e), "--I", _csv(I), "--p", str(p)]
    if r is not None:
        argv += ["--r", _csv(r)]
    return {
        "argv": argv,
        "kind": kind,
        "n": n,
        "e": e,
        "I": frozenset(I),
        "labels": labels,
        "p": p,
        "r": tuple(r) if r is not None else None,
        "known_fault": known_fault,
    }


# The Iwahori-level symplectic case exits 1 although predicted = observed:
# run_verify_symplectic also demands a single maximal class, which holds
# only at a special maximal parahoric.  It is counted as failed until mended.
SYMPLECTIC_IWAHORI_FAULT = "maximal_classes"


def lattice_strata(rng):
    """One case per latmod stage that dominates it, plus oracle cases."""
    return [
        # Grassmannian filtering with one slot: Gr(2, 8) over F_2.
        _model_case("strata", "GL", 4, 2, (0,), 2, (1, 1)),
        # naive slot product with three slots
        _model_case("strata", "GL", 3, 2, (0, 1, 2), 2, (1, 1)),
        # flag search with e = 3
        _model_case("strata", "GL", 2, 3, (0, 1), 3, (1, 1, 0)),
        # signatures and classification
        _model_case("strata", "GL", 3, 2, (0, 1), 2, (1, 1)),
        _model_case("strata", "GL", 2, 2, (0,), 5, (1, 1)),
        # splitting model and unramified enumeration
        _model_case("torsor", "GL", 3, 2, (0, 1, 2), 2, (1, 1)),
        _model_case("torsor", "GL", 3, 2, (0,), 2, (2, 1)),
        _model_case("torsor", "GSp", 1, 2, (0,), 5),
        *(_model_case("symplectic", "GSp", 1, 2, (0,), p) for p in (3, 5, 7)),
        _model_case("symplectic", "GSp", 1, 2, (0, 1), 3, known_fault=SYMPLECTIC_IWAHORI_FAULT),
    ]


def _unitary_case(n, r, s, p):
    argv = ["verify", "matrix", "--n", str(n), "--r", str(r), "--s", str(s), "--p", str(p)]
    return {"argv": argv, "n": n, "r": r, "s": s, "p": p}


def matrix_schemes(rng):
    """The direct scans and the stratified count of matschemes."""
    cases = [
        _unitary_case(4, 2, 2, 5),  # direct scan of 5^10 matrices
        _unitary_case(3, 3, 3, 7),  # stratified count, per-matrix _rref
    ]
    # one (n, p) at every (r, s): the same matrices are scanned each time
    cases += [_unitary_case(4, r, 4 - r, 3) for r in range(5)]
    cases += [_unitary_case(3, r, 3 - r, 7) for r in range(4)]
    for p in (2, 3):
        argv = ["verify", "matrix", "--g", "1", "--e", "2", "--p", str(p)]
        cases.append({"argv": argv, "n": 1, "e": 2, "p": p})
    return cases


WORKLOADS = {
    "adm-perm-sweep": adm_perm_sweep,
    "lattice-strata": lattice_strata,
    "matrix-schemes": matrix_schemes,
}

# The speed reference each workload's times are scaled by (see speed.py):
# matrix-schemes spends most of its time in batched numpy products.
REFERENCES = {
    "adm-perm-sweep": "interpreter",
    "lattice-strata": "interpreter",
    "matrix-schemes": "numpy",
}


def build(workload, seed):
    """The ordered case list of a workload for a seed."""
    rng = random.Random(f"{workload}:{seed}")
    cases = WORKLOADS[workload](rng)
    rng.shuffle(cases)
    return cases
