"""Independent oracles for the benchmark's reports.

Nothing here imports ``locmodel``: every count is either a closed formula
computed from scratch or a brute-force enumeration in pure Python.  The
``check_*`` functions take one parsed ``--format json`` report and return
a list of problems (empty when the report agrees with every oracle).
"""

from __future__ import annotations

import itertools


# ---------------------------------------------------------------------------
# q-analogues


def gaussian(n, k, q):
    """Number of k-dimensional subspaces of F_q^n, by the q-Pascal rule."""
    if k < 0 or k > n:
        return 0
    row = [1]  # row[j] = [m choose j]_q for the current m
    for m in range(1, n + 1):
        row = [1] + [row[j - 1] + q**j * row[j] for j in range(1, m)] + [1]
    return row[k]


def q_multinomial(parts, q):
    """Number of partial flags in F_q^(sum parts) with the given step sizes."""
    out, total = 1, 0
    for m in parts:
        total += m
        out *= gaussian(total, m, q)
    return out


def lagrangian_count(g, q):
    """Number of Lagrangian subspaces of a symplectic F_q^(2g)."""
    out = 1
    for i in range(1, g + 1):
        out *= q**i + 1
    return out


def isotropic_vectors(n, q):
    """Nonzero v in F_q^n with sum v_i^2 = 0, counted by brute force."""
    return sum(
        1
        for v in itertools.product(range(q), repeat=n)
        if any(v) and sum(x * x for x in v) % q == 0
    )


# ---------------------------------------------------------------------------
# dominant coweights below mu


def _partial_sums_ok(lam, mu):
    acc = 0
    for a, b in zip(mu, lam):
        acc += a - b
        if acc < 0:
            return False
    return True


def dominant_below(kind, mu):
    """Dominant coweights lam <= mu in dominance order.

    GL(d): non-increasing integer tuples with the sum of mu and partial
    sums bounded by those of sorted mu.  GSp(g), stored as (v; c): the
    similitude c is fixed, v_1 >= ... >= v_g >= c/2, and the simple
    coroots e_i - e_(i+1), e_g span the cone {partial sums >= 0}.
    """
    if kind == "GL":
        mu = sorted(mu, reverse=True)
        values = range(mu[-1], mu[0] + 1)
        return [
            lam
            for lam in itertools.combinations_with_replacement(reversed(values), len(mu))
            if sum(lam) == sum(mu) and _partial_sums_ok(lam, mu)
        ]
    v, c = sorted(mu[:-1], reverse=True), mu[-1]
    low = -(-c // 2)
    values = range(low, max(v[0], low) + 1)
    return [
        lam
        for lam in itertools.combinations_with_replacement(reversed(values), len(v))
        if _partial_sums_ok(lam, v)
    ]


def gl_special_fiber_total(mu, q):
    """Points over F_q of the union of Schubert cells Gr_lam, lam <= mu.

    Gr_lam is an affine bundle of rank <lam, 2rho> - dim G/P_lam over the
    partial flag variety G/P_lam, whose points are a q-multinomial.
    """
    total = 0
    for lam in dominant_below("GL", mu):
        pairs = list(itertools.combinations(lam, 2))
        two_rho = sum(a - b for a, b in pairs)
        dim_flag = sum(1 for a, b in pairs if a != b)
        mults = [len(list(grp)) for _, grp in itertools.groupby(lam)]
        total += q ** (two_rho - dim_flag) * q_multinomial(mults, q)
    return total


def rank_one_iwahori_total(ell, q):
    """GL(2) or GSp(1) at Iwahori level for mu with <mu, alpha> = ell.

    The affine Weyl group is infinite dihedral, where x <= y whenever
    l(x) < l(y); the two translations in W_0 mu have length ell, so the
    admissible set is every element of length <= ell in the component:
    one of length 0 and two of each length 1..ell.
    """
    return 1 + 2 * sum(q**i for i in range(1, ell + 1))


def minuscule_sum(d, r_vec):
    """omega_(r_1) + ... + omega_(r_e) as a GL(d) coweight."""
    return tuple(sum(1 for r in r_vec if i < r) for i in range(d))


# ---------------------------------------------------------------------------
# brute-force self-checks on tiny cases


def _span(vectors, q):
    """Row space of the vectors over F_q as a frozenset of tuples."""
    space = {tuple(0 for _ in vectors[0])}
    for v in vectors:
        space = {
            tuple((a + c * b) % q for a, b in zip(w, v)) for w in space for c in range(q)
        }
    return frozenset(space)


def _subspaces(n, k, q):
    vectors = [v for v in itertools.product(range(q), repeat=n) if any(v)]
    found = {_span(list(vs), q) for vs in itertools.combinations(vectors, k)}
    return [s for s in found if len(s) == q**k]


def self_check():
    """Compare the formulas above against direct enumeration; return problems."""
    problems = []
    for q, n in ((2, 4), (3, 3)):
        for k in range(n + 1):
            brute = len(_subspaces(n, k, q)) if k else 1
            if gaussian(n, k, q) != brute:
                problems.append(f"gaussian({n},{k},{q})={gaussian(n, k, q)}, brute force {brute}")
    flags = sum(
        1
        for line in _subspaces(3, 1, 2)
        for plane in _subspaces(3, 2, 2)
        if line <= plane
    )
    if q_multinomial([1, 1, 1], 2) != flags:
        problems.append(f"q_multinomial([1,1,1],2) != {flags} complete flags of F_2^3")
    q = 3

    def form(a, b):
        return (a[0] * b[2] + a[1] * b[3] - a[2] * b[0] - a[3] * b[1]) % q

    lagr = sum(1 for s in _subspaces(4, 2, q) if all(form(a, b) == 0 for a in s for b in s))
    if lagrangian_count(2, q) != lagr:
        problems.append(f"lagrangian_count(2,3) != {lagr} by brute force")
    for n, q in ((2, 2), (2, 5), (3, 3)):
        rank_one = 0
        for entries in itertools.product(range(q), repeat=n * (n + 1) // 2):
            a = [[0] * n for _ in range(n)]
            for (i, j), x in zip(itertools.combinations_with_replacement(range(n), 2), entries):
                a[i][j] = a[j][i] = x
            square = [[sum(a[i][t] * a[t][j] for t in range(n)) % q for j in range(n)] for i in range(n)]
            rows = {tuple(r) for r in a if any(r)}
            if not any(map(any, square)) and rows and len(_span(list(rows), q)) == q:
                rank_one += 1
        if isotropic_vectors(n, q) != rank_one:
            problems.append(f"isotropic_vectors({n},{q}) != {rank_one} rank-one matrices")
    if [len(dominant_below("GL", (2, 1, 0, 0))), len(dominant_below("GSp", (2, 2, 2)))] != [2, 3]:
        problems.append("dominant_below disagrees with the hand count")
    if gl_special_fiber_total((2, 1, 0, 0), 2) != 420 + 15:
        problems.append("gl_special_fiber_total((2,1,0,0), 2) != 435")
    return problems


# ---------------------------------------------------------------------------
# report checks


def _rows_agree(report):
    return [
        f"row {i}: predicted {row['predicted']} != observed {row['observed']}"
        for i, row in enumerate(report["rows"])
        if row["predicted"] != row["observed"]
    ]


def _expect(problems, what, got, want):
    if got != want:
        problems.append(f"{what}: got {got}, oracle {want}")


def check_compare(case, report):
    problems = _rows_agree(report)
    totals = report["totals"]
    _expect(problems, "|adm| vs |perm|", totals["predicted"], totals["observed"])
    size = totals["predicted"]
    kind, mu, I, labels = case["kind"], case["mu"], case["I"], case["labels"]
    if len(I) == len(labels):
        if kind == "GL" and sorted(mu, reverse=True) == [1] + [0] * (len(mu) - 1):
            _expect(problems, "|Adm(omega_1)| at Iwahori", size, 2 ** len(mu) - 1)
        if kind == "GL" and mu == (1, 1, 0, 0):
            _expect(problems, "|Adm(omega_2)| for GL(4) at Iwahori", size, 33)
        if kind == "GSp" and mu == (1, 1, 1):
            _expect(problems, "|Adm(mu_1)| for GSp(4) at Iwahori", size, 13)
        if len(labels) == 2:
            ell = mu[0] - mu[1] if kind == "GL" else 2 * mu[0] - mu[1]
            _expect(problems, "|Adm| in rank one at Iwahori", size, 2 * abs(ell) + 1)
    special = kind == "GL" or I <= {0, len(labels) - 1}
    if len(I) == 1 and special:
        _expect(problems, "|Adm| at a special vertex", size, len(dominant_below(kind, mu)))
    return problems


def _strata_totals(case, report, problems):
    totals = report["totals"]
    p, I = case["p"], case["I"]
    if case["kind"] == "GL" and len(I) == 1:
        mu = minuscule_sum(case["n"], case["r"])
        _expect(problems, "strata total at one vertex", totals["predicted"], gl_special_fiber_total(mu, p))
        _expect(problems, "strata at one vertex", len(report["rows"]), len(dominant_below("GL", mu)))
    if len(I) == len(case["labels"]) == 2:
        ell = case["e"] if case["kind"] == "GSp" else sum(1 for r in case["r"] if r == 1)
        _expect(problems, "rank-one Iwahori total", totals["predicted"], rank_one_iwahori_total(ell, p))
    if case["kind"] == "GSp" and case["n"] == 1 and case["e"] == 2 and I == {0}:
        _expect(problems, "GSp(1) e=2 total at I={0}", totals["predicted"], p * p + p + 1)


def check_strata(case, report):
    problems = _rows_agree(report)
    totals = report["totals"]
    _expect(problems, "unmatched points", totals["unmatched"], 0)
    _expect(problems, "predicted vs observed total", totals["predicted"], totals["observed"])
    if "canonical" in totals:
        _expect(problems, "canonical vs observed", totals["canonical"], totals["observed"])
    _strata_totals(case, report, problems)
    return problems


def check_torsor(case, report):
    problems = []
    totals = report["totals"]
    factors = [row["observed"] for row in report["rows"]]
    prod = 1
    for f in factors:
        prod *= f
    _expect(problems, "product of unramified factors", totals["predicted"], prod)
    _expect(problems, "splitting vs product", totals["observed"], prod)
    if case["I"] == {0}:
        p = case["p"]
        if case["kind"] == "GL":
            want = [gaussian(case["n"], r, p) for r in case["r"]]
        else:
            want = [lagrangian_count(case["n"], p)] * case["e"]
        _expect(problems, "unramified factors at I={0}", factors, want)
    return problems


def check_unitary(case, report):
    problems = _rows_agree(report)
    totals = report["totals"]
    _expect(problems, "direct vs stratified total", totals["observed"], totals["predicted"])
    _expect(problems, "total vs rows", totals["observed"], sum(row["observed"] for row in report["rows"]))
    by_rank = {row["length"]: row["observed"] for row in report["rows"]}
    _expect(problems, "rank-0 count", by_rank.get(0), 1)
    if min(case["r"], case["s"]) >= 1:
        iso = isotropic_vectors(case["n"], case["p"])
        _expect(problems, "rank-1 count vs isotropic vectors", by_rank.get(1, 0), iso)
    return problems


def check_symplectic_matrix(case, report):
    """g = 1, e = 2: a ranges over the p^2 nilpotent 2x2 matrices and
    a b + b a^t = tr(a) b = 0 for every alternating b, so p^3 points."""
    problems = _rows_agree(report)
    totals = report["totals"]
    _expect(problems, "direct vs linear", totals["observed"], totals["predicted"])
    if (case["n"], case["e"]) == (1, 2):
        _expect(problems, "symplectic P points", totals["observed"], case["p"] ** 3)
    return problems


CHECKS = {
    "compare-adm-perm": check_compare,
    "verify-strata": check_strata,
    "verify-symplectic": check_strata,
    "verify-torsor": check_torsor,
    "verify-matrix-unitary": check_unitary,
    "verify-matrix-symplectic": check_symplectic_matrix,
}
