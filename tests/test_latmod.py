"""Tests for the finite chain models.

Cross-module oracles: naive/stratum point counts are compared against
the q-polynomial counts coming from the Weyl-group side (sum of
q^length over right-minimal coset members), which are computed by a
completely independent code path.
"""

import copy
import itertools

import numpy as np
import pytest

from locmodel import latmod, linalg
from locmodel.admissible import DoubleCoset, adm_set, stratum_count
from locmodel.cli import _mu_from_model
from locmodel.errors import (
    ArtifactError,
    BadRanks,
    Budget,
    BudgetExceeded,
    ChainInvariantError,
    IncompatibleElement,
    SignatureCollision,
    SingularGram,
    WildRamification,
)
from locmodel.latmod import (
    ChainPoint,
    build_model,
    canonical_points,
    classify_strata,
    has_splitting_flag,
    naive_points,
    signature,
    splitting_points,
    standard_point,
    torsor_check,
    unramified_points,
)
from locmodel.linalg import FieldMatrix, Subspace, enumerate_subspaces
from locmodel.weyl import Coweight, ParahoricSpec, RootDatum, translation

from reference import (
    apply_chain_automorphism,
    classify_by_orbits,
    extended,
    meet,
    mod_p_maps,
    omega_generator,
    random_chain_automorphism,
    stable_under,
    trial_chains,
    total_count,
)

GL2 = RootDatum("GL", 2)
GL3 = RootDatum("GL", 3)
GSP1 = RootDatum("GSp", 1)
GSP2 = RootDatum("GSp", 2)


def gl2_model(p=2, r_vec=(1, 1)):
    return build_model("GL", 2, 2, {0}, p, r_vec)


def product_filter(slots, maps, cands):
    """The former GL point loop, kept as the reference: the full product
    of slot candidates, filtered by maps[t](F_t) <= F_{t+1} and the wrap."""
    for combo in itertools.product(*cands):
        links = zip(maps, combo, combo[1:] + combo[:1])
        if all(linalg.image(f, a).leq(b) for f, a, b in links):
            yield dict(zip(slots, combo))


def grassmannian_filter(model, lagrangian, rank=None):
    """The former slot-candidate path, kept as the reference: every
    subspace of the Grassmannian, in enumeration order, that N maps into
    itself (and, for the GSp key at 0, that annihilates itself)."""
    rank = model.rank if rank is None else rank
    cands = []
    for s in linalg.enumerate_subspaces(model.dim, rank, model.field):
        if not stable_under(s, model.N):
            continue
        if lagrangian and linalg.perp(s, model.gram[0]) != s:
            continue
        cands.append(s)
    return cands


def label_candidates(model):
    """Per independent label (the slots for GL, I for GSp), in order, the
    options that latmod._points keeps from the N-stable subspaces: all of
    them, except that the GSp F_0 must annihilate itself."""
    stable = linalg.stable_subspaces(model.N, model.rank)
    if model.kind == "GL":
        return [stable] * len(model.slots)
    return [
        [s for s in stable if linalg.perp(s, model.gram[0]) == s] if i == 0 else stable
        for i in model.I
    ]


def gsp_product_filter(model):
    """The former GSp point loop, kept as the reference: F_{-i} completed
    as the annihilator of F_i, every slot tested for N-stability, then
    the transitions and the wrap."""
    maps = model.T + [model.T_wrap]
    for combo in itertools.product(*label_candidates(model)):
        sub = dict(zip(model.I, combo))
        for i in model.I:
            if i > 0:
                sub[-i] = linalg.perp(sub[i], model.gram[i])
        if all(stable_under(s, model.N) for s in sub.values()):
            chain = [[sub[t]] for t in model.slots]
            if any(product_filter(model.slots, maps, chain)):
                yield sub


def gsp_product_loop(model, maps, cands, grams):
    """The former GSp branch of latmod._points, kept as the reference: the
    full product over the labels of I, each F_{-i} derived as perp(F_i)
    per product, then the transitions and the wrap."""
    for combo in itertools.product(*cands):
        chosen = dict(zip(model.I, combo))
        for i in model.I:
            if i > 0:
                chosen[-i] = linalg.perp(chosen[i], grams[i])
        chain = [[chosen[t]] for t in model.slots]
        if any(product_filter(model.slots, maps, chain)):
            yield ChainPoint(model, chosen)


def product_level_ok(model, j, level):
    """The former per-level check: the chain conditions, then for GSp the
    isotropy conditions."""
    chain = [[level[t]] for t in model.slots]
    if not any(product_filter(model.slots, model.T + [model.T_wrap], chain)):
        return False
    if model.kind == "GSp" and j < model.e:
        npow = FieldMatrix.identity(model.field, model.dim)
        for _ in range(model.e - j):
            npow = model.N @ npow
        for i in model.I:
            a, b = level[i], level[-i]
            g = model.gram[i]
            prod = (a.basis @ g.array % model.field.p) @ b.basis.T % model.field.p
            if prod.any():
                return False
            if not linalg.image(npow, linalg.perp(b, g.transpose())).leq(a):
                return False
            if not linalg.image(npow, linalg.perp(a, g)).leq(b):
                return False
    return True


def product_flag_search(model, top):
    """The former flag search, kept as the reference: at each level the
    full product of the per-slot options, recomputed for every slot,
    filtered by product_level_ok."""
    labels = list(model.slots)

    def descend(j, stack):
        if j == 0:
            yield {t: tuple(reversed(stack[t])) for t in labels}
            return
        per_slot = []
        for t in labels:
            upper = stack[t][-1]
            lower = linalg.image(model.N, upper)
            target = model.level_rank(j)
            opts = []
            if lower.dim <= target:
                for cand in linalg.subspaces_between(lower, upper, target):
                    img = linalg.image(model.N, cand)
                    if img.dim > model.level_rank(j - 1) or (j == 1 and img.dim > 0):
                        continue
                    opts.append(cand)
            per_slot.append(opts)
        for combo in itertools.product(*per_slot):
            level = dict(zip(labels, combo))
            if not product_level_ok(model, j, level):
                continue
            for t in labels:
                stack[t].append(level[t])
            yield from descend(j - 1, stack)
            for t in labels:
                stack[t].pop()

    yield from descend(model.e - 1, {t: [top.subspaces[t]] for t in labels})


def meet_signature(pt):
    """The former signature, kept as the reference: every L_t and every
    Pi^n Lambda_{t'} built as a subspace of the common ambient
    A = Pi^-1 Lambda_max / Pi^e Lambda_min, and intersected with meet."""
    model = pt.model
    first, last = model.slots[0], model.slots[-1]
    top = {sym: a - 1 for sym, a in model.slot_basis[last]}
    bot = {sym: a + model.e for sym, a in model.slot_basis[first]}
    index = {}
    for sym in sorted(top):
        for a in range(top[sym], bot[sym]):
            index[(sym, a)] = len(index)

    def vector(sym, a):
        v = np.zeros(len(index), dtype=np.int64)
        v[index[(sym, a)]] = 1
        return v

    def lattice(label, n):  # Pi^n Lambda_label
        rows = [
            vector(sym, b)
            for sym, a in model.slot_basis[label]
            for b in range(max(a + n, top[sym]), bot[sym])
        ]
        return Subspace.from_rows(model.field, len(index), np.asarray(rows))

    def chain_subspace(label):  # L = F + Pi^e Lambda_label
        basis = model.slot_basis[label]
        rows = []
        for row in pt.subspaces[label].basis:
            v = np.zeros(len(index), dtype=np.int64)
            for m, (sym, a) in enumerate(basis):
                for j in range(model.e):
                    c = row[model.coord(m, j)]
                    if c and a + j < bot[sym]:
                        v[index[(sym, a + j)]] += c
            rows.append(v % model.field.p)
        rows += [vector(sym, b) for sym, a in basis for b in range(a + model.e, bot[sym])]
        return Subspace.from_rows(model.field, len(index), np.asarray(rows))

    chains = {t: chain_subspace(t) for t in model.slots}
    return tuple(
        meet(chains[t], lattice(t2, n)).dim
        for t in model.slots
        for t2 in model.slots
        for n in range(-1, model.e + 1)
    )


def column_rank_signature(pt):
    """The former column-rank signature, kept as the reference: each rank
    taken with linalg.rank of the int64 basis restricted to the columns."""
    model = pt.model
    out = []
    for t, plan in zip(model.slots, model.signature_plan):
        basis = pt.subspaces[t].basis
        for cols, offset in plan:
            out.append(len(basis) + offset - linalg.rank(FieldMatrix(model.field, basis[:, cols])))
    return tuple(out)


def standard_signatures(model):
    """{signature: [classes]} over the standard points of adm(mu) that fit
    the model, mu the coweight verify strata uses."""
    mu = _mu_from_model(model)
    out = {}
    for c in adm_set(ParahoricSpec(mu.datum, frozenset(model.I)), mu).classes:
        try:
            sp = standard_point(c.min_rep, model)
        except IncompatibleElement:
            continue
        out.setdefault(signature(sp), []).append(c)
    return out


def sweep_models(kind, size, es, p):
    """Every model of the group over every I and, for GL, every multiset
    of ranks (the signatures see only the ranks' sum and mu)."""
    labels = range(size) if kind == "GL" else range(size + 1)
    for k in range(1, len(labels) + 1):
        for I in itertools.combinations(labels, k):
            for e in es:
                if kind == "GSp":
                    yield build_model(kind, size, e, set(I), p)
                    continue
                for r_vec in itertools.combinations_with_replacement(range(size + 1), e):
                    yield build_model(kind, size, e, set(I), p, r_vec)


def gl_models_e2_p2():
    for d, r_vecs in ((2, [(1, 1), (2, 0), (1, 0)]), (3, [(1, 1), (2, 1)])):
        for k in range(1, d + 1):
            for I in itertools.combinations(range(d), k):
                for r_vec in r_vecs:
                    yield build_model("GL", d, 2, set(I), 2, r_vec)


class TestBuildModel:
    def test_gl2_shape(self):
        m = gl2_model()
        assert len(m.slots) == 1 and m.dim == 4
        assert linalg.rank(m.N) == 2
        assert (m.N @ m.N).array.tolist() == [[0] * 4] * 4

    def test_gl2_e1_two_slots(self):
        m = build_model("GL", 2, 1, {0, 1}, 3, (1,))
        assert len(m.slots) == 2 and m.dim == 2
        assert not m.N.array.any()
        assert linalg.rank(m.T[0]) == 1

    def test_gsp1_gram_perfect_alternating(self):
        m = build_model("GSp", 1, 2, {0}, 3)
        g = m.gram[0].array
        assert linalg.rank(m.gram[0]) == 4
        assert np.array_equal(g.T, (-g) % 3)
        assert not g.diagonal().any()

    def test_every_gsp_pairing_is_alternating(self):
        # every GSp(g) chain with g <= 3, e <= 4, p <= 7 (p not dividing e)
        # and every I: each pairing of slots i, -i is alternating
        checked = 0
        for g, e, p in itertools.product((1, 2, 3), (1, 2, 3, 4), (2, 3, 5, 7)):
            if e % p == 0:
                continue
            for k in range(1, g + 2):
                for I in itertools.combinations(range(g + 1), k):
                    for gram in build_model("GSp", g, e, set(I), p).gram.values():
                        a = gram.array
                        assert np.array_equal(a.T, -a % p) and not a.diagonal().any()
                        checked += 1
        assert checked == 624

    def test_non_alternating_pairing_raises(self, monkeypatch):
        # with e = 1, N = 0 is adjoint for any pairing, so only the
        # alternation check can refuse the identity pairing at slot 1
        gram = latmod.ChainModel._gram

        def identity_at_one(self, i):
            return FieldMatrix.identity(self.field, self.dim) if i == 1 else gram(self, i)

        monkeypatch.setattr(latmod.ChainModel, "_gram", identity_at_one)
        build_model("GSp", 1, 1, {0}, 3)
        with pytest.raises(ChainInvariantError, match="pairing at 1 is not alternating"):
            build_model("GSp", 1, 1, {0, 1}, 3)

    def test_wild_ramification(self):
        with pytest.raises(WildRamification):
            build_model("GSp", 1, 2, {0}, 2)

    @pytest.mark.parametrize("kind,size,I,r_vec", [("GL", 2, {0}, (1, 1)), ("GSp", 1, {0, 1}, None)])
    def test_broken_invariant_raises_typed_error(self, kind, size, I, r_vec):
        m = build_model(kind, size, 2, I, 3, r_vec)
        m.N = FieldMatrix.identity(m.field, m.dim)  # N^e = 1, not 0
        with pytest.raises(ChainInvariantError) as err:
            m._check_invariants()
        assert isinstance(err.value, ArtifactError)
        assert "N^e" in str(err.value)

    def test_bad_ranks(self):
        with pytest.raises(BadRanks):
            build_model("GL", 2, 2, {0}, 2, (3, 0))
        with pytest.raises(BadRanks):
            build_model("GL", 2, 2, {0}, 2, (1,))
        with pytest.raises(BadRanks):
            build_model("GL", 2, 2, set(), 2, (1, 1))
        with pytest.raises(BadRanks):
            build_model("GSp", 1, 3, {0}, 2, (0, 1, 1))


class TestNaive:
    @pytest.mark.parametrize("p,expected", [(2, 7), (3, 13)])
    def test_frozen_gl2(self, p, expected):
        assert sum(1 for _ in naive_points(gl2_model(p))) == expected

    def test_rank_independent_of_split(self):
        pts1 = set(naive_points(gl2_model(2, (1, 1))))
        pts2 = {
            ChainPoint(gl2_model(2, (2, 0)), pt.subspaces)
            for pt in naive_points(gl2_model(2, (2, 0)))
        }
        assert {p.as_tuple() for p in pts1} == {p.as_tuple() for p in pts2}

    def test_gl2_iwahori_e1_matches_weyl_count(self):
        # Independent oracle: sum q^l over the admissible strata.
        m = build_model("GL", 2, 1, {0, 1}, 3, (1,))
        s = adm_set(
            ParahoricSpec(GL2, frozenset({0, 1})), Coweight(GL2, (1, 0))
        )
        assert sum(1 for _ in naive_points(m)) == total_count(s, 3)

    def test_gl2_grassmannian_matches_weyl_count(self):
        s = adm_set(ParahoricSpec(GL2, frozenset({0})), Coweight(GL2, (2, 0)))
        for p in (2, 3):
            assert sum(1 for _ in naive_points(gl2_model(p))) == total_count(s, p)

    def test_rank_zero(self):
        m = build_model("GL", 2, 2, {0}, 2, (0, 0))
        assert sum(1 for _ in naive_points(m)) == 1

    @pytest.mark.parametrize("model", list(gl_models_e2_p2()), ids=repr)
    def test_backtracking_equals_product_filter(self, model):
        # same points in the same order, for one slot (wrap only) and more
        cands = label_candidates(model)
        expected = list(product_filter(model.slots, model.T + [model.T_wrap], cands))
        got = [pt.subspaces for pt in naive_points(model)]
        assert got == expected
        assert [list(s) for s in got] == [list(s) for s in expected]
        # the slots share one candidate list, equal to the Grassmannian filter
        assert all(c == grassmannian_filter(model, False) for c in cands)

    @pytest.mark.parametrize(
        "e,I,p", [(2, {0}, 3), (2, {1}, 3), (2, {0, 1}, 3), (2, {0, 1}, 5), (3, {0, 1}, 2)]
    )
    def test_gsp_points_equal_product_filter(self, e, I, p):
        model = build_model("GSp", 1, e, I, p)
        got = [pt.subspaces for pt in naive_points(model)]
        expected = list(gsp_product_filter(model))
        assert got == expected
        assert [list(s) for s in got] == [list(s) for s in expected]


    @pytest.mark.parametrize(
        "size,e,I,p",
        [(2, 1, {0, 1, 2}, 2), (1, 2, {0, 1}, 3), (1, 3, {0, 1}, 2), (2, 1, {0, 2}, 3), (2, 1, {1}, 5)],
        ids=str,
    )
    def test_gsp_backtracking_equals_product_loop(self, size, e, I, p):
        # the same ordered points, each with the same key order; GSp(4)
        # at Iwahori level has 59 points among 15 * 35 * 35 products
        model = build_model("GSp", size, e, I, p)
        maps = model.T + [model.T_wrap]
        cands = label_candidates(model)
        expected = [pt.subspaces for pt in gsp_product_loop(model, maps, cands, model.gram)]
        got = [pt.subspaces for pt in naive_points(model)]
        assert got == expected
        assert [list(s) for s in got] == [list(s) for s in expected]

    def test_gsp_budget_counts_combinations(self):
        # I = {0, 1}: all 13 options of F_0 are visited, and under each
        # only the options of F_1 that contain T(F_0), read from the
        # containment table: 25 of the 13 * 13 pairs, each a point
        model = build_model("GSp", 1, 2, {0, 1}, 3)
        maps = model.T + [model.T_wrap]
        assert [len(c) for c in label_candidates(model)] == [13, 13]
        stable = linalg.stable_subspaces(model.N, model.rank)
        pts = list(latmod._points(model, maps, stable, model.gram, Budget(13 + 25)))
        assert len(pts) == 25
        with pytest.raises(BudgetExceeded):
            list(latmod._points(model, maps, stable, model.gram, Budget(13 + 25 - 1)))

    @pytest.mark.parametrize(
        "size,e,I,p", [(1, 2, {0, 1}, 3), (2, 1, {0, 1, 2}, 2), (2, 2, {1}, 3)], ids=str
    )
    def test_gsp_unramified_equals_product_loop(self, size, e, I, p):
        model = build_model("GSp", size, e, I, p)
        maps = mod_p_maps(model)
        gram = latmod._mod_p_gram(model)
        opts = list(linalg.enumerate_subspaces(model.D, size, model.field))
        cands = [[s for s in opts if linalg.perp(s, gram) == s] if i == 0 else opts for i in model.I]
        grams = dict.fromkeys(model.I, gram)
        expected = [pt.subspaces for pt in gsp_product_loop(model, maps, cands, grams)]
        for l in range(1, e + 1):
            got = [pt.subspaces for pt in unramified_points(model, l)]
            assert got == expected
            assert [list(s) for s in got] == [list(s) for s in expected]


class TestChainIndex:
    @pytest.mark.parametrize(
        "kind,size,e,I,p,r_vec",
        [
            ("GL", 2, 2, {0, 1}, 3, (1, 1)),
            ("GL", 3, 2, {0, 1, 2}, 2, (1, 1)),
            ("GL", 3, 2, {0, 2}, 3, (2, 1)),
            ("GL", 4, 1, {0, 1, 3}, 2, (2,)),
            ("GL", 4, 2, {0, 2}, 2, (1, 1)),
            ("GL", 2, 3, {0, 1}, 3, (1, 1, 0)),
            ("GSp", 1, 2, {0, 1}, 3, None),
            ("GSp", 1, 3, {0, 1}, 2, None),
            ("GSp", 2, 1, {0, 1, 2}, 2, None),
            ("GSp", 2, 1, {1, 2}, 3, None),
            ("GSp", 2, 1, {0, 2}, 3, None),
            ("GSp", 1, 2, {0, 1}, 5, None),
        ],
        ids=str,
    )
    def test_indexed_chains_equal_trial_chains(self, kind, size, e, I, p, r_vec, monkeypatch):
        # every call of _chains from the naive and unramified points, with
        # its options read from the containment table, yields the chains
        # of the loop that tests every option, in the same order and with
        # the same key order
        calls = []
        chains = latmod._chains

        def spy(maps, slots, labels, choices, budget, index=None):
            got = list(chains(maps, slots, labels, choices, budget, index))
            expected = list(trial_chains(maps, slots, labels, choices))
            calls.append(index is not None)
            assert [list(c.items()) for c in got] == [list(c.items()) for c in expected]
            return iter(got)

        monkeypatch.setattr(latmod, "_chains", spy)
        model = build_model(kind, size, e, I, p, r_vec)
        assert list(naive_points(model))
        for l in range(1, e + 1):
            list(unramified_points(model, l))
        assert len(calls) == 1 + e and all(calls)

    @pytest.mark.parametrize("kind,size,e,I,p,r_vec", [("GL", 2, 2, {0, 1}, 3, (1, 1)), ("GSp", 1, 2, {0, 1}, 3, None)])
    def test_table_bits_are_containment(self, kind, size, e, I, p, r_vec):
        # bit j of a vector's entry is set iff the vector lies in option j,
        # for every vector of F_p^n whose first nonzero entry is 1
        model = build_model(kind, size, e, I, p, r_vec)
        opts = linalg.stable_subspaces(model.N, model.rank)
        table = latmod._containment_table(opts, p)
        for v in itertools.product(range(p), repeat=model.dim):
            if not any(v) or v[next(i for i, x in enumerate(v) if x)] != 1:
                continue
            line = Subspace.from_rows(model.field, model.dim, [v])
            bits = table.get(latmod._code(v, p), 0)
            assert [bits >> j & 1 for j in range(len(opts))] == [int(line.leq(o)) for o in opts], v

    def test_codes_past_int64(self):
        # 13^18 passes 2^63: the table's codes are Python ints, equal to
        # _code, and each row's bits are still containment
        field = linalg.Field(13)
        rng = np.random.default_rng(5)
        opts = [Subspace.from_rows(field, 18, rng.integers(0, 13, (2, 18))) for _ in range(6)]
        assert all(o.dim == 2 for o in opts)
        table = latmod._containment_table(opts, 13)
        for o in opts:
            r0, r1 = o.rows
            # the vectors of o whose first nonzero entry is 1
            for v in [r1] + [tuple((a + c * b) % 13 for a, b in zip(r0, r1)) for c in range(13)]:
                line = Subspace.from_rows(field, 18, [v])
                bits = table[latmod._code(v, 13)]
                assert [bits >> j & 1 for j in range(len(opts))] == [int(line.leq(x)) for x in opts]

    def test_image_in_no_option_visits_none(self):
        # the row of F_a = <e_1> lies in no option of slot b, so the table
        # has no entry for it and no option of b is visited
        field = linalg.Field(2)
        x, y = (Subspace.from_rows(field, 2, [row]) for row in ([1, 0], [0, 1]))
        maps = [FieldMatrix.identity(field, 2)] * 2
        labels, choices = [("a",), ("b",)], [[(x,)], [(y,)]]
        budget = Budget()
        index = [None, latmod._containment_table([y], 2)]
        assert list(latmod._chains(maps, ["a", "b"], labels, choices, budget, index)) == []
        assert list(trial_chains(maps, ["a", "b"], labels, choices)) == []
        assert budget.spent == 1

    def test_paired_annihilators_formed_on_first_visit(self, monkeypatch):
        # GSp(4) e=1 Iwahori at p=2: each of the paired labels 1 and 2 has
        # 35 options, and F_{-i} = perp(F_i) is formed only for the options
        # the backtracker visits, once each: 54 annihilators, not 2 x 35
        calls = []
        perp = linalg.perp
        monkeypatch.setattr(linalg, "perp", lambda sub, gram: calls.append((sub, gram)) or perp(sub, gram))
        model = build_model("GSp", 2, 1, {0, 1, 2}, 2)
        points = list(naive_points(model))
        assert (len(points), len(calls)) == (59, 54)
        assert len({(sub, id(gram)) for sub, gram in calls}) == 54
        for pt in points:
            assert all(pt.subspaces[-i] == perp(pt.subspaces[i], model.gram[i]) for i in (1, 2))

    def test_one_label_builds_no_table(self, monkeypatch):
        def built(*args):
            raise AssertionError("built a containment table for one label")

        monkeypatch.setattr(latmod, "_containment_table", built)
        assert len(list(naive_points(build_model("GL", 4, 2, {0}, 2, (1, 1))))) == 155
        assert len(list(naive_points(build_model("GSp", 1, 2, {0}, 3)))) == 13


class TestStableSubspaces:
    """stable_subspaces against the Grassmannian filter: the same list in
    the same order (Subspace equality compares the RREF key)."""

    @pytest.mark.parametrize(
        "kind,size,e,I,p,r_vec",
        [
            ("GL", 2, 2, {0}, 2, (1, 1)),
            ("GL", 2, 2, {0}, 3, (1, 1)),
            ("GL", 2, 2, {0}, 5, (1, 1)),
            ("GL", 2, 2, {0}, 3, (2, 0)),
            ("GL", 2, 3, {0, 1}, 2, (1, 1, 0)),
            ("GL", 3, 2, {0}, 2, (1, 1)),
            ("GL", 3, 2, {0}, 2, (2, 1)),
            ("GL", 3, 1, {0, 1, 2}, 5, (1,)),
            ("GL", 4, 2, {0}, 2, (1, 1)),
            ("GSp", 1, 2, {0, 1}, 3, None),
            ("GSp", 1, 2, {0}, 5, None),
            ("GSp", 1, 3, {0}, 2, None),
            ("GSp", 2, 1, {0, 1, 2}, 2, None),
            ("GSp", 2, 1, {0, 2}, 3, None),
            ("GSp", 2, 1, {1}, 5, None),
        ],
        ids=str,
    )
    def test_slot_candidates_equal_filter(self, kind, size, e, I, p, r_vec):
        model = build_model(kind, size, e, I, p, r_vec)
        got = label_candidates(model)
        assert linalg.stable_subspaces(model.N, model.rank) == grassmannian_filter(model, False)
        labels = model.slots if kind == "GL" else model.I
        keys = [kind == "GSp" and label == 0 for label in labels]
        assert got == [grassmannian_filter(model, key) for key in keys]

    @pytest.mark.parametrize(
        "kind,size,e,p,r_vec",
        [
            ("GL", 2, 2, 3, (1, 1)),
            ("GL", 2, 3, 2, (1, 1, 0)),
            ("GL", 3, 2, 2, (1, 1)),
            ("GSp", 1, 2, 3, None),
        ],
        ids=str,
    )
    def test_every_dimension(self, kind, size, e, p, r_vec):
        model = build_model(kind, size, e, {0}, p, r_vec)
        for k in range(model.dim + 1):
            assert linalg.stable_subspaces(model.N, k) == grassmannian_filter(model, False, k)

    def test_cumulative_budget(self):
        # GL(2) e=2 p=2: 3 lines in ker N, then 1 + 3 * 3 planes are
        # examined; no single subspaces_between call goes over 3.
        model = gl2_model(2)
        assert len(linalg.stable_subspaces(model.N, 2, budget=Budget(13))) == 7
        with pytest.raises(BudgetExceeded):
            linalg.stable_subspaces(model.N, 2, budget=Budget(12))
        with pytest.raises(BudgetExceeded):
            list(naive_points(model, budget=Budget(3)))


class TestLagrangian:
    @pytest.mark.parametrize("g,e,p", [(1, 2, 3), (1, 2, 5), (1, 3, 2), (2, 1, 2), (2, 1, 3), (2, 2, 3)], ids=str)
    def test_isotropy_equals_self_annihilation(self, g, e, p):
        # _points keeps the F_0 options that are isotropic, of half the
        # dimension, so Lagrangian: those equal to their annihilator
        model = build_model("GSp", g, e, {0}, p)
        lists = [linalg.stable_subspaces(model.N, model.rank)]
        if model.dim <= 6:  # every stable option is Lagrangian for g = 1, not every subspace
            lists.append(list(enumerate_subspaces(model.dim, model.rank, model.field)))
        for subspaces in lists:
            isotropic = [linalg.isotropic(s, model.gram[0]) for s in subspaces]
            assert isotropic == [linalg.perp(s, model.gram[0]) == s for s in subspaces]
            assert any(isotropic)
        assert not all(isotropic)


class TestSplitting:
    @pytest.mark.parametrize("p", [2, 3])
    def test_frozen_gl2_count(self, p):
        assert sum(1 for _ in splitting_points(gl2_model(p))) == (p + 1) ** 2

    def test_tops_are_naive(self):
        m = gl2_model(2)
        naive = set(naive_points(m))
        for fp in splitting_points(m):
            assert fp.top() in naive
            f1, f2 = fp.flags[0]
            assert f1.leq(f2)
            assert not linalg.image(m.N, f1).dim

    def test_canonical_r11_is_all_of_naive(self):
        m = gl2_model(2, (1, 1))
        assert set(canonical_points(m)) == set(naive_points(m))

    def test_canonical_r20_single_point(self):
        m = gl2_model(2, (2, 0))
        naive = list(naive_points(m))
        canon = list(canonical_points(m))
        assert len(naive) == 7 and len(canon) == 1
        # the surviving point is ker N with the flag forced to F1 = F2
        ker = linalg.preimage(m.N, Subspace.zero(m.field, m.dim))
        assert canon[0].subspaces[0] == ker
        flags = list(latmod._flag_search(m, canon[0], Budget()))
        assert flags == [{0: (ker, ker)}]

    def test_flag_condition_operator_span_invariance(self):
        # replacing N by N + N^2 changes no splitting flag
        m = build_model("GL", 2, 3, {0}, 2, (1, 1, 1))
        m2 = copy.copy(m)
        m2.N = FieldMatrix(m.field, m.N.array + (m.N @ m.N).array)
        a = {fp.as_tuple() for fp in splitting_points(m)}
        b = {fp.as_tuple() for fp in splitting_points(m2)}
        assert a == b


    @pytest.mark.parametrize(
        "kind,size,e,I,p,r_vec",
        [
            ("GL", 2, 2, {0}, 2, (1, 1)),
            ("GL", 2, 2, {0}, 3, (2, 0)),
            ("GL", 2, 3, {0, 1}, 3, (1, 1, 0)),
            ("GL", 2, 3, {0}, 2, (1, 1, 1)),
            ("GL", 3, 2, {0, 1}, 2, (1, 1)),
            ("GL", 3, 2, {0, 1, 2}, 2, (2, 1)),
            ("GSp", 1, 2, {0}, 3, None),
            ("GSp", 1, 2, {0, 1}, 3, None),
            ("GSp", 1, 2, {1}, 5, None),
            ("GSp", 1, 3, {0, 1}, 2, None),
        ],
        ids=str,
    )
    def test_flag_search_equals_product_search(self, kind, size, e, I, p, r_vec):
        # the same ordered flags, and the same answer for every naive point
        model = build_model(kind, size, e, I, p, r_vec)
        naive = list(naive_points(model))
        expected = [flags for pt in naive for flags in product_flag_search(model, pt)]
        assert [fp.flags for fp in splitting_points(model)] == expected
        fresh = build_model(kind, size, e, I, p, r_vec)
        assert [has_splitting_flag(ChainPoint(fresh, pt.subspaces)) for pt in naive] == [
            any(product_flag_search(model, pt)) for pt in naive
        ]

    def test_level_memo_is_per_model(self):
        m = gl2_model(2)
        assert m.memo == {}
        total = sum(1 for _ in splitting_points(m))
        assert m.memo and gl2_model(2).memo == {}
        # a second pass reads the memo and finds the same flags
        assert sum(1 for _ in splitting_points(m)) == total == 9
        # classifying memoises one signature part per (slot, subspace)
        assert not any(key[0] == "signature" for key in m.memo)
        s = adm_set(ParahoricSpec(GL2, frozenset({0})), Coweight(GL2, (2, 0)))
        pts = list(canonical_points(m))
        assert classify_strata(pts, s, m).passed
        parts = {key[1:] for key in m.memo if key[0] == "signature"}
        assert {(0, pt.subspaces[0]) for pt in pts} <= parts
        assert all(signature(pt) == meet_signature(pt) for pt in pts)

    @pytest.mark.parametrize("I,p", [({0, 1}, 3), ({0}, 5), ({1}, 5)], ids=str)
    def test_memoised_annihilators_equal_fresh_perp(self, I, p):
        # every annihilator the flag search memoised equals perp under a
        # freshly built pairing of the slots t and -t
        m = build_model("GSp", 1, 2, I, p)
        assert sum(1 for _ in splitting_points(m)) > 0
        anns = {key[1:]: ann for key, ann in m.memo.items() if key[0] == "perp"}
        assert anns and {t for t, _ in anns} == set(m.slots)
        for (t, sub), ann in anns.items():
            gram = m.gram[abs(t)].array
            fresh = FieldMatrix(m.field, gram.T.copy() if t < 0 else gram.copy())
            assert linalg.perp(sub, fresh) == ann
            assert latmod._annihilator(m, t, sub) is ann


class TestUnramified:
    def test_frozen_gl2_lines(self):
        m = gl2_model(2)
        for l in (1, 2):
            assert sum(1 for _ in unramified_points(m, l)) == 3

    @pytest.mark.parametrize("model", list(gl_models_e2_p2()), ids=repr)
    def test_backtracking_equals_product_filter(self, model):
        slots = model.slots
        maps = mod_p_maps(model)
        for l, r in enumerate(model.r_vec, start=1):
            opts = list(linalg.enumerate_subspaces(model.D, r, model.field))
            expected = list(product_filter(slots, maps, [opts] * len(slots)))
            assert [pt.subspaces for pt in unramified_points(model, l)] == expected

    def test_bad_level(self):
        with pytest.raises(BadRanks):
            list(unramified_points(gl2_model(2), 3))

    def test_residue_maps_equal_slot_basis_maps(self):
        # every GL(2..4) and GSp(1..3) chain with e <= 3 and every I
        checked = 0
        for kind, sizes in (("GL", (2, 3, 4)), ("GSp", (1, 2, 3))):
            for size, e in itertools.product(sizes, (1, 2, 3)):
                labels = range(size) if kind == "GL" else range(size + 1)
                for k in range(1, len(labels) + 1):
                    for I in itertools.combinations(labels, k):
                        r_vec = (1,) * e if kind == "GL" else None
                        model = build_model(kind, size, e, I, 5, r_vec)
                        expected = mod_p_maps(model)
                        assert latmod._residue_maps(model) == expected
                        checked += len(expected)
        assert checked == 390

    @pytest.mark.parametrize("p", [2, 3])
    def test_torsor_gl2(self, p):
        rep = torsor_check(gl2_model(p))
        assert rep.passed
        assert rep.splitting_total == (p + 1) ** 2
        assert rep.unramified_factors == (p + 1, p + 1)

    def test_torsor_gl2_iwahori_e1(self):
        rep = torsor_check(build_model("GL", 2, 1, {0, 1}, 3, (1,)))
        assert rep.passed

    @pytest.mark.parametrize("p", [3, 5])
    def test_torsor_gsp1(self, p):
        rep = torsor_check(build_model("GSp", 1, 2, {0}, p))
        assert rep.passed


class TestStandardPoint:
    def test_frozen_central(self):
        m = gl2_model(2)
        pt = standard_point(translation(GL2, (1, 1)), m)
        ker = linalg.preimage(m.N, Subspace.zero(m.field, m.dim))
        assert pt.subspaces[0] == ker

    def test_frozen_generic(self):
        m = gl2_model(2)
        pt = standard_point(translation(GL2, (2, 0)), m)
        # R*e_1: coordinates (e_1, pi e_1)
        expected = Subspace.from_rows(m.field, 4, [[1, 0, 0, 0], [0, 1, 0, 0]])
        assert pt.subspaces[0] == expected

    def test_elementary_divisor_type(self):
        # the standard point of t_lam is the module sum of R/pi^{lam_i}
        m = gl2_model(3)
        for lam in [(2, 0), (1, 1), (0, 2)]:
            pt = standard_point(translation(GL2, lam), m)
            f = pt.subspaces[0]
            assert f.dim == sum(min(x, m.e) for x in lam)
            assert linalg.image(m.N, f).dim == sum(
                max(min(x, m.e) - 1, 0) for x in lam
            )

    def test_standard_points_are_naive(self):
        m = gl2_model(2)
        naive = set(naive_points(m))
        s = adm_set(ParahoricSpec(GL2, frozenset({0})), Coweight(GL2, (2, 0)))
        for c in s.classes:
            assert standard_point(c.min_rep, m) in naive

    def test_rank_mismatch(self):
        with pytest.raises(IncompatibleElement):
            standard_point(translation(GL2, (1, 0)), gl2_model(2))

    def test_group_mismatch(self):
        with pytest.raises(IncompatibleElement):
            standard_point(translation(GSP1, (1, 1)), gl2_model(2))


class TestStrata:
    @pytest.mark.parametrize("p", [2, 3])
    def test_frozen_gl2_decomposition(self, p):
        m = gl2_model(p)
        spec = ParahoricSpec(GL2, frozenset({0}))
        s = adm_set(spec, Coweight(GL2, (2, 0)))
        rep = classify_strata(canonical_points(m), s, m)
        assert rep.passed
        got = {c.min_rep.lam: n for c, n in rep.rows}
        assert got == {(2, 0): p * p + p, (1, 1): 1}
        for c, n in rep.rows:
            assert n == stratum_count(c, p)

    def test_gl2_iwahori_e1_strata(self):
        m = build_model("GL", 2, 1, {0, 1}, 3, (1,))
        spec = ParahoricSpec(GL2, frozenset({0, 1}))
        s = adm_set(spec, Coweight(GL2, (1, 0)))
        rep = classify_strata(naive_points(m), s, m)
        assert rep.passed
        assert len(rep.rows) == 3
        for c, n in rep.rows:
            assert n == stratum_count(c, 3)

    def test_unmatched_points_detected(self):
        m = gl2_model(2)
        spec = ParahoricSpec(GL2, frozenset({0}))
        s = adm_set(spec, Coweight(GL2, (1, 1)))
        rep = classify_strata(naive_points(m), s, m)
        assert rep.unmatched == 6 and not rep.passed

    @pytest.mark.parametrize(
        "d,e,I,p,r_vec",
        [
            (2, 2, {0}, 2, (1, 1)),
            (2, 2, {0}, 3, (2, 0)),
            (2, 1, {0, 1}, 3, (1,)),
            (2, 3, {0, 1}, 2, (1, 1, 0)),
            (3, 1, {0, 1, 2}, 2, (1,)),
            (3, 2, {0}, 2, (1, 1)),
        ],
        ids=str,
    )
    def test_orbits_agree_with_signatures(self, d, e, I, p, r_vec):
        # the orbits of the chain automorphisms are the strata
        m = build_model("GL", d, e, I, p, r_vec)
        mu = _mu_from_model(m)
        s = adm_set(ParahoricSpec(mu.datum, frozenset(m.I)), mu)
        pts = list(canonical_points(m))
        by_sig = classify_strata(pts, s, m)
        by_orbit = classify_by_orbits(pts, s, m)
        assert dict(by_sig.rows) == dict(by_orbit.rows)
        assert by_orbit.unmatched == by_sig.unmatched == 0

    @pytest.mark.parametrize("kind,size", [("GL", 2), ("GSp", 1)])
    def test_collision_raises(self, kind, size, monkeypatch):
        m = build_model(kind, size, 2, {0}, 3, (1, 1) if kind == "GL" else None)
        mu = _mu_from_model(m)
        s = adm_set(ParahoricSpec(mu.datum, frozenset(m.I)), mu)
        monkeypatch.setattr(latmod, "signature", lambda pt: ())
        with pytest.raises(SignatureCollision):
            classify_strata(canonical_points(m), s, m)

    @pytest.mark.parametrize("p", [3, 5])
    def test_gsp1_canonical_strata_match_admissible(self, p):
        m = build_model("GSp", 1, 2, {0}, p)
        spec = ParahoricSpec(GSP1, frozenset({0}))
        s = adm_set(spec, Coweight(GSP1, (2, 2)))
        rep = classify_strata(canonical_points(m), s, m)
        assert rep.passed
        assert {c for c, _ in rep.rows} == set(s.classes)
        for c, n in rep.rows:
            assert n == stratum_count(c, p)
        maximal = s.maximal_classes()
        assert len(maximal) == 1


class TestSignatures:
    @pytest.mark.parametrize(
        "kind,size,e,I,p,r_vec",
        [
            ("GL", 2, 2, {0}, 2, (1, 1)),
            ("GL", 2, 3, {0, 1}, 2, (1, 1, 0)),
            ("GL", 2, 3, {1}, 5, (2, 1, 0)),
            ("GL", 3, 2, {0, 1, 2}, 2, (1, 1)),
            ("GL", 3, 2, {0, 1}, 3, (2, 1)),
            ("GL", 3, 1, {0, 2}, 5, (1,)),
            ("GL", 4, 2, {0}, 2, (1, 1)),
            ("GL", 4, 1, {0, 1, 3}, 2, (2,)),
            ("GSp", 1, 2, {0, 1}, 3, None),
            ("GSp", 1, 2, {0}, 5, None),
            ("GSp", 1, 3, {0, 1}, 2, None),
            ("GSp", 2, 1, {0, 1, 2}, 2, None),
        ],
        ids=str,
    )
    def test_column_ranks_equal_meet(self, kind, size, e, I, p, r_vec):
        model = build_model(kind, size, e, I, p, r_vec)
        pts = list(naive_points(model))
        assert pts
        for pt in pts:
            assert signature(pt) == meet_signature(pt)
        # points share slot subspaces, so some parts came from the memo
        parts = sum(1 for key in model.memo if key[0] == "signature")
        assert parts < len(pts) * len(model.slots) or len(model.slots) == 1

    @pytest.mark.parametrize(
        "kind,size,e,I,p,r_vec,naive",
        [
            ("GL", 3, 2, {0, 1, 2}, 2, (1, 1), 400),
            ("GL", 4, 2, {0}, 2, (1, 1), 400),
            ("GL", 2, 3, {0}, 2, (1, 1, 1), 400),
            ("GSp", 1, 2, {0, 1}, 3, None, 400),
            ("GSp", 2, 2, {0}, 3, None, 0),  # its naive points take seconds
        ],
        ids=str,
    )
    def test_row_slice_ranks_equal_array_ranks(self, kind, size, e, I, p, r_vec, naive):
        # every standard point of the model, its images under eight random
        # chain automorphisms and the first few naive points
        model = build_model(kind, size, e, I, p, r_vec)
        mu = _mu_from_model(model)
        std = []
        for c in adm_set(ParahoricSpec(mu.datum, frozenset(model.I)), mu).classes:
            try:
                std.append(standard_point(c.min_rep, model))
            except IncompatibleElement:
                continue
        rng = np.random.default_rng(11)
        autos = [random_chain_automorphism(model, rng) for _ in range(8)]
        pts = std + [apply_chain_automorphism(g, pt) for g in autos for pt in std]
        pts += itertools.islice(naive_points(model), naive)
        assert len(std) > 1
        for pt in pts:
            assert signature(pt) == column_rank_signature(pt)

    # (kind, size, e values, models): every I and every multiset of ranks
    SWEEP = [
        ("GL", 2, (1, 2, 3), 57),
        ("GL", 3, (1, 2, 3), 238),
        ("GL", 4, (1, 2), 300),
        ("GSp", 1, (1, 2, 3), 9),
        ("GSp", 2, (1, 2, 3), 21),
        pytest.param(
            "GL", 4, (3,), 525,
            marks=extended("GL(4) e=3 sweep (about 30 s): set LOCMODEL_EXTENDED=1"),
        ),
    ]

    @pytest.mark.parametrize("kind,size,es,expected", SWEEP, ids=str)
    def test_standard_points_have_distinct_signatures(self, kind, size, es, expected):
        # classify_strata raises SignatureCollision on a shared signature
        models = list(sweep_models(kind, size, es, 5 if kind == "GSp" else 2))
        assert len(models) == expected
        for model in models:
            sigs = standard_signatures(model)
            assert sigs
            shared = [cs for cs in sigs.values() if len(cs) > 1]
            assert not shared, (model, [[c.min_rep for c in cs] for cs in shared])


class TestSignatureInvariance:
    @pytest.mark.parametrize(
        "model,draws",
        [
            (build_model("GL", 2, 2, {0}, 2, (1, 1)), 60),
            (build_model("GL", 2, 1, {0, 1}, 3, (1,)), 40),
        ],
        ids=["gl2-e2", "gl2-e1-iwahori"],
    )
    def test_random_automorphisms_preserve_signatures(self, model, draws):
        rng = np.random.default_rng(7)
        pts = list(naive_points(model))
        naive = set(pts)
        for _ in range(draws):
            g = random_chain_automorphism(model, rng)
            pt = pts[int(rng.integers(len(pts)))]
            moved = apply_chain_automorphism(g, pt)
            assert moved in naive
            assert signature(moved) == signature(pt)


def lattice_exps(model, label, w=None, shift=0):
    """Exponent profile {symbol: min exponent} of (the geometric action
    of w on) a slot lattice, optionally multiplied by pi^shift."""
    fshift = 0 if model.kind == "GL" else 1 - model.e
    out = {}
    for sym, a in model.slot_basis[label]:
        if w is not None:
            sym, a = latmod._act_on_lattice_vector(w, sym, a, fshift)
        a += shift
        out[sym] = min(a, out.get(sym, a))
    return out


def chain_member(model, k):
    """Exponent profile of the k-th member of the doubly infinite chain
    (position t of slot t); for GSp the top slot repeats the bottom one
    up to pi, so the period is one shorter than the slot count."""
    labels = list(model.slots)
    period = labels[:-1] if model.kind == "GSp" and len(labels) > 1 else labels
    q, r = divmod(k, len(period))
    return lattice_exps(model, period[r], shift=-q)


class TestOmegaChainRotation:
    """The length-zero generator rotates the Iwahori chain: each member
    moves up by one step for GL and by g steps for GSp (the duality
    shift)."""

    @pytest.mark.parametrize(
        "kind,size,e,p",
        [
            ("GL", 2, 2, 2),
            ("GL", 3, 1, 3),
            ("GSp", 1, 2, 3),
            ("GSp", 2, 2, 3),
            ("GSp", 1, 3, 2),
        ],
    )
    def test_rotation(self, kind, size, e, p):
        datum = RootDatum(kind, size)
        I = set(datum.vertex_labels)
        model = build_model(
            kind, size, e, I, p, (1,) * e if kind == "GL" else None
        )
        tau = omega_generator(datum)
        shift = 1 if kind == "GL" else size
        if kind == "GSp":
            # the chain closes up: bottom slot = pi * top slot
            assert chain_member(model, 0) == lattice_exps(
                model, model.slots[-1], shift=1
            )
        for t, label in enumerate(model.slots):
            moved = lattice_exps(model, label, w=tau)
            assert moved == chain_member(model, t + shift)
