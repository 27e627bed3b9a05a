"""Tests for admissible/permissible sets and stratum counts."""

import ast
import inspect
import itertools
import math
import textwrap
from fractions import Fraction
from operator import add, sub

import pytest
from hypothesis import given, settings, strategies as st

from locmodel import admissible, errors, latmod, linalg, matschemes, weyl
from locmodel.admissible import (
    AdmissibleSet,
    DoubleCoset,
    adm_set,
    conv_membership,
    perm_set,
    poincare_quotient,
    stratum_count,
)
from locmodel.errors import ArtifactError, Budget, BudgetExceeded, InvalidIndex
from locmodel.weyl import (
    Coweight,
    ParahoricSpec,
    RootDatum,
    WeylElement,
    _no_descent_in,
    _window,
    alcove_vertices,
    bruhat_ideal,
    finite,
    kappa,
    length,
    translation,
)

from reference import (
    cover_ideal,
    descent_mask,
    double_coset,
    downset,
    enumerate_below,
    extended,
    length_descents,
    omega_generator,
    poincare_polynomial,
    pool_perm_set,
    solve_exact,
    total_count,
)

GL2 = RootDatum("GL", 2)
GL3 = RootDatum("GL", 3)
GL4 = RootDatum("GL", 4)
GSP1 = RootDatum("GSp", 1)
GSP2 = RootDatum("GSp", 2)
GSP3 = RootDatum("GSp", 3)


def iwahori(datum):
    return ParahoricSpec(datum, frozenset(datum.vertex_labels))


def spec0(datum):
    return ParahoricSpec(datum, frozenset({0}))


class TestAdmSet:
    def test_frozen_gl2_iwahori(self):
        s = adm_set(iwahori(GL2), Coweight(GL2, (1, 0)))
        assert {c.min_rep for c in s.classes} == {
            translation(GL2, (1, 0)),
            translation(GL2, (0, 1)),
            omega_generator(GL2),
        }

    @pytest.mark.parametrize("d,expected", [(2, 3), (3, 7), (4, 15), (5, 31)])
    def test_drinfeld_counts(self, d, expected):
        datum = RootDatum("GL", d)
        mu = Coweight(datum, (1,) + (0,) * (d - 1))
        assert len(adm_set(iwahori(datum), mu)) == expected

    def test_central_mu_single_class(self):
        for I in ({0}, {1}, {0, 1}):
            s = adm_set(ParahoricSpec(GL2, frozenset(I)), Coweight(GL2, (1, 1)))
            assert len(s) == 1

    def test_downward_closed(self):
        s = adm_set(iwahori(GL3), Coweight(GL3, (1, 1, 0)))
        all_min_reps = {c.min_rep for c in s.classes}
        for c in s.classes:
            below = [
                double_coset(x, s.spec)
                for x in enumerate_below(c.min_rep)
            ]
            for d in below:
                assert d.min_rep in all_min_reps

    def test_maximal_classes_are_orbit_translations(self):
        spec = iwahori(GL3)
        mu = Coweight(GL3, (1, 1, 0))
        s = adm_set(spec, mu)
        expected = {double_coset(translation(GL3, lam), spec) for lam in mu.orbit()}
        assert set(s.maximal_classes()) == expected

    def test_grassmannian_case_matches_majorization(self):
        # For I={0} the classes are exactly the dominant lam <= mu.
        spec = spec0(GL3)
        mu = Coweight(GL3, (2, 1, 0))
        s = adm_set(spec, mu)
        dominant = [
            lam
            for lam in itertools.product(range(-1, 4), repeat=3)
            if sorted(lam, reverse=True) == list(lam) and sum(lam) == 3
        ]
        expected = {
            double_coset(translation(GL3, lam), spec)
            for lam in dominant
            if conv_membership(lam, mu)
        }
        assert s.classes == expected


class TestConvMembership:
    def test_vertex(self):
        assert conv_membership((1, 0), Coweight(GL2, (1, 0)))

    def test_midpoint(self):
        assert conv_membership((Fraction(1, 2), Fraction(1, 2)), Coweight(GL2, (1, 0)))

    def test_outside(self):
        assert not conv_membership((2, -1), Coweight(GL2, (1, 0)))

    def test_wrong_sum(self):
        assert not conv_membership((1, 1), Coweight(GL2, (1, 0)))

    def test_gsp_vertex_and_center(self):
        mu = Coweight(GSP2, (2, 2, 2))
        assert conv_membership((2, 2, 2), mu)
        assert conv_membership((0, 2, 2), mu)
        assert conv_membership((1, 1, 2), mu)
        assert not conv_membership((3, 1, 2), mu)
        assert not conv_membership((1, 1, 1), mu)

    def test_gsp_fractional(self):
        mu = Coweight(GSP1, (1, 1))
        assert conv_membership((Fraction(1, 3), 1), mu)
        assert not conv_membership((Fraction(4, 3), 1), mu)


def caratheodory_oracle(y, mu):
    """y in Conv(W_0 mu) by exact feasibility over affinely independent
    subsets of the enumerated orbit (Caratheodory): exponential, but it
    uses nothing of the dominance criterion it checks.  The orbit spans
    an affine space of dimension m - 1 (the similitude is constant), so
    subsets of at most m points suffice."""
    y = tuple(Fraction(v) for v in y)
    points = [tuple(Fraction(v) for v in pt) for pt in mu.orbit()]
    m = len(y)
    for size in range(1, m + 1):
        for subset in itertools.combinations(points, size):
            rows = [[pt[r] for pt in subset] for r in range(m)]
            rows.append([Fraction(1)] * size)
            try:
                coeffs = solve_exact(rows, list(y) + [Fraction(1)])
            except InvalidIndex:
                continue
            if all(t >= 0 for t in coeffs):
                return True
    return False


# Orbits of at most 12 points keep the oracle's subset search small.
GSP_MUS = [
    Coweight(GSP1, (1, 1)),
    Coweight(GSP1, (2, 2)),
    Coweight(GSP1, (3, 1)),
    Coweight(GSP2, (1, 1, 1)),
    Coweight(GSP2, (2, 2, 2)),
    Coweight(GSP2, (3, 1, 2)),
    Coweight(GSP2, (3, 0, 2)),
    Coweight(GSP3, (1, 1, 1, 1)),
    Coweight(GSP3, (2, 1, 0, 2)),
    Coweight(GSP3, (2, 2, 1, 2)),
]

GL_MUS = [
    Coweight(GL2, (1, 0)),
    Coweight(GL2, (3, -1)),
    Coweight(GL3, (1, 1, 0)),
    Coweight(GL3, (2, 1, 0)),
    Coweight(GL4, (2, 1, 1, 0)),
]

_rationals = st.fractions(min_value=-2, max_value=4, max_denominator=4)


class TestTypeCHull:
    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(GSP_MUS), st.lists(_rationals, min_size=3, max_size=3))
    def test_agrees_with_caratheodory(self, mu, coords):
        # A point off the similitude level c is rejected by both at once
        # (test_gsp_vertex_and_center); the search is over the level.
        y = tuple(coords[: mu.datum.n]) + (mu.value[-1],)
        assert conv_membership(y, mu) == caratheodory_oracle(y, mu)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(GSP_MUS), st.data())
    def test_convex_combinations_are_inside(self, mu, data):
        orbit = mu.orbit()
        weights = data.draw(st.lists(st.integers(0, 3), min_size=len(orbit), max_size=len(orbit)))
        if not any(weights):
            weights[0] = 1
        total = sum(weights)
        y = tuple(
            sum(Fraction(w, total) * pt[i] for w, pt in zip(weights, orbit))
            for i in range(mu.datum.coord_len)
        )
        assert conv_membership(y, mu)
        assert caratheodory_oracle(y, mu)


class TestScaledHull:
    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.sampled_from([1, 2, 3]))
    def test_scaling_both_sides(self, data, D):
        # y in Conv(W_0 mu) iff D y in Conv(W_0 D mu); y is put on the
        # level of mu (coordinate sum for GL, similitude for GSp) so the
        # dominance test itself decides
        mu = data.draw(st.sampled_from(GSP_MUS + GL_MUS))
        head = data.draw(st.lists(_rationals, min_size=mu.datum.n, max_size=mu.datum.n))
        if mu.datum.kind == "GL":
            y = tuple(head[:-1]) + (sum(mu.value) - sum(head[:-1]),)
        else:
            y = tuple(head) + (mu.value[-1],)
        scaled = Coweight(mu.datum, tuple(D * v for v in mu.value))
        assert conv_membership(tuple(D * v for v in y), scaled) == conv_membership(y, mu)


class TestPermSet:
    def test_frozen_gl2_iwahori(self):
        spec = iwahori(GL2)
        mu = Coweight(GL2, (1, 0))
        assert perm_set(spec, mu).classes == adm_set(spec, mu).classes

    def test_central(self):
        spec = spec0(GL2)
        s = perm_set(spec, Coweight(GL2, (1, 1)))
        assert {c.min_rep for c in s.classes} == {translation(GL2, (1, 1))}

    def test_gl3_grassmannian(self):
        spec = spec0(GL3)
        mu = Coweight(GL3, (1, 1, 0))
        s = perm_set(spec, mu)
        assert s.classes == {double_coset(translation(GL3, (1, 1, 0)), spec)}

    @pytest.mark.parametrize(
        "datum,mu_value,I",
        [
            (GL2, (1, 0), {0}),
            (GL2, (2, 0), {0}),
            (GL3, (1, 1, 0), {0, 1}),
            (GSP1, (2, 2), {0}),
            (GSP1, (1, 1), {0, 1}),
            (GSP2, (1, 1, 1), {0, 1, 2}),
        ],
    )
    def test_adm_equals_perm_spot_checks(self, datum, mu_value, I):
        spec = ParahoricSpec(datum, frozenset(I))
        mu = Coweight(datum, mu_value)
        assert adm_set(spec, mu).classes == perm_set(spec, mu).classes


    @pytest.mark.parametrize(
        "datum,mu_value",
        [(GL2, (1, 0)), (GL3, (2, 1, 0)), (GL4, (2, 2, 0, 0)), (GL4, (3, 1, 0, -1)),
         (GSP1, (2, 2)), (GSP2, (1, 1, 1)), (GSP3, (2, 2, 2, 2))],
    )
    def test_hull_points_equal_box_filter(self, datum, mu_value):
        mu = Coweight(datum, mu_value)
        for D in (1, 2):
            lo, hi = admissible._coordinate_bounds(mu, D)
            tail = (D * mu_value[-1],) if datum.kind == "GSp" else ()
            scaled = Coweight(datum, tuple(D * v for v in mu_value))
            box = {
                head + tail
                for head in itertools.product(range(lo, hi + 1), repeat=datum.n)
                if conv_membership(head + tail, scaled)
            }
            (points, by_residue), size = admissible._hull_points(mu, D)
            assert points == box and size == len(box)
            assert sorted(y for group in by_residue.values() for y in group) == sorted(box)

    def test_spends_hull_points_per_finite_part(self):
        # the 19 integer points of Conv(S_4 (2, 2, 0, 0)), once for each u
        budget = Budget()
        perm_set(iwahori(GL4), Coweight(GL4, (2, 2, 0, 0)), budget)
        assert budget.spent == 19 * 24

    @pytest.mark.parametrize("datum,mu_value", [(GL3, (2, 1, 0)), (GSP2, (2, 2, 2))])
    def test_displacement_table_order_and_cache(self, datum, mu_value, cold_memo):
        # the memoised per-(datum, I) table gives the same classes whatever
        # ran before, and the same as a table built afresh
        mu = Coweight(datum, mu_value)
        specs = list(every_I(datum))
        forward = {spec: perm_set(spec, mu).classes for spec in specs}
        assert {key[1] for key in cold_memo if key[0] is admissible._displacement_table} == set(specs)
        backward = {spec: perm_set(spec, mu).classes for spec in reversed(specs)}
        fresh = {}
        for spec in specs:
            cold_memo.clear()
            fresh[spec] = perm_set(spec, mu).classes
        assert forward == backward == fresh
        assert all(forward.values())


def ideal_key(datum, mu_value):
    return (admissible._ideal, Coweight(datum, mu_value))


def hull_key(datum, mu_value, D=1):
    return (admissible._hull_points, Coweight(datum, mu_value), D)


def table_key(spec):
    return (admissible._displacement_table, spec)


class TestMemo:
    """The one memo of the ideals, hulls and displacement tables."""

    def test_spend_does_not_depend_on_history(self, cold_memo):
        mu = Coweight(GL3, (2, 1, 0))
        spent = []
        for spec in (spec0(GL3), iwahori(GL3), spec0(GL3)):
            budget = Budget()
            adm_set(spec, mu, budget)
            spent.append(budget.spent)
        assert list(cold_memo) == [ideal_key(GL3, (2, 1, 0))]
        assert spent[0] > 0 and spent == [spent[0]] * 3

    def test_budget_exceeded_leaves_no_entry(self, cold_memo):
        mu = Coweight(GL3, (2, 1, 0))
        with pytest.raises(BudgetExceeded):
            adm_set(spec0(GL3), mu, Budget(10))
        assert not cold_memo
        budget = Budget()
        adm_set(spec0(GL3), mu, budget)
        assert cold_memo
        adm_set(iwahori(GL3), mu, Budget(budget.spent))
        with pytest.raises(BudgetExceeded):
            adm_set(iwahori(GL3), mu, Budget(budget.spent - 1))

    def test_least_recently_used_entry_goes_first(self, cold_memo, monkeypatch):
        sizes = {}
        for mu_value in ((1, 0, 0), (1, 1, 0), (2, 1, 0)):
            budget = Budget()
            adm_set(spec0(GL3), Coweight(GL3, mu_value), budget)
            sizes[mu_value] = budget.spent
        cold_memo.clear()
        monkeypatch.setattr(errors, "_MEMO_CAP", sizes[(1, 0, 0)] + sizes[(2, 1, 0)])
        for mu_value in ((1, 0, 0), (1, 1, 0), (1, 0, 0), (2, 1, 0)):
            budget = Budget()
            adm_set(spec0(GL3), Coweight(GL3, mu_value), budget)
            assert budget.spent == sizes[mu_value]  # hit or miss alike
        # (1, 1, 0) was used least recently, so it made room for (2, 1, 0)
        assert list(cold_memo) == [ideal_key(GL3, (1, 0, 0)), ideal_key(GL3, (2, 1, 0))]

    def test_entry_over_the_cap_is_not_stored(self, cold_memo, monkeypatch):
        monkeypatch.setattr(errors, "_MEMO_CAP", 10)
        adm_set(spec0(GL3), Coweight(GL3, (1, 0, 0)), Budget())
        budget = Budget()
        s = adm_set(spec0(GL3), Coweight(GL3, (2, 1, 0)), budget)
        assert budget.spent > 10 and len(s) > 0
        assert list(cold_memo) == [ideal_key(GL3, (1, 0, 0))]

    def test_kinds_share_one_eviction_order(self, cold_memo, monkeypatch):
        # the ideal of (1, 0, 0) has 7 elements, its hull 3 points, and the
        # table of GL(3) one element per finite part, 6
        mu = Coweight(GL3, (1, 0, 0))
        adm_set(spec0(GL3), mu)
        perm_set(spec0(GL3), mu)
        assert {key: size for key, (_, size, _) in cold_memo.items()} == {
            ideal_key(GL3, (1, 0, 0)): 7,
            table_key(spec0(GL3)): 6,
            hull_key(GL3, (1, 0, 0)): 3,
        }
        monkeypatch.setattr(errors, "_MEMO_CAP", 16)
        adm_set(spec0(GL3), mu)  # a hit: the ideal moves past the table and the hull
        # the Iwahori table needs room for 6: the least recently used entry,
        # the table of I = {0}, makes it, and the hull is a hit
        perm_set(iwahori(GL3), mu)
        assert list(cold_memo) == [ideal_key(GL3, (1, 0, 0)), table_key(iwahori(GL3)), hull_key(GL3, (1, 0, 0))]

    def test_hull_over_the_cap_is_not_stored(self, cold_memo, monkeypatch):
        # the 6 points of Conv(S_2 (5, 0)) do not fit under a cap of 5, the
        # table of GL(2), 2 elements, does
        mu = Coweight(GL2, (5, 0))
        classes = perm_set(iwahori(GL2), mu).classes
        cold_memo.clear()
        monkeypatch.setattr(errors, "_MEMO_CAP", 5)
        assert perm_set(iwahori(GL2), mu).classes == classes
        assert list(cold_memo) == [table_key(iwahori(GL2))]

    def test_gl_sweep_stays_under_the_cap(self, cold_memo):
        # every GL(2..5) ideal of at most three minuscule terms: 103,825
        # elements in 121 ideals, of which the memo keeps the latest
        total = 0
        for datum in (GL2, GL3, GL4, RootDatum("GL", 5)):
            for mu_value in minuscule_sums(datum, 3):
                budget = Budget()
                adm_set(spec0(datum), Coweight(datum, mu_value), budget)
                total += budget.spent
        assert total == 103_825
        assert sum(size for _, size, _ in cold_memo.values()) <= errors._MEMO_CAP < total
        assert list(cold_memo)[-1] == ideal_key(RootDatum("GL", 5), minuscule_sums(RootDatum("GL", 5), 3)[-1])


class TestDoubleCoset:
    def test_hash_and_equality(self):
        x, y = translation(GL3, (1, 0, 0)), translation(GL3, (0, 0, 1))
        a = DoubleCoset(spec0(GL3), x)
        assert a == DoubleCoset(spec0(GL3), WeylElement.of_window(GL3, x.w))
        assert hash(a) == hash(x)
        assert a != DoubleCoset(iwahori(GL3), x)
        assert a != DoubleCoset(spec0(GL3), y)
        assert a != x


def minuscule_sums(datum, max_terms):
    """omega_{r_1} + ... + omega_{r_k}, k <= max_terms; e * mu_1 for GSp."""
    if datum.kind == "GSp":
        return [(e,) * datum.n + (e,) for e in range(1, max_terms + 1)]
    d = datum.n
    out = set()
    for k in range(1, max_terms + 1):
        for combo in itertools.combinations_with_replacement(range(d + 1), k):
            out.add(tuple(sum(1 for r in combo if i < r) for i in range(d)))
    return sorted(out)


def every_I(datum):
    labels = list(datum.vertex_labels)
    for k in range(1, len(labels) + 1):
        for I in itertools.combinations(labels, k):
            yield ParahoricSpec(datum, frozenset(I))


_EXTENDED = extended("GL(4) and GSp(3): set LOCMODEL_EXTENDED=1")
_EXTENDED_GENERATOR = extended("GL(5) and GSp(4) at every I: set LOCMODEL_EXTENDED=1")


def omega_classes(mu: Coweight):
    """The orbit of mu in classes under the coordinate move that conjugation
    by the length-zero generator makes on a translation t_lam: the cyclic
    shift lam -> (lam_d, lam_1, ..., lam_d-1) for GL(d), and
    (v; c) -> (c - v_g, ..., c - v_1; c) for GSp(g)."""
    if mu.datum.kind == "GL":
        move = lambda lam: lam[-1:] + lam[:-1]
    else:
        move = lambda lam: tuple(lam[-1] - v for v in reversed(lam[:-1])) + lam[-1:]
    classes, seen = [], set()
    for lam in mu.orbit():
        if lam not in seen:
            cls = [lam]
            while (lam := move(lam)) != cls[0]:
                cls.append(lam)
            seen.update(cls)
            classes.append(cls)
    return classes


def sweep_coweights():
    """Every coweight of the adm-perm-sweep benchmark families, and samples
    from GL(5) and GSp(4)."""
    families = ((GL2, 3), (GL3, 3), (GL4, 2), (GSP1, 2), (GSP2, 2))
    out = [(datum, mu) for datum, k in families for mu in minuscule_sums(datum, k)]
    out += [(GSP3, (1, 1, 1, 1))]
    out += [(RootDatum("GL", 5), mu) for mu in ((1, 1, 0, 0, 0), (2, 1, 0, 0, 0), (2, 1, 1, 0, 0), (2, 2, 1, 1, 0))]
    out += [(RootDatum("GSp", 4), mu) for mu in ((1, 1, 1, 1, 1), (2, 1, 1, 1, 2), (2, 2, 2, 2, 2))]
    return out


_FRONTIER = extended("GL(6) and C4 ideals against the cover search (about 35 s): set LOCMODEL_EXTENDED=1")


class TestOmegaIdeal:
    """_ideal grows one top per class of the conjugation by Omega and
    carries lengths and descent masks to the conjugates; the checks here
    use no Omega code of the library."""

    @pytest.mark.parametrize(
        "datum,mu_value",
        sweep_coweights()
        + [
            pytest.param(RootDatum("GL", 6), (3, 2, 1, 0, 0, 0), marks=_FRONTIER),
            pytest.param(RootDatum("GSp", 4), (2, 1, 1, 1, 0), marks=_FRONTIER),
        ],
        ids=lambda v: f"{v.kind}{v.n}" if isinstance(v, RootDatum) else ",".join(map(str, v)),
    )
    def test_equals_every_top_grown_and_cover_search(self, datum, mu_value, monkeypatch):
        mu = Coweight(datum, mu_value)
        tops = [translation(datum, lam) for lam in mu.orbit()]
        grown = []
        grow = admissible.bruhat_ideal
        monkeypatch.setattr(admissible, "bruhat_ideal", lambda tops, budget: grown.extend(tops) or grow(tops, budget))
        budget = Budget()
        ideal, size = admissible._ideal(mu, budget)
        elements = {x for x, _ in ideal}
        assert len(elements) == len(ideal) == size == budget.spent
        assert elements == bruhat_ideal(tops) == cover_ideal(tops)
        # one top per class, its first member in the sorted orbit
        assert [t.lam for t in grown] == [cls[0] for cls in omega_classes(mu)]
        for x, mask in ideal:
            assert mask == descent_mask(x), x
            assert length(x) == length(WeylElement.of_window(datum, x.w)), x

    @pytest.mark.parametrize(
        "datum,mu_value,tops,grown",
        [(GL4, (2, 1, 1, 0), 12, 3), (GL4, (1, 1, 0, 0), 6, 2), (GSP3, (1, 1, 1, 1), 8, 4), (GSP2, (1, 0, 1), 4, 3)],
        ids=str,
    )
    def test_grown_tops(self, datum, mu_value, tops, grown):
        # (1, 1, 0, 0) has a class of two, (1, 0, 1, 0) and (0, 1, 0, 1);
        # (1, 0; 1) and (0, 1; 1) are classes of one, and no member of the
        # GSp(6) orbit is fixed: v_2 = 1 - v_2 has no integer root
        mu = Coweight(datum, mu_value)
        assert (mu.orbit_size(), len(omega_classes(mu))) == (tops, grown)

    @pytest.mark.parametrize(
        "datum,mu_value",
        [(GL2, (2, 0)), (GL3, (2, 1, 0)), (GL4, (2, 1, 1, 0)), (GSP1, (2, 2)), (GSP2, (2, 1, 2)), (GSP3, (1, 1, 1, 1))],
        ids=str,
    )
    def test_budget_edge_on_a_cold_memo(self, datum, mu_value, cold_memo):
        # every element, grown or conjugated, spends one unit when it joins:
        # a cold call returns at |ideal| units and raises at one fewer
        mu = Coweight(datum, mu_value)
        n = len(bruhat_ideal([translation(datum, lam) for lam in mu.orbit()]))
        for spec in (iwahori(datum), spec0(datum)):
            with pytest.raises(BudgetExceeded):
                adm_set(spec, mu, Budget(n - 1))
            assert not cold_memo
            budget = Budget(n)
            adm_set(spec, mu, budget)
            assert budget.spent == n
            cold_memo.clear()


class TestAgainstReference:
    """perm_set against the pool filter over every element of length
    <= l(t_mu) + 1, and the classes of adm_set against the greedy
    coset_min of every down-set element, at every I."""

    @pytest.mark.parametrize(
        "datum,max_terms",
        [
            (GL2, 3),
            (GL3, 3),
            (GSP1, 2),
            (GSP2, 2),
            pytest.param(GL4, 3, marks=_EXTENDED),
            pytest.param(GSP3, 2, marks=_EXTENDED),
        ],
        ids=lambda v: f"{v.kind}{v.n}" if isinstance(v, RootDatum) else str(v),
    )
    def test_sets_equal_reference(self, datum, max_terms):
        for mu_value in minuscule_sums(datum, max_terms):
            mu = Coweight(datum, mu_value)
            memo, below = {}, set()
            for lam in mu.orbit():
                below |= downset(translation(datum, lam), memo)
            for spec in every_I(datum):
                expected = {double_coset(x, spec) for x in below}
                assert adm_set(spec, mu).classes == expected, (mu_value, spec.I)
                assert perm_set(spec, mu).classes == pool_perm_set(spec, mu).classes, (mu_value, spec.I)


class TestAdmFilter:
    """adm_set reads the descents of each ideal element from the memo entry,
    stored once per mu."""

    @pytest.mark.parametrize(
        "datum,max_terms",
        [(GL2, 3), (GL3, 3), (GL4, 2), (GSP1, 2), (GSP2, 2), (GSP3, 2)],
        ids=lambda v: f"{v.kind}{v.n}" if isinstance(v, RootDatum) else str(v),
    )
    def test_equals_descent_filter_at_every_I(self, datum, max_terms):
        # the elements of the lifting recursion's ideal with no left and no
        # right descent in W_I, the descents found by comparing lengths of
        # products
        for mu_value in minuscule_sums(datum, max_terms):
            mu = Coweight(datum, mu_value)
            memo, below = {}, set()
            for lam in mu.orbit():
                below |= downset(translation(datum, lam), memo)
            descents = {x: left | right for x in below for left, right in [length_descents(x)]}
            for spec in every_I(datum):
                gens = sum(1 << j for j in spec.generator_indices)
                expected = {DoubleCoset(spec, x) for x, mask in descents.items() if not mask & gens}
                assert adm_set(spec, mu).classes == expected, (mu_value, spec.I)

    def test_memo_hit_forms_no_inverse(self, cold_memo, monkeypatch):
        # the first call stores the masks; the later ones, at every I,
        # form no inverse window
        mu = Coweight(GSP2, (2, 2, 2))
        specs = list(every_I(GSP2))
        expected = [adm_set(spec, mu).classes for spec in specs]

        def inverse(w):
            raise AssertionError("formed an inverse window")

        monkeypatch.setattr(admissible, "_inverse", inverse)
        monkeypatch.setattr(weyl, "_inverse", inverse)
        assert [adm_set(spec, mu).classes for spec in specs] == expected


def filter_perm_set(spec, mu, budget=None):
    """The permissible set by the filter perm_set generates from: for each
    finite part u, every hull point y whose residues make lam integral is
    one candidate, spent per u, and the window of t_lam u is formed and
    put to _no_descent_in whenever the other vertices of I pass.  It stays
    here, not in reference.py, because it runs the window kernel."""
    budget = budget or Budget()
    datum = spec.datum
    verts = alcove_vertices(datum)
    D = math.lcm(*(v.denominator for a in verts.values() for v in a))
    first_i, *rest_i = [tuple(int(D * v) for v in verts[i]) for i in sorted(spec.I)]
    (points, by_residue), _ = admissible._hull_points(mu, D)
    gens = tuple(spec.generator_indices)
    classes = set()
    for u in datum.finite_elements():
        first = tuple(map(sub, datum.act_coweight(u, first_i), first_i))
        rest = [tuple(map(sub, datum.act_coweight(u, A), A)) for A in rest_i]
        candidates = by_residue.get(tuple(v % D for v in first), ())
        budget.spend(len(candidates), "displacement candidates")
        for y in candidates:
            moved = tuple(map(sub, y, first))  # D lam
            if not all(tuple(map(add, moved, shift)) in points for shift in rest):
                continue
            w = _window(datum, tuple(v // D for v in moved), u)
            if _no_descent_in(w, gens):
                classes.add(DoubleCoset(spec, WeylElement.of_window(datum, w)))
    return AdmissibleSet(spec, mu, frozenset(classes))


class TestPermGenerator:
    """perm_set forms only the candidates that can be double-minimal; the
    filter it replaced gives the same classes for the same spend."""

    def assert_same_as_filter(self, spec, mu):
        generated, filtered = Budget(), Budget()
        assert perm_set(spec, mu, generated).classes == filter_perm_set(spec, mu, filtered).classes, (
            mu.value,
            sorted(spec.I),
        )
        assert generated.spent == filtered.spent

    @pytest.mark.parametrize(
        "datum,max_terms",
        [
            (RootDatum("GL", 1), 3),
            (GL2, 3),
            (GL3, 3),
            (GL4, 3),
            (GSP1, 3),
            (GSP2, 3),
            (GSP3, 2),
            pytest.param(RootDatum("GL", 5), 3, marks=_EXTENDED_GENERATOR),
            pytest.param(RootDatum("GSp", 4), 2, marks=_EXTENDED_GENERATOR),
        ],
        ids=lambda v: f"{v.kind}{v.n}" if isinstance(v, RootDatum) else str(v),
    )
    def test_equals_filter_at_every_I(self, datum, max_terms):
        for mu_value in minuscule_sums(datum, max_terms):
            for spec in every_I(datum):
                self.assert_same_as_filter(spec, Coweight(datum, mu_value))

    def test_type_c4_pin(self):
        # the first case where Perm exceeds Adm: 8,479 permissible classes
        datum = RootDatum("GSp", 4)
        spec, mu = iwahori(datum), Coweight(datum, (3, 2, 2, 2, 3))
        self.assert_same_as_filter(spec, mu)
        assert (len(adm_set(spec, mu)), len(perm_set(spec, mu))) == (8351, 8479)

    @extended("GSp(8) Iwahori adm and perm (about 8 s each): set LOCMODEL_EXTENDED=1")
    @pytest.mark.parametrize(
        "mu_value,sizes", [((2, 1, 1, 1, 0), (47863, 48375)), ((2, 1, 1, 0, 0), (38053, 38445))], ids=str
    )
    def test_type_c4_findings(self, mu_value, sizes):
        # two more coweights where Perm exceeds Adm (compare-adm-perm exits
        # 1 on both), each with Adm inside Perm
        datum = RootDatum("GSp", 4)
        spec, mu = iwahori(datum), Coweight(datum, mu_value)
        adm, perm = adm_set(spec, mu), perm_set(spec, mu)
        assert (len(adm), len(perm)) == sizes
        assert adm.classes < perm.classes

    def test_spends_before_forming_any_candidate(self, monkeypatch):
        # the whole spend is made at once, so an exceeded budget forms nothing
        def formed(w, gens):
            raise AssertionError("formed a candidate")

        monkeypatch.setattr(admissible, "_no_descent_in", formed)
        with pytest.raises(BudgetExceeded):
            perm_set(iwahori(GL4), Coweight(GL4, (2, 2, 0, 0)), Budget(19 * 24 - 1))

    def test_names_no_admissible_machinery(self, monkeypatch):
        # Perm is computed on its own, never from Adm's ideal: its source
        # names none of the ideal's machinery, and with the ideal stored in
        # the shared memo and spoilt, it looks up only tables and hulls and
        # finds the same classes
        source = textwrap.dedent(inspect.getsource(admissible.perm_set))
        names = {node.id for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Name)}
        names |= {node.attr for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Attribute)}
        assert not names & {"adm_set", "bruhat_ideal", "_ideal"}
        assert "_no_descent_in" in names

        makes = []

        class Spy(dict):
            def pop(self, key, *default):
                makes.append(key[0])
                return super().pop(key, *default)

            def get(self, key, *default):
                makes.append(key[0])
                return super().get(key, *default)

            def __getitem__(self, key):
                makes.append(key[0])
                return super().__getitem__(key)

        mu = Coweight(GL3, (2, 1, 0))
        expected = {spec: perm_set(spec, mu).classes for spec in every_I(GL3)}
        memo = Spy()
        monkeypatch.setattr(errors, "_MEMO", memo)
        adm_set(spec0(GL3), mu)
        memo[ideal_key(GL3, (2, 1, 0))] = (None, 0, 0)  # spoilt: any use of it fails
        makes.clear()
        assert {spec: perm_set(spec, mu).classes for spec in every_I(GL3)} == expected
        assert set(makes) == {admissible._displacement_table, admissible._hull_points}


class TestModuleState:
    def test_one_memo_and_no_lru_cache(self):
        # the package keeps its reused tables in errors._MEMO alone; the
        # layers that use it keep none of their own
        def state(module):
            return sorted(
                name
                for name, value in vars(module).items()
                if not name.startswith("__") and (isinstance(value, (dict, list, set)) or hasattr(value, "cache_info"))
            )

        assert state(errors) == ["_MEMO"]
        for module in (admissible, weyl, linalg, latmod, matschemes):
            assert state(module) == []
            assert "lru_cache" not in inspect.getsource(module)


class TestStratumCounts:
    def test_central_class(self):
        c = double_coset(translation(GL2, (1, 1)), spec0(GL2))
        assert stratum_count(c, 2) == 1
        assert stratum_count(c, 5) == 1

    def test_frozen_2_0_class(self):
        c = double_coset(translation(GL2, (2, 0)), spec0(GL2))
        for q in (2, 3, 5):
            assert stratum_count(c, q) == q**2 + q

    def test_iwahori_class_single_cell(self):
        spec = iwahori(GL3)
        x = translation(GL3, (1, 1, 0))
        c = double_coset(x, spec)
        assert stratum_count(c, 3) == 3 ** length(x)

    @pytest.mark.parametrize("q", [1, 0, -3])
    def test_q_below_2_is_rejected(self, q):
        # sum q^l is a point count only over a field, so q >= 2
        c = double_coset(translation(GL2, (1, 0)), spec0(GL2))
        with pytest.raises(ArtifactError):
            stratum_count(c, q)

    @pytest.mark.parametrize("q", [6, 10, 12, 100])
    def test_q_not_a_prime_power_is_rejected(self, q):
        # nor is it one when q is not a prime power
        c = double_coset(translation(GL2, (1, 0)), spec0(GL2))
        with pytest.raises(ArtifactError):
            stratum_count(c, q)

    @pytest.mark.parametrize("q", [2, 4, 8, 9, 25, 27])
    def test_prime_powers_are_fields(self, q):
        c = double_coset(translation(GL2, (2, 0)), spec0(GL2))
        assert stratum_count(c, q) == q**2 + q

    @pytest.mark.parametrize(
        "datum,mu_value",
        [
            (GL2, (2, 0)),
            (GL3, (2, 1, 0)),
            (GL4, (2, 1, 1, 0)),
            (RootDatum("GL", 5), (1, 1, 0, 0, 0)),
            pytest.param(
                RootDatum("GL", 5),
                (2, 1, 1, 1, 0),
                marks=extended("GL(5), 1,621 classes (about 2 s): set LOCMODEL_EXTENDED=1"),
            ),
            (GSP1, (2, 2)),
            (GSP2, (1, 1, 1)),
            (GSP2, (2, 1, 2)),
            (GSP3, (1, 1, 1, 1)),
            (GSP3, (2, 1, 1, 2)),
        ],
        ids=lambda v: f"{v.kind}{v.n}" if isinstance(v, RootDatum) else str(v),
    )
    def test_poincare_quotient_is_the_stratum_count(self, datum, mu_value):
        # all members over the Poincare polynomial of W_I, at every I
        mu = Coweight(datum, mu_value)
        for spec in every_I(datum):
            for c in adm_set(spec, mu).classes:
                for q in (2, 3, 4):
                    assert poincare_quotient(c, q) == stratum_count(c, q), (c, q)

    def test_poincare_quotient_remainder_is_none(self, monkeypatch):
        # the minimal member read at length 0 instead of 1 leaves the
        # remainder 2 mod 1 + q
        c = double_coset(translation(GL2, (2, 0)), spec0(GL2))
        assert length(c.min_rep) == 1 and poincare_quotient(c, 2) == 6
        monkeypatch.setattr(admissible, "length", lambda z: 0 if z == c.min_rep else length(z))
        assert poincare_quotient(c, 2) is None

    def test_poincare_quotient_spends_the_members(self):
        # |W_I|^2 = 2^2 products, all spent before the first is formed
        c = double_coset(translation(GL2, (2, 0)), spec0(GL2))
        budget = Budget(4)
        poincare_quotient(c, 2, budget)
        assert budget.spent == 4
        with pytest.raises(BudgetExceeded):
            poincare_quotient(c, 2, Budget(3))

    @pytest.mark.parametrize(
        "datum", [RootDatum("GL", n) for n in range(1, 6)] + [GSP1, GSP2, GSP3], ids=lambda v: f"{v.kind}{v.n}"
    )
    def test_poincare_is_the_diagram_product(self, datum):
        for spec in every_I(datum):
            for q in (2, 3, 4):
                assert admissible._poincare(spec, q) == poincare_polynomial(spec, q), (sorted(spec.I), q)

    def test_forms_no_member(self, monkeypatch):
        # a class costs two products per generator of W_I, and the
        # Poincare polynomials of W_I and W_K = S_3 x S_3 come from the
        # diagram with none: 2 * 5 here, where |W_I|^2 = 720^2; the counts
        # are those of Gr(3, 6)
        datum = RootDatum("GL", 6)
        spec = spec0(datum)
        (c,) = adm_set(spec, Coweight(datum, (1, 1, 1, 0, 0, 0))).classes
        assert stratum_count(c, 2) == 1395
        calls = []
        mul = WeylElement.__mul__
        monkeypatch.setattr(WeylElement, "__mul__", lambda x, y: calls.append(1) or mul(x, y))
        assert stratum_count(DoubleCoset(spec, c.min_rep), 3) == 33880
        assert len(calls) == 2 * 5

    def test_takes_no_budget(self):
        assert list(inspect.signature(stratum_count).parameters) == ["c", "q"]


class TestTotalCount:
    def test_frozen_gl2_grassmannian(self):
        s = adm_set(spec0(GL2), Coweight(GL2, (2, 0)))
        assert total_count(s, 2) == 7
        assert total_count(s, 3) == 13

    def test_central(self):
        s = adm_set(spec0(GL2), Coweight(GL2, (1, 1)))
        for q in (2, 3, 5):
            assert total_count(s, q) == 1

    def test_frozen_gl2_iwahori(self):
        s = adm_set(iwahori(GL2), Coweight(GL2, (1, 0)))
        assert total_count(s, 3) == 7
