"""Tests for exact F_p linear algebra.

The enumeration counts are checked against an independent oracle: the
Gaussian binomial product formula, written out here from scratch.
"""

import random

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from locmodel.errors import Budget, BudgetExceeded, DimensionMismatch, SingularGram
from locmodel.linalg import (
    Field,
    FieldMatrix,
    Subspace,
    enumerate_subspaces,
    gaussian_binomial,
    image,
    isotropic,
    perp,
    preimage,
    rank,
    subspaces_between,
    _nullspace,
    _order_key,
    _rref_rows,
)

from reference import greedy_subspaces_between, join, meet, nullspace, rref, stable_under

F2 = Field(2)
F3 = Field(3)
F5 = Field(5)


def oracle_gaussian_binomial(n, k, p):
    # (p^n - 1)(p^{n-1} - 1)...  /  (p^k - 1)... product form, top-down.
    if k < 0 or k > n:
        return 0
    value = 1
    for i in range(k):
        value = value * (p ** (n - i) - 1) // (p ** (i + 1) - 1)
    return value


def library_rref(a, p):
    """_rref_rows in the shape reference.rref returns: (R, pivots), R the
    int64 RREF with zero rows last."""
    a = np.asarray(a, dtype=np.int64)
    rows, pivots = _rref_rows(a.tolist(), p)
    R = np.zeros(a.shape, dtype=np.int64)
    R[: len(rows)] = np.reshape(rows, (len(rows), a.shape[1]))
    return R, list(pivots)


@st.composite
def rref_inputs(draw):
    """(matrix, p): shapes up to 12 x 12, entries not yet reduced mod p,
    with all-zero matrices and repeated rows drawn on purpose."""
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
    m, n = draw(st.integers(0, 12)), draw(st.integers(0, 12))
    shape = draw(st.sampled_from(["random", "zero", "repeated"]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    a = rng.integers(-p, 2 * p, size=(m, n), dtype=np.int64)
    if shape == "zero":
        a[:] = 0
    elif shape == "repeated" and m > 1:
        a = a[rng.integers(0, (m + 1) // 2, size=m)] * rng.integers(1, p, size=(m, 1))
    return a, p


def random_matrix(rng, p, rows, cols):
    return np.asarray(rng.integers(0, p, size=(rows, cols)), dtype=np.int64)


def bytes_order_key(s):
    """The former sort key: the pivots found by argmax, then the bytes of
    the int64 RREF basis."""
    return tuple((s.basis != 0).argmax(axis=1).tolist()), s.basis.tobytes()


@st.composite
def subspace_pairs(draw):
    """(a, b, p) in F_p^n, n <= 8: each of a, b the zero space, the full
    space or a random span, and b also drawn above or below a."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    field = Field(p)
    spaces = {
        "zero": Subspace.zero(field, n),
        "full": Subspace.full(field, n),
        "random": Subspace.from_rows(field, n, random_matrix(rng, p, rng.integers(0, n + 1), n)),
    }
    a = spaces[draw(st.sampled_from(sorted(spaces)))]
    extra = random_matrix(rng, p, rng.integers(0, n + 1), n)
    spaces["above"] = Subspace.from_rows(field, n, np.vstack([a.basis, extra]))
    mix = random_matrix(rng, p, rng.integers(0, a.dim + 1), a.dim)
    spaces["below"] = Subspace.from_rows(field, n, mix @ a.basis)
    return a, spaces[draw(st.sampled_from(sorted(spaces)))], p


class TestRank:
    def test_identity(self):
        assert rank(FieldMatrix.identity(F2, 3)) == 3

    def test_zero(self):
        assert rank(FieldMatrix.zero(F3, 2, 2)) == 0

    def test_equal_rows(self):
        assert rank(FieldMatrix(F2, [[1, 0, 1], [1, 0, 1]])) == 1

    def test_char_matters(self):
        m = [[1, 1], [1, -1]]
        assert rank(FieldMatrix(F2, m)) == 1
        assert rank(FieldMatrix(F3, m)) == 2


class TestRref:
    @given(rref_inputs())
    @settings(max_examples=400, deadline=None)
    def test_matches_numpy_oracle(self, case):
        a, p = case
        R, pivots = library_rref(a, p)
        R0, pivots0 = rref(a, p)
        assert R.dtype == R0.dtype == np.int64
        assert R.shape == R0.shape == a.shape
        assert np.array_equal(R, R0)
        assert pivots == pivots0

    def test_input_untouched(self):
        a = np.array([[2, 4], [1, 1]], dtype=np.int64)
        rows = a.tolist()
        rref(a, 3)
        _rref_rows(rows, 3)
        assert a.tolist() == rows == [[2, 4], [1, 1]]

    @given(st.integers(0, 10**9), st.sampled_from([2, 3, 5]), st.integers(0, 4), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_equal_dimension_leq_is_equality(self, seed, p, k, regenerate):
        # leq answers equal dimensions from the RREF key; check it by elimination
        rng = np.random.default_rng(seed)
        field = Field(p)
        a = Subspace.from_rows(field, 4, random_matrix(rng, p, k, 4))
        if regenerate:  # the same space from other generators
            mixed = random_matrix(rng, p, k, a.dim) @ a.basis
            b = Subspace.from_rows(field, 4, np.vstack([mixed, a.basis[::-1]]))
        else:
            b = Subspace.from_rows(field, 4, random_matrix(rng, p, a.dim, 4))
        assume(a.dim == b.dim)
        _, pivots = rref(np.vstack([b.basis, a.basis]), p)
        assert a.leq(b) == (len(pivots) == b.dim) == (a == b)


class TestRowRepresentation:
    @given(subspace_pairs())
    @settings(max_examples=400, deadline=None)
    def test_leq_matches_stacked_rank(self, case):
        a, b, p = case
        for x, y in ((a, b), (b, a)):
            _, pivots = rref(np.vstack([y.basis, x.basis]), p)
            assert x.leq(y) == (len(pivots) == y.dim)

    def test_leq_does_no_elimination(self, monkeypatch):
        # containment reduces by the pivot rows; it never stacks and row-reduces
        from locmodel import linalg

        line = Subspace.from_rows(F3, 4, [[1, 2, 0, 1]])
        plane = Subspace.from_rows(F3, 4, [[1, 2, 0, 0], [0, 0, 0, 1]])
        other = Subspace.from_rows(F3, 4, [[0, 1, 0, 0], [0, 0, 1, 0]])
        cases = [
            (line, plane, True),
            (line, other, False),
            (plane, line, False),
            (plane, other, False),
            (Subspace.zero(F3, 4), other, True),
            (other, Subspace.full(F3, 4), True),
        ]
        calls = []
        for name in ("_rref_rows",):
            fn = getattr(linalg, name)
            monkeypatch.setattr(linalg, name, lambda *args, _fn=fn, _name=name: calls.append(_name) or _fn(*args))
        assert [a.leq(b) for a, b, _ in cases] == [want for _, _, want in cases]
        assert calls == []

    @given(
        st.integers(0, 10**9),
        st.sampled_from([2, 3, 5, 7]),
        st.integers(1, 8),
        st.integers(1, 8),
        st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_image_equals_dense_product(self, seed, p, n, m, sparse):
        rng = np.random.default_rng(seed)
        field = Field(p)
        entries = random_matrix(rng, p, m, n)
        if sparse:  # at most one nonzero entry per column, as for N and the transitions
            entries *= np.eye(m, n, k=int(rng.integers(-m + 1, n)), dtype=np.int64)
        f = FieldMatrix(field, entries)
        a = Subspace.from_rows(field, n, random_matrix(rng, p, rng.integers(0, n + 1), n))
        assert image(f, a) == Subspace.from_rows(field, m, (a.basis @ f.array.T) % p)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_order_key_orders_like_bytes_key(self, p):
        field = Field(p)
        for n in range(1, 6):
            subs = []
            for k in range(n + 1):
                level = list(enumerate_subspaces(n, k, field))
                assert level == sorted(level, key=_order_key)
                subs += level
            random.Random(n).shuffle(subs)
            assert sorted(subs, key=_order_key) == sorted(subs, key=bytes_order_key)

    def test_from_rows_array_and_lists(self):
        rng = np.random.default_rng(5)
        for p in (2, 3, 5, 7):
            field = Field(p)
            for n in range(1, 7):
                a = rng.integers(-p, 2 * p, size=(int(rng.integers(0, n + 2)), n))
                s = Subspace.from_rows(field, n, a)
                for rows in (a.tolist(), [tuple(r) for r in a.tolist()]):
                    assert Subspace.from_rows(field, n, rows)._key == s._key
                assert all(type(x) is int for row in s.rows for x in row)
                b = s.basis
                assert b.dtype == np.int64 and b.shape == (s.dim, n)
                assert b.tolist() == [list(row) for row in s.rows]
                assert not b.flags.writeable
                with pytest.raises(ValueError):
                    b[...] = 0

    @given(rref_inputs())
    @settings(max_examples=200, deadline=None)
    def test_nullspace_rows(self, case):
        a, p = case
        rows = _nullspace(a.tolist(), a.shape[1], p)
        null = np.array(rows, dtype=np.int64).reshape(len(rows), a.shape[1])
        assert not (a @ null.T % p).any()
        assert len(null) == a.shape[1] - len(rref(a, p)[1])
        assert len(rref(null, p)[1]) == len(null)
        # one row per free column, as the numpy oracle reads it off rref
        assert null.tolist() == nullspace(a, p).tolist()


class TestSubspaceCanonicity:
    def test_rref_canonical_for_random_generating_sets(self):
        rng = np.random.default_rng(7)
        for p in (2, 3, 5):
            field = Field(p)
            for _ in range(20):
                basis = random_matrix(rng, p, 2, 5)
                s0 = Subspace.from_rows(field, 5, basis)
                # Random invertible 2x2 change of generators plus a redundant row.
                while True:
                    g = random_matrix(rng, p, 2, 2)
                    if rank(FieldMatrix(field, g)) == 2:
                        break
                regen = (g @ basis) % p
                extra = (basis[0] + basis[1]) % p
                s1 = Subspace.from_rows(field, 5, np.vstack([regen, extra]))
                assert s0 == s1
                assert np.array_equal(s0.basis, s1.basis)

    def test_zero_and_full(self):
        z = Subspace.zero(F2, 4)
        f = Subspace.full(F2, 4)
        assert z.dim == 0 and f.dim == 4
        assert z.leq(f) and not f.leq(z)


class TestEnumeration:
    def test_lines_in_f2_squared(self):
        subs = list(enumerate_subspaces(2, 1, F2))
        assert len(subs) == 3
        assert len(set(subs)) == 3

    def test_frozen_4_2_2(self):
        # Frozen: 35 planes in F_2^4.
        subs = list(enumerate_subspaces(4, 2, F2))
        assert len(subs) == 35
        assert len(set(subs)) == 35

    def test_zero_dim(self):
        subs = list(enumerate_subspaces(5, 0, F3))
        assert subs == [Subspace.zero(F3, 5)]

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("n", range(7))
    def test_counts_match_gaussian_binomial(self, n, p):
        field = Field(p)
        for k in range(n + 1):
            expected = oracle_gaussian_binomial(n, k, p)
            if expected > 10**5:
                continue
            assert gaussian_binomial(n, k, p) == expected
            got = list(enumerate_subspaces(n, k, field))
            assert len(got) == expected
            assert len(set(got)) == expected

    def test_budget_guard(self):
        with pytest.raises(BudgetExceeded):
            list(enumerate_subspaces(6, 3, F5, budget=Budget(10)))

    def test_deterministic_order(self):
        a = [s._key for s in enumerate_subspaces(4, 2, F3)]
        b = [s._key for s in enumerate_subspaces(4, 2, F3)]
        assert a == b


class TestLatticeOps:
    def test_meet_idempotent(self):
        s = Subspace.from_rows(F2, 4, [[1, 0, 1, 0], [0, 1, 1, 1]])
        assert meet(s, s) == s

    def test_join_with_zero(self):
        s = Subspace.from_rows(F3, 3, [[1, 2, 0]])
        assert join(s, Subspace.zero(F3, 3)) == s

    @given(st.integers(0, 10**9), st.sampled_from([2, 3, 5]))
    @settings(max_examples=60, deadline=None)
    def test_dimension_formula(self, seed, p):
        rng = np.random.default_rng(seed)
        field = Field(p)
        a = Subspace.from_rows(field, 5, random_matrix(rng, p, 2, 5))
        b = Subspace.from_rows(field, 5, random_matrix(rng, p, 3, 5))
        assert a.dim + b.dim == meet(a, b).dim + join(a, b).dim

    @given(st.integers(0, 10**9), st.sampled_from([2, 3, 5]))
    @settings(max_examples=60, deadline=None)
    def test_meet_join_bounds(self, seed, p):
        rng = np.random.default_rng(seed)
        field = Field(p)
        a = Subspace.from_rows(field, 4, random_matrix(rng, p, 2, 4))
        b = Subspace.from_rows(field, 4, random_matrix(rng, p, 2, 4))
        m, j = meet(a, b), join(a, b)
        assert m.leq(a) and m.leq(b)
        assert a.leq(j) and b.leq(j)

    def test_dimension_mismatch(self):
        a = Subspace.zero(F2, 3)
        b = Subspace.zero(F2, 4)
        with pytest.raises(DimensionMismatch):
            meet(a, b)


class TestMaps:
    @given(st.integers(0, 10**9), st.sampled_from([2, 3, 5]), st.integers(1, 6))
    @settings(max_examples=100, deadline=None)
    def test_repeated_image_and_perp_equal_fresh(self, seed, p, n):
        # a second call returns the first result (image from the map's
        # memo, where equal images are one object); both equal the result
        # on an equal matrix built anew, whose memo is empty
        rng = np.random.default_rng(seed)
        field = Field(p)
        f = FieldMatrix(field, random_matrix(rng, p, n, n))
        while True:
            gram = FieldMatrix(field, random_matrix(rng, p, n, n))
            if rank(gram) == n:
                break
        subs = [Subspace.from_rows(field, n, random_matrix(rng, p, rng.integers(0, n + 1), n)) for _ in range(3)]
        seen = {}
        for a in subs + subs:
            first, ann = image(f, a), perp(a, gram)
            assert image(f, a) is first and perp(a, gram) == ann
            assert seen.setdefault(first, first) is first
            fresh, fresh_gram = FieldMatrix(field, f.array.copy()), FieldMatrix(field, gram.array.copy())
            assert fresh._images == {}
            assert image(fresh, a) == first and perp(a, fresh_gram) == ann
        with pytest.raises(DimensionMismatch):
            image(f, Subspace.full(field, n + 1))

    def test_image_of_zero_map(self):
        f = FieldMatrix.zero(F2, 4, 4)
        a = Subspace.from_rows(F2, 4, [[1, 1, 0, 0], [0, 0, 1, 0]])
        assert image(f, a) == Subspace.zero(F2, 4)

    def test_image_and_preimage_adjoint(self):
        rng = np.random.default_rng(3)
        for p in (2, 3):
            field = Field(p)
            for _ in range(15):
                f = FieldMatrix(field, random_matrix(rng, p, 4, 4))
                a = Subspace.from_rows(field, 4, random_matrix(rng, p, 2, 4))
                assert a.leq(preimage(f, image(f, a)))
                b = Subspace.from_rows(field, 4, random_matrix(rng, p, 2, 4))
                assert image(f, preimage(f, b)).leq(b)

    def test_stable_under_zero(self):
        a = Subspace.from_rows(F3, 3, [[1, 0, 2]])
        assert stable_under(a, FieldMatrix.zero(F3, 3, 3))

    def test_kernel_is_stable(self):
        f = FieldMatrix(F2, [[0, 0], [1, 0]])
        ker = preimage(f, Subspace.zero(F2, 2))
        assert stable_under(ker, f)

    def test_frozen_unstable_line(self):
        # f(1,0) = (0,1) is not in span{(1,0)}.
        f = FieldMatrix(F2, [[0, 0], [1, 0]])
        a = Subspace.from_rows(F2, 2, [[1, 0]])
        assert not stable_under(a, f)


class TestPerp:
    def test_perp_of_zero(self):
        gram = FieldMatrix.identity(F3, 4)
        assert perp(Subspace.zero(F3, 4), gram) == Subspace.full(F3, 4)

    def test_isotropic_needs_a_gram_of_the_ambient(self):
        line = Subspace.from_rows(F3, 2, [[1, 0]])
        assert isotropic(line, FieldMatrix(F3, [[0, 1], [-1, 0]]))
        assert not isotropic(line, FieldMatrix.identity(F3, 2))
        with pytest.raises(DimensionMismatch):
            isotropic(line, FieldMatrix.identity(F3, 3))

    def test_singular_gram_rejected(self):
        gram = FieldMatrix.zero(F2, 3, 3)
        with pytest.raises(SingularGram):
            perp(Subspace.zero(F2, 3), gram)

    def test_repeated_calls(self, monkeypatch, cold_memo):
        # each distinct gram is ranked once; a singular one raises every time
        from locmodel import linalg

        calls = []
        monkeypatch.setattr(linalg, "rank", lambda m: calls.append(m) or rank(m))
        singular = FieldMatrix(F3, [[1, 1, 0], [1, 1, 0], [0, 0, 1]])
        for _ in range(3):
            with pytest.raises(SingularGram):
                perp(Subspace.zero(F3, 3), singular)
            # an equal matrix built anew hits the same entry
            with pytest.raises(SingularGram):
                perp(Subspace.full(F3, 3), FieldMatrix(F3, singular.array.copy()))
        gram = FieldMatrix.identity(F3, 3)
        line = Subspace.from_rows(F3, 3, [[1, 0, 0]])
        for _ in range(3):
            assert perp(line, gram) == Subspace.from_rows(F3, 3, [[0, 1, 0], [0, 0, 1]])
        assert calls == [singular, gram]

    @given(st.integers(0, 10**9), st.sampled_from([2, 3, 5]))
    @settings(max_examples=60, deadline=None)
    def test_involution_and_dimension(self, seed, p):
        rng = np.random.default_rng(seed)
        field = Field(p)
        while True:
            g = random_matrix(rng, p, 4, 4)
            if rank(FieldMatrix(field, g)) == 4:
                break
        gram = FieldMatrix(field, g)
        a = Subspace.from_rows(field, 4, random_matrix(rng, p, 2, 4))
        pa = perp(a, gram)
        assert pa.dim == 4 - a.dim
        # Transposed gram for the second application of perp.
        assert perp(pa, gram.transpose()) == a


class TestBetween:
    def test_between_counts(self):
        a = Subspace.from_rows(F2, 4, [[1, 0, 0, 0]])
        b = Subspace.full(F2, 4)
        got = list(subspaces_between(a, b, 2))
        # Planes through a fixed line in F_2^4: [3 choose 1]_2 = 7.
        assert len(got) == 7
        assert len(set(got)) == 7
        for v in got:
            assert a.leq(v) and v.leq(b) and v.dim == 2

    def test_between_degenerate(self):
        a = Subspace.from_rows(F3, 3, [[1, 0, 0]])
        assert list(subspaces_between(a, a, 1)) == [a]
        assert list(subspaces_between(a, a, 2)) == []

    @pytest.mark.parametrize("p,n_max", [(2, 5), (3, 4), (5, 3)])
    def test_complement_equals_greedy_complement(self, p, n_max):
        # the same subspaces in the same order, for the same spend, as the
        # complement that joins b's rows one at a time
        rng = np.random.default_rng(p)
        field = Field(p)
        for _ in range(200):
            n = int(rng.integers(1, n_max + 1))
            b = Subspace.from_rows(field, n, random_matrix(rng, p, int(rng.integers(0, n + 1)), n))
            a = Subspace.from_rows(field, n, random_matrix(rng, p, int(rng.integers(0, b.dim + 1)), b.dim) @ b.basis)
            for k in range(a.dim, b.dim + 1):
                spent, expected = Budget(), Budget()
                assert list(subspaces_between(a, b, k, spent)) == list(greedy_subspaces_between(a, b, k, expected))
                assert spent.spent == expected.spent
