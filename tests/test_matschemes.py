"""Tests for the matrix-scheme point counters."""

import functools
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from locmodel import linalg, matschemes
from locmodel.errors import BadRanks, Budget, BudgetExceeded
from locmodel.linalg import _rref_rows
from locmodel.matschemes import (
    _batched_ranks,
    symplectic_P_points,
    unitary_points_direct,
    unitary_points_stratified,
)

from reference import isotropic_subspace_count, rref, symmetric_batch


# (n, p, histogram) of every square-zero symmetric n x n matrix over F_p,
# each found by the direct scan and equal to the stratified count
LARGE = [
    (5, 2, ((0, 1), (1, 15), (2, 60))),
    (5, 3, ((0, 1), (1, 80), (2, 720))),
    (5, 5, ((0, 1), (1, 624), (2, 15600))),
    (6, 2, ((0, 1), (1, 31), (2, 300), (3, 420))),
    (6, 3, ((0, 1), (1, 224), (2, 5040))),
    (7, 2, ((0, 1), (1, 63), (2, 1260), (3, 3780))),
]


class TestUnitary:
    def test_size_one(self):
        for p in (2, 3, 5):
            assert unitary_points_direct(1, 1, 0, p).total == 1

    def test_frozen_n2_p3(self):
        assert unitary_points_direct(2, 1, 1, 3).total == 1

    def test_frozen_n2_p5(self):
        got = unitary_points_direct(2, 1, 1, 5)
        assert got.total == 9
        assert got.by_rank == ((0, 1), (1, 8))

    def test_stratified_matches_frozen(self):
        assert unitary_points_stratified(2, 1, 1, 5).total == 9
        assert unitary_points_stratified(2, 1, 1, 3).total == 1

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_direct_equals_stratified(self, n, p):
        for r in range(n + 1):
            s = n - r
            d = unitary_points_direct(n, r, s, p)
            t = unitary_points_stratified(n, r, s, p)
            assert d.total == t.total
            assert d.by_rank == t.by_rank

    @pytest.mark.parametrize("n,p", [(n, p) for n, p, _ in LARGE])
    def test_direct_equals_stratified_large(self, n, p):
        # r = n // 2 bounds no rank of a square-zero matrix; one budget holds
        # p^m for the direct scan, and the stratified count spends nothing
        r, s, m = n // 2, n - n // 2, n * (n + 1) // 2
        budget = Budget(p**m)
        d = unitary_points_direct(n, r, s, p, budget=budget)
        t = unitary_points_stratified(n, r, s, p, budget=budget)
        assert d == t
        assert budget.spent == budget.limit

    @pytest.mark.parametrize("n,p", [(1, 2), (1, 5), (2, 3), (2, 5), (3, 2)])
    def test_rank_bounds_above_n(self, n, p):
        # min(r, s) > n bounds nothing, and the stratified count stops at k = n
        d = unitary_points_direct(n, n + 2, n + 1, p)
        assert d == unitary_points_stratified(n, n + 2, n + 1, p)
        assert d == unitary_points_direct(n, n, n, p)

    def test_one_scan_per_size_and_field(self, cold_memo, monkeypatch):
        scans = count_scans(monkeypatch)
        full = unitary_points_direct(3, 3, 3, 3)
        for r in range(4):
            got = unitary_points_direct(3, r, 3 - r, 3)
            assert got.by_rank == tuple((k, c) for k, c in full.by_rank if k <= min(r, 3 - r))
        assert scans == [(3, 3)]
        # one entry, one element per histogram bin
        assert [size for _, size, _ in cold_memo.values()] == [len(full.by_rank)]

    def test_monotone_in_rank_bound(self):
        prev = -1
        for r in range(5):
            cur = unitary_points_stratified(4, r, r, 3).total
            assert cur >= prev
            prev = cur

    def test_no_rank_bound_counts_all_square_zero(self):
        # direct scan without binding bound equals the stratified sum
        free = unitary_points_direct(3, 3, 3, 3)
        assert free.total == unitary_points_stratified(3, 3, 3, 3).total

    def test_charpoly_automatic(self):
        # square-zero matrices have characteristic polynomial T^n
        p, n = 3, 3
        idx = np.arange(p ** (n * (n + 1) // 2), dtype=np.int64)
        batch = symmetric_batch(n, p, idx)
        sq = np.einsum("aij,ajk->aik", batch, batch) % p
        for a in batch[~sq.any(axis=(1, 2))]:
            assert int(np.trace(a)) % p == 0
            # rank-nullity for square-zero: rank <= n/2, so T^n divides charpoly
            _, piv = rref(a, p)
            assert 2 * len(piv) <= n

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            unitary_points_direct(6, 3, 3, 5)

    def test_bad_ranks(self):
        with pytest.raises(BadRanks):
            unitary_points_direct(0, 0, 0, 3)


def count_scans(monkeypatch):
    """The (n, p) of every _square_zero_scan call from now on."""
    scans, scan = [], matschemes._square_zero_scan
    monkeypatch.setattr(matschemes, "_square_zero_scan", lambda n, p: scans.append((n, p)) or scan(n, p))
    return scans


def oracle_square_zero_ranks(n, p):
    """The former direct scan: every symmetric matrix as int64, squared by
    einsum, each square-zero one ranked by rref."""
    total, chunk, hist = p ** (n * (n + 1) // 2), 1 << 17, {}
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        batch = symmetric_batch(n, p, idx)
        sq = np.einsum("aij,ajk->aik", batch, batch) % p
        for a in batch[~sq.any(axis=(1, 2))]:
            _, pivots = rref(a, p)
            hist[len(pivots)] = hist.get(len(pivots), 0) + 1
    return tuple(sorted(hist.items()))


def oracle_invertible_symmetric_count(k, p):
    """The former invertible count: one rref per symmetric matrix."""
    if k == 0:
        return 1
    idx = np.arange(p ** (k * (k + 1) // 2), dtype=np.int64)
    return sum(len(rref(a, p)[1]) == k for a in symmetric_batch(k, p, idx))


@st.composite
def rank_blocks(draw):
    """(block, p): an int16 (N, r, c) block with N in {0, 1, many} and
    r, c <= 6, each matrix random, zero, of rank <= 1 or with repeated rows."""
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
    count = draw(st.sampled_from([0, 1, 50]))
    r, c = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    block = rng.integers(0, p, size=(count, r, c))
    for a, shape in zip(block, rng.integers(0, 4, size=count)):
        if shape == 1:
            a[:] = 0
        elif shape == 2:
            a[:] = np.outer(rng.integers(0, p, size=r), rng.integers(0, p, size=c)) % p
        elif shape == 3 and r > 1:
            a[:] = a[rng.integers(0, (r + 1) // 2, size=r)] * rng.integers(1, p, size=(r, 1)) % p
    return block.astype(np.int16), p


@functools.lru_cache(maxsize=None)
def oracle_nilpotent_matrices(n, p, e):
    """The former enumeration: one int64 matrix per flat index, kept if its
    min(n, e)-th power vanishes."""
    powers = p ** np.arange(n * n, dtype=np.int64)
    out = []
    for flat in range(p ** (n * n)):
        a = ((flat // powers) % p).reshape(n, n)
        power = np.eye(n, dtype=np.int64)
        for _ in range(min(n, e)):
            power = power @ a % p
        if not power.any():
            out.append(a)
    return tuple(out)


def oracle_linear_count(g, e, p):
    """The former linear strategy: per nilpotent a, the block condition
    sum_{i+j=e-1} a^i b (a^t)^j of each alternating basis matrix b as one
    column, ranked by _rref_rows."""
    n = g * e
    basis = []
    for i in range(n):
        for j in range(i + 1, n):
            b = np.zeros((n, n), dtype=np.int64)
            b[i, j], b[j, i] = 1, -1
            basis.append(b)

    def block_condition(a, b):
        acc = np.zeros((n, n), dtype=np.int64)
        for i in range(e):
            left = np.linalg.matrix_power(a, i) % p
            right = np.linalg.matrix_power(a.T, e - 1 - i) % p
            acc = (acc + left @ b @ right) % p
        return acc

    total = 0
    for a in oracle_nilpotent_matrices(n, p, e):
        if not basis:
            total += 1
            continue
        mat = np.stack([block_condition(a, b).reshape(-1) for b in basis], axis=1)
        total += p ** (len(basis) - len(_rref_rows(mat.tolist(), p)[1]))
    return total


# every (n, p) with n <= 4, p in {2, 3, 5, 7} and p^(n(n+1)/2) <= 10^5
SMALL = [(n, p) for n in (1, 2, 3, 4) for p in (2, 3, 5, 7) if p ** (n * (n + 1) // 2) <= 10**5]


class TestKernels:
    @pytest.mark.parametrize("n,p", SMALL)
    def test_scan_matches_oracle(self, n, p):
        from locmodel.matschemes import _square_zero_scan

        want = oracle_square_zero_ranks(n, p)
        for chunk in (p ** (n * (n + 1) // 2) // 100, 1 << 17):
            assert _square_zero_scan(n, p, chunk)[0] == want

    @pytest.mark.parametrize("k,p", SMALL + [(5, 2), (2, 11), (2, 13)])
    def test_invertible_matches_oracle(self, k, p):
        from locmodel.matschemes import _invertible_symmetric_count

        assert _invertible_symmetric_count(k, p) == oracle_invertible_symmetric_count(k, p)

    def test_frozen_histogram_n4_p5(self, cold_memo, monkeypatch):
        scans = count_scans(monkeypatch)
        for _ in range(2):
            assert unitary_points_direct(4, 2, 2, 5).by_rank == ((0, 1), (1, 144), (2, 1200))
        assert scans == [(4, 5)]

    @pytest.mark.parametrize(
        "n,p", [(n, p) for p, top in ((2, 8), (3, 6), (5, 5), (7, 4), (11, 3), (13, 3)) for n in range(1, top + 1)]
    )
    def test_isotropic_count_matches_oracle(self, n, p):
        from locmodel.matschemes import _isotropic_subspace_count

        for k in range(n + 1):
            assert _isotropic_subspace_count(n, k, p) == isotropic_subspace_count(n, k, p), k

    def test_stratified_count_reaches_far(self):
        # no subspace is formed: F_13^12 holds 1.9 * 10^12 lines alone
        budget = Budget(1)
        start = time.perf_counter()
        got = unitary_points_stratified(12, 6, 6, 13, budget=budget)
        assert time.perf_counter() - start < 0.1
        assert budget.spent == 0 and [k for k, _ in got.by_rank] == list(range(7))
        assert [k for k, _ in unitary_points_stratified(16, 8, 8, 2, budget=budget).by_rank] == list(range(9))

    @pytest.mark.parametrize("n,p,hist", LARGE)
    def test_frozen_histograms(self, n, p, hist):
        from locmodel.matschemes import _square_zero_scan

        assert _square_zero_scan(n, p) == (hist, p ** (n * (n + 1) // 2))

    @pytest.mark.parametrize(
        "k,p,count", [(3, 3, 468), (3, 5, 12_400), (4, 3, 37_908), (3, 7, 100_548)]
    )
    def test_frozen_invertible_counts(self, k, p, count):
        from locmodel.matschemes import _invertible_symmetric_count

        assert _invertible_symmetric_count(k, p) == count

    @pytest.mark.parametrize(
        "n,p,chunk", [(1, 7, 1), (3, 3, 10), (4, 2, 1 << 17), (4, 3, 100), (3, 7, 1 << 17)]
    )
    def test_scan_tests_every_matrix(self, n, p, chunk):
        from locmodel.matschemes import _square_zero_scan

        assert _square_zero_scan(n, p, chunk)[1] == p ** (n * (n + 1) // 2)

    def test_scan_is_independent_of_the_stratified_count(self):
        # neither count reaches the other's helpers
        from locmodel import matschemes

        def names(fn):
            out = set(fn.__code__.co_names)
            for const in fn.__code__.co_consts:
                if hasattr(const, "co_names"):
                    out |= set(const.co_names)
            return out

        stratified = {"_isotropic_subspace_count", "_invertible_symmetric_count", "sigma", "symplectic",
                      "enumerate_subspaces", "gaussian_binomial", "unitary_points_stratified"}
        assert not names(matschemes._square_zero_scan) & stratified
        for fn in (matschemes.unitary_points_stratified, matschemes._invertible_symmetric_count,
                   matschemes._isotropic_subspace_count):
            assert not {name for name in names(fn) if name.startswith("_square_zero")}

    @given(rank_blocks())
    @settings(max_examples=300, deadline=None)
    def test_batched_ranks_match_rref(self, case):
        block, p = case
        want = [len(rref(a, p)[1]) for a in block]
        assert want == [len(_rref_rows(a.tolist(), p)[1]) for a in block]
        work = block.copy()
        assert _batched_ranks(work, p).tolist() == want
        assert work.dtype == np.int16

    def test_scan_ranks_each_block_at_once(self, monkeypatch):
        # the survivors are ranked by _batched_ranks, with no per-matrix
        # list elimination
        calls = []
        rref_rows = linalg._rref_rows
        monkeypatch.setattr(linalg, "_rref_rows", lambda *args: calls.append(args) or rref_rows(*args))
        assert not hasattr(matschemes, "_rref_rows")
        assert matschemes._square_zero_scan(4, 5) == (((0, 1), (1, 144), (2, 1200)), 5**10)
        assert calls == []

    def test_stratified_count_does_not_rank_in_batches(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("_batched_ranks called")

        monkeypatch.setattr(matschemes, "_batched_ranks", refuse)
        assert unitary_points_stratified(4, 2, 2, 5).by_rank == ((0, 1), (1, 144), (2, 1200))

    def test_memory_bounded_by_chunk(self):
        import tracemalloc

        from locmodel.matschemes import _square_zero_scan

        # against the bytes of one int16 batch of all 3^10 = 59049 4 x 4 matrices
        tracemalloc.start()
        try:
            _square_zero_scan(4, 3, 3**5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3**10 * 16 * 2 // 8

    def test_budget_threads_into_both_counts(self):
        assert unitary_points_direct(3, 1, 1, 3, budget=Budget(3**6)).total == 9
        with pytest.raises(BudgetExceeded):
            unitary_points_direct(3, 1, 1, 3, budget=Budget(3**6 - 1))
        # the budget is checked before the memoised histogram is consulted
        unitary_points_direct(2, 1, 1, 5)
        with pytest.raises(BudgetExceeded):
            unitary_points_direct(2, 1, 1, 5, budget=Budget(5**3 - 1))
        # the stratified count forms no subspace and spends nothing
        budget = Budget(1)
        assert unitary_points_stratified(3, 3, 3, 7, budget=budget).total == 49
        assert budget.spent == 0
        with pytest.raises(BudgetExceeded):
            symplectic_P_points(1, 2, 3, "direct", budget=Budget(3**5 - 1))
        assert symplectic_P_points(1, 2, 3, "direct", budget=Budget(3**5)) == 27


class TestSymplectic:
    @pytest.mark.parametrize("p", [2, 3])
    def test_degenerate_e1(self, p):
        assert symplectic_P_points(1, 1, p, "direct") == 1
        assert symplectic_P_points(1, 1, p, "linear") == 1

    @pytest.mark.parametrize("p,expected", [(2, 8), (3, 27)])
    def test_golden_g1_e2(self, p, expected):
        assert symplectic_P_points(1, 2, p, "direct") == expected

    @pytest.mark.parametrize("p", [2, 3])
    def test_strategies_agree(self, p):
        for g, e in ((1, 1), (1, 2), (2, 1)):
            assert symplectic_P_points(g, e, p, "direct") == symplectic_P_points(
                g, e, p, "linear"
            )

    @pytest.mark.parametrize("g,e,p,expected", [(1, 2, 5, 125), (1, 3, 2, 512), (1, 3, 3, 19_683), (2, 2, 2, 5_104)])
    def test_strategies_agree_on_larger_cases(self, g, e, p, expected):
        assert symplectic_P_points(g, e, p, "direct") == expected
        assert symplectic_P_points(g, e, p, "linear") == expected

    @pytest.mark.parametrize("g,e,p", [(1, 2, 5), (1, 3, 2)])
    def test_budget(self, g, e, p):
        # the direct scan spends p^(n^2 + n(n-1)/2), n = ge, before any work
        n = g * e
        scanned = p ** (n * n + n * (n - 1) // 2)
        with pytest.raises(BudgetExceeded):
            symplectic_P_points(g, e, p, "direct", budget=Budget(scanned - 1))
        assert symplectic_P_points(g, e, p, "direct", budget=Budget(scanned)) > 0

    @pytest.mark.parametrize(
        "g,e,p",
        [(1, 1, p) for p in (2, 3, 5, 7, 11, 13)]
        + [(1, 2, p) for p in (2, 3, 5, 7)]
        + [(1, 3, 2), (1, 3, 3), (2, 2, 2)],
    )
    def test_linear_matches_oracle(self, g, e, p):
        assert symplectic_P_points(g, e, p, "linear") == oracle_linear_count(g, e, p)

    @pytest.mark.parametrize("n,p,e,chunk", [(1, 13, 1, 5), (2, 3, 2, 7), (3, 2, 2, 100), (3, 2, 3, 1 << 14)])
    def test_nilpotent_blocks_match_oracle(self, n, p, e, chunk):
        from locmodel.matschemes import _nilpotent_matrices

        blocks = list(_nilpotent_matrices(n, p, e, chunk))
        assert max(map(len, blocks)) <= chunk
        assert all(b.dtype == np.int16 for b in blocks)
        assert np.concatenate(blocks).tolist() == [a.tolist() for a in oracle_nilpotent_matrices(n, p, e)]

    def test_direct_does_not_rank_in_batches(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("_batched_ranks or _linear_ranks called")

        monkeypatch.setattr(matschemes, "_batched_ranks", refuse)
        monkeypatch.setattr(matschemes, "_linear_ranks", refuse)
        assert symplectic_P_points(1, 2, 3, "direct") == 27
        with pytest.raises(AssertionError):
            symplectic_P_points(1, 2, 3, "linear")

    def test_linear_memory_bounded_by_chunk(self, monkeypatch):
        import tracemalloc

        # against the int16 bytes of one block of 2^10 of the 2^16 4 x 4
        # matrices a that the linear solve enumerates for (g, e, p) = (2, 2, 2)
        monkeypatch.setattr(matschemes, "_CHUNK", 1 << 10)
        symplectic_P_points(2, 2, 2, "linear")
        tracemalloc.start()
        try:
            assert symplectic_P_points(2, 2, 2, "linear") == 5_104
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * (1 << 10) * 16 * 2

    def test_budget_refuses_a_huge_scan_at_once(self):
        # p^m for m = (10^4)^2 + ... is never formed
        with pytest.raises(BudgetExceeded):
            symplectic_P_points(100, 100, 2)

    def test_bad_strategy(self):
        with pytest.raises(ValueError):
            symplectic_P_points(1, 2, 2, "magic")

    @pytest.mark.parametrize("g,e", [(0, 1), (1, 0), (1, -2)])
    def test_bad_ranks(self, g, e):
        with pytest.raises(BadRanks):
            symplectic_P_points(g, e, 2)
