"""Tests for the matrix-scheme point counters."""

import numpy as np
import pytest

from locmodel.errors import BadRanks, BudgetExceeded
from locmodel.matschemes import (
    symplectic_P_points,
    unitary_points_direct,
    unitary_points_stratified,
)


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

    def test_one_scan_per_size_and_field(self):
        from locmodel.matschemes import _square_zero_ranks

        _square_zero_ranks.cache_clear()
        full = unitary_points_direct(3, 3, 3, 3)
        for r in range(4):
            got = unitary_points_direct(3, r, 3 - r, 3)
            assert got.by_rank == tuple((k, c) for k, c in full.by_rank if k <= min(r, 3 - r))
        info = _square_zero_ranks.cache_info()
        assert (info.misses, info.hits) == (1, 4)

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
        from locmodel.matschemes import _symmetric_batch

        idx = np.arange(p ** (n * (n + 1) // 2), dtype=np.int64)
        batch = _symmetric_batch(n, p, idx)
        sq = np.einsum("aij,ajk->aik", batch, batch) % p
        for a in batch[~sq.any(axis=(1, 2))]:
            assert int(np.trace(a)) % p == 0
            # rank-nullity for square-zero: rank <= n/2, so T^n divides charpoly
            from locmodel.linalg import _rref

            _, piv = _rref(a, p)
            assert 2 * len(piv) <= n

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            unitary_points_direct(6, 3, 3, 5)

    def test_bad_ranks(self):
        with pytest.raises(BadRanks):
            unitary_points_direct(0, 0, 0, 3)


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

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            symplectic_P_points(2, 2, 2)
        with pytest.raises(BudgetExceeded):
            symplectic_P_points(1, 2, 5)

    def test_bad_strategy(self):
        with pytest.raises(ValueError):
            symplectic_P_points(1, 2, 2, "magic")
