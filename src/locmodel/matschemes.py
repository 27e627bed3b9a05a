"""Point counters for two explicit matrix schemes, each with two
independent counting strategies.

Unitary type: symmetric n x n matrices A over F_p with A^2 = 0 and
rank(A) <= min(r, s).  The wedge-power conditions are rank bounds at
field points, and det(T*I - A) = T^n holds identically for square-zero
A (checked as a property, not per point).  The direct scan tests every
symmetric matrix; the stratified count sums, over the rank k, the totally
isotropic k-subspaces times the invertible symmetric k x k matrices, both
in closed form, so it forms no subspace or matrix.  The two share no code.

Symplectic type: block matrices A = (a b; 0 a^t) of size 2n (n = g*e)
with a nilpotent, b alternating, and A^e = 0.  Alternating means skew
symmetric with zero diagonal in every characteristic.  The direct
strategy tests every pair (a, b); the linear one ranks, for each a, the
linear condition on b.

The direct scan's survivors and the linear solve are ranked blockwise by
one batched elimination, ``_batched_ranks``; neither the stratified count
nor the direct symplectic strategy uses it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadRanks, Budget, _memo
from .linalg import Field

_CHUNK = 1 << 14


@dataclass(frozen=True)
class UnitaryCount:
    total: int
    by_rank: tuple  # ((rank, count), ...)


def _spend_power(budget, p, m, what):
    """Spend p^m units; p^m > limit once m reaches the limit's bit length,
    so no larger power is formed."""
    budget.spend(p ** min(m, budget.limit.bit_length()), what)


def unitary_points_direct(n, r, s, p, budget=None) -> UnitaryCount:
    """Direct scan over all symmetric matrices; their number p^m is spent
    from ``budget`` (a fresh Budget() if None), memoised scan or not."""
    _check_unitary(n, r, s, p)
    _spend_power(budget or Budget(), p, n * (n + 1) // 2, "symmetric matrices scanned")
    hist = {rk: c for rk, c in _memo(_square_zero_ranks, n, p) if rk <= min(r, s)}
    return UnitaryCount(sum(hist.values()), tuple(sorted(hist.items())))


def _square_zero_scan(n, p, chunk=_CHUNK):
    """(((rank, count), ...), tested) over all square-zero symmetric n x n
    matrices, with tested the number of matrices put to the test.

    Row by row: stage i extends every surviving prefix (rows 0..i-1
    complete) by the free entries a_ii .. a_i,n-1 of row i, in blocks of at
    most max(chunk, p^(n-i)) matrices, and tests the entries (A^2)_ji,
    j <= i, that rows 0..i decide, diagonal first, each on the prefixes
    still standing.  A failing prefix is dropped with its completions, all
    counted as tested; the complete survivors of each block are ranked in
    one call of _batched_ranks."""
    hist, tested = {}, 0

    def stage(a, i):
        nonlocal tested
        q, completions = p ** (n - i), p ** ((n - i) * (n - i - 1) // 2)
        row = np.indices((p,) * (n - i), dtype=np.int16).reshape(n - i, q).T
        step = max(1, chunk // q)
        for start in range(0, len(a), step):
            b = np.repeat(a[start : start + step], q, axis=0)
            b.reshape(-1, q, n, n)[:, :, i, i:] = row
            b[:, i + 1 :, i] = b[:, i, i + 1 :]
            formed = len(b)
            for j in (i, *range(i)):
                b = b[(b[:, j] * b[:, i]).sum(axis=1) % p == 0]
            if i + 1 < n:
                tested += (formed - len(b)) * completions
                stage(b, i + 1)
                continue
            tested += formed
            for rk, c in zip(*np.unique(_batched_ranks(b, p), return_counts=True)):
                hist[int(rk)] = hist.get(int(rk), 0) + int(c)

    stage(np.zeros((1, n, n), dtype=np.int16), 0)
    return tuple(sorted(hist.items())), tested


def _batched_ranks(a, p):
    """The rank over F_p of every matrix of an (N, r, c) int array with
    entries in 0..p-1, as an int array of length N; ``a`` is eliminated in
    place.  Column by column, each matrix keeps its own next pivot row:
    the first row at or below it with a nonzero entry is swapped in,
    scaled to a leading 1 and cleared from the rows below.  Every product
    is below p^2 <= 169, so an int16 block stays int16."""
    count, r, c = a.shape
    inverse = np.array([0] + [pow(x, p - 2, p) for x in range(1, p)], dtype=a.dtype)
    top = np.zeros(count, dtype=np.intp)
    below = np.arange(r)
    for col in range(c):
        can = (a[:, :, col] != 0) & (below >= top[:, None])
        live = np.flatnonzero(can.any(axis=1))
        if not len(live):
            continue
        t, found, at = top[live], can[live].argmax(axis=1), np.arange(len(live))
        rows = a[live]
        pivot = rows[at, found]
        rows[at, found] = rows[at, t]
        pivot = pivot * inverse[pivot[:, col]][:, None] % p
        rows[at, t] = pivot
        rows -= (rows[:, :, col] * (below > t[:, None]))[:, :, None] * pivot[:, None, :]
        rows %= p
        a[live] = rows
        top[live] += 1
    return top


def _square_zero_ranks(n, p):
    """(((rank, count), ...), bins) over all square-zero symmetric n x n
    matrices: one full scan, independent of the stratified count, which
    unitary_points_direct keeps in the package memo once per (n, p)."""
    hist = _square_zero_scan(n, p)[0]
    return hist, len(hist)


def _isotropic_subspace_count(n, k, p):
    """k-dim totally isotropic subspaces of F_p^n for the standard symmetric
    form, in closed form (Taylor, The Geometry of the Classical Groups).
    For odd p the form is a nondegenerate quadratic space of discriminant
    1; a singular v leaves v-perp / v of dimension n - 2 and the same type,
    so the count is prod_{i<k} sigma(n - 2i) / prod_{i=1..k} (p^i - 1),
    sigma(m) the nonzero singular vectors of dimension m.  For p = 2 the
    isotropic vectors are the even-weight hyperplane H = 1-perp, where the
    form is alternating: symplectic of dimension n - 1 for odd n, and for
    even n with radical <1>, over a symplectic H/<1> of dimension n - 2,
    whose k-subspaces lift to 2^k complements of <1>."""
    if 2 * k > n:
        return 0
    if p == 2:
        def symplectic(k, m):
            top = math.prod(2 ** (m - 2 * i) - 1 for i in range(k))
            return top // math.prod(2**i - 1 for i in range(1, k + 1)) if k >= 0 else 0

        return symplectic(k, n - 1) if n % 2 else symplectic(k - 1, n - 2) + 2**k * symplectic(k, n - 2)
    eps = 1 if n % 4 == 0 or p % 4 == 1 else -1

    def sigma(m):
        return p ** (m - 1) - 1 if m % 2 else (p ** (m // 2) - eps) * (p ** (m // 2 - 1) + eps)

    return math.prod(sigma(n - 2 * i) for i in range(k)) // math.prod(p**i - 1 for i in range(1, k + 1))


def _invertible_symmetric_count(k, p):
    """Invertible symmetric k x k matrices over F_p, in closed form
    (MacWilliams, Orthogonal matrices over finite fields, 1969):
    p^(k(k+1)/2 - h^2) * prod_{i=1..h} (p^(2i-1) - 1) with h = ceil(k/2)."""
    h = (k + 1) // 2
    return p ** (k * (k + 1) // 2 - h * h) * math.prod(p ** (2 * i - 1) - 1 for i in range(1, h + 1))


def unitary_points_stratified(n, r, s, p) -> UnitaryCount:
    """Stratified count: A = C S C^t over isotropic column spaces.

    A square-zero symmetric A of rank k has totally isotropic column
    space (col A is contained in ker A = (col A)-perp), and conversely
    every pair (k-dim isotropic U, invertible symmetric k x k matrix S)
    yields exactly one such A.  Both factors are closed forms, so nothing
    is formed and the count takes no budget.
    """
    _check_unitary(n, r, s, p)
    hist = {}
    for k in range(min(r, s, n) + 1):
        c = _isotropic_subspace_count(n, k, p) * _invertible_symmetric_count(k, p)
        if c:
            hist[k] = c
    return UnitaryCount(sum(hist.values()), tuple(sorted(hist.items())))


def _check_unitary(n, r, s, p):
    Field(p)
    if n < 1 or r < 0 or s < 0:
        raise BadRanks("need n >= 1 and nonnegative rank bounds")


def _alternating_basis(n):
    """Basis of the alternating n x n matrices (skew, zero diagonal)."""
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            b = np.zeros((n, n), dtype=np.int64)
            b[i, j] = 1
            b[j, i] = -1
            out.append(b)
    return out


def _nilpotent_matrices(n, p, e, chunk):
    """All a with charpoly T^n (equivalently a^n = 0) and a^e = 0, in
    flat-index order (entry d is digit d of the index in base p), as int16
    (k, n, n) blocks formed at most ``chunk`` at a time."""
    total = p ** (n * n)
    for start in range(0, total, chunk):
        flat = np.arange(start, min(start + chunk, total), dtype=np.int64)
        a = np.empty((len(flat), n * n), dtype=np.int16)
        for d in range(n * n):
            a[:, d] = flat % p
            flat //= p
        a = a.reshape(-1, n, n)
        power = a
        for _ in range(min(n, e) - 1):
            power = power @ a % p
        yield a[~power.any(axis=(1, 2))]


def _linear_ranks(a, e, p):
    """For each a of an int16 (k, n, n) block, the rank of the linear map
    b -> sum_{i+j=e-1} a^i b (a^t)^j on the alternating matrices: that of
    the n^2 x m matrix whose column (u, v), u < v, is the image of
    E_uv - E_vu, sum_i a^i[:, u] a^j[:, v]^t - a^i[:, v] a^j[:, u]^t."""
    k, n = len(a), a.shape[1]
    u, v = np.triu_indices(n, 1)
    powers = [np.broadcast_to(np.eye(n, dtype=a.dtype), a.shape)]
    for _ in range(e - 1):
        powers.append(powers[-1] @ a % p)
    cond = np.zeros((k, n, n, len(u)), dtype=a.dtype)
    for i in range(e):
        left, right = powers[i], powers[e - 1 - i]
        cond += left[:, :, None, u] * right[:, None, :, v]
        cond -= left[:, :, None, v] * right[:, None, :, u]
        cond %= p
    return _batched_ranks(cond.reshape(k, n * n, len(u)), p)


def symplectic_P_points(g, e, p, strategy="direct", budget=None) -> int:
    """Count block matrices (a b; 0 a^t), a nilpotent of size ge, b
    alternating, with A^e = 0.

    'direct' scans all (a, b) pairs; 'linear' enumerates a and counts
    the solution space of the linear condition on b, namely
    sum_{i+j=e-1} a^i b (a^t)^j = 0, ranking a block of a at a time.  The
    matrices scanned, p^(n^2) for 'linear' and p^(n^2 + n(n-1)/2) for
    'direct', are spent from ``budget`` (a fresh Budget() if None) before
    any is formed; the budget is the only bound on g, e and p.
    """
    n = g * e
    Field(p)
    if g < 1 or e < 1:
        raise BadRanks("need g >= 1 and e >= 1")
    if strategy not in ("direct", "linear"):
        raise ValueError(f"unknown strategy {strategy!r}")
    budget = budget or Budget()
    m = n * n + (n * (n - 1) // 2 if strategy == "direct" else 0)
    _spend_power(budget, p, m, "symplectic matrices scanned")
    blocks = _nilpotent_matrices(n, p, e, _CHUNK)
    if strategy == "linear":
        # each a admits p^(m - rank) alternating b, m = n(n-1)/2
        total = 0
        for block in blocks:
            for rk, c in zip(*np.unique(_linear_ranks(block, e, p), return_counts=True)):
                total += int(c) * p ** (n * (n - 1) // 2 - int(rk))
        return total
    basis = _alternating_basis(n)
    m = len(basis)
    powers = p ** np.arange(m, dtype=np.int64)
    bs = []
    for flat in range(p**m):
        b = np.zeros((n, n), dtype=np.int64)
        for d, bb in zip((flat // powers) % p, basis):
            b = b + int(d) * bb
        bs.append(b % p)
    total = 0
    for block in blocks:
        for a in block.astype(np.int64):
            # the upper-right block of A^e is sum_{i+j=e-1} a^i b (a^t)^j,
            # with the powers of a formed once per a
            apow = [np.linalg.matrix_power(a, i) % p for i in range(e)]
            factors = [(apow[i], apow[e - 1 - i].T) for i in range(e)]
            for b in bs:
                acc = np.zeros((n, n), dtype=np.int64)
                for left, right in factors:
                    acc = (acc + left @ b @ right) % p
                if not acc.any():
                    total += 1
    return total
