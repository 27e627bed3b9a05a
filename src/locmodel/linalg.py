"""Exact linear algebra and subspace enumeration over prime fields F_p.

Matrices are dense numpy integer arrays with entries reduced mod p.
Subspaces are row spaces canonicalized to reduced row echelon form
(RREF), so equality and hashing are structural and O(1)-comparable.
``enumerate_subspaces`` streams every k-dimensional subspace of F_p^n
exactly once, ordered lexicographically by pivot-column set and then
by free entries; ``stable_subspaces`` generates the subspaces stable
under a nilpotent operator and returns them in that same order.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import prod

import numpy as np

from .errors import Budget, DimensionMismatch, SingularGram

_PRIMES = (2, 3, 5, 7, 11, 13)


class Field:
    """A prime field F_p with p small (p <= 13 by policy)."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if p not in _PRIMES:
            raise ValueError(f"p must be a prime <= 13, got {p}")
        self.p = p

    def __eq__(self, other):
        return isinstance(other, Field) and other.p == self.p

    def __hash__(self):
        return hash(("Field", self.p))

    def __repr__(self):
        return f"Field({self.p})"


class FieldMatrix:
    """A dense matrix over F_p.  Immutable by convention."""

    __slots__ = ("field", "array")

    def __init__(self, field: Field, entries):
        self.field = field
        a = np.asarray(entries, dtype=np.int64) % field.p
        if a.ndim != 2:
            raise DimensionMismatch("matrix must be 2-dimensional")
        a.setflags(write=False)
        self.array = a

    @classmethod
    def zero(cls, field: Field, rows: int, cols: int) -> "FieldMatrix":
        return cls(field, np.zeros((rows, cols), dtype=np.int64))

    @classmethod
    def identity(cls, field: Field, n: int) -> "FieldMatrix":
        return cls(field, np.eye(n, dtype=np.int64))

    @property
    def rows(self) -> int:
        return self.array.shape[0]

    @property
    def cols(self) -> int:
        return self.array.shape[1]

    def __matmul__(self, other: "FieldMatrix") -> "FieldMatrix":
        if self.cols != other.rows:
            raise DimensionMismatch("matmul shape mismatch")
        return FieldMatrix(self.field, (self.array @ other.array) % self.field.p)

    def __add__(self, other: "FieldMatrix") -> "FieldMatrix":
        if self.array.shape != other.array.shape:
            raise DimensionMismatch("addition shape mismatch")
        return FieldMatrix(self.field, self.array + other.array)

    def transpose(self) -> "FieldMatrix":
        return FieldMatrix(self.field, self.array.T)

    def __eq__(self, other):
        return (
            isinstance(other, FieldMatrix)
            and self.field == other.field
            and self.array.shape == other.array.shape
            and bool(np.array_equal(self.array, other.array))
        )

    def __hash__(self):
        return hash((self.field.p, self.array.shape, self.array.tobytes()))

    def __repr__(self):
        return f"FieldMatrix(p={self.field.p}, {self.array.tolist()})"


def _rref(a: np.ndarray, p: int):
    """Return (R, pivot_cols) with R the RREF of a over F_p, zero rows last.

    Eliminates on Python lists: on tiny matrices numpy indexing costs more."""
    a = np.asarray(a, dtype=np.int64)
    m, n = a.shape
    rows = (a % p).tolist()
    pivots: list[int] = []
    for col in range(n):
        top = len(pivots)
        if top == m:
            break
        for found in range(top, m):
            if rows[found][col]:
                break
        else:
            continue
        piv = rows[found]
        rows[found] = rows[top]
        inv = pow(piv[col], p - 2, p)
        if inv != 1:
            piv = [x * inv % p for x in piv]
        rows[top] = piv
        for r in range(m):
            c = rows[r][col]
            if c and r != top:
                rows[r] = [(x - c * y) % p for x, y in zip(rows[r], piv)]
        pivots.append(col)
    return np.array(rows, dtype=np.int64).reshape(m, n), pivots


def _nullspace(a: np.ndarray, p: int) -> np.ndarray:
    """Basis (as rows, RREF-derived) of {x : a @ x = 0} over F_p."""
    R, pivots = _rref(a, p)
    free = [c for c in range(R.shape[1]) if c not in pivots]
    basis = np.zeros((len(free), R.shape[1]), dtype=np.int64)
    basis[range(len(free)), free] = 1
    basis[:, pivots] = -R[: len(pivots), free].T % p
    return basis


def rank(m: FieldMatrix) -> int:
    """Row rank of m over its field."""
    _, pivots = _rref(m.array, m.field.p)
    return len(pivots)


class Subspace:
    """A subspace of F_p^n, stored as a full-row-rank RREF basis.

    Two subspaces are equal iff their RREF matrices are identical, so
    instances are usable as set members and dict keys.
    """

    __slots__ = ("field", "ambient_dim", "basis", "_key")

    def __init__(self, field: Field, ambient_dim: int, rref_rows: np.ndarray):
        # Internal constructor: rows must already be RREF without zero rows.
        self.field = field
        self.ambient_dim = ambient_dim
        b = np.asarray(rref_rows, dtype=np.int64) % field.p
        b.setflags(write=False)
        self.basis = b
        self._key = (field.p, ambient_dim, b.tobytes())

    @classmethod
    def from_rows(cls, field: Field, ambient_dim: int, rows) -> "Subspace":
        a = np.asarray(rows, dtype=np.int64).reshape(-1, ambient_dim)
        R, pivots = _rref(a, field.p)
        return cls(field, ambient_dim, R[: len(pivots)])

    @classmethod
    def zero(cls, field: Field, ambient_dim: int) -> "Subspace":
        return cls(field, ambient_dim, np.zeros((0, ambient_dim), dtype=np.int64))

    @classmethod
    def full(cls, field: Field, ambient_dim: int) -> "Subspace":
        return cls(field, ambient_dim, np.eye(ambient_dim, dtype=np.int64))

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def leq(self, other: "Subspace") -> bool:
        """True iff self is contained in other."""
        self._check(other)
        if self.dim > other.dim:
            return False
        if self.dim == other.dim:  # containment is equality of RREF bases
            return self._key == other._key
        stacked = np.vstack([other.basis, self.basis])
        _, pivots = _rref(stacked, self.field.p)
        return len(pivots) == other.dim

    def _check(self, other: "Subspace"):
        if self.ambient_dim != other.ambient_dim or self.field != other.field:
            raise DimensionMismatch("subspaces live in different ambients")

    def __eq__(self, other):
        return isinstance(other, Subspace) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return f"Subspace(p={self.field.p}, n={self.ambient_dim}, dim={self.dim})"


def join(a: Subspace, b: Subspace) -> Subspace:
    """Sum of two subspaces."""
    a._check(b)
    return Subspace.from_rows(a.field, a.ambient_dim, np.vstack([a.basis, b.basis]))


def image(f: FieldMatrix, a: Subspace) -> Subspace:
    """Image {f(v) : v in a}, with vectors acted on as columns."""
    if f.cols != a.ambient_dim:
        raise DimensionMismatch("map domain does not match ambient")
    rows = (a.basis @ f.array.T) % a.field.p
    return Subspace.from_rows(a.field, f.rows, rows)


def preimage(f: FieldMatrix, b: Subspace) -> Subspace:
    """Preimage {x : f(x) in b}."""
    if f.rows != b.ambient_dim:
        raise DimensionMismatch("map codomain does not match ambient")
    # x in preimage  iff  C f x = 0 for C spanning the annihilator of b.
    comp = _nullspace(b.basis, b.field.p)
    cond = (comp @ f.array) % b.field.p
    return Subspace.from_rows(b.field, f.cols, _nullspace(cond, b.field.p))


@lru_cache(maxsize=64)
def _invertible(m: FieldMatrix) -> bool:
    """Is the square matrix m invertible?  Memoised: perp asks it of the
    same few grams for every subspace."""
    return rank(m) == m.rows


def perp(a: Subspace, gram: FieldMatrix) -> Subspace:
    """Annihilator {w : v·gram·w = 0 for all v in a} for a perfect gram."""
    if gram.rows != a.ambient_dim or gram.cols != a.ambient_dim:
        raise DimensionMismatch("gram shape does not match ambient")
    if not _invertible(gram):
        raise SingularGram("gram matrix is not invertible")
    cond = (a.basis @ gram.array) % a.field.p
    return Subspace.from_rows(a.field, a.ambient_dim, _nullspace(cond, a.field.p))


def gaussian_binomial(n: int, k: int, p: int) -> int:
    """Number of k-dimensional subspaces of F_p^n."""
    if k < 0 or k > n:
        return 0
    num = prod(p**n - p**i for i in range(k))
    den = prod(p**k - p**i for i in range(k))
    return num // den


def enumerate_subspaces(n, k, field, budget=None):
    """Yield every k-dimensional subspace of F_p^n exactly once.

    Order: lexicographic on pivot-column sets, then lexicographic on
    the free entries (row-major, last entry fastest); ``_order_key``
    sorts into it.

    Spends their number, the Gaussian binomial, from the budget (a
    fresh Budget() if None) before the first is yielded.
    """
    if not 0 <= k <= n:
        raise DimensionMismatch(f"need 0 <= k <= n, got k={k}, n={n}")
    p = field.p
    (budget or Budget()).spend(gaussian_binomial(n, k, p), f"subspaces of dim {k} in F_{p}^{n}")
    for piv in itertools.combinations(range(n), k):
        base = np.zeros((k, n), dtype=np.int64)
        for i, c in enumerate(piv):
            base[i, c] = 1
        free = [
            (i, c)
            for i in range(k)
            for c in range(piv[i] + 1, n)
            if c not in piv
        ]
        if not free:
            yield Subspace(field, n, base.copy())
            continue
        for values in itertools.product(range(p), repeat=len(free)):
            m = base.copy()
            for (i, c), v in zip(free, values):
                m[i, c] = v
            yield Subspace(field, n, m)


def subspaces_between(a: Subspace, b: Subspace, k: int, budget=None):
    """Yield subspaces V with a <= V <= b and dim(V) = k."""
    a._check(b)
    if not a.leq(b):
        return
    if k < a.dim or k > b.dim:
        return
    # Complement of a inside b, picked greedily from b's basis rows.
    comp_rows = []
    current = a.basis
    cur_rank = a.dim
    for row in b.basis:
        cand = np.vstack([current, row.reshape(1, -1)])
        _, pivots = _rref(cand, a.field.p)
        if len(pivots) > cur_rank:
            comp_rows.append(row)
            current = cand
            cur_rank += 1
    comp = np.asarray(comp_rows, dtype=np.int64).reshape(-1, a.ambient_dim)
    qdim = b.dim - a.dim
    for w in enumerate_subspaces(qdim, k - a.dim, a.field, budget=budget):
        lifted = (w.basis @ comp) % a.field.p
        rows = np.vstack([a.basis, lifted.reshape(-1, a.ambient_dim)])
        yield Subspace.from_rows(a.field, a.ambient_dim, rows)


def _order_key(s: Subspace):
    """Sort key of the enumerate_subspaces order: the pivot columns, then
    the free entries, which the RREF bytes compare in row-major order."""
    return tuple((s.basis != 0).argmax(axis=1).tolist()), s.basis.tobytes()


def stable_subspaces(N: FieldMatrix, k: int, budget=None) -> list:
    """Every k-dimensional subspace stable under the nilpotent N, in
    enumerate_subspaces order.

    A stable V of dimension d has the stable image U = N(V), of smaller
    dimension as N is nilpotent, with U <= V <= N^-1(U) and U <= N(F_p^n).
    So level d is built from the levels below it: for each stable U inside
    the image of N, the V between U and N^-1(U) with N(V) = U, which
    yields each V once.  Every V examined, over all levels, is spent
    from one budget (a fresh Budget() if None).
    """
    n = N.rows
    if not 0 <= k <= n:
        raise DimensionMismatch(f"need 0 <= k <= n, got k={k}, n={n}")
    budget = budget or Budget()
    im = image(N, Subspace.full(N.field, n))
    pairs = []  # (U, N^-1(U)) for every stable U <= im of dimension < d
    level = [Subspace.zero(N.field, n)]
    for d in range(1, k + 1):
        pairs += [(u, preimage(N, u)) for u in level if u.leq(im)]
        level = []
        for u, pre in pairs:
            level += [v for v in subspaces_between(u, pre, d, budget) if image(N, v) == u]
    return sorted(level, key=_order_key)
