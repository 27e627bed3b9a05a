"""Exact linear algebra and subspace enumeration over prime fields F_p.

Matrices are dense numpy integer arrays with entries reduced mod p; each
caches its nonzero entries column by column for its products with
vectors.  A subspace is stored as its reduced row echelon form (RREF):
the nonzero rows as tuples of Python ints, and their pivot columns.
Equality and hashing are structural, containment reduces each row by
the other space's pivot rows, and images are summed over the nonzero
coordinates, all on Python ints.  A matrix memoises the images it has
computed, so a map built with a model (and dropped with it) computes
each subspace's image once.  ``enumerate_subspaces`` streams every
k-dimensional subspace of F_p^n exactly once, ordered lexicographically
by pivot-column set and then by free entries; ``stable_subspaces``
generates the subspaces stable under a nilpotent operator and returns
them in that same order, memoised with the invertibility of grams in
errors._memo on the matrix's contents, so that models with one N share it.
"""

from __future__ import annotations

import itertools
from math import prod

import numpy as np

from .errors import Budget, DimensionMismatch, SingularGram, _memo

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

    __slots__ = ("field", "array", "_columns", "_images", "_distinct_images")

    def __init__(self, field: Field, entries):
        self.field = field
        a = np.asarray(entries, dtype=np.int64) % field.p
        if a.ndim != 2:
            raise DimensionMismatch("matrix must be 2-dimensional")
        a.setflags(write=False)
        self.array = a
        self._columns = None
        # image's memo: subspace key -> its image, and each distinct image
        # once under its own key, so that equal images share one object
        self._images, self._distinct_images = {}, {}

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

    @property
    def columns(self) -> list:
        """Per column, its nonzero entries as (row, value) pairs."""
        if self._columns is None:
            self._columns = [[(r, x) for r, x in enumerate(col) if x] for col in self.array.T.tolist()]
        return self._columns

    def __matmul__(self, other: "FieldMatrix") -> "FieldMatrix":
        if self.cols != other.rows:
            raise DimensionMismatch("matmul shape mismatch")
        return FieldMatrix(self.field, (self.array @ other.array) % self.field.p)

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


def _rref_rows(rows, p):
    """Gauss-Jordan elimination over F_p of a list of int sequences of one
    length: (the nonzero RREF rows as int tuples, their pivot columns)."""
    rows = [[x % p for x in r] for r in rows]
    m, top, pivots = len(rows), 0, []
    for col in range(len(rows[0]) if m else 0):
        for found in range(top, m):
            if rows[found][col]:
                break
        else:
            continue
        piv = rows[found]
        rows[found] = rows[top]
        if piv[col] != 1:
            inv = pow(piv[col], p - 2, p)
            piv = [x * inv % p for x in piv]
        rows[top] = piv
        for r in range(m):
            c = rows[r][col]
            if c and r != top:
                rows[r] = [(x - c * y) % p for x, y in zip(rows[r], piv)]
        pivots.append(col)
        top += 1
        if top == m:
            break
    return tuple(map(tuple, rows[:top])), tuple(pivots)


def _nullspace(rows, n: int, p: int) -> list:
    """Basis rows of {x : a x = 0} over F_p, for a with the given rows and
    n columns: one per free column of the RREF of a."""
    R, pivots = _rref_rows(rows, p)
    row_of = dict(zip(pivots, R))
    return [
        [-row_of[c][free] % p if c in row_of else int(c == free) for c in range(n)]
        for free in range(n)
        if free not in row_of
    ]


def _times(rows, f: FieldMatrix) -> list:
    """The row vectors v·f (unreduced) for v in rows, from f's columns."""
    return [[sum(v[r] * x for r, x in col) for col in f.columns] for v in rows]


def rank(m: FieldMatrix) -> int:
    """Row rank of m over its field."""
    return len(_rref_rows(m.array.tolist(), m.field.p)[1])


class Subspace:
    """A subspace of F_p^n, stored as its RREF rows (int tuples, no zero
    rows) and their pivot columns.

    Two subspaces are equal iff their RREF rows are identical, so
    instances are usable as set members and dict keys.
    """

    __slots__ = ("field", "ambient_dim", "rows", "piv", "dim", "_key", "_basis")

    def __init__(self, field: Field, ambient_dim: int, rows: tuple, piv: tuple):
        # Internal constructor: rows must already be RREF, reduced mod p,
        # without zero rows, with pivot columns piv.
        self.field = field
        self.ambient_dim = ambient_dim
        self.rows = rows
        self.piv = piv
        self.dim = len(rows)
        self._key = (field.p, ambient_dim, rows)
        self._basis = None

    @classmethod
    def from_rows(cls, field: Field, ambient_dim: int, rows) -> "Subspace":
        """The span of rows: an integer array or a sequence of int sequences."""
        if isinstance(rows, np.ndarray):
            rows = rows.astype(np.int64).reshape(-1, ambient_dim).tolist()
        return cls(field, ambient_dim, *_rref_rows(rows, field.p))

    @classmethod
    def zero(cls, field: Field, ambient_dim: int) -> "Subspace":
        return cls(field, ambient_dim, (), ())

    @classmethod
    def full(cls, field: Field, ambient_dim: int) -> "Subspace":
        return cls.from_rows(field, ambient_dim, np.eye(ambient_dim, dtype=np.int64))

    @property
    def basis(self) -> np.ndarray:
        """The RREF rows as a read-only int64 array of shape (dim, ambient_dim)."""
        if self._basis is None:
            self._basis = np.array(self.rows, dtype=np.int64).reshape(self.dim, self.ambient_dim)
            self._basis.setflags(write=False)
        return self._basis

    def leq(self, other: "Subspace") -> bool:
        """True iff self is contained in other.

        A vector v lies in other iff v = sum of v[c] times the RREF row of
        other with pivot c, over other's pivots c."""
        self._check(other)
        if self.dim >= other.dim:  # at equal dimensions, equality of RREF rows
            return self.dim == other.dim and self._key == other._key
        p, pivot_rows = self.field.p, list(zip(other.piv, other.rows))
        for v in self.rows:
            w = v
            for c, row in pivot_rows:
                if v[c]:
                    w = [x - v[c] * y for x, y in zip(w, row)]
            if any(x % p for x in w):
                return False
        return True

    def _check(self, other: "Subspace"):
        if self.ambient_dim != other.ambient_dim or self.field.p != other.field.p:
            raise DimensionMismatch("subspaces live in different ambients")

    def __eq__(self, other):
        return isinstance(other, Subspace) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return f"Subspace(p={self.field.p}, n={self.ambient_dim}, dim={self.dim})"


def image(f: FieldMatrix, a: Subspace) -> Subspace:
    """Image {f(v) : v in a}, with vectors acted on as columns: each f(v)
    is summed from the columns of f at the nonzero coordinates of v.
    Memoised on f, so it lives and dies with the map; equal images are
    one object."""
    img = f._images.get(a._key)
    if img is not None:
        return img
    if f.cols != a.ambient_dim:
        raise DimensionMismatch("map domain does not match ambient")
    columns, m, out = f.columns, f.rows, []
    for v in a.rows:
        w = [0] * m
        for c, x in enumerate(v):
            if x:
                for r, y in columns[c]:
                    w[r] += x * y
        out.append(w)
    img = Subspace.from_rows(a.field, m, out)
    img = f._images[a._key] = f._distinct_images.setdefault(img._key, img)
    return img


def preimage(f: FieldMatrix, b: Subspace) -> Subspace:
    """Preimage {x : f(x) in b}."""
    if f.rows != b.ambient_dim:
        raise DimensionMismatch("map codomain does not match ambient")
    # x in preimage  iff  C f x = 0 for C spanning the annihilator of b.
    p = b.field.p
    cond = _times(_nullspace(b.rows, b.ambient_dim, p), f)
    return Subspace.from_rows(b.field, f.cols, _nullspace(cond, f.cols, p))


def _invertible(m: FieldMatrix):
    """(is the square m invertible, 1): perp asks it of the same few grams."""
    return rank(m) == m.rows, 1


def perp(a: Subspace, gram: FieldMatrix) -> Subspace:
    """Annihilator {w : v·gram·w = 0 for all v in a} for a perfect gram."""
    if gram.rows != a.ambient_dim or gram.cols != a.ambient_dim:
        raise DimensionMismatch("gram shape does not match ambient")
    if not _memo(_invertible, gram, key=(_invertible, gram.field.p, gram.array.shape, gram.array.tobytes())):
        raise SingularGram("gram matrix is not invertible")
    null = _nullspace(_times(a.rows, gram), a.ambient_dim, a.field.p)
    return Subspace.from_rows(a.field, a.ambient_dim, null)


def isotropic(a: Subspace, gram: FieldMatrix) -> bool:
    """Is v·gram·w = 0 for all v, w in a?"""
    if gram.rows != a.ambient_dim or gram.cols != a.ambient_dim:
        raise DimensionMismatch("gram shape does not match ambient")
    p = a.field.p
    return not any(sum(map(int.__mul__, u, w)) % p for u in _times(a.rows, gram) for w in a.rows)


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
        base = [[int(c == pc) for c in range(n)] for pc in piv]
        free = [(i, c) for i in range(k) for c in range(piv[i] + 1, n) if c not in piv]
        for values in itertools.product(range(p), repeat=len(free)):
            rows = [r[:] for r in base]
            for (i, c), v in zip(free, values):
                rows[i][c] = v
            yield Subspace(field, n, tuple(map(tuple, rows)), piv)


def subspaces_between(a: Subspace, b: Subspace, k: int, budget=None):
    """Yield subspaces V with a <= V <= b and dim(V) = k."""
    if not a.leq(b) or not a.dim <= k <= b.dim:
        return
    # Complement of a inside b: row j of b unless j is a pivot of a's
    # coordinates in b's basis (a's entries at b's pivots), reversed.
    skip = {b.dim - 1 - c for c in _rref_rows([[v[q] for q in reversed(b.piv)] for v in a.rows], a.field.p)[1]}
    comp = [row for j, row in enumerate(b.rows) if j not in skip]
    for w in enumerate_subspaces(len(comp), k - a.dim, a.field, budget=budget):
        # w's rows are nonzero, so each lifted row sums at least one scaled row of comp
        lifted = [list(map(sum, zip(*[[x * y for y in r] for x, r in zip(c, comp) if x]))) for c in w.rows]
        yield Subspace.from_rows(a.field, a.ambient_dim, a.rows + tuple(lifted))


def _order_key(s: Subspace):
    """Sort key of the enumerate_subspaces order: the pivot columns, then
    the free entries, which the RREF rows compare in row-major order."""
    return s.piv, s.rows


def stable_subspaces(N: FieldMatrix, k: int, budget=None) -> list:
    """Every k-dimensional subspace stable under the nilpotent N, in
    enumerate_subspaces order.

    A stable V of dimension d has the stable image U = N(V), of smaller
    dimension as N is nilpotent, with U <= V <= N^-1(U) and U <= N(F_p^n).
    So level d is built from the levels below it: for each stable U inside
    the image of N, the V between U and N^-1(U) with N(V) = U, which
    yields each V once.  Every V examined, over all levels, is spent
    from one budget (a fresh Budget() if None), again on a memo hit.
    """
    n = N.rows
    if not 0 <= k <= n:
        raise DimensionMismatch(f"need 0 <= k <= n, got k={k}, n={n}")
    a = N.array
    return list(_memo(_stable, N, k, budget=budget or Budget(), key=(_stable, N.field.p, a.shape, a.tobytes(), k)))


def _stable(N: FieldMatrix, k: int, budget):
    im = image(N, Subspace.full(N.field, N.rows))
    pairs = []  # (U, N^-1(U)) for every stable U <= im of dimension < d
    level = [Subspace.zero(N.field, N.rows)]
    for d in range(1, k + 1):
        pairs += [(u, preimage(N, u)) for u in level if u.leq(im)]
        level = []
        for u, pre in pairs:
            level += [v for v in subspaces_between(u, pre, d, budget) if image(N, v) == u]
    return tuple(sorted(level, key=_order_key)), len(level)
