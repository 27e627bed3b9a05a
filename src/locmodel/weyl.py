"""Extended affine Weyl groups for GL_d and GSp_2g, as affine permutations.

An element is stored as one window (w(1), ..., w(N)) of a bijection w of
Z with w(i + kN) = w(i) + kN (Bjorner-Brenti ch. 8); composition is
(w v)(i) = w(v(i)).  The pair (lam, u) of t_lam * u in X_* >< W_0,
with (t_lam u)(t_mu v) = t_{lam + u(mu)} (uv), is kept only at the
boundary: WeylElement(datum, lam, u) encodes it and .lam, .u decode it.

For GL(d), N = d, the coweight lattice is Z^d, W_0 = S_d permutes the
coordinates, and w(i) = u(i) + d lam_{u(i)} (u(i) 1-based).  For
GSp(g), N = 2g, the lattice is {(v; c) : v_i + v_{2g+1-i} = c}, stored as
(v_1, ..., v_g, c), and W_0 is the group of signed permutations of rank
g acting by v_i -> v_j or v_i -> c - v_j.  (v; c) embeds as
(v_1, ..., v_g, c - v_g, ..., c - v_1) and the signed u as the
permutation of 1..N sending i -> j, N+1-i -> N+1-j for an entry +j at i
and i -> N+1-j, N+1-i -> j for -j; then the GL formula applies, and
w(N+1-i) = N+1+Nc - w(i).  The GSp elements are thus the affine
permutations commuting with i -> N+1-i up to the similitude shift, and
one kernel serves both groups.  Read as a monomial matrix, w(i) = r + kN
sends the basis vector at position i to pi^k times the one at r.

The base alcove is the standard one (x_1 > ... > x_d > x_1 - 1 for GL,
the analogous small dominant alcove for type C).  s_j is a right
descent of w iff w(j) > w(j+1), with w(0) = w(N) - N, and a left
descent iff it is a right descent of w^-1.  Length is Shi's inversion
count l(w) = sum_{i<j<=N} |floor((w(j) - w(i)) / N)|; for GSp the
sigma-fixed inversions are added once more and the sum halved.  Both
are stored on the element.  Bruhat comparison, reduced words and the
down-sets use the descents.  Bruhat down-sets come from the lifting
recursion `downset`; the tests check it against the subword expansion.
Parahoric subgroups W_I and their generators live here; the minimal
element of a double coset W_I x W_I is the member with no descent among
the generators, and nothing here lists elements by length.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from .errors import Budget, DatumMismatch, InvalidIndex


@dataclass(frozen=True)
class RootDatum:
    kind: str  # "GL" or "GSp"
    n: int  # d for GL, g for GSp

    def __post_init__(self):
        if self.kind not in ("GL", "GSp"):
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.n < 1:
            raise ValueError("rank parameter must be >= 1")

    # -- lattice bookkeeping -------------------------------------------------

    @property
    def coord_len(self) -> int:
        """Length of the stored coweight tuple."""
        return self.n if self.kind == "GL" else self.n + 1

    @cached_property
    def simple_indices(self):
        """Affine simple reflection indices, 0 included."""
        if self.kind == "GL":
            return range(self.n) if self.n > 1 else range(0)
        return range(self.n + 1)

    @property
    def vertex_labels(self):
        if self.kind == "GL":
            return range(self.n)
        return range(self.n + 1)

    def zero(self):
        return (0,) * self.coord_len

    # -- finite Weyl group ---------------------------------------------------

    def finite_identity(self):
        if self.kind == "GL":
            return tuple(range(self.n))
        return tuple(range(1, self.n + 1))

    def finite_elements(self):
        """All of W_0 (use only for small ranks)."""
        if self.kind == "GL":
            return [tuple(p) for p in itertools.permutations(range(self.n))]
        out = []
        for p in itertools.permutations(range(1, self.n + 1)):
            for signs in itertools.product((1, -1), repeat=self.n):
                out.append(tuple(s * v for s, v in zip(signs, p)))
        return out

    def act_coweight(self, u, lam):
        """u(lam), exact also on Fraction coordinates."""
        if self.kind == "GL":
            out = [0] * self.n
            for i in range(self.n):
                out[u[i]] = lam[i]
            return tuple(out)
        c = lam[-1]
        out = [0] * self.n
        for i in range(self.n):
            j = u[i]
            if j > 0:
                out[j - 1] = lam[i]
            else:
                out[-j - 1] = c - lam[i]
        return tuple(out) + (c,)


@dataclass(frozen=True)
class Coweight:
    """A coweight of the datum; for GSp the last coordinate is the similitude c."""

    datum: RootDatum
    value: tuple

    def __post_init__(self):
        object.__setattr__(self, "value", tuple(self.value))
        if len(self.value) != self.datum.coord_len:
            raise InvalidIndex("coweight has wrong length")

    def orbit(self):
        """The finite-Weyl orbit W_0 . value, deduplicated."""
        return sorted(
            {self.datum.act_coweight(u, self.value) for u in self.datum.finite_elements()}
        )


def _window(d: RootDatum, lam, u):
    """The window of t_lam u (see the module docstring)."""
    if d.kind == "GL":
        n = d.n
        return tuple(j + 1 + n * lam[j] for j in u)
    N, c = 2 * d.n, lam[-1]
    head = [j + N * lam[j - 1] if j > 0 else N + 1 + j + N * (c - lam[-j - 1]) for j in u]
    return (*head, *[N + 1 + N * c - v for v in reversed(head)])


def _inverse(w):
    """The window of w^-1: w(i) = r + kN gives w^-1(r) = i - kN."""
    N = len(w)
    out = [0] * N
    for i, v in enumerate(w):
        r = (v - 1) % N
        out[r] = i + r + 2 - v
    return tuple(out)


class WeylElement:
    """Immutable element t_lam * u of the extended affine Weyl group,
    stored as its window w; lam and u are derived from it on demand."""

    __slots__ = ("datum", "w", "_len", "_desc", "_lam_u", "_hash")

    def __init__(self, datum: RootDatum, lam, u):
        lam = tuple(lam)
        if len(lam) != datum.coord_len:
            raise InvalidIndex("coweight has wrong length")
        self._set(datum, _window(datum, lam, u))

    @classmethod
    def of_window(cls, datum: RootDatum, w) -> "WeylElement":
        """The element whose window is the tuple w (not checked)."""
        x = cls.__new__(cls)
        x._set(datum, w)
        return x

    def _set(self, datum, w):
        self.datum = datum
        self.w = w
        self._len = self._desc = self._lam_u = None
        self._hash = hash(w)

    def _decode(self):
        """(lam, u): each w(i) = r + kN with 1 <= r <= N is the image r of
        i under the finite part, and k the coordinate of the translation
        at r."""
        if self._lam_u is None:
            d, w = self.datum, self.w
            N = len(w)
            if d.kind == "GL":
                lam, u = [0] * N, []
                for v in w:
                    k, r = divmod(v - 1, N)
                    lam[r] = k
                    u.append(r)
                self._lam_u = tuple(lam), tuple(u)
            else:
                g, c = d.n, (w[0] + w[-1] - N - 1) // N
                lam, u = [0] * g, []
                for v in w[:g]:
                    k, r = divmod(v - 1, N)
                    if r < g:
                        lam[r] = k
                        u.append(r + 1)
                    else:
                        lam[N - 1 - r] = c - k
                        u.append(r - N)
                self._lam_u = (*lam, c), tuple(u)
        return self._lam_u

    @property
    def lam(self):
        return self._decode()[0]

    @property
    def u(self):
        return self._decode()[1]

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        if self.datum != other.datum:
            raise DatumMismatch("cannot multiply across data")
        w = self.w
        N = len(w)
        return WeylElement.of_window(self.datum, tuple(w[(v - 1) % N] + (v - 1) // N * N for v in other.w))

    def inv(self) -> "WeylElement":
        return WeylElement.of_window(self.datum, _inverse(self.w))

    def __eq__(self, other):
        return isinstance(other, WeylElement) and self.w == other.w and self.datum == other.datum

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"W({self.lam}, {self.u})"


# -- constructors ------------------------------------------------------------


def identity(datum: RootDatum) -> WeylElement:
    return WeylElement(datum, datum.zero(), datum.finite_identity())


def translation(datum: RootDatum, lam) -> WeylElement:
    lam = tuple(lam)
    if datum.kind == "GSp":
        if len(lam) != datum.n + 1:
            raise InvalidIndex("GSp coweight is (v_1..v_g, c)")
    return WeylElement(datum, lam, datum.finite_identity())


def finite(datum: RootDatum, u) -> WeylElement:
    return WeylElement(datum, datum.zero(), tuple(u))


@lru_cache(maxsize=None)
def simple_reflection(datum: RootDatum, j: int) -> WeylElement:
    """s_j swaps the positions j and j+1 (0 and 1 meaning w(0) = w(N) - N),
    and for GSp also their mirrors N-j and N+1-j."""
    if j not in datum.simple_indices:
        raise InvalidIndex(f"no affine simple reflection {j} for {datum}")
    gsp = datum.kind == "GSp"
    N = 2 * datum.n if gsp else datum.n
    w = list(range(1, N + 1))
    for a in {j, (N - j) % N} if gsp else {j}:
        if a == 0:
            w[0], w[-1] = 0, N + 1
        else:
            w[a - 1], w[a] = w[a], w[a - 1]
    return WeylElement.of_window(datum, tuple(w))


# -- basic maps --------------------------------------------------------------


def kappa(x: WeylElement) -> int:
    """Component homomorphism: coordinate sum for GL, similitude for GSp."""
    w = x.w
    N = len(w)
    if x.datum.kind == "GL":
        return (sum(w) - N * (N + 1) // 2) // N
    return (w[0] + w[-1] - N - 1) // N


def length(x: WeylElement) -> int:
    """Shi's count sum_{i<j<=N} |floor((w(j) - w(i)) / N)| of the affine
    inversions of the window.  For GSp this counts every inversion of
    type C twice except the sigma-fixed ones; those are the i with
    floor((2 w(i) - 2 - Nc) / N) >= k0(i), k0 = 1 on the first half of
    the window and 2 on the second, each counted that floor - k0 + 1
    times, so the sum of both halves is twice the length."""
    if x._len is None:
        w = x.w
        N = len(w)
        total = sum(abs((b - a) // N) for i, a in enumerate(w) for b in w[i + 1 :])
        if x.datum.kind == "GSp":
            shift = 2 + N * kappa(x)
            g = x.datum.n
            total += sum(max(0, (2 * v - shift) // N + (i < g) - 1) for i, v in enumerate(w))
            total //= 2
        x._len = total
    return x._len


# -- descents ---------------------------------------------------------------


def _right_mask(w, top) -> int:
    """The bitmask of the j < top with w(j) > w(j+1), where
    w(0) = w(N) - N."""
    mask = int(w[-1] - len(w) > w[0])
    for j in range(1, top):
        if w[j - 1] > w[j]:
            mask |= 1 << j
    return mask


def descents(x: WeylElement):
    """(left, right): bitmasks of the j with l(s_j x) < l(x), and of the
    j with l(x s_j) < l(x), read off the windows of x^-1 and x and stored
    on x; no product and no length is formed."""
    if x._desc is None:
        top = len(x.datum.simple_indices)
        x._desc = _right_mask(_inverse(x.w), top), _right_mask(x.w, top)
    return x._desc


def _no_descent_in(datum: RootDatum, w, gens: int) -> bool:
    """Has the window w no left and no right descent in the bitmask gens?
    The right descents are read first, and w^-1 is formed only when none
    of them is in gens."""
    top = len(datum.simple_indices)
    return not (_right_mask(w, top) & gens or _right_mask(_inverse(w), top) & gens)


def _lowest(mask: int) -> int:
    """The smallest j in a nonzero bitmask."""
    return (mask & -mask).bit_length() - 1


# -- Bruhat order ------------------------------------------------------------


def _right_descent(y: WeylElement):
    right = descents(y)[1]
    return simple_reflection(y.datum, _lowest(right)) if right else None


def bruhat_leq(x: WeylElement, y: WeylElement) -> bool:
    """x <= y in Bruhat order (false across distinct kappa components)."""
    if x.datum != y.datum:
        raise DatumMismatch("cannot compare across data")
    if kappa(x) != kappa(y):
        return False
    lx, ly = length(x), length(y)
    while True:
        if lx > ly:
            return False
        if ly == 0:
            return x == y
        j = _lowest(descents(y)[1])
        s = simple_reflection(y.datum, j)
        if descents(x)[1] >> j & 1:
            x, lx = x * s, lx - 1
        y, ly = y * s, ly - 1


def reduced_word(x: WeylElement):
    """Return (word, omega_power) with x = s_{w_0}...s_{w_k} * tau^omega_power;
    each letter is the smallest left descent of what remains."""
    word = []
    y = x
    while left := descents(y)[0]:
        j = _lowest(left)
        word.append(j)
        y = simple_reflection(y.datum, j) * y
    return word, kappa(y)


def downset(y: WeylElement, memo: dict, budget=None) -> frozenset:
    """The Bruhat down-set of y: D(y) = D(ys) | D(ys) s for a right
    descent s of y (lifting property, Bjorner-Brenti).  memo maps
    elements to their down-sets and may be shared between calls; the
    size of each down-set stored in it is spent from the budget (a
    fresh Budget() if None)."""
    budget = budget or Budget()
    chain = []
    while y not in memo:
        s = _right_descent(y)
        if s is None:
            memo[y] = frozenset((y,))
            budget.spend(1, "down-set elements")
            break
        chain.append((y, s))
        y = y * s
    for z, s in reversed(chain):
        memo[z] = memo[y].union([x * s for x in memo[y]])
        budget.spend(len(memo[z]), "down-set elements")
        y = z
    return memo[y]


# -- parahoric machinery -----------------------------------------------------


@dataclass(frozen=True)
class ParahoricSpec:
    datum: RootDatum
    I: frozenset

    def __post_init__(self):
        labels = set(self.datum.vertex_labels)
        if not self.I:
            raise InvalidIndex("I must be nonempty")
        if not set(self.I) <= labels:
            raise InvalidIndex(f"I must be a subset of {sorted(labels)}")
        object.__setattr__(self, "I", frozenset(self.I))

    @property
    def generator_indices(self):
        return [j for j in self.datum.simple_indices if j not in self.I]

    @property
    def generator_mask(self) -> int:
        """The generators of W_I as a bitmask, as descents reports them."""
        return sum(1 << j for j in self.generator_indices)


def parahoric_generators(spec: ParahoricSpec):
    return [simple_reflection(spec.datum, j) for j in spec.generator_indices]


@lru_cache(maxsize=None)
def parahoric_subgroup(spec: ParahoricSpec):
    """All elements of W_I (finite since I is nonempty)."""
    gens = parahoric_generators(spec)
    seen = {identity(spec.datum)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for x in frontier:
            for s in gens:
                y = x * s
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return frozenset(seen)


# -- alcove vertices ---------------------------------------------------------


def _affine_map_of(x: WeylElement):
    """(A, b) with x acting as p -> A p + b on Q^coord_len."""
    d = x.datum
    m = d.coord_len
    cols = []
    for k in range(m):
        e = tuple(Fraction(int(i == k)) for i in range(m))
        cols.append(d.act_coweight(x.u, e))
    A = [[cols[k][r] for k in range(m)] for r in range(m)]
    b = [Fraction(v) for v in x.lam]
    return A, b


def solve_exact(rows, rhs):
    """Solve the linear system rows . x = rhs over Q; require a unique solution."""
    m = len(rows[0])
    aug = [list(r) + [v] for r, v in zip(rows, rhs)]
    pivots = []
    row = 0
    for col in range(m):
        pr = next((r for r in range(row, len(aug)) if aug[r][col] != 0), None)
        if pr is None:
            continue
        aug[row], aug[pr] = aug[pr], aug[row]
        inv = Fraction(1, 1) / aug[row][col]
        aug[row] = [v * inv for v in aug[row]]
        for r in range(len(aug)):
            if r != row and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[row])]
        pivots.append(col)
        row += 1
    for r in range(row, len(aug)):
        if aug[r][m] != 0:
            raise InvalidIndex("inconsistent vertex system")
    if len(pivots) != m:
        raise InvalidIndex("vertex system is underdetermined")
    sol = [Fraction(0)] * m
    for r, col in enumerate(pivots):
        sol[col] = aug[r][m]
    return tuple(sol)


@lru_cache(maxsize=None)
def alcove_vertices(datum: RootDatum):
    """Base-alcove vertex representatives a_i, one per vertex label.

    For GL the standard representatives a_0 = 0, a_i = omega_i are used
    (the test suite verifies they are fixed by every s_j, j != i).  For
    GSp the vertex a_i is derived as the fixed point of all implemented
    reflections s_j with j != i, normalized to similitude coordinate 0;
    nothing is hard-coded.
    """
    out = {}
    if datum.kind == "GL":
        d = datum.n
        for i in datum.vertex_labels:
            out[i] = tuple(Fraction(int(k < i)) for k in range(d))
        return out
    m = datum.coord_len
    for i in datum.vertex_labels:
        rows, rhs = [], []
        for j in datum.simple_indices:
            if j == i:
                continue
            A, b = _affine_map_of(simple_reflection(datum, j))
            for r in range(m):
                row = [A[r][k] - Fraction(int(r == k)) for k in range(m)]
                rows.append(row)
                rhs.append(-b[r])
        # normalize along the central line: similitude coordinate 0
        rows.append([Fraction(int(k == m - 1)) for k in range(m)])
        rhs.append(Fraction(0))
        out[i] = solve_exact(rows, rhs)
    return out
