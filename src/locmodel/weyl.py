"""Extended affine Weyl groups for GL_d and GSp_2g.

An element is a pair (lam, u) representing t_lam * u in X_* >< W_0,
with composition (t_lam u)(t_mu v) = t_{lam + u(mu)} (uv).

For GL(d) the coweight lattice is Z^d and W_0 = S_d.  For GSp(g) the
lattice is {(v; c) : v_i + v_{2g+1-i} = c}, stored as
(v_1, ..., v_g, c), and W_0 is the group of signed permutations of
rank g acting by v_i -> v_j or v_i -> c - v_j.

Length is computed by counting affine-root inversions directly; the
closed translation-length formula <lam+, 2rho> is used only as a
cross-check in the test suite.  The count is memoised per process on
(datum, lam, u).  The base alcove is the standard one
(x_1 > x_2 > ... > x_d > x_1 - 1 for GL, and the analogous dominant
small alcove for type C).  Descents are found by root signs: the
simple affine root beta_j that s_j inverts is derived once per datum
from simple_reflection, and s_j is a right (left) descent of x exactly
when x(beta_j) (x^-1(beta_j)) is negative, so no product and no length
is formed; Bruhat comparison, reduced words and the down-sets use
them.  Bruhat down-sets come from the lifting recursion `downset`; the
tests check it against the subword expansion.  Parahoric subgroups W_I
and their generators live here; the minimal element of a double coset
W_I x W_I is the member with no descent among the generators, and
nothing here lists elements by length.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

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

    @property
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

    # -- roots ---------------------------------------------------------------

    def roots(self):
        return _roots(self.kind, self.n)

    @staticmethod
    def is_positive_root(alpha) -> bool:
        for a in alpha:
            if a:
                return a > 0
        return False

    def pairing(self, lam, alpha) -> int:
        """<lam, alpha> for a coweight lam and root vector alpha."""
        if self.kind == "GL":
            return sum(l * a for l, a in zip(lam, alpha))
        c = lam[-1]
        s = sum(l * a for l, a in zip(lam[:-1], alpha))
        total = sum(alpha)
        # total is always even for type C root vectors
        return s - c * (total // 2)

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

    def compose_finite(self, u, v):
        if self.kind == "GL":
            return tuple(u[v[i]] for i in range(self.n))
        return tuple(self._apply_signed(u, v[i]) for i in range(self.n))

    def invert_finite(self, u):
        if self.kind == "GL":
            inv = [0] * self.n
            for i, j in enumerate(u):
                inv[j] = i
            return tuple(inv)
        inv = [0] * self.n
        for i, j in enumerate(u):
            if j > 0:
                inv[j - 1] = i + 1
            else:
                inv[-j - 1] = -(i + 1)
        return tuple(inv)

    @staticmethod
    def _apply_signed(u, j):
        return u[j - 1] if j > 0 else -u[-j - 1]

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

    def act_root(self, u, alpha):
        if self.kind == "GL":
            out = [0] * self.n
            for i in range(self.n):
                out[u[i]] = alpha[i]
            return tuple(out)
        out = [0] * self.n
        for i in range(self.n):
            j = u[i]
            if j > 0:
                out[j - 1] = alpha[i]
            else:
                out[-j - 1] = -alpha[i]
        return tuple(out)

    def negate(self, lam):
        return tuple(-x for x in lam)

    def add(self, lam, mu):
        return tuple(a + b for a, b in zip(lam, mu))

    # -- simple reflections --------------------------------------------------

    def finite_simple(self, j):
        """The finite reflection s_j, 1 <= j <= rank."""
        u = list(self.finite_identity())
        if self.kind == "GL":
            if not 1 <= j <= self.n - 1:
                raise InvalidIndex(f"no finite simple reflection {j}")
            u[j - 1], u[j] = u[j], u[j - 1]
        else:
            if not 1 <= j <= self.n:
                raise InvalidIndex(f"no finite simple reflection {j}")
            if j < self.n:
                u[j - 1], u[j] = u[j], u[j - 1]
            else:
                u[self.n - 1] = -self.n
        return tuple(u)

    def highest_root_data(self):
        """(s_theta, theta_coweight) for the affine reflection s_0."""
        if self.kind == "GL":
            if self.n < 2:
                raise InvalidIndex("GL(1) has no affine simple reflections")
            u = list(self.finite_identity())
            u[0], u[-1] = u[-1], u[0]
            theta_v = (1,) + (0,) * (self.n - 2) + (-1,)
            return tuple(u), theta_v
        u = list(self.finite_identity())
        u[0] = -1
        theta_v = (1,) + (0,) * (self.n - 1) + (0,)
        return tuple(u), theta_v


@lru_cache(maxsize=None)
def _roots(kind, n):
    roots = []
    if kind == "GL":
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                a = [0] * n
                a[i], a[j] = 1, -1
                roots.append(tuple(a))
    else:
        for i in range(n):
            for j in range(i + 1, n):
                for si, sj in ((1, -1), (1, 1), (-1, 1), (-1, -1)):
                    a = [0] * n
                    a[i], a[j] = si, sj
                    roots.append(tuple(a))
        for i in range(n):
            a = [0] * n
            a[i] = 2
            roots.append(tuple(a))
            a = [0] * n
            a[i] = -2
            roots.append(tuple(a))
    return tuple(roots)


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


class WeylElement:
    """Immutable element t_lam * u of the extended affine Weyl group."""

    __slots__ = ("datum", "lam", "u", "_len", "_desc", "_hash")

    def __init__(self, datum: RootDatum, lam, u):
        self.datum = datum
        self.lam = tuple(lam)
        self.u = tuple(u)
        if len(self.lam) != datum.coord_len:
            raise InvalidIndex("coweight has wrong length")
        self._len = None
        self._desc = None
        self._hash = hash((datum, self.lam, self.u))

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        if self.datum != other.datum:
            raise DatumMismatch("cannot multiply across data")
        d = self.datum
        lam = d.add(self.lam, d.act_coweight(self.u, other.lam))
        return WeylElement(d, lam, d.compose_finite(self.u, other.u))

    def inv(self) -> "WeylElement":
        d = self.datum
        ui = d.invert_finite(self.u)
        return WeylElement(d, d.negate(d.act_coweight(ui, self.lam)), ui)

    def __eq__(self, other):
        return (
            isinstance(other, WeylElement)
            and self.datum == other.datum
            and self.lam == other.lam
            and self.u == other.u
        )

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
    if j not in datum.simple_indices:
        raise InvalidIndex(f"no affine simple reflection {j} for {datum}")
    if j == 0:
        s_theta, theta_v = datum.highest_root_data()
        return WeylElement(datum, theta_v, s_theta)
    return finite(datum, datum.finite_simple(j))


# -- basic maps --------------------------------------------------------------


def kappa(x: WeylElement) -> int:
    """Component homomorphism: coordinate sum for GL, similitude for GSp."""
    if x.datum.kind == "GL":
        return sum(x.lam)
    return x.lam[-1]


def length(x: WeylElement) -> int:
    """Number of positive affine roots sent to negative ones by x.

    The image of (alpha, k) under t_lam u is (u(alpha), k - <lam, u(alpha)>);
    counting k >= 0 (k >= 1 for negative alpha) with negative image gives
    the length, with no reference to a closed formula.
    """
    if x._len is None:
        x._len = _inversions(x.datum, x.lam, x.u)
    return x._len


@lru_cache(maxsize=None)
def _inversions(d: RootDatum, lam, u) -> int:
    total = 0
    for alpha in d.roots():
        k_min = 0 if d.is_positive_root(alpha) else 1
        beta = d.act_root(u, alpha)
        m = d.pairing(lam, beta)
        cnt = max(0, m - k_min)
        if not d.is_positive_root(beta) and m >= k_min:
            cnt += 1
        total += cnt
    return total


# -- descents ---------------------------------------------------------------


def _is_negative(beta, k) -> bool:
    """Is the affine root (beta, k) negative: k < 0, or k = 0 and beta < 0?"""
    return k < 0 or (k == 0 and not RootDatum.is_positive_root(beta))


@lru_cache(maxsize=None)
def simple_affine_roots(datum: RootDatum):
    """((j, beta_j), ...): for each affine simple reflection s_j the one
    positive affine root beta_j = (alpha, k) that s_j sends to a negative
    one.  Derived from simple_reflection: for s_j = t_lam u the image of
    (alpha, k) is (u(alpha), k - <lam, u(alpha)>), so only the k between
    0 (1 for negative alpha) and <lam, u(alpha)> can be inverted."""
    out = []
    for j in datum.simple_indices:
        s = simple_reflection(datum, j)
        inverted = []
        for alpha in datum.roots():
            beta = datum.act_root(s.u, alpha)
            m = datum.pairing(s.lam, beta)
            k_min = 0 if datum.is_positive_root(alpha) else 1
            inverted += [(alpha, k) for k in range(k_min, m + 1) if _is_negative(beta, k - m)]
        if len(inverted) != 1:  # pragma: no cover
            raise AssertionError(f"s_{j} inverts {len(inverted)} positive affine roots")
        out.append((j, inverted[0]))
    return tuple(out)


def descents(x: WeylElement):
    """(left, right): bitmasks of the j with l(s_j x) < l(x), and of the
    j with l(x s_j) < l(x), found by root signs and stored on x.

    s_j is a right descent iff x(beta_j) < 0 and a left descent iff
    x^-1(beta_j) < 0 (beta_j = (alpha, k) from simple_affine_roots).  For
    x = t_lam u, x(alpha, k) = (u(alpha), k - <lam, u(alpha)>) and
    x^-1(alpha, k) = (u^-1(alpha), k + <lam, alpha>); no product and no
    length is formed.
    """
    if x._desc is None:
        x._desc = _descent_masks(x.datum, x.lam, x.u)
    return x._desc


def _descent_masks(d: RootDatum, lam, u):
    """descents of t_lam u, without forming the element."""
    c = lam[-1]
    left = right = 0
    for bit, k, beta, beta_pos, alpha, alpha_pos in _descent_table(d, u):
        (t1, b1), (t2, b2), h = beta
        m = k - b1 * lam[t1] - b2 * lam[t2] + c * h
        if m < 0 or (m == 0 and not beta_pos):
            right |= bit
        (t1, b1), (t2, b2), h = alpha
        m = k + b1 * lam[t1] + b2 * lam[t2] - c * h
        if m < 0 or (m == 0 and not alpha_pos):
            left |= bit
    return left, right


@lru_cache(maxsize=None)
def _descent_table(d: RootDatum, u):
    """Per simple affine root (alpha, k): its bit, k, u(alpha) and alpha as
    sparse pairings, and whether u(alpha) and u^-1(alpha) are positive.

    A root of type A or C has at most two nonzero coordinates, so
    <lam, beta> = b1 lam_t1 + b2 lam_t2 - c h, with h = sum(beta) / 2
    for GSp (c the similitude) and h = 0 for GL."""

    def sparse(beta):
        terms = [(t, b) for t, b in enumerate(beta) if b] + [(0, 0)]
        return terms[0], terms[1], sum(beta) // 2

    ui = d.invert_finite(u)
    rows = []
    for j, (alpha, k) in simple_affine_roots(d):
        beta = d.act_root(u, alpha)
        rows.append(
            (
                1 << j,
                k,
                sparse(beta),
                d.is_positive_root(beta),
                sparse(alpha),
                d.is_positive_root(d.act_root(ui, alpha)),
            )
        )
    return tuple(rows)


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
