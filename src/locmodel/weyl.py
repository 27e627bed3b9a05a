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
the analogous small dominant alcove for type C).  One window kernel
carries every descent and word: s_j is a right descent of w iff
w(j) > w(j+1), with w(0) = w(N) - N (`_first_descent`), and a left
descent iff it is a right descent of w^-1; w s_j swaps the entries j and
j+1, mirrored for GSp (`_reflect`, in place).  Length is Shi's inversion
count l(w) = sum_{i<j<=N} |floor((w(j) - w(i)) / N)|; for GSp the
sigma-fixed inversions are added once more and the sum halved; it is
stored on the element.  Bruhat comparison (`bruhat_leq`) runs the
lifting property on copies of both windows, and the reduced word
(`reduced_word`, also stored) strips the smallest left descent of x, the
smallest right descent of x^-1, from a copy of the inverse window:
neither forms a product.  The Bruhat ideal generated by elements of one
length is lifted too (`bruhat_ideal`): each top is stripped to length 0
along its first descents and its down-set grown back one letter at a
time, one `_reflect` per element, so every element is made with its
length; the tests check it against the cover search, the lifting
recursion on products and the subword expansion.  Conjugation by the
length-zero generator of Omega shifts a window (`_omega_conjugate`) and
permutes the s_j, so it keeps length and Bruhat order.  The base-alcove
vertices have a closed form.  Parahoric subgroups W_I and their
generators live here; the minimal element of W_I x W_I is the member
with no left and no right descent among the generators
(`_no_descent_in`, or the masks of `_descents`).  Nothing here lists
elements by length, and an element keeps only its own length and word:
the module holds no state.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

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
        out = [0] * self.n
        if self.kind == "GL":
            for i, j in enumerate(u):
                out[j] = lam[i]
            return tuple(out)
        c = lam[-1]
        for i, j in enumerate(u):
            out[abs(j) - 1] = lam[i] if j > 0 else c - lam[i]
        return (*out, c)


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
        """The finite-Weyl orbit W_0 . value, sorted, formed without W_0:
        the distinct orderings of the coordinates, for GSp (v; c) those of
        v after any v_i is replaced by c - v_i."""
        if self.datum.kind == "GL":
            return list(_orderings(self.value))
        *v, c = self.value
        heads = {tuple(sorted(h)) for h in itertools.product(*({x, c - x} for x in v))}
        return sorted(head + (c,) for h in heads for head in _orderings(h))

    def orbit_size(self) -> int:
        """len(self.orbit()), without forming it: the multinomial of the
        multiplicities of the coordinates; for GSp, of the distances
        |2 v_i - c| from the centre, times 2 for each nonzero distance."""
        if self.datum.kind == "GL":
            return _multinomial(self.value)
        *v, c = self.value
        return _multinomial([abs(2 * x - c) for x in v]) << sum(2 * x != c for x in v)


def _orderings(values):
    """Every distinct ordering of the multiset values, in lexicographic
    order (each from the last by the next-permutation step)."""
    v = sorted(values)
    while True:
        yield tuple(v)
        i = len(v) - 2
        while i >= 0 and v[i] >= v[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(v) - 1
        while v[j] <= v[i]:
            j -= 1
        v[i], v[j] = v[j], v[i]
        v[i + 1 :] = reversed(v[i + 1 :])


def _multinomial(values) -> int:
    """The number of distinct orderings of the multiset values."""
    return math.factorial(len(values)) // math.prod(map(math.factorial, Counter(values).values()))


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

    __slots__ = ("datum", "w", "_len", "_word", "_lam_u", "_hash")

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
        self._len = self._word = self._lam_u = None
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
    return WeylElement(datum, lam, datum.finite_identity())


def finite(datum: RootDatum, u) -> WeylElement:
    return WeylElement(datum, datum.zero(), tuple(u))


def simple_reflection(datum: RootDatum, j: int) -> WeylElement:
    """s_j: the identity window with _reflect applied at j."""
    if j not in datum.simple_indices:
        raise InvalidIndex(f"no affine simple reflection {j} for {datum}")
    gsp = datum.kind == "GSp"
    w = list(range(1, (2 if gsp else 1) * datum.n + 1))
    _reflect(w, j, gsp)
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


# -- the window kernel -------------------------------------------------------


def _first_descent(w, js):
    """The first j in js with w(j) > w(j+1), where w(0) = w(N) - N: the
    first right descent s_j of the window w among js, or None."""
    N = len(w)
    for j in js:
        if w[j - 1] > w[j] if j else w[-1] - N > w[0]:
            return j
    return None


def _descents(w, js) -> int:
    """The bitmask of the j in js at which _first_descent would find a
    right descent s_j of the window w, read in one pass."""
    return sum(1 << j for j in js if (w[j - 1] > w[j] if j else w[-1] - len(w) > w[0]))


def _omega_conjugate(w, s):
    """w conjugated by the shift i -> i + s, Omega's generator for s = 1 (GL)
    and s = g (GSp): w(i - s) + s at position i, the first s entries from
    the end of w lowered by N.  It maps s_j to s_{j+1 mod d}, or s_{g-j}."""
    N = len(w)
    return tuple(v - N + s for v in w[N - s :]) + tuple(v + s for v in w[: N - s])


def _reflect(v, j, gsp):
    """v := v s_j in place: swap the entries j and j+1 of the list v (for
    j = 0, v(1) and v(N) become v(N) - N and v(1) + N); for GSp also the
    mirrored pair N-j, N+1-j."""
    N = len(v)
    for a in {j, N - j} if gsp and j else (j,):
        if a == 0:
            v[0], v[-1] = v[-1] - N, v[0] + N
        else:
            v[a - 1], v[a] = v[a], v[a - 1]


def _no_descent_in(w, gens) -> bool:
    """Has the window w no left and no right descent s_j, j in gens (so is
    it minimal in W_I w W_I)?  With no gens every window passes at once;
    w^-1 is formed only if w has no right descent."""
    return not gens or (_first_descent(w, gens) is None and _first_descent(_inverse(w), gens) is None)


# -- Bruhat order ------------------------------------------------------------


def bruhat_leq(x: WeylElement, y: WeylElement) -> bool:
    """x <= y in Bruhat order (false across distinct kappa components), by
    the lifting property on copies v, w of the two windows: for a right
    descent s of y, x <= y iff x s <= y s if s is one of x, else x <= y s."""
    if x.datum != y.datum:
        raise DatumMismatch("cannot compare across data")
    if kappa(x) != kappa(y):
        return False
    lx, ly = length(x), length(y)
    js, gsp = y.datum.simple_indices, y.datum.kind == "GSp"
    v, w = list(x.w), list(y.w)
    while lx <= ly:
        if ly == 0:
            return v == w
        j = _first_descent(w, js)
        if _first_descent(v, (j,)) is not None:
            _reflect(v, j, gsp)
            lx -= 1
        _reflect(w, j, gsp)
        ly -= 1
    return False


def reduced_word(x: WeylElement):
    """Return (word, omega_power) with x = s_{w_0}...s_{w_k} * tau^omega_power;
    each letter is the smallest left descent of what remains, found and
    stripped on a copy v of the window of x^-1 (see the module docstring),
    once: the word is kept on x.  Every s_j has kappa 0, so omega_power
    is kappa(x)."""
    if x._word is None:
        v = list(_inverse(x.w))
        js, gsp = x.datum.simple_indices, x.datum.kind == "GSp"
        word = []
        while (j := _first_descent(v, js)) is not None:
            word.append(j)
            _reflect(v, j, gsp)
        x._word = tuple(word)
    return list(x._word), kappa(x)


def bruhat_ideal(tops, budget=None) -> set:
    """The Bruhat order ideal generated by tops, elements of one length, by
    the lifting property (Bjorner-Brenti ch. 2): [e, y] = [e, y s] |
    [e, y s] s for a right descent s of y.  Each top is stripped to its
    length-0 bottom along _first_descent and its down-set D grown back one
    letter s at a time, each x s one _reflect of a window x of D: an x s
    not in D has x s > x, so every element is made with its length
    l(x) + 1 and none is measured.  One budget unit (a fresh Budget() if
    None) is spent per element, when it first joins the ideal."""
    budget = budget or Budget()
    if len({length(y) for y in tops}) > 1:
        raise InvalidIndex("the generators of a Bruhat ideal must have one length")
    ideal = {}

    def join(z, level):
        x = ideal.get(z)
        if x is None:
            budget.spend(1, "ideal elements")
            x = ideal[z] = WeylElement.of_window(datum, z)
            x._len = level
        return x

    for y in tops:
        datum, v, letters = y.datum, list(y.w), []
        js, gsp = datum.simple_indices, datum.kind == "GSp"
        while (j := _first_descent(v, js)) is not None:
            letters.append(j)
            _reflect(v, j, gsp)
        down, seen = [join(tuple(v), 0)], {tuple(v)}
        for j in reversed(letters):
            for x in down[:]:
                z = list(x.w)
                _reflect(z, j, gsp)
                if (z := tuple(z)) not in seen:
                    down.append(new := join(z, x._len + 1))
                    seen.add(new.w)
    return set(ideal.values())


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


def parahoric_generators(spec: ParahoricSpec):
    return [simple_reflection(spec.datum, j) for j in spec.generator_indices]


def parahoric_subgroup(spec: ParahoricSpec):
    """All elements of W_I (finite since I is nonempty), formed afresh."""
    gens = parahoric_generators(spec)
    seen = {identity(spec.datum)}
    frontier = list(seen)
    while frontier:
        x = frontier.pop()
        for s in gens:
            if (y := x * s) not in seen:
                seen.add(y)
                frontier.append(y)
    return frozenset(seen)


# -- alcove vertices ---------------------------------------------------------


def alcove_vertices(datum: RootDatum):
    """Base-alcove vertex representatives, one per vertex label:
    a_i = (1/D)(1, ..., 1, 0, ..., 0) with i ones, D = 1 for GL and 2 for
    GSp, where the similitude coordinate is 0.  a_i is fixed by every
    s_j with j != i (the tests check it with the affine action)."""
    D, tail = (1, ()) if datum.kind == "GL" else (2, (Fraction(0),))
    return {i: tuple(Fraction(int(k < i), D) for k in range(datum.n)) + tail for i in datum.vertex_labels}
