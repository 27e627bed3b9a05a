"""Admissible and permissible sets in W_I \\ W~ / W_I.

Both sets are sets of double cosets, each keyed by its minimal element:
the one member with no left and no right descent in W_I.  Both test it
with weyl._no_descent_in, which reads only the generator positions of
a window and of its inverse (perm_set before it forms the element).
Their expected equality is one of the main verification targets.

adm_set takes the Bruhat ideal generated by the translations t_lam over
the finite-Weyl orbit of mu, the union of their down-sets
(weyl.bruhat_ideal).  It does not depend on I, so it is computed once per
(datum, mu) and process and kept; every call spends one budget unit per
element (_translation_downsets).
A class's minimal element is Bruhat-below each of its members, so the
classes that meet the ideal are exactly those of its double-minimal
elements.

perm_set generates the classes whose members satisfy the vertex
displacement condition x(a_i) - a_i in Conv(W_0 mu) for every i in I.
The vertices are scaled by their common denominator D, the integer
points of D * Conv(W_0 mu) are listed once per (mu, D), the vertex
displacements of the finite parts u once per (datum, I), and each point,
with each u, gives at most one candidate t_lam u; no length bound is
assumed.  The hull test (conv_membership, a closed
dominance criterion in both types) runs on integers.

stratum_count evaluates sum q^{l(z)} over the right-I-minimal members
of a double coset, the point count of the corresponding stratum over
F_q; q must be a prime power.  poincare_quotient finds the same number
from all the members, divided by the Poincare polynomial of W_I.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from operator import add, sub

from .errors import ArtifactError, Budget, KindMismatch
from .weyl import (
    Coweight,
    ParahoricSpec,
    WeylElement,
    _first_descent,
    _no_descent_in,
    _window,
    alcove_vertices,
    bruhat_ideal,
    bruhat_leq,
    length,
    parahoric_subgroup,
    translation,
)


@dataclass(frozen=True)
class DoubleCoset:
    """A class in W_I \\ W~ / W_I, keyed by its minimal representative."""

    spec: ParahoricSpec
    min_rep: WeylElement

    def members(self) -> frozenset:
        """W_I x W_I, formed on the first call and kept on the class."""
        return self._members

    @cached_property
    def _members(self) -> frozenset:
        group = parahoric_subgroup(self.spec)
        return frozenset(a * self.min_rep * b for a in group for b in group)

    def right_minimal_members(self):
        """Members with no right descent by a generator of W_I."""
        gens = self.spec.generator_indices
        return [z for z in self.members() if _first_descent(z.w, gens) is None]

    def stratum_lengths(self):
        return sorted(length(z) for z in self.right_minimal_members())

    def leq(self, other: "DoubleCoset") -> bool:
        """Bruhat order on double cosets via minimal representatives."""
        return bruhat_leq(self.min_rep, other.min_rep)


@dataclass(frozen=True)
class AdmissibleSet:
    spec: ParahoricSpec
    mu: Coweight
    classes: frozenset = field(default_factory=frozenset)

    def __len__(self):
        return len(self.classes)

    def maximal_classes(self):
        out = []
        for c in self.classes:
            if not any(c != d and c.leq(d) for d in self.classes):
                out.append(c)
        return out


def _check_mu(spec: ParahoricSpec, mu: Coweight):
    if mu.datum != spec.datum:
        raise KindMismatch("coweight belongs to a different datum")


# (datum, mu.value) -> the Bruhat ideal of the t_lam, lam in W_0 mu, as a
# tuple of elements.
_DOWNSETS = {}


def _translation_downsets(mu: Coweight, budget: Budget):
    """The memo entry of mu, computed (and spent as it goes) on a miss;
    on a hit its one unit per element is spent at once, so the budget's
    outcome does not depend on what ran before.  An entry is stored only
    once the computation completes."""
    key = (mu.datum, mu.value)
    entry = _DOWNSETS.get(key)
    if entry is not None:
        budget.spend(len(entry), "ideal elements")
        return entry
    below = bruhat_ideal([translation(mu.datum, lam) for lam in mu.orbit()], budget)
    _DOWNSETS[key] = tuple(below)
    return _DOWNSETS[key]


def adm_set(spec: ParahoricSpec, mu: Coweight, budget=None) -> AdmissibleSet:
    """{ [x] : x <= t_lam for some lam in W_0 mu }, as double cosets.
    The ideal's elements are spent from one budget (a fresh Budget() if
    None)."""
    _check_mu(spec, mu)
    gens = spec.generator_indices
    elements = _translation_downsets(mu, budget or Budget())
    classes = frozenset(DoubleCoset(spec, x) for x in elements if _no_descent_in(x.w, gens))
    return AdmissibleSet(spec, mu, classes)


def conv_membership(y, mu: Coweight) -> bool:
    """Is y in the convex hull of the W_0-orbit of mu?  Exact on integer
    and rational coordinates.

    GL: equal coordinate sum, and the sorted y is majorized by the
    sorted mu.  GSp: equal similitude c; centred at c/2, W_0 acts by
    signed permutations, so y is in the hull iff the sorted |2 y_i - c|
    are weakly submajorized by the sorted |2 mu_i - c| (the type-C
    dominance criterion, doubled to stay integral).
    """
    if len(y) != mu.datum.coord_len:
        raise KindMismatch("vector has wrong length for the datum")
    if mu.datum.kind == "GL":
        return sum(y) == sum(mu.value) and _dominated(y, mu.value)
    c = mu.value[-1]
    if y[-1] != c:
        return False
    return _dominated([abs(2 * v - c) for v in y[:-1]], [abs(2 * v - c) for v in mu.value[:-1]])


def _dominated(y, m) -> bool:
    """Every partial sum of sorted(y, reverse) is <= that of sorted(m, reverse)."""
    py = pm = 0
    for a, b in zip(sorted(y, reverse=True), sorted(m, reverse=True)):
        py += a
        pm += b
        if py > pm:
            return False
    return True


def _coordinate_bounds(mu: Coweight, D: int):
    """(lo, hi): the integer range of every coordinate (similitude aside)
    of a point of D * Conv(W_0 mu).  GL: D min mu_j .. D max mu_j.  GSp:
    D (c/2 -+ max_j |mu_j - c/2|), rounded inwards."""
    if mu.datum.kind == "GL":
        return D * min(mu.value), D * max(mu.value)
    c = mu.value[-1]
    reach = D * max(abs(2 * v - c) for v in mu.value[:-1])
    return -((reach - D * c) // 2), (D * c + reach) // 2


@lru_cache(maxsize=None)
def _hull_points(mu: Coweight, D: int):
    """(points, by_residue): the integer points of D * Conv(W_0 mu), as a
    set and grouped by their residues mod D.  Every coordinate but the
    similitude lies in _coordinate_bounds.  For GL the coordinate sum is
    D * sum(mu), so the points are generated with that sum and only the
    dominance test filters them; for GSp the similitude is D c."""
    datum = mu.datum
    lo, hi = _coordinate_bounds(mu, D)
    if datum.kind == "GL":
        box = _with_sum(datum.n, D * sum(mu.value), lo, hi)
    else:
        tail = (D * mu.value[-1],)
        box = (head + tail for head in itertools.product(range(lo, hi + 1), repeat=datum.n))
    scaled_mu = Coweight(datum, tuple(D * v for v in mu.value))
    points = frozenset(y for y in box if conv_membership(y, scaled_mu))
    by_residue = {}
    for y in sorted(points):
        by_residue.setdefault(tuple(v % D for v in y), []).append(y)
    return points, by_residue


def _with_sum(n: int, total: int, lo: int, hi: int):
    """Every n-tuple of integers in lo..hi with the given sum."""
    if n == 0:
        if total == 0:
            yield ()
        return
    for v in range(max(lo, total - (n - 1) * hi), min(hi, total - (n - 1) * lo) + 1):
        for rest in _with_sum(n - 1, total - v, lo, hi):
            yield (v,) + rest


@lru_cache(maxsize=None)
def _displacement_table(spec: ParahoricSpec):
    """(D, rows) for perm_set: D the common denominator of the base-alcove
    vertices, and one row (u, first, key, rest) per finite part u, with
    A_i = D a_i: first = u(A_i0) - A_i0 at i0 = min I, key its residues
    mod D, and rest the u(A_i) - A_i at the other i in I."""
    datum = spec.datum
    verts = alcove_vertices(datum)
    D = math.lcm(*(v.denominator for a in verts.values() for v in a))
    scaled = [tuple(int(D * v) for v in verts[i]) for i in sorted(spec.I)]
    rows = []
    for u in datum.finite_elements():
        first, *rest = [tuple(map(sub, datum.act_coweight(u, A), A)) for A in scaled]
        rows.append((u, first, tuple(v % D for v in first), tuple(rest)))
    return D, tuple(rows)


def perm_set(spec: ParahoricSpec, mu: Coweight, budget=None) -> AdmissibleSet:
    """Classes whose members satisfy the vertex displacement condition.

    Permissibility is constant on W_I-double cosets (W_I fixes every
    vertex a_i with i in I, and the hull is W_0-stable), so only the
    double-minimal elements are kept.  With D the common denominator of
    the vertices and A_i = D a_i, the scaled displacement of x = t_lam u
    at a_i is D lam + u(A_i) - A_i (_displacement_table).  At i0 = min I
    it is a point y of D * Conv(W_0 mu) (_hull_points), so
    lam = (y - u(A_i0) + A_i0) / D wherever that is integral; every lam
    so found is one displacement candidate, spent from the budget (a
    fresh Budget() if None), and the other vertices of I are tested by
    membership in the same points.  The hull test also forces
    kappa(x) = kappa(t_mu), so the candidates are complete with no
    length bound.
    """
    _check_mu(spec, mu)
    budget = budget or Budget()
    datum = spec.datum
    D, table = _displacement_table(spec)
    points, by_residue = _hull_points(mu, D)
    gens = tuple(spec.generator_indices)
    classes = set()
    for u, first, key, rest in table:
        candidates = by_residue.get(key, ())
        budget.spend(len(candidates), "displacement candidates")
        for y in candidates:
            moved = tuple(map(sub, y, first))  # D lam
            if rest and not all(tuple(map(add, moved, shift)) in points for shift in rest):
                continue
            w = _window(datum, moved if D == 1 else tuple(v // D for v in moved), u)
            if _no_descent_in(w, gens):
                classes.add(DoubleCoset(spec, WeylElement.of_window(datum, w)))
    return AdmissibleSet(spec, mu, frozenset(classes))


def _prime_power(q: int) -> bool:
    """Is q = p^k for a prime p and k >= 1?  p is the least factor >= 2."""
    if q < 2:
        return False
    p = next((p for p in range(2, math.isqrt(q) + 1) if q % p == 0), q)
    while q % p == 0:
        q //= p
    return q == 1


def stratum_count(c: DoubleCoset, q: int, budget=None) -> int:
    """Points of the stratum of c over F_q: sum q^{l(z)} over right-minimal
    z.  The |W_I|^2 members it forms are spent from the budget (a fresh
    Budget() if None).  A q that is not a prime power is no field size:
    ArtifactError."""
    if not _prime_power(q):
        raise ArtifactError(f"q must be a field size, a prime power, got {q}")
    (budget or Budget()).spend(len(parahoric_subgroup(c.spec)) ** 2, "double-coset members")
    return sum(q**ln for ln in c.stratum_lengths())


def poincare_quotient(c: DoubleCoset, q: int):
    """sum q^{l(z)} over every member z of c, divided by the Poincare
    polynomial sum q^{l(v)} over v in W_I; None if it leaves a remainder.
    Each member is z v with z right-minimal, v in W_I and l(z v) =
    l(z) + l(v), so the quotient is stratum_count(c, q), found another
    way.  It reads the members that stratum_count formed and spent."""
    whole = sum(q ** length(z) for z in c.members())
    n, rest = divmod(whole, sum(q ** length(v) for v in parahoric_subgroup(c.spec)))
    return None if rest else n
