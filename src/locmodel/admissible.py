"""Admissible and permissible sets in W_I \\ W~ / W_I.

Both sets are sets of double cosets, each keyed by its minimal element:
the one member with no left and no right descent in W_I
(_double_minimal).  Their expected equality is one of the main
verification targets.

adm_set takes the union of the Bruhat down-sets of the translations
t_lam over the finite-Weyl orbit of mu (weyl.downset, memoised within
one call).  A class's minimal element is Bruhat-below each of its
members, so the classes that meet the down-set are exactly those of its
double-minimal elements.

perm_set generates the classes whose members satisfy the vertex
displacement condition x(a_i) - a_i in Conv(W_0 mu) for every i in I.
For x = t_lam u the hull bounds each coordinate of the displacement at
one vertex, hence each coordinate of lam, so the candidates are listed
directly and no length bound is assumed.  The vertices are scaled by
their common denominator, so the hull test (conv_membership, a closed
dominance criterion in both types) runs on integers.

stratum_count evaluates sum q^{l(z)} over the right-I-minimal members
of a double coset, the point count of the corresponding stratum over
F_q.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from .errors import Budget, KindMismatch
from .weyl import (
    Coweight,
    ParahoricSpec,
    WeylElement,
    alcove_vertices,
    bruhat_leq,
    downset,
    length,
    parahoric_generators,
    parahoric_subgroup,
    translation,
)


@dataclass(frozen=True)
class DoubleCoset:
    """A class in W_I \\ W~ / W_I, keyed by its minimal representative."""

    spec: ParahoricSpec
    min_rep: WeylElement

    def members(self) -> frozenset:
        group = parahoric_subgroup(self.spec)
        return frozenset(a * self.min_rep * b for a in group for b in group)

    def right_minimal_members(self):
        """Members with no right descent by a generator of W_I."""
        gens = parahoric_generators(self.spec)
        out = []
        for z in self.members():
            lz = length(z)
            if all(length(z * s) > lz for s in gens):
                out.append(z)
        return out

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

    def min_reps(self):
        return {c.min_rep for c in self.classes}

    def maximal_classes(self):
        out = []
        for c in self.classes:
            if not any(c != d and c.leq(d) for d in self.classes):
                out.append(c)
        return out


def _check_mu(spec: ParahoricSpec, mu: Coweight):
    if mu.datum != spec.datum:
        raise KindMismatch("coweight belongs to a different datum")


def _double_minimal(x: WeylElement, gens) -> bool:
    """Has x no left and no right descent by the generators gens of W_I?
    Exactly then x is the minimal element of W_I x W_I."""
    lx = length(x)
    return all(length(s * x) > lx and length(x * s) > lx for s in gens)


def adm_set(spec: ParahoricSpec, mu: Coweight, budget=None) -> AdmissibleSet:
    """{ [x] : x <= t_lam for some lam in W_0 mu }, as double cosets.
    The down-sets are spent from one budget (a fresh Budget() if None)."""
    _check_mu(spec, mu)
    budget = budget or Budget()
    memo = {}
    below = set()
    for lam in mu.orbit():
        below |= downset(translation(spec.datum, lam), memo, budget)
    gens = parahoric_generators(spec)
    classes = frozenset(DoubleCoset(spec, x) for x in below if _double_minimal(x, gens))
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


def perm_set(spec: ParahoricSpec, mu: Coweight, budget=None) -> AdmissibleSet:
    """Classes whose members satisfy the vertex displacement condition.

    Permissibility is constant on W_I-double cosets (W_I fixes every
    vertex a_i with i in I, and the hull is W_0-stable), so only the
    double-minimal elements are kept.  With D the common denominator of
    the vertices and A_i = D a_i, the scaled displacement of x = t_lam u
    at a_i is D lam + u(A_i) - A_i.  At i0 = min I each of its
    coordinates lies in _coordinate_bounds, which leaves finitely many
    integers for each lam_j (the similitude of lam is that of mu); every
    lam so listed is one displacement candidate, spent from the budget
    (a fresh Budget() if None).  The hull test also forces
    kappa(x) = kappa(t_mu), so the candidates are complete with no
    length bound.
    """
    _check_mu(spec, mu)
    budget = budget or Budget()
    datum = spec.datum
    n = datum.n
    verts = alcove_vertices(datum)
    D = math.lcm(*(v.denominator for a in verts.values() for v in a))
    scaled = [tuple(int(D * v) for v in verts[i]) for i in sorted(spec.I)]
    scaled_mu = Coweight(datum, tuple(D * v for v in mu.value))
    lo, hi = _coordinate_bounds(mu, D)
    tail = (mu.value[-1],) if datum.kind == "GSp" else ()
    gens = parahoric_generators(spec)
    classes = set()
    for u in datum.finite_elements():
        shifts = [tuple(b - a for a, b in zip(A, datum.act_coweight(u, A))) for A in scaled]
        ranges = [range(-((s - lo) // D), (hi - s) // D + 1) for s in shifts[0][:n]]
        for head in itertools.product(*ranges):
            budget.spend(1, "displacement candidates")
            lam = head + tail
            if not all(
                conv_membership(tuple(D * l + s for l, s in zip(lam, shift)), scaled_mu)
                for shift in shifts
            ):
                continue
            x = WeylElement(datum, lam, u)
            if _double_minimal(x, gens):
                classes.add(DoubleCoset(spec, x))
    return AdmissibleSet(spec, mu, frozenset(classes))


def stratum_count(c: DoubleCoset, q: int, budget=None) -> int:
    """Points of the stratum of c over F_q: sum q^{l(z)} over right-minimal
    z.  The |W_I|^2 members it forms are spent from the budget (a fresh
    Budget() if None)."""
    (budget or Budget()).spend(len(parahoric_subgroup(c.spec)) ** 2, "double-coset members")
    return sum(q**ln for ln in c.stratum_lengths())


def total_count(s: AdmissibleSet, q: int) -> int:
    return sum(stratum_count(c, q) for c in s.classes)
