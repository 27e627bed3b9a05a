"""Admissible and permissible sets in W_I \\ W~ / W_I.

adm_set computes the union of Bruhat down-sets of the translations
t_lam over the finite-Weyl orbit of mu (weyl.downset, memoised within
one call), projected to double cosets.
perm_set filters a candidate pool by the alcove-vertex displacement
condition x(a_i) - a_i in Conv(W_0 mu) for every i in I, with the
same kappa as t_mu; the hull test is a closed dominance criterion in
both types.  The two are compared as sets of double cosets; their
expected equality is one of the main verification targets.

stratum_count evaluates sum q^{l(z)} over the right-I-minimal members
of a double coset, the point count of the corresponding stratum over
F_q.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import Budget, KindMismatch, PoolBoundViolation
from .weyl import (
    Coweight,
    ParahoricSpec,
    WeylElement,
    alcove_vertices,
    bruhat_leq,
    coset_min,
    downset,
    elements_of_length_leq,
    kappa,
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

    @classmethod
    def of(cls, x: WeylElement, spec: ParahoricSpec) -> "DoubleCoset":
        return cls(spec, coset_min(x, spec))

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


def adm_set(spec: ParahoricSpec, mu: Coweight, budget=None) -> AdmissibleSet:
    """{ [x] : x <= t_lam for some lam in W_0 mu }, as double cosets.
    The down-sets are spent from one budget (a fresh Budget() if None)."""
    _check_mu(spec, mu)
    budget = budget or Budget()
    memo = {}
    below = set()
    for lam in mu.orbit():
        below |= downset(translation(spec.datum, lam), memo, budget)
    return AdmissibleSet(spec, mu, frozenset(DoubleCoset.of(x, spec) for x in below))


def conv_membership(y, mu: Coweight) -> bool:
    """Is y (rational vector) in the convex hull of the W_0-orbit of mu?

    GL: equal coordinate sum, and the sorted y is majorized by the
    sorted mu.  GSp: equal similitude c; centred at c/2, W_0 acts by
    signed permutations, so y is in the hull iff the sorted |y_i - c/2|
    are weakly submajorized by the sorted |mu_i - c/2| (the type-C
    dominance criterion).
    """
    y = tuple(Fraction(v) for v in y)
    if len(y) != mu.datum.coord_len:
        raise KindMismatch("vector has wrong length for the datum")
    if mu.datum.kind == "GL":
        if sum(y) != sum(mu.value):
            return False
        return _dominated(y, mu.value)
    c = mu.value[-1]
    if y[-1] != c:
        return False
    half = Fraction(c, 2)
    return _dominated([abs(v - half) for v in y[:-1]], [abs(v - half) for v in mu.value[:-1]])


def _dominated(y, m) -> bool:
    """Every partial sum of sorted(y, reverse) is <= that of sorted(m, reverse)."""
    py = pm = Fraction(0)
    for a, b in zip(sorted(y, reverse=True), sorted(m, reverse=True)):
        py += a
        pm += b
        if py > pm:
            return False
    return True


def perm_set(spec: ParahoricSpec, mu: Coweight, budget=None) -> AdmissibleSet:
    """Classes whose members satisfy the vertex displacement condition.

    Permissibility is constant on W_I-double cosets (W_I fixes every
    vertex a_i with i in I, and the hull is W_0-stable), so only the
    I-double-minimal elements of the pool are tested.  The candidate
    pool covers every minimal representative of length <= l(t_mu) + 1,
    and a permissible one at the extra boundary length raises
    PoolBoundViolation: the pool bound l(t_mu) is checked on every call,
    not assumed.  The pool's levels are spent from the budget (a fresh
    Budget() if None).
    """
    _check_mu(spec, mu)
    datum = spec.datum
    t_mu = translation(datum, mu.value)
    bound = length(t_mu)
    verts = alcove_vertices(datum)
    levels = elements_of_length_leq(datum, kappa(t_mu), bound + 1, budget)
    gens = parahoric_generators(spec)

    def permissible(x: WeylElement) -> bool:
        for i in sorted(spec.I):
            a = verts[i]
            disp = tuple(p - q for p, q in zip(x.act_point(a), a))
            if not conv_membership(disp, mu):
                return False
        return True

    classes = set()
    for ln, batch in levels.items():
        for x in batch:
            lx = length(x)
            if any(length(s * x) < lx or length(x * s) < lx for s in gens):
                continue  # not the minimal representative of its class
            if not permissible(x):
                continue
            if ln > bound:
                raise PoolBoundViolation(
                    "permissible minimal representative found at the candidate "
                    "pool boundary; the length bound l(t_mu) is violated"
                )
            classes.add(DoubleCoset(spec, x))
    return AdmissibleSet(spec, mu, frozenset(classes))


def stratum_count(c: DoubleCoset, q: int) -> int:
    """Points of the stratum of c over F_q: sum q^{l(z)} over right-minimal z."""
    return sum(q**ln for ln in c.stratum_lengths())


def total_count(s: AdmissibleSet, q: int) -> int:
    return sum(stratum_count(c, q) for c in s.classes)
