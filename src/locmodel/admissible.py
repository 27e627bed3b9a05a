"""Admissible and permissible sets in W_I \\ W~ / W_I.

Both sets are sets of double cosets, each keyed by its minimal element:
the one member with no left and no right descent in W_I.  perm_set tests
it with weyl._no_descent_in, which reads only the generator positions of
a window and of its inverse, before it forms the element.  Their
expected equality is one of the main verification targets.

adm_set takes the Bruhat ideal generated by the translations t_lam over
the finite-Weyl orbit of mu, the union of their down-sets, grown from
one t_lam per class of the conjugation by Omega (_ideal).  It does not
depend on I, so it is kept per mu, each element with the bitmask of its
left and right descents (weyl._descents), and every call spends one
budget unit per element, stored or not.  A class's minimal element is
Bruhat-below each of its members, so the classes that meet the ideal
are exactly those of its elements whose mask misses the generators of
W_I.

perm_set generates the classes whose members satisfy the vertex
displacement condition x(a_i) - a_i in Conv(W_0 mu) for every i in I.
The vertices are scaled by their common denominator D, the integer
points of D * Conv(W_0 mu) are listed once per (mu, D), and each point,
with each finite part u, gives at most one candidate t_lam u; no length
bound is assumed.  Only the candidates with no right descent in W_I are
formed, from the order of the point's coordinates and a table kept per
(datum, I).  The hull test (conv_membership, a closed dominance
criterion in both types) runs on integers.

stratum_count evaluates sum q^{l(z)} over the right-I-minimal members
of a double coset, the point count of the corresponding stratum over
F_q (q a prime power), in closed form; it forms no member.
poincare_quotient finds the same number from all the members, formed
and spent, divided by the Poincare polynomial of W_I, which comes from
the diagram (_poincare).

The ideal, the hull points and the table are kept in errors._memo; W_I
is formed on each call of poincare_quotient.  The orbit of mu, W_0 and the
hull's coordinate box are formed before any unit is spent, so their sizes
are first checked against the budget left (Budget.check).
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from operator import add, sub

from .errors import ArtifactError, Budget, KindMismatch, _memo
from .weyl import (
    Coweight,
    ParahoricSpec,
    WeylElement,
    _descents,
    _inverse,
    _no_descent_in,
    _omega_conjugate,
    _window,
    alcove_vertices,
    bruhat_ideal,
    bruhat_leq,
    length,
    parahoric_subgroup,
    simple_reflection,
    translation,
)


@dataclass(frozen=True, eq=False)
class DoubleCoset:
    """A class in W_I \\ W~ / W_I, keyed by its minimal representative:
    the hash is the stored hash of its window, and equality compares the
    window and the spec."""

    spec: ParahoricSpec
    min_rep: WeylElement

    def __eq__(self, other):
        return isinstance(other, DoubleCoset) and self.min_rep.w == other.min_rep.w and self.spec == other.spec

    def __hash__(self):
        return self.min_rep._hash

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
        return [c for c in self.classes if not any(c != d and c.leq(d) for d in self.classes)]


def _checked_budget(spec: ParahoricSpec, mu: Coweight, budget):
    """The budget of an adm_set or perm_set call (a fresh Budget() if None),
    once mu is known to be of spec's datum."""
    if mu.datum != spec.datum:
        raise KindMismatch("coweight belongs to a different datum")
    return budget or Budget()


def _ideal(mu: Coweight, budget: Budget):
    """(ideal, size): each element x of the Bruhat ideal of the t_lam, lam
    in W_0 mu, with the bitmask of its left and right descents, as a tuple
    of (x, mask) pairs, once the budget has room for the orbit, formed
    before any unit is spent.  Conjugation by the length-zero generator
    (weyl._omega_conjugate) keeps length and Bruhat order and permutes the
    t_lam, so one top per class is grown; a conjugate joins with the
    length of its source, the bits of its mask moved as the s_j are, and
    spends its unit then.  A walk along the conjugates of a grown element
    stops at the first one joined, whose own walk, or the one that joined
    it, goes on from there."""
    budget.check(mu.orbit_size(), "coweight orbit points")
    datum, js, n = mu.datum, mu.datum.simple_indices, mu.datum.n
    gl, s = datum.kind == "GL", 1 if datum.kind == "GL" else n
    tops, covered = [], set()
    for lam in mu.orbit():
        w = (t := translation(datum, lam)).w
        if w not in covered:
            tops.append(t)
            while w not in covered:
                covered.add(w)
                w = _omega_conjugate(w, s)
    ideal = {x.w: (x, _descents(x.w, js) | _descents(_inverse(x.w), js)) for x in bruhat_ideal(tops, budget)}
    for x, mask in list(ideal.values()):
        w = x.w
        while (w := _omega_conjugate(w, s)) not in ideal:
            budget.spend(1, "ideal elements")
            mask = sum(1 << ((j + 1) % n if gl else n - j) for j in js if mask >> j & 1)
            ideal[w] = (z := WeylElement.of_window(datum, w), mask)
            z._len = x._len
    return tuple(ideal.values()), len(ideal)


def adm_set(spec: ParahoricSpec, mu: Coweight, budget=None) -> AdmissibleSet:
    """{ [x] : x <= t_lam for some lam in W_0 mu }, as double cosets: the
    elements of the ideal with no descent among the generators of W_I.
    The ideal's elements are spent from one budget (_checked_budget)."""
    budget = _checked_budget(spec, mu, budget)
    gens = sum(1 << j for j in spec.generator_indices)
    elements = _memo(_ideal, mu, budget=budget)
    classes = frozenset(DoubleCoset(spec, x) for x, mask in elements if not mask & gens)
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


def _hull_points(mu: Coweight, D: int):
    """((points, by_residue), size): the integer points of D * Conv(W_0 mu),
    as a set and grouped by their residues mod D.  Every coordinate but the
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
    return (points, by_residue), len(points)


def _with_sum(n: int, total: int, lo: int, hi: int):
    """Every n-tuple of integers in lo..hi with the given sum."""
    if n == 0:
        if total == 0:
            yield ()
        return
    for v in range(max(lo, total - (n - 1) * hi), min(hi, total - (n - 1) * lo) + 1):
        for rest in _with_sum(n - 1, total - v, lo, hi):
            yield (v,) + rest


def _embedded(datum, v):
    """The N window coordinates of a coweight: v itself for GL, and
    (v_1, ..., v_g, c - v_g, ..., c - v_1) for GSp (v; c)."""
    if datum.kind == "GL":
        return tuple(v)
    head, c = v[:-1], v[-1]
    return (*head, *(c - x for x in reversed(head)))


def _displacement_table(spec: ParahoricSpec):
    """(table, |W_0|): what perm_set needs of (datum, I), in the N window
    coordinates (A_i = D a_i embedded, D the common denominator of the
    base-alcove vertices, i0 = min I):

    - spend: for each residue mod D of u(A_i0) - A_i0, the number of
      finite parts u that have it;
    - A, shift: A_i0 and -(N/D) A_i0;
    - rest: (A_i, A_i - A_i0) for the other i in I;
    - pairs: (a, b, slack), one per generator j, with (a, b) the window
      indices (j-1, j), and (N-1, 0) for j = 0; slack is D for j = 0 and
      0 otherwise;
    - shuffles: the embedded finite permutations m (position -> rank)
      with m(a) < m(b) for every pair, each as (m, its first
      coordinates), grouped by the residues mod D of A_i0 at the
      positions of ranks 0, ..., N-1."""
    datum = spec.datum
    verts = alcove_vertices(datum)
    D = math.lcm(*(v.denominator for a in verts.values() for v in a))
    scaled = {i: tuple(int(D * v) for v in verts[i]) for i in spec.I}
    i0 = min(spec.I)
    A = _embedded(datum, scaled[i0])
    N = len(A)
    head = datum.n
    rest = tuple(
        (Ai, tuple(map(sub, Ai[:head], A)))
        for Ai in (_embedded(datum, scaled[i]) for i in sorted(spec.I - {i0}))
    )
    mirror = -1 if datum.kind == "GSp" else 1
    ends = {j % N for k in spec.generator_indices for j in (k, mirror * k)}
    pairs = tuple(((j - 1) % N, j, D if j == 0 else 0) for j in sorted(ends))
    spend, shuffles = Counter(), {}
    for u in datum.finite_elements():
        spend[tuple((a - b) % D for a, b in zip(datum.act_coweight(u, scaled[i0]), scaled[i0]))] += 1
        m = tuple(v - 1 for v in _window(datum, datum.zero(), u))
        if all(m[a] < m[b] for a, b, _ in pairs):
            at = sorted(range(N), key=m.__getitem__)
            shuffles.setdefault(tuple(A[p] % D for p in at), []).append((m, m[:head]))
    return (D, spend, A, tuple(-(N // D) * a for a in A), rest, pairs, shuffles), sum(spend.values())


def perm_set(spec: ParahoricSpec, mu: Coweight, budget=None) -> AdmissibleSet:
    """Classes whose members satisfy the vertex displacement condition.

    Permissibility is constant on W_I-double cosets (W_I fixes every
    vertex a_i with i in I, and the hull is W_0-stable), so only the
    double-minimal elements are kept.  With D the common denominator of
    the vertices and A_i = D a_i, the scaled displacement of x = t_lam u
    at a_i is y = D lam + u(A_i) - A_i.  At i0 = min I it is a point of
    D * Conv(W_0 mu) (_hull_points), each pair (y, u) whose residues mod
    D make lam integral is one displacement candidate, and all of them
    are spent at once from the budget (_checked_budget), once it has room
    for W_0, which the displacement table runs over, and for the box the
    hull points are drawn from.  The hull test forces
    kappa(x) = kappa(t_mu), so the candidates are complete with no length
    bound.

    Only the candidates that can be double-minimal are formed, in the N
    window coordinates (_displacement_table), with Y = y + A_i0 and the
    generators j of W_I joined, for GSp, by their mirrors N - j.  The
    window of x holds V_r + shift(p) at the position p of the residue r,
    where V_r = r + 1 + (N/D) Y_r and shift = -(N/D) A_i0.  The shift
    changes only at i0 (and N - i0), which W_I lacks, and the j = 0 wrap
    compares the V directly; along a run of consecutive generators
    the V compare as the keys (Y_r, r) do.  So x has no right descent in
    W_I iff u(p) = o(m(p)), where o lists the residues by increasing key
    and the shuffle m increases along every run; the residues of Y mod D
    pick the shuffles that make lam integral.  x can lack the left
    descent s_j only if Y_j <= Y_{j-1} (Y_0 <= Y_{N-1} + D for j = 0):
    s_j compares lam_{j-1} and lam_j, ties broken by position, and A_i0
    falls by at most D along the positions.  The points that fail this
    are skipped whole.  The other vertices of I are tested on the
    displacement permuted by u^-1, which lies in the W_0-stable hull iff
    the displacement does, and _no_descent_in decides every candidate
    left.
    """
    budget = _checked_budget(spec, mu, budget)
    datum = spec.datum
    budget.check(math.factorial(datum.n) << (datum.n if datum.kind == "GSp" else 0), "finite Weyl group elements")
    D, spend, A, shift, rest, pairs, shuffles = _memo(_displacement_table, spec)
    # the box has hi - lo + 1 values per coordinate, one fewer free for GL
    lo, hi = _coordinate_bounds(mu, D)
    budget.check((hi - lo + 1) ** (datum.n - (datum.kind == "GL")), "hull box points")
    points, by_residue = _memo(_hull_points, mu, D)
    budget.spend(sum(n * len(by_residue.get(key, ())) for key, n in spend.items()), "displacement candidates")
    N, head, step = len(A), datum.n, len(A) // D
    gens = tuple(spec.generator_indices)
    classes = set()
    for y in points:
        Y = tuple(map(add, _embedded(datum, y), A))
        if any(Y[b] - Y[a] > slack for a, b, slack in pairs):
            continue
        order = sorted(range(N), key=Y.__getitem__)
        candidates = shuffles.get(tuple(Y[r] % D for r in order))
        if not candidates:
            continue
        values = [r + 1 + step * Y[r] for r in order]
        tail = y[head:]
        others = [([Y[r] - Ai[r] for r in order], dA) for Ai, dA in rest]
        for m, m_head in candidates:
            if others and not all(
                tuple(map(add, map(R.__getitem__, m_head), dA)) + tail in points for R, dA in others
            ):
                continue
            w = tuple(map(add, map(values.__getitem__, m), shift))
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


def _poincare(spec: ParahoricSpec, q: int) -> int:
    """The Poincare polynomial of W_I at q, sum q^{l(v)} over v in W_I, as
    a product over the pieces of J, the generators of W_I, in the affine
    diagram: a cycle for GL, the path 0..g for GSp.  A piece of k nodes
    is of type A_k, giving [2][3]...[k+1], except that a GSp piece holding
    0 or g is of type C_k, giving [2][4]...[2k] (Humphreys 3.15);
    [m] = 1 + q + ... + q^(m-1).  No element of W_I is formed."""
    datum, left = spec.datum, set(spec.generator_indices)
    N, cycle = len(datum.simple_indices), datum.kind == "GL"
    total = 1
    while left:
        piece, frontier = set(), [left.pop()]
        while frontier:
            j = frontier.pop()
            piece.add(j)
            for k in (j - 1, j + 1):
                k = k % N if cycle else k
                if k in left:
                    left.discard(k)
                    frontier.append(k)
        k = len(piece)
        degrees = range(2, 2 * k + 1, 2) if not cycle and piece & {0, datum.n} else range(2, k + 2)
        total *= math.prod((q**m - 1) // (q - 1) for m in degrees)
    return total


def stratum_count(c: DoubleCoset, q: int) -> int:
    """Points of the stratum of c over F_q: sum q^{l(z)} over the members z
    of c with no right descent in W_I, in closed form.  With w the minimal
    representative and K the generators s of W_I with w^-1 s w also one,
    W_I meets w W_I w^-1 in W_K (Kilmoyer), so those z are the u w, u
    minimal in u W_K, with l(u w) = l(u) + l(w): the sum is
    q^{l(w)} P_I(q) / P_K(q), and no member is formed.  A q that is not a
    prime power is no field size: ArtifactError."""
    if not _prime_power(q):
        raise ArtifactError(f"q must be a field size, a prime power, got {q}")
    spec, w = c.spec, c.min_rep
    datum, w_inv = spec.datum, w.inv()
    gens = {j: simple_reflection(datum, j) for j in spec.generator_indices}
    windows = {s.w for s in gens.values()}
    K = {j for j, s in gens.items() if (w_inv * s * w).w in windows}
    sub = ParahoricSpec(datum, frozenset(datum.vertex_labels) - K)
    return q ** length(w) * _poincare(spec, q) // _poincare(sub, q)


def poincare_quotient(c: DoubleCoset, q: int, budget=None):
    """sum q^{l(z)} over every member z of c, divided by the Poincare
    polynomial of W_I; None if it leaves a remainder.  Each member is z v
    with z right-minimal, v in W_I and l(z v) = l(z) + l(v), so the
    quotient is stratum_count(c, q), found another way: from the |W_I|^2
    products a w b, spent from the budget (a fresh Budget() if None)
    before any is formed."""
    group = parahoric_subgroup(c.spec)
    (budget or Budget()).spend(len(group) ** 2, "double-coset members")
    members = {a * c.min_rep * b for a in group for b in group}
    n, rest = divmod(sum(q ** length(z) for z in members), _poincare(c.spec, q))
    return None if rest else n
