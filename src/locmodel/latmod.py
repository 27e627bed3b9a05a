"""Finite models of the special fibers of lattice-chain local models.

A ChainModel packages, for each chain slot, the module
M_t = (F_p[Pi]/Pi^e)^D presented as an F_p-space of dimension D*e
(D = d for GL, 2g for GSp) together with the nilpotent operator N
(multiplication by Pi), the transition matrices between consecutive
slots, and the wrap map (multiplication by pi from the last slot back
to the first).  All matrices are derived from explicit lattice bases:

  GL:   Lambda_i   = <pi^-1 e_1 .. pi^-1 e_i, e_{i+1} .. e_d>
  GSp:  Lambda_i   = <pi^-1 e_1 .. pi^-1 e_i, e_{i+1} .. e_g,
                      delta f_1 .. delta f_g>
        Lambda_-i  = <e_1 .. e_g, pi delta f_1 .. pi delta f_i,
                      delta f_{i+1} .. delta f_g>

with the tame normalization delta = pi^(1-e) (hence the requirement
p does not divide e).  The GSp pairing is the coefficient of Pi^(e-1)
of the standard symplectic form, scaled by the unit e (the image of
the trace form under the tame normalization).

Everything is special-fiber-only: the Eisenstein coefficients vanish
and Q(T) = T^e.  The determinant condition of the naive moduli problem
is automatic at field-valued points (det(c_0 + nilpotent) = c_0^rank)
and is therefore documented here rather than tested per point.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    BadRanks,
    Budget,
    ChainInvariantError,
    IncompatibleElement,
    SignatureCollision,
    SingularGram,
    WildRamification,
    _memo,
)
from . import linalg
from .linalg import Field, FieldMatrix, Subspace
from .weyl import WeylElement

# ---------------------------------------------------------------------------
# model construction


def _gl_slot_basis(d, i):
    # pi^-1 e_1 .. pi^-1 e_i, e_{i+1} .. e_d
    return [(("e", m), -1 if m <= i else 0) for m in range(1, d + 1)]

def _gsp_slot_basis(g, e, label):
    if label >= 0:
        i = label
        basis = [(("e", m), -1 if m <= i else 0) for m in range(1, g + 1)]
        basis += [(("f", m), 1 - e) for m in range(1, g + 1)]
    else:
        i = -label
        basis = [(("e", m), 0) for m in range(1, g + 1)]
        basis += [(("f", m), 2 - e if m <= i else 1 - e) for m in range(1, g + 1)]
    return basis


class ChainModel:
    """One periodic lattice chain reduced to the special fiber."""

    def __init__(self, kind, size, e, I, field, r_vec):
        self.kind = kind
        self.n = size  # d for GL, g for GSp
        self.e = e
        self.I = tuple(sorted(set(I)))
        self.field = field
        self.r_vec = tuple(r_vec)
        self.D = size if kind == "GL" else 2 * size

        if kind == "GL":
            self.slots = self.I
            self.slot_basis = {i: _gl_slot_basis(size, i) for i in self.slots}
        else:
            neg = [-i for i in sorted(self.I, reverse=True) if i > 0]
            self.slots = tuple(neg) + self.I
            self.slot_basis = {
                t: _gsp_slot_basis(size, e, t) for t in self.slots
            }
        self.dim = self.D * e

        self.N = self._pi_matrix()
        self.T = [
            self._inclusion(self.slots[t], self.slots[t + 1], 0)
            for t in range(len(self.slots) - 1)
        ]
        self.T_wrap = self._inclusion(self.slots[-1], self.slots[0], 1)
        self.gram = {}
        if kind == "GSp":
            for i in self.I:
                self.gram[i] = self._gram(i)
        self._check_invariants()

    # -- coordinates: basis vector (m_idx, j) sits at column m_idx*e + j ----

    def coord(self, m_idx, j):
        return m_idx * self.e + j

    @property
    def rank(self):
        """The rank of the chain subspaces F_t."""
        if self.kind == "GL":
            return sum(self.r_vec)
        return self.e * self.n

    def level_rank(self, j):
        """rank of F^j in a splitting flag (1 <= j <= e)."""
        if self.kind == "GL":
            return sum(self.r_vec[:j])
        return j * self.n

    @cached_property
    def signature_plan(self):
        """Per slot t, one (columns, offset) pair per entry (t', n) of
        signature, in its order: the columns (m, j) of M_t with
        a_m + j < a'_m + n, and the number of coordinates of
        Pi^e Lambda_t inside Pi^n Lambda_{t'} (a, a' the exponents of
        Lambda_t, Lambda_{t'}; the ambient ends at Pi^e Lambda_min)."""
        bottom = {sym: a + self.e for sym, a in self.slot_basis[self.slots[0]]}
        plan = []
        for t in self.slots:
            basis = self.slot_basis[t]
            row = []
            for t2 in self.slots:
                exps = dict(self.slot_basis[t2])
                for n in range(-1, self.e + 1):
                    cols = tuple(
                        self.coord(m, j)
                        for m, (sym, a) in enumerate(basis)
                        for j in range(self.e)
                        if a + j < exps[sym] + n
                    )
                    offset = sum(
                        max(0, bottom[sym] - max(a + self.e, exps[sym] + n))
                        for sym, a in basis
                    )
                    row.append((cols, offset))
            plan.append(row)
        return plan

    @cached_property
    def memo(self):
        """Results that depend only on the model and one slot subspace,
        computed once per model and freed with it (as are the images that
        its maps memoise):
          ("level", F^{j+1}, j) -> the options of _level_options,
          ("perp", t, F)        -> _annihilator(self, t, F),
          ("signature", t, F_t) -> the entries of signature for slot t."""
        return {}

    @cached_property
    def level_maps(self):
        """_level_ok's maps: N^(e-j) for each level j."""
        powers = [FieldMatrix(self.field, np.linalg.matrix_power(self.N.array, k)) for k in range(self.e + 1)]
        return powers[::-1]

    def _pi_matrix(self):
        a = np.zeros((self.dim, self.dim), dtype=np.int64)
        for m in range(self.D):
            for j in range(self.e - 1):
                a[self.coord(m, j + 1), self.coord(m, j)] = 1
        return FieldMatrix(self.field, a)

    def _inclusion(self, src, dst, extra_pi):
        """Matrix of M_src -> M_dst induced by inclusion (times pi^extra_pi)."""
        sb, db = self.slot_basis[src], self.slot_basis[dst]
        pos = {sym: (m, a) for m, (sym, a) in enumerate(db)}
        a = np.zeros((self.dim, self.dim), dtype=np.int64)
        for m_src, (sym, a_src) in enumerate(sb):
            m_dst, a_dst = pos[sym]
            k = a_src + extra_pi - a_dst
            if k < 0:
                raise BadRanks("slot bases do not form an increasing chain")
            for j in range(self.e):
                if j + k < self.e:
                    a[self.coord(m_dst, j + k), self.coord(m_src, j)] = 1
        return FieldMatrix(self.field, a)

    def _gram(self, i):
        """Pairing of M_{slot i} with M_{slot -i} (self-pairing for i = 0)."""
        p = self.field.p
        unit = self.e % p
        left = self.slot_basis[i]
        right = self.slot_basis[-i]
        a = np.zeros((self.dim, self.dim), dtype=np.int64)
        for m1, ((s1, idx1), a1) in enumerate(left):
            for m2, ((s2, idx2), a2) in enumerate(right):
                if idx1 != idx2 or s1 == s2:
                    continue
                sign = 1 if s1 == "e" else -1
                for j in range(self.e):
                    for k in range(self.e):
                        if j + k + a1 + a2 == 0:
                            a[self.coord(m1, j), self.coord(m2, k)] = sign * unit
        m = FieldMatrix(self.field, a)
        if linalg.rank(m) != self.dim:
            raise SingularGram("chain pairing is not perfect")
        return m

    def _check_invariants(self):
        """Raise ChainInvariantError unless N^e = 0, the maps commute with
        N and compose to N, and N is adjoint for each pairing, which is
        alternating in the slot coordinates (the exponents of the slots i
        and -i of a dual pair sum to 1 - e in either order)."""
        def require(ok, what):
            if not ok:
                raise ChainInvariantError(f"{self!r}: {what}")

        power = loop = FieldMatrix.identity(self.field, self.dim)
        for _ in range(self.e):
            power = self.N @ power
        require(power == FieldMatrix.zero(self.field, self.dim, self.dim), "N^e != 0")
        for f in self.T + [self.T_wrap]:
            require(f @ self.N == self.N @ f, "a transition map does not commute with N")
            loop = f @ loop
        require(loop == self.N, "the transition maps do not compose to N")
        for i, g in self.gram.items():
            require(self.N.transpose() @ g == g @ self.N, f"N is not adjoint for the pairing at {i}")
            a = g.array
            alternating = np.array_equal(a.T, -a % self.field.p) and not a.diagonal().any()
            require(alternating, f"the pairing at {i} is not alternating")

    def __repr__(self):
        return (
            f"ChainModel({self.kind}, n={self.n}, e={self.e}, I={self.I}, "
            f"p={self.field.p}, r={self.r_vec})"
        )


def build_model(kind, size, e, I, p, r_vec=None) -> ChainModel:
    """Construct the special-fiber chain model.

    r_vec lists the per-embedding ranks (r_1 .. r_e) for GL; for GSp it
    must be (g, ..., g) and may be omitted.
    """
    field = Field(p)
    I = sorted(set(I))
    if e < 1:
        raise BadRanks("need e >= 1")
    if kind == "GL":
        if size < 1 or not I or not set(I) <= set(range(size)):
            raise BadRanks(f"I must be a nonempty subset of 0..{size - 1}")
        if r_vec is None:
            raise BadRanks("GL model needs the rank vector (r_1..r_e)")
        r_vec = tuple(r_vec)
        if len(r_vec) != e or any(not 0 <= r <= size for r in r_vec):
            raise BadRanks("need length-e rank vector with 0 <= r_l <= d")
    elif kind == "GSp":
        if size < 1 or not I or not set(I) <= set(range(size + 1)):
            raise BadRanks(f"I must be a nonempty subset of 0..{size}")
        if e % p == 0:
            raise WildRamification(f"p={p} divides e={e}")
        if r_vec is None:
            r_vec = (size,) * e
        r_vec = tuple(r_vec)
        if r_vec != (size,) * e:
            raise BadRanks("GSp ranks are forced to (g, ..., g)")
    else:
        raise BadRanks(f"unknown kind {kind!r}")
    return ChainModel(kind, size, e, I, field, r_vec)


# ---------------------------------------------------------------------------
# points


class ChainPoint:
    """An F_p-point of the naive model: one subspace per chain slot."""

    __slots__ = ("model", "subspaces")

    def __init__(self, model: ChainModel, subspaces):
        self.model = model
        self.subspaces = dict(subspaces)

    def as_tuple(self):
        return tuple(self.subspaces[t] for t in self.model.slots)

    def __eq__(self, other):
        return (
            isinstance(other, ChainPoint)
            and self.model is other.model
            and self.as_tuple() == other.as_tuple()
        )

    def __hash__(self):
        return hash(self.as_tuple())

    def __repr__(self):
        dims = {t: s.dim for t, s in self.subspaces.items()}
        return f"ChainPoint({dims})"


class FlagPoint:
    """An F_p-point of the splitting model: a flag per chain slot.

    flags[t] = (F^1_t, ..., F^e_t), increasing, with F^e the naive
    chain subspace.
    """

    __slots__ = ("model", "flags")

    def __init__(self, model: ChainModel, flags):
        self.model = model
        self.flags = {t: tuple(fs) for t, fs in flags.items()}

    def top(self) -> ChainPoint:
        return ChainPoint(self.model, {t: fs[-1] for t, fs in self.flags.items()})

    def as_tuple(self):
        return tuple(self.flags[t] for t in self.model.slots)

    def __eq__(self, other):
        return (
            isinstance(other, FlagPoint)
            and self.model is other.model
            and self.as_tuple() == other.as_tuple()
        )

    def __hash__(self):
        return hash(self.as_tuple())


def _code(v, p):
    """The vector v of F_p^n as one int: its entries as base-p digits,
    the first most significant."""
    code = 0
    for x in v:
        code = code * p + x
    return code


def _containment_table(subspaces, p):
    """The containment index of a list of subspaces of one dimension k in
    F_p^n: the _code of every vector whose first nonzero entry is 1, as
    every RREF row's is, mapped to the bitset of the subspaces that hold
    it, bit j for subspaces[j].  Those vectors of a subspace are the
    combinations of its rows whose first nonzero coefficient is 1, formed
    for all the subspaces at once."""
    k, n = subspaces[0].dim, subspaces[0].ambient_dim
    if not k:
        return {}
    coeffs = np.array([
        (0,) * lead + (1,) + tail
        for lead in range(k)
        for tail in itertools.product(range(p), repeat=k - lead - 1)
    ])
    digits = np.array([p**i for i in reversed(range(n))], dtype=np.int64 if p**n < 2**63 else object)
    vectors = (coeffs @ np.array([s.rows for s in subspaces])) % p
    table = {}
    for j, codes in enumerate((vectors @ digits).tolist()):
        bit = 1 << j
        for code in codes:
            table[code] = table.get(code, 0) | bit
    return table


def _chains(maps, slots, labels, choices, budget, index=None):
    """Yield {slot: subspace} for every chain, in itertools.product order
    over the labels: labels[s] is the tuple of slots chosen together and
    choices[s] its options, read only by len and [j], each a tuple of
    subspaces in the order of labels[s].  Link k holds when maps[k] sends
    slots[k] into the next slot, the last wrapping to the first; it is
    checked once both its ends are chosen.  index, if given, holds per
    label the _containment_table of the first subspaces of its options,
    or None.  A link from a label chosen earlier into the first slot of a
    label with a table is a mask: the AND of the table's bitsets over the
    rows of the image.  The label's options are then visited only at the
    bits of its masks, in ascending order, and every other link is tested
    with leq.  Each image and mask is computed once per call.  Every
    option visited spends one unit of the budget."""
    where = {t: (s, pos) for s, label in enumerate(labels) for pos, t in enumerate(label)}
    index = index or [None] * len(labels)
    links = [([], []) for _ in labels]  # links[s]: (masked, tested), the links (k, source, target) completed by s
    for k, (a, b) in enumerate(zip(slots, slots[1:] + slots[:1])):
        (sa, pa), (sb, pb) = where[a], where[b]
        masked = sa < sb and pb == 0 and index[sb] is not None
        links[max(sa, sb)][0 if masked else 1].append((k, (sa, pa), (sb, pb)))
    memo = [[None] * len(choices[where[a][0]]) for a in slots]  # per link and source option: image or mask
    return _extend(maps, labels, choices, index, links, memo, budget, [0] * len(labels), 0)


def _extend(maps, labels, choices, index, links, memo, budget, picked, s):
    # not a nested closure: that would be a cycle holding its memo until gc
    masked, tested = links[s]
    visit = range(len(choices[s]))
    if masked:
        mask = -1
        for k, (sa, pa), _ in masked:
            m = memo[k][picked[sa]]
            if m is None:
                m = (1 << len(choices[s])) - 1
                img = linalg.image(maps[k], choices[sa][picked[sa]][pa])
                for row in img.rows:
                    m &= index[s].get(_code(row, img.field.p), 0)
                memo[k][picked[sa]] = m
            mask &= m
        visit = _bits(mask)
    for j in visit:
        budget.spend(1, "slot options visited")
        picked[s] = j
        for k, (sa, pa), (sb, pb) in tested:
            img = memo[k][picked[sa]]
            if img is None:
                img = memo[k][picked[sa]] = linalg.image(maps[k], choices[sa][picked[sa]][pa])
            if not img.leq(choices[sb][picked[sb]][pb]):
                break
        else:
            if s + 1 < len(labels):
                yield from _extend(maps, labels, choices, index, links, memo, budget, picked, s + 1)
            else:
                yield {t: c for label, opts, i in zip(labels, choices, picked) for t, c in zip(label, opts[i])}


def _bits(mask):
    """The positions of the set bits of mask, in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _PairedOptions:
    """The options (F_i, F_{-i}) of a paired GSp label, F_i from opts and
    F_{-i} = perp(F_i, gram), each pair formed on its first [j] and kept:
    _chains reads only len and [j]."""

    def __init__(self, opts, gram):
        self.opts, self.gram, self.pairs = opts, gram, {}

    def __len__(self):
        return len(self.opts)

    def __getitem__(self, j):
        if j not in self.pairs:
            self.pairs[j] = (self.opts[j], linalg.perp(self.opts[j], self.gram))
        return self.pairs[j]


def _points(model: ChainModel, maps, opts, grams, budget):
    """Chain points, in product order, with the subspace of every
    independent label (the slots for GL, I for GSp) drawn from the one
    list opts.  For GSp, F_0 must be isotropic for grams[0] (so Lagrangian)
    and F_{-i} is the annihilator of F_i under grams[i], N-stable as N is
    adjoint for it, chosen together with F_i and formed when its option
    is first visited (_PairedOptions).  Every label after the first draws
    its first subspace from all of opts, so with more than one label they
    share one containment table of opts, built here."""
    paired = [i for i in model.I if model.kind == "GSp" and i > 0]
    labels = [(i, -i) if i in paired else (i,) for i in model.I]
    choices = [
        _PairedOptions(opts, grams[i])
        if i in paired
        else [(c,) for c in opts if model.kind == "GL" or linalg.isotropic(c, grams[0])]
        for i in model.I
    ]
    index = None
    if len(labels) > 1 and opts:
        index = [None] + [_containment_table(opts, model.field.p)] * (len(labels) - 1)
    order = list(model.I) + [-i for i in paired]
    for chain in _chains(maps, model.slots, labels, choices, budget, index):
        yield ChainPoint(model, {t: chain[t] for t in order})


def naive_points(model: ChainModel, budget=None):
    """Yield every F_p-point of the naive special fiber.

    Rank, Pi-stability, transition/wrap compatibility (and for GSp the
    pairing condition F_{-i} = F_i^perp) are tested; the determinant
    condition is automatic at field points and not re-tested.
    """
    budget = budget or Budget()
    stable = linalg.stable_subspaces(model.N, model.rank, budget)
    yield from _points(model, model.T + [model.T_wrap], stable, model.gram, budget)


# ---------------------------------------------------------------------------
# splitting flags


def _level_options(model: ChainModel, upper, j, budget):
    """The candidates for F^j under F^{j+1} = upper, as the 1-tuples that
    _chains chooses from: the subspaces of rank level_rank(j) between
    N(upper) and upper with dim N(F^j) <= level_rank(j-1), so N(F^1) = 0
    at the bottom (level_rank(0) = 0).  They depend on no slot: memoised per
    model on (upper, j), and across models on (N, upper, the two ranks)."""
    key = ("level", upper, j)
    opts = model.memo.get(key)
    if opts is None:
        ranks = model.level_rank(j), model.level_rank(j - 1)
        shared = (_levels, model.field.p, model.N.array.tobytes(), upper._key, *ranks)
        opts = model.memo[key] = _memo(_levels, model.N, upper, *ranks, budget=budget, key=shared)
    return opts


def _levels(N, upper, rank, below, budget):
    between = linalg.subspaces_between(linalg.image(N, upper), upper, rank, budget)
    opts = tuple((c,) for c in between if linalg.image(N, c).dim <= below)
    return opts, len(opts)


def _annihilator(model: ChainModel, t, sub):
    """The annihilator in M_{-t} of sub <= M_t under the pairing of the
    slots t and -t: perp under gram[|t|], which is alternating (a checked
    invariant), so it equals perp under the transpose gram[-t]^T for t < 0.
    Memoised per model on (t, sub)."""
    key = ("perp", t, sub)
    ann = model.memo.get(key)
    if ann is None:
        ann = model.memo[key] = linalg.perp(sub, model.gram[abs(t)])
    return ann


def _level_ok(model: ChainModel, j, level):
    """The GSp conditions on level j < e: F_i and F_{-i} are mutually
    isotropic, and N^(e-j) maps the annihilator of each into the other.
    _chains has checked the chain conditions."""
    power = model.level_maps[j]
    for i in model.I:
        a, b = level[i], level[-i]
        # the annihilator of a lives in the negative slot and contains b
        # iff a and b are mutually isotropic
        ann = _annihilator(model, i, a)
        if not (b.leq(ann) and linalg.image(power, ann).leq(b)):
            return False
        if not linalg.image(power, _annihilator(model, -i, b)).leq(a):
            return False
    return True


def _flag_search(model: ChainModel, top: ChainPoint, budget):
    """Backtracking search for splitting flags under a naive point.

    Levels are chosen from j = e-1 down to 1, each from the chains of
    _level_options that meet the transition and wrap conditions (and for
    GSp _level_ok).  Yields dicts {slot: (F^1 .. F^e)}.
    """
    stack = {t: [top.subspaces[t]] for t in model.slots}
    return _descend(model, model.T + [model.T_wrap], stack, model.e - 1, budget)


def _descend(model, maps, stack, j, budget):
    # stack maps slot -> list of levels already chosen, top first; not a
    # nested closure: that would be a cycle holding the model until gc
    slots = model.slots
    if j == 0:
        yield {t: tuple(reversed(stack[t])) for t in slots}
        return
    choices = []
    for t in slots:
        opts = _level_options(model, stack[t][-1], j, budget)
        if not opts:
            return
        choices.append(opts)
    for level in _chains(maps, slots, [(t,) for t in slots], choices, budget):
        if model.kind == "GSp" and not _level_ok(model, j, level):
            continue
        for t in slots:
            stack[t].append(level[t])
        yield from _descend(model, maps, stack, j - 1, budget)
        for t in slots:
            stack[t].pop()


def has_splitting_flag(pt: ChainPoint, budget=None) -> bool:
    """Does some splitting flag have this chain point on top?"""
    return next(_flag_search(pt.model, pt, budget or Budget()), None) is not None


def splitting_points(model: ChainModel, budget=None):
    """Yield every F_p-point of the splitting model."""
    budget = budget or Budget()
    for pt in naive_points(model, budget=budget):
        for flags in _flag_search(model, pt, budget):
            yield FlagPoint(model, flags)


def canonical_points(model: ChainModel, budget=None):
    """Naive points admitting a splitting flag (the flat-closure points)."""
    budget = budget or Budget()
    for pt in naive_points(model, budget=budget):
        if has_splitting_flag(pt, budget=budget):
            yield pt


# ---------------------------------------------------------------------------
# unramified models


def _residue_maps(model: ChainModel):
    """The transition and wrap maps on Lambda tensor F_p: the chain's own
    maps on the Pi^0 coordinates (m, 0), where only exact exponent matches
    survive."""
    e = model.e
    return [FieldMatrix(model.field, f.array[::e, ::e]) for f in model.T + [model.T_wrap]]


def _mod_p_gram(model: ChainModel):
    """Standard symplectic pairing on the residue symbols e_m, f_m."""
    a = np.zeros((model.D, model.D), dtype=np.int64)
    g = model.n
    for m in range(g):
        a[m, g + m] = 1
        a[g + m, m] = -1
    return FieldMatrix(model.field, a)


def unramified_points(model: ChainModel, l: int, budget=None):
    """Points of the single-embedding (Grassmannian-type) model M^l / N^l.

    Chains of rank-r_l subspaces of the residue spaces, compatible with
    the mod-p transition maps; the wrap map is reduced with the
    Eisenstein coefficient sent to 0.  For GSp, F_{-i} is the
    annihilator of F_i under the standard residue symplectic form.
    """
    if not 1 <= l <= model.e:
        raise BadRanks(f"l must be in 1..{model.e}")
    budget = budget or Budget()
    r = model.r_vec[l - 1] if model.kind == "GL" else model.n
    maps = _residue_maps(model)
    opts = list(linalg.enumerate_subspaces(model.D, r, model.field, budget=budget))
    grams = dict.fromkeys(model.I, _mod_p_gram(model)) if model.kind == "GSp" else {}
    yield from _points(model, maps, opts, grams, budget)


@dataclass(frozen=True)
class TorsorReport:
    splitting_total: int
    unramified_factors: tuple
    product: int
    passed: bool


def torsor_check(model: ChainModel, budget=None) -> TorsorReport:
    """Compare |splitting points| with the product of the unramified counts."""
    budget = budget or Budget()
    total = sum(1 for _ in splitting_points(model, budget=budget))
    factors = tuple(
        sum(1 for _ in unramified_points(model, l, budget=budget))
        for l in range(1, model.e + 1)
    )
    product = math.prod(factors)
    return TorsorReport(total, factors, product, total == product)


# ---------------------------------------------------------------------------
# standard points, signatures, strata


def _act_on_lattice_vector(w: WeylElement, sym, a, fshift=0):
    """Image of pi^a * sym under the geometric action of w, the monomial
    representation of w with its translation part negated: under it the
    parahoric of I stabilizes every slot lattice, so it places standard
    points and rotates the chain by the length-zero generator.

    The symbols are the window positions: e_m is m and, for GSp, f_m is
    N+1-m.  w(i) = r + kN with 1 <= r <= N sends the symbol at i to the
    symbol at r times pi^-k: translations act by t_lam: e_i -> pi^{-lam_i}
    e_i (and for GSp f_i -> pi^{lam_i - c} f_i), the finite part permutes
    symbols.  GSp reflections swap e_i with the rescaled f~_i = delta
    f_i, so the f-exponents are shifted to the delta basis (fshift =
    1 - e) before acting and shifted back after.
    """
    kind, m = sym
    N = len(w.w)
    if kind == "f":
        a -= fshift
        m = N + 1 - m
    k, r = divmod(w.w[m - 1] - 1, N)
    if r < w.datum.n:
        return ("e", r + 1), a - k
    return ("f", N - r), a - k + fshift


def standard_point(w: WeylElement, model: ChainModel) -> ChainPoint:
    """The base point of the stratum of w.

    The chain lattice is L_t = Pi^e w Lambda_t (geometric action); its
    image in M_t = Lambda_t / Pi^e Lambda_t is the chain subspace.  The
    rank of the result must match the model (kappa bookkeeping),
    otherwise IncompatibleElement is raised.
    """
    if (model.kind == "GL") != (w.datum.kind == "GL") or w.datum.n != model.n:
        raise IncompatibleElement("element belongs to a different group")
    fshift = 0 if model.kind == "GL" else 1 - model.e
    e = model.e
    subspaces = {}
    for t in model.slots:
        basis = model.slot_basis[t]
        pos = {sym: (m, a) for m, (sym, a) in enumerate(basis)}
        rows = []
        for sym, a in basis:
            sym2, a2 = _act_on_lattice_vector(w, sym, a, fshift)
            m_dst, a_dst = pos[sym2]
            k = a2 + e - a_dst
            if k < 0:
                raise IncompatibleElement("w^{-1} lattice escapes the chain lattice")
            for j in range(k, e):
                rows.append([0] * model.dim)
                rows[-1][model.coord(m_dst, j)] = 1
        sub = Subspace.from_rows(model.field, model.dim, rows)
        if sub.dim != model.rank:
            raise IncompatibleElement(
                f"standard chain has rank {sub.dim}, model expects {model.rank}"
            )
        subspaces[t] = sub
    return ChainPoint(model, subspaces)


def signature(pt: ChainPoint):
    """Intersection-dimension data identifying the stratum of a point.

    d(t, t', n) = dim(L_t meet Pi^n Lambda_{t'}) over all slot pairs and
    -1 <= n <= e, for L_t = F_t + Pi^e Lambda_t inside the common ambient
    A = Pi^-1 Lambda_max / Pi^e Lambda_min.  Each Pi^n Lambda_{t'} is a
    coordinate subspace of A, so d is dim L_t minus the rank of L_t on
    the coordinates outside it.  Of L_t, Pi^e Lambda_t keeps its
    coordinates inside Pi^n Lambda_{t'}, and F_t, whose column (m, j) is
    the coordinate pi^(a_m + j) of symbol m, keeps dim F_t minus the rank
    of its basis on the columns outside (ChainModel.signature_plan).
    The entries of slot t depend only on (t, F_t) and are memoised per
    model.
    """
    model = pt.model
    out = []
    for t, plan in zip(model.slots, model.signature_plan):
        key = ("signature", t, pt.subspaces[t])
        part = model.memo.get(key)
        if part is None:
            rows = pt.subspaces[t].rows
            ranks = {(): 0, tuple(range(model.dim)): len(rows)}
            part = []
            for cols, offset in plan:
                r = ranks.get(cols)
                if r is None:
                    sliced = [[row[c] for c in cols] for row in rows]
                    r = ranks[cols] = len(linalg._rref_rows(sliced, model.field.p)[1])
                part.append(len(rows) + offset - r)
            model.memo[key] = part
        out += part
    return tuple(out)


@dataclass
class StratumReport:
    """Matched decomposition {stratum -> observed point count}."""

    rows: list  # (DoubleCoset, observed)
    unmatched: int

    @property
    def passed(self):
        return self.unmatched == 0


def classify_strata(points, adm, model: ChainModel) -> StratumReport:
    """Assign each point to the stratum whose standard point it matches.

    The key is the signature.  Two standard points with one signature
    raise SignatureCollision; the tests find none for GL with d <= 4 and
    GSp with g <= 2, e <= 3, and classify small models by chain
    automorphism orbits to the same strata.
    """
    points = list(points)
    sigs = {}
    for c in adm.classes:
        try:
            sp = standard_point(c.min_rep, model)
        except IncompatibleElement:
            continue
        sig = signature(sp)
        if sig in sigs:
            raise SignatureCollision(
                f"standard points of {sigs[sig].min_rep} and {c.min_rep} coincide"
            )
        sigs[sig] = c
    counts = {}
    unmatched = 0
    for pt in points:
        c = sigs.get(signature(pt))
        if c is None:
            unmatched += 1
            continue
        counts[c] = counts.get(c, 0) + 1
    rows = sorted(counts.items(), key=lambda kv: kv[0].min_rep.lam)
    return StratumReport(rows, unmatched)
