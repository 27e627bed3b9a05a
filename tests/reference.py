"""Reference implementations that only the tests use.

Each one is an independent, slower path to something the library
computes another way, kept as an oracle for it:

  * ``enumerate_below``, ``downset`` and ``cover_ideal``: Bruhat
    down-sets by the subword property, by the lifting recursion on
    length_descents, and level by level from the lower covers y r, r a
    reflection, each measured with ``length`` (the library lifts the
    windows of each top's down-set, one ``weyl._reflect`` per element,
    and measures no length, ``weyl.bruhat_ideal``);
  * ``root_inversions``: the length as the number of positive affine
    roots sent to negative ones, on the (lam, u) pair (the library counts
    inversions of the window);
  * ``semidirect_product`` and ``semidirect_inverse``: the group law on
    (lam, u) pairs (the library composes and inverts windows);
  * ``length_descents``: descents by comparing l(s x) and l(x s) with
    l(x) (the library compares adjacent window entries,
    ``weyl._first_descent``); ``product_reduced_word`` and ``downset``
    read their descents from it, so no oracle shares the window kernel
    it checks (``test_weyl`` parses this file to hold that);
  * ``descent_mask``: the left and right descents of an element, one j
    at a time on its window and on that of its inverse from the group
    law (the library reads a window in one pass and carries the masks of
    the Bruhat ideal along the conjugation by Omega);
  * ``product_reduced_word``: the greedy reduced word by one product
    s_j y per letter (the library swaps entries of the inverse window,
    ``weyl._reflect``);
  * ``coset_min``: the minimal element of a double coset by greedy
    descent (the library keeps the double-minimal elements it meets);
  * ``total_count``: the point count of a whole admissible set, the sum
    of its strata;
  * ``elements_of_length_leq`` and ``pool_perm_set``: the permissible
    set by filtering every element of length <= l(t_mu) + 1 (the library
    generates the candidates from the vertex displacements);
  * ``element_from_word``, ``omega_generator`` and ``act_point``: words,
    the length-0 generator tau and the affine action on points, which
    only these oracles and the tests need;
  * ``solve_exact``: a linear system over Q, for the Caratheodory hull
    oracle (the library tests hull membership by dominance);
  * ``poincare_polynomial``: the Poincare polynomial of W_I as the sum
    of q^l over the elements of W_I (the library takes the product of
    q-integers over the pieces of its diagram, ``admissible._poincare``);
  * ``rref`` and ``nullspace``: Gauss-Jordan elimination of an array by
    numpy row operations, and the kernel read from it (the library
    eliminates on lists with ``_rref_rows`` and ranks blocks of matrices
    with ``matschemes._batched_ranks``; ``test_weyl`` parses this file to
    hold that no elimination is imported from either module);
  * ``stable_under``, ``meet`` and ``join``: subspace predicates, sums
    and intersections by direct elimination (the library generates the
    N-stable subspaces and computes signatures from column ranks);
  * ``greedy_subspaces_between``: the subspaces between a and b, lifted
    from a complement of a that takes b's rows greedily, joining one at
    a time (the library reads the complement off one elimination of a's
    coordinates in b's basis, ``linalg.subspaces_between``);
  * ``symmetric_batch``: symmetric matrices decoded from mixed-radix
    digits (the library scans them in chunks of int16 digit tables);
  * ``isotropic_subspace_count``: the totally isotropic k-subspaces of
    F_p^n, by testing the row dot products of every k-subspace (the
    library counts them in closed form,
    ``matschemes._isotropic_subspace_count``);
  * ``classify_by_orbits``: the strata of a chain model as orbits of the
    elementary chain automorphisms (the library matches signatures);
  * ``mod_p_map``: a transition map on Lambda tensor F_p built from the
    slot bases (the library restricts the chain's own maps to the Pi^0
    coordinates);
  * ``trial_chains``: the chain backtracker that tries every option of
    each label and tests each link with leq (the library visits only the
    options that its containment table finds to hold each image,
    ``latmod._chains``; ``test_weyl`` parses this file to hold that it
    reaches neither).

``extended`` marks the opt-in tier: the slow tests that run only with
LOCMODEL_EXTENDED set.
"""

import os
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from locmodel import linalg
from locmodel.admissible import AdmissibleSet, DoubleCoset, conv_membership, stratum_count
from locmodel.errors import (
    BudgetExceeded,
    DimensionMismatch,
    IncompatibleElement,
    InvalidIndex,
    SignatureCollision,
)
from locmodel.latmod import ChainModel, ChainPoint, StratumReport, standard_point
from locmodel.linalg import FieldMatrix, Subspace
from locmodel.weyl import (
    WeylElement,
    alcove_vertices,
    identity,
    kappa,
    length,
    parahoric_generators,
    parahoric_subgroup,
    simple_reflection,
    translation,
)


def extended(reason):
    """Run the test only with LOCMODEL_EXTENDED set; reason says what it
    runs and for how long."""
    return pytest.mark.skipif(not os.environ.get("LOCMODEL_EXTENDED"), reason=reason)


# ---------------------------------------------------------------------------
# weyl: the affine-root model
#
# Roots are integer vectors: e_i - e_j for GL(d), +-e_i +-e_j and +-2 e_i
# for GSp(g).  The affine root (alpha, k) is positive when k > 0, or k = 0
# and alpha > 0; t_lam u sends it to (u(alpha), k - <lam, u(alpha)>).


@lru_cache(maxsize=None)
def roots(datum):
    n, out = datum.n, []
    if datum.kind == "GL":
        pairs = [(i, j, 1, -1) for i in range(n) for j in range(n) if i != j]
    else:
        signs = ((1, -1), (1, 1), (-1, 1), (-1, -1))
        pairs = [(i, j, a, b) for i in range(n) for j in range(i + 1, n) for a, b in signs]
        pairs += [(i, i, a, a) for i in range(n) for a in (1, -1)]
    for i, j, a, b in pairs:
        alpha = [0] * n
        alpha[i] += a
        alpha[j] += b
        out.append(tuple(alpha))
    return tuple(out)


def is_positive_root(alpha) -> bool:
    return next((a > 0 for a in alpha if a), False)


def pairing(datum, lam, alpha):
    """<lam, alpha> for a coweight lam (for GSp, (v; c) pairs with a root
    of coordinate sum 2h as <v, alpha> - c h)."""
    s = sum(l * a for l, a in zip(lam, alpha))
    return s if datum.kind == "GL" else s - lam[-1] * (sum(alpha) // 2)


def _signed(u, j):
    """The signed permutation u at the signed index j."""
    return u[j - 1] if j > 0 else -u[-j - 1]


def act_root(datum, u, alpha):
    out = [0] * datum.n
    for i, j in enumerate(u):
        if datum.kind == "GL":
            out[j] = alpha[i]
        else:
            out[abs(j) - 1] = alpha[i] if j > 0 else -alpha[i]
    return tuple(out)


def compose_finite(datum, u, v):
    if datum.kind == "GL":
        return tuple(u[j] for j in v)
    return tuple(_signed(u, j) for j in v)


def invert_finite(datum, u):
    out = [0] * datum.n
    for i, j in enumerate(u):
        if datum.kind == "GL":
            out[j] = i
        else:
            out[abs(j) - 1] = i + 1 if j > 0 else -(i + 1)
    return tuple(out)


def semidirect_product(x: WeylElement, y: WeylElement):
    """(lam, u) of (t_lam u)(t_mu v) = t_{lam + u(mu)} (uv)."""
    d = x.datum
    lam = tuple(a + b for a, b in zip(x.lam, d.act_coweight(x.u, y.lam)))
    return lam, compose_finite(d, x.u, y.u)


def semidirect_inverse(x: WeylElement):
    """(lam, u) of (t_lam u)^-1 = t_{-u^-1(lam)} u^-1."""
    d = x.datum
    ui = invert_finite(d, x.u)
    return tuple(-v for v in d.act_coweight(ui, x.lam)), ui


def inverted_roots(x: WeylElement, k_max: int):
    """The positive affine roots (alpha, k), k <= k_max, that x sends to
    negative ones."""
    d, out = x.datum, []
    for alpha in roots(d):
        beta = act_root(d, x.u, alpha)
        m = pairing(d, x.lam, beta)
        for k in range(0 if is_positive_root(alpha) else 1, k_max + 1):
            if k - m < 0 or (k == m and not is_positive_root(beta)):
                out.append((alpha, k))
    return out


def root_inversions(x: WeylElement) -> int:
    """The length of x as the number of positive affine roots it sends to
    negative ones: for each root alpha, the k >= k_min (0 for alpha > 0,
    else 1) with k < <lam, u(alpha)>, and k = <lam, u(alpha)> too when
    u(alpha) < 0."""
    d, total = x.datum, 0
    for alpha in roots(d):
        k_min = 0 if is_positive_root(alpha) else 1
        beta = act_root(d, x.u, alpha)
        m = pairing(d, x.lam, beta)
        total += max(0, m - k_min) + (not is_positive_root(beta) and m >= k_min)
    return total


# ---------------------------------------------------------------------------
# weyl: words, descents and down-sets


@lru_cache(maxsize=None)
def omega_generator(datum) -> WeylElement:
    """The length-0 element with kappa = 1 (generates Omega)."""
    if datum.kind == "GL":
        lam = (1,) + (0,) * (datum.n - 1)
    else:
        lam = (1,) * datum.n + (1,)
    for u in datum.finite_elements():
        x = WeylElement(datum, lam, u)
        if length(x) == 0:
            return x
    raise InvalidIndex("no length-0 generator found")


def element_from_word(datum, word, omega_power: int = 0) -> WeylElement:
    """s_{word[0]} ... s_{word[-1]} * tau^omega_power."""
    x = identity(datum)
    for j in word:
        x = x * simple_reflection(datum, j)
    if omega_power:
        tau = omega_generator(datum)
        step = tau if omega_power > 0 else tau.inv()
        for _ in range(abs(omega_power)):
            x = x * step
    return x


def act_point(x: WeylElement, point):
    """The affine action lam + u(point) of x = t_lam u on X tensor Q."""
    moved = x.datum.act_coweight(x.u, point)
    return tuple(Fraction(a) + b for a, b in zip(x.lam, moved))


def elements_of_length_leq(datum, kappa0: int, max_len: int):
    """All elements x with kappa(x) = kappa0 and length(x) <= max_len, as
    {length: set of elements}.  Breadth-first by left multiplication with
    the affine simple reflections from the length-0 element of the
    component; every element of positive length has a left descent, so
    the sweep is exhaustive."""
    levels = {0: {element_from_word(datum, [], kappa0)}}
    simples = [simple_reflection(datum, j) for j in datum.simple_indices]
    for ln in range(max_len):
        nxt = {y for x in levels[ln] for s in simples if length(y := s * x) == ln + 1}
        if not nxt:
            break
        levels[ln + 1] = nxt
    return levels


def length_descents(x: WeylElement):
    """(left, right): bitmasks of the j with l(s_j x) < l(x), and of the
    j with l(x s_j) < l(x), by comparing lengths of the products."""
    left = right = 0
    lx = length(x)
    for j in x.datum.simple_indices:
        s = simple_reflection(x.datum, j)
        left |= (length(s * x) < lx) << j
        right |= (length(x * s) < lx) << j
    return left, right


def descent_mask(x: WeylElement) -> int:
    """The bitmask of the left and right descents s_j of x, tested one j
    at a time on the window of x and on that of x^-1, formed from
    semidirect_inverse: s_j is a right descent of a window w iff
    w(j) > w(j+1), with w(0) = w(N) - N (the library reads a window in
    one pass, weyl._descents, and moves the masks of its ideal along the
    Omega-conjugates, admissible._ideal)."""
    mask = 0
    for w in (x.w, WeylElement(x.datum, *semidirect_inverse(x)).w):
        N = len(w)
        for j in x.datum.simple_indices:
            mask |= (w[j - 1] - (N if j == 0 else 0) > w[j]) << j
    return mask


def product_reduced_word(x: WeylElement):
    """(word, omega_power) as weyl.reduced_word gives it: strip the
    smallest left descent s_j of what remains, found by length_descents,
    by forming s_j y."""
    word, y = [], x
    while left := length_descents(y)[0]:
        j = (left & -left).bit_length() - 1
        word.append(j)
        y = simple_reflection(y.datum, j) * y
    return word, kappa(y)


DOWNSET_MAX_LENGTH = 20  # the subword expansion visits 2^length(y) words


def enumerate_below(y: WeylElement) -> set:
    """The Bruhat down-set of y, via the subword property."""
    ly = length(y)
    if ly > DOWNSET_MAX_LENGTH:
        raise BudgetExceeded(f"length {ly} exceeds down-set guard")
    word, om = product_reduced_word(y)
    tail = element_from_word(y.datum, [], om)
    letters = [simple_reflection(y.datum, j) for j in word]
    out = set()
    for mask in range(1 << len(letters)):
        x = identity(y.datum)
        for i, s in enumerate(letters):
            if mask >> i & 1:
                x = x * s
        out.add(x * tail)
    return out


def downset(y: WeylElement, memo: dict) -> frozenset:
    """The Bruhat down-set of y by the lifting property (Bjorner-Brenti):
    D(y) = D(ys) | D(ys) s for a right descent s of y, found by
    length_descents.  memo maps elements to their down-sets and may be
    shared between calls."""
    chain = []
    while y not in memo:
        right = length_descents(y)[1]
        if not right:
            memo[y] = frozenset((y,))
            break
        s = simple_reflection(y.datum, (right & -right).bit_length() - 1)
        chain.append((y, s))
        y = y * s
    for z, s in reversed(chain):
        memo[z] = memo[y].union([x * s for x in memo[y]])
        y = z
    return memo[y]


def _lower_covers(y: WeylElement, below: set):
    """Add to below the lower covers of y: the z = y r, r a reflection,
    with l(z) = l(y) - 1 (Bjorner-Brenti ch. 2).  A reflection r with
    l(y r) < l(y) swaps the values at an inversion (a, b) of the window,
    1 <= a <= N, b = a' + kN > a, y(a) > y(b); for GSp it also swaps the
    mirrored positions N+1-a and N+1-a', each set to C minus its mirror,
    C = w(1) + w(N) (which changes nothing when a + b = 1 mod N, where the
    swap is its own mirror).  A z already in below is not measured again."""
    w, datum = y.w, y.datum
    N, top = len(w), length(y) - 1
    gsp, C = datum.kind == "GSp", w[0] + w[-1]
    for i, vi in enumerate(w):
        for j, vj in enumerate(w):
            k = int(j <= i)
            while vj + k * N < vi:
                z = list(w)
                z[i], z[j] = vj + k * N, vi - k * N
                if gsp:
                    z[N - 1 - i], z[N - 1 - j] = C - z[i], C - z[j]
                x = WeylElement.of_window(datum, tuple(z))
                if x not in below and length(x) == top:
                    below.add(x)
                k += 1


def cover_ideal(tops) -> set:
    """The Bruhat order ideal generated by tops, elements of one length,
    level by level: Bruhat intervals are graded, so level L - 1 of the
    ideal is the set of lower covers of its level L."""
    level, ideal = set(tops), set()
    while level:
        ideal |= level
        below = set()
        for y in level:
            _lower_covers(y, below)
        level = below
    return ideal


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
            raise InvalidIndex("inconsistent linear system")
    if len(pivots) != m:
        raise InvalidIndex("linear system is underdetermined")
    sol = [Fraction(0)] * m
    for r, col in enumerate(pivots):
        sol[col] = aug[r][m]
    return tuple(sol)


# ---------------------------------------------------------------------------
# admissible


def coset_min(x: WeylElement, spec) -> WeylElement:
    """Minimal-length element of the double coset W_I x W_I by greedy descent."""
    gens = parahoric_generators(spec)
    improved = True
    while improved:
        improved = False
        lx = length(x)
        for s in gens:
            for left in (True, False):
                y = s * x if left else x * s
                if length(y) < lx:
                    x, lx = y, length(y)
                    improved = True
    return x


def double_coset(x: WeylElement, spec) -> DoubleCoset:
    """The class of x, keyed by coset_min."""
    return DoubleCoset(spec, coset_min(x, spec))


def poincare_polynomial(spec, q: int) -> int:
    """P_{W_I}(q) = sum q^{l(v)} over every element v of W_I, formed by
    weyl.parahoric_subgroup."""
    return sum(q ** length(v) for v in parahoric_subgroup(spec))


def total_count(s: AdmissibleSet, q: int) -> int:
    """Points of the whole special fibre over F_q: the sum of the strata."""
    return sum(stratum_count(c, q) for c in s.classes)


def pool_perm_set(spec, mu) -> AdmissibleSet:
    """The permissible set by filtering a pool: the I-double-minimal
    elements of kappa(t_mu) and length <= l(t_mu) + 1 whose displacement
    x(a_i) - a_i lies in Conv(W_0 mu) for every i in I."""
    datum = spec.datum
    t_mu = translation(datum, mu.value)
    verts = alcove_vertices(datum)
    gens = parahoric_generators(spec)
    classes = set()
    for batch in elements_of_length_leq(datum, kappa(t_mu), length(t_mu) + 1).values():
        for x in batch:
            lx = length(x)
            if any(length(s * x) < lx or length(x * s) < lx for s in gens):
                continue
            if all(
                conv_membership(tuple(p - q for p, q in zip(act_point(x, verts[i]), verts[i])), mu)
                for i in spec.I
            ):
                classes.add(DoubleCoset(spec, x))
    return AdmissibleSet(spec, mu, frozenset(classes))


# ---------------------------------------------------------------------------
# linalg


def rref(a, p: int):
    """Return (R, pivot_cols) with R the int64 RREF of a over F_p, zero
    rows last: Gauss-Jordan elimination by numpy row operations."""
    R = np.array(a, dtype=np.int64) % p
    m, n = R.shape
    pivots = []
    row = 0
    for col in range(n):
        if row == m:
            break
        found = next((r for r in range(row, m) if R[r, col]), None)
        if found is None:
            continue
        R[[row, found]] = R[[found, row]]
        R[row] = R[row] * pow(int(R[row, col]), p - 2, p) % p
        for r in range(m):
            if r != row and R[r, col]:
                R[r] = (R[r] - R[r, col] * R[row]) % p
        pivots.append(col)
        row += 1
    return R, pivots


def nullspace(a, p: int):
    """Basis rows (an int64 array) of {x : a x = 0} over F_p, one per
    free column of rref(a)."""
    R, pivots = rref(a, p)
    n = R.shape[1]
    free = [c for c in range(n) if c not in pivots]
    out = np.zeros((len(free), n), dtype=np.int64)
    for k, c in enumerate(free):
        out[k, c] = 1
        out[k, pivots] = -R[: len(pivots), c] % p
    return out


def meet(a: Subspace, b: Subspace) -> Subspace:
    """Intersection of two subspaces."""
    a._check(b)
    if a.dim == 0 or b.dim == 0:
        return Subspace.zero(a.field, a.ambient_dim)
    stacked = np.vstack([a.basis, b.basis])
    # (u, v) with u·A + v·B = 0  =>  u·A lies in both row spaces.
    relations = nullspace(stacked.T, a.field.p)
    gens = (relations[:, : a.dim] @ a.basis) % a.field.p
    return Subspace.from_rows(a.field, a.ambient_dim, gens)


def join(a: Subspace, b: Subspace) -> Subspace:
    """Sum of two subspaces."""
    a._check(b)
    return Subspace.from_rows(a.field, a.ambient_dim, np.vstack([a.basis, b.basis]))


def greedy_subspaces_between(a: Subspace, b: Subspace, k: int, budget=None):
    """The subspaces V with a <= V <= b and dim(V) = k, in the order of
    linalg.subspaces_between: each row of b joins the complement if it
    grows the span of a and the rows taken so far."""
    if not a.leq(b) or not a.dim <= k <= b.dim:
        return
    comp, span = [], a
    for row in b.rows:
        grown = join(span, Subspace.from_rows(a.field, a.ambient_dim, [row]))
        if grown.dim > span.dim:
            comp.append(row)
            span = grown
    comp = np.array(comp, dtype=np.int64).reshape(len(comp), a.ambient_dim)
    for w in linalg.enumerate_subspaces(len(comp), k - a.dim, a.field, budget=budget):
        yield Subspace.from_rows(a.field, a.ambient_dim, np.vstack([a.basis, w.basis @ comp]))


def stable_under(a: Subspace, f: FieldMatrix) -> bool:
    """True iff f maps a into itself."""
    if f.rows != f.cols or f.cols != a.ambient_dim:
        raise DimensionMismatch("operator must be square of matching size")
    return linalg.image(f, a).leq(a)


# ---------------------------------------------------------------------------
# matschemes


def symmetric_batch(n, p, flat_indices):
    """Symmetric matrices for a batch of mixed-radix upper-triangle digits."""
    m = n * (n + 1) // 2
    powers = p ** np.arange(m, dtype=np.int64)
    digits = (flat_indices[:, None] // powers) % p
    iu, ju = np.triu_indices(n)
    a = np.zeros((len(flat_indices), n, n), dtype=np.int64)
    a[:, iu, ju] = digits
    a[:, ju, iu] = digits
    return a


def isotropic_subspace_count(n, k, p):
    """k-dim subspaces of F_p^n on which the standard symmetric form
    vanishes, each tested by the dot products of its basis rows."""
    subs = linalg.enumerate_subspaces(n, k, linalg.Field(p))
    return sum(not any(sum(x * y for x, y in zip(u, v)) % p for u in s.rows for v in s.rows) for s in subs)


# ---------------------------------------------------------------------------
# latmod: chain automorphisms and the orbit classification


def _coeff_valuations(model: ChainModel):
    """Minimal pi-divisibility of entry (m, m') forced by lattice stability."""
    syms = [sym for sym, _ in model.slot_basis[model.slots[0]]]
    valuation = {}
    for m, s_out in enumerate(syms):
        for m2, s_in in enumerate(syms):
            v = 0
            for t in model.slots:
                exps = {sym: a for sym, a in model.slot_basis[t]}
                v = max(v, exps[s_out] - exps[s_in])
            valuation[(m, m2)] = v
    return valuation


def _induced_slot_matrices(model: ChainModel, coeffs):
    """Slot matrices of the O_F-linear map with power-series coefficient
    array coeffs[m, m', k] (entry (m, m') = sum_k c_k pi^k), or None if
    the induced map fails to be invertible on some slot."""
    e, D, K = model.e, model.D, coeffs.shape[2]
    mats = {}
    for t in model.slots:
        exps = [a for _, a in model.slot_basis[t]]
        a = np.zeros((model.dim, model.dim), dtype=np.int64)
        for m2 in range(D):
            for j2 in range(e):
                for m in range(D):
                    for k in range(K):
                        if not coeffs[m, m2, k]:
                            continue
                        j_out = k + j2 + exps[m2] - exps[m]
                        if 0 <= j_out < e:
                            a[model.coord(m, j_out), model.coord(m2, j2)] = coeffs[m, m2, k]
        if len(rref(a, model.field.p)[1]) != model.dim:
            return None
        mats[t] = FieldMatrix(model.field, a)
    return mats


def random_chain_automorphism(model: ChainModel, rng):
    """A random element of the finite chain automorphism group.

    Sampled as an O_F-linear map of the ambient F^D that preserves
    every slot lattice: entry (m, m') is a truncated power series whose
    low coefficients vanish as dictated by the exponent gaps of the
    slot bases.  Such a map automatically commutes with Pi, the
    transitions and the wrap; invertibility is checked per slot and the
    draw is retried on failure.  Returns {slot: FieldMatrix}.
    """
    p, e, D = model.field.p, model.e, model.D
    valuation = _coeff_valuations(model)
    # terms up to pi^(e + valuation - 1) act on some slot
    size = (D, D, e + max(valuation.values()))
    while True:
        coeffs = np.asarray(rng.integers(0, p, size=size), dtype=np.int64)
        for (m, m2), v in valuation.items():
            coeffs[m, m2, :v] = 0
        mats = _induced_slot_matrices(model, coeffs)
        if mats is not None:
            return mats


def chain_automorphism_generators(model: ChainModel):
    """Elementary generators of the chain automorphism group (GL chains).

    Transvections 1 + c pi^k E_{m m'} at every admissible valuation k,
    plus diagonal unit rescalings; these generate the stabilizer of the
    chain.  An entry of valuation k acts on some slot as long as
    k < e + valuation(m, m'), which exceeds e - 1 off the diagonal:
    at e = 1 the Iwahori's entries pi * E_{m m'} below the diagonal
    act on the quotients although pi kills them.
    """
    p, e, D = model.field.p, model.e, model.D
    valuation = _coeff_valuations(model)
    ident = np.zeros((D, D, e + max(valuation.values())), dtype=np.int64)
    for m in range(D):
        ident[m, m, 0] = 1
    gens = []
    for m in range(D):
        for m2 in range(D):
            lo = 1 if m == m2 else valuation[(m, m2)]
            for k in range(lo, e + valuation[(m, m2)]):
                for c in range(1, p):
                    coeffs = ident.copy()
                    coeffs[m, m2, k] += c
                    mats = _induced_slot_matrices(model, coeffs)
                    if mats is not None:
                        gens.append(mats)
        for c in range(2, p):
            coeffs = ident.copy()
            coeffs[m, m, 0] = c
            mats = _induced_slot_matrices(model, coeffs)
            if mats is not None:
                gens.append(mats)
    return gens


def apply_chain_automorphism(auto, pt: ChainPoint) -> ChainPoint:
    return ChainPoint(
        pt.model, {t: linalg.image(auto[t], s) for t, s in pt.subspaces.items()}
    )


def classify_by_orbits(points, adm, model: ChainModel) -> StratumReport:
    """The strata as orbits under the elementary chain automorphisms
    (GL chains), matched to the orbit of each standard point."""
    gens = chain_automorphism_generators(model)
    points = list(points)
    orbit_of = {}
    n_orbits = 0
    for pt in points:
        if orbit_of.get(pt) is not None:
            continue
        tag = n_orbits
        n_orbits += 1
        frontier = [pt]
        orbit_of[pt] = tag
        while frontier:
            cur = frontier.pop()
            for g in gens:
                nxt = apply_chain_automorphism(g, cur)
                if orbit_of.get(nxt) is None:
                    orbit_of[nxt] = tag
                    frontier.append(nxt)
    tag_class = {}
    for c in adm.classes:
        try:
            sp = standard_point(c.min_rep, model)
        except IncompatibleElement:
            continue
        tag = orbit_of.get(sp)
        if tag is None:
            continue
        if tag in tag_class:
            raise SignatureCollision(
                "two standard points lie in one chain-automorphism orbit"
            )
        tag_class[tag] = c
    counts = {}
    unmatched = 0
    for pt in points:
        c = tag_class.get(orbit_of[pt])
        if c is None:
            unmatched += 1
        else:
            counts[c] = counts.get(c, 0) + 1
    rows = sorted(counts.items(), key=lambda kv: kv[0].min_rep.lam)
    return StratumReport(rows, unmatched)


# ---------------------------------------------------------------------------
# latmod: unramified transition maps


def mod_p_map(model: ChainModel, src, dst, extra_pi):
    """Transition M_src -> M_dst on Lambda tensor F_p (times pi^extra_pi):
    only exact exponent matches survive."""
    sb, db = model.slot_basis[src], model.slot_basis[dst]
    pos = {sym: (m, a) for m, (sym, a) in enumerate(db)}
    a = np.zeros((model.D, model.D), dtype=np.int64)
    for m_src, (sym, a_src) in enumerate(sb):
        m_dst, a_dst = pos[sym]
        if a_src + extra_pi == a_dst:
            a[m_dst, m_src] = 1
    return FieldMatrix(model.field, a)


def mod_p_maps(model: ChainModel):
    """The transition maps between consecutive slots and the wrap map."""
    slots = model.slots
    maps = [mod_p_map(model, a, b, 0) for a, b in zip(slots, slots[1:])]
    return maps + [mod_p_map(model, slots[-1], slots[0], 1)]


# ---------------------------------------------------------------------------
# latmod: the chain backtracker that tests every option


def trial_chains(maps, slots, labels, choices):
    """The chains of latmod._chains, in the same order, from its former
    loop: every option of each label is tried in turn and each link is
    tested with leq once both its ends are chosen (latmod reads the
    options that contain an image from a containment table)."""
    where = {t: (s, pos) for s, label in enumerate(labels) for pos, t in enumerate(label)}
    links = [[] for _ in labels]  # links[s]: (k, source, target) completed by label s
    for k, (a, b) in enumerate(zip(slots, slots[1:] + slots[:1])):
        links[max(where[a][0], where[b][0])].append((k, where[a], where[b]))
    yield from _trial_extend(maps, labels, choices, links, [0] * len(labels), 0)


def _trial_extend(maps, labels, choices, links, picked, s):
    for j in range(len(choices[s])):
        picked[s] = j
        if all(
            linalg.image(maps[k], choices[sa][picked[sa]][pa]).leq(choices[sb][picked[sb]][pb])
            for k, (sa, pa), (sb, pb) in links[s]
        ):
            if s + 1 < len(labels):
                yield from _trial_extend(maps, labels, choices, links, picked, s + 1)
            else:
                yield {t: c for label, opts, i in zip(labels, choices, picked) for t, c in zip(label, opts[i])}
