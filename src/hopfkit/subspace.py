"""Exact linear algebra over weight windows: spans, quotients, invariants.

Everything here works inside a window: the finite list of basis
monomials up to a weight bound, in canonical order.  Because the order
is weight-first, the window for a smaller bound is a prefix of the
window for a larger one; the signature computation leans on that to
count how much of a product span lands back inside the window.

Every rank, kernel and remainder comes from one sparse echelon engine
that puts each pivot at its row's smallest column.  A dimension of the
form dim(span intersected with a column prefix) is read off by feeding
the columns in reversed order: a row whose pivot falls in the reversed
prefix has all its support there.

All arithmetic is over Fraction; ranks and memberships are exact.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import NotHopfAdmissible, WindowTooSmall
from .freealg import _acc
from .pbw import PBWElement
from . import hopf as _hopf
from .grading import factor_series, gk_dimension, hilbert_series


# ----- windows ---------------------------------------------------------------


class MonomialIndex:
    """Basis monomials up to a weight bound, with positions."""

    def __init__(self, pres, weight_bound):
        self.pres = pres
        self.weight_bound = weight_bound
        self.monomials = pres.enumerate_basis(weight_bound)
        self.position = {m: i for i, m in enumerate(self.monomials)}

    def __len__(self):
        return len(self.monomials)

    def __iter__(self):
        return iter(self.monomials)

    def index(self, mono):
        pos = self.position.get(tuple(mono))
        if pos is None:
            raise WindowTooSmall(
                f"monomial {self.pres.render_mono(mono)} exceeds the weight "
                f"window {self.weight_bound}"
            )
        return pos

    def vector(self, x):
        """Coordinates of an element as a sparse {position: coeff} map."""
        x = self.pres.normal_form(x)
        return {self.index(m): c for m, c in x.terms.items()}

    def element(self, vec):
        return PBWElement(
            self.pres, {self.monomials[pos]: c for pos, c in vec.items() if c}
        )


# ----- sparse elimination ----------------------------------------------------


class _Echelon:
    """Sparse row echelon form, each pivot at its row's smallest column.

    Rows are forward-reduced only: row p has row[p] == 1 and support at
    columns >= p, but may keep entries at later pivot columns until
    back_substitute() clears them.  Remainders are canonical either way,
    because reduction clears the pivot columns in increasing order and a
    vector of the span is fixed by its pivot coordinates.

    A vector may be inserted with a tag, a {preimage: coeff} map that
    follows the same row operations; when the vector reduces to zero its
    tag is a kernel element and is appended to `kernel`.  Insert every
    vector with a tag or none.
    """

    def __init__(self):
        self.rows = {}  # pivot column -> row dict
        self.tags = {}  # pivot column -> tag of that row
        self.kernel = []  # tags of inserted vectors that reduced to zero

    @property
    def rank(self):
        return len(self.rows)

    def _subtract(self, vec, tag, col, coeff):
        """vec -= coeff * rows[col], and the same on the tag when given."""
        neg = -coeff
        for c, v in self.rows[col].items():
            _acc(vec, c, neg * v)
        if tag is not None:
            for c, v in self.tags[col].items():
                _acc(tag, c, neg * v)

    def reduce(self, vec, tag=None):
        """Remainder of a vector modulo the span; a given tag is updated in place."""
        vec = {c: v for c, v in vec.items() if v}
        rows = self.rows
        while True:
            pivots = [c for c in vec if c in rows]
            if not pivots:
                return vec
            col = min(pivots)
            self._subtract(vec, tag, col, vec[col])

    def insert(self, vec, tag=None):
        """Add a vector; returns its pivot column, or None if dependent."""
        if tag is not None:
            tag = dict(tag)
        rem = self.reduce(vec, tag)
        if not rem:
            if tag:
                self.kernel.append(tag)
            return None
        pivot = min(rem)
        inv = 1 / rem[pivot]
        self.rows[pivot] = {c: v * inv for c, v in rem.items()}
        if tag is not None:
            self.tags[pivot] = {c: v * inv for c, v in tag.items()}
        return pivot

    def back_substitute(self):
        """Clear every row at the other pivot columns, in place.

        Rows are done from the largest pivot down, so each row used for
        clearing is already reduced and brings in no pivot column.
        """
        rows = self.rows
        for pivot in sorted(rows, reverse=True):
            row, tag = rows[pivot], self.tags.get(pivot)
            for col in [c for c in row if c != pivot and c in rows]:
                self._subtract(row, tag, col, row[col])


# ----- public spans ----------------------------------------------------------


class Subspace:
    """Canonically row-reduced span of elements inside a window."""

    def __init__(self, index, elements=()):
        self.index = index
        self._elim = _Echelon()
        for x in elements:
            self.add(x)

    @property
    def pres(self):
        return self.index.pres

    @property
    def dim(self):
        return self._elim.rank

    def add(self, x):
        """Add an element; True if it enlarged the span."""
        return self.add_vector(self.index.vector(x))

    def add_vector(self, vec):
        return self._elim.insert(vec) is not None

    def member(self, x):
        return not self._elim.reduce(self.index.vector(x))

    def reduce(self, x):
        """Canonical remainder of x modulo the span."""
        return self.index.element(self._elim.reduce(self.index.vector(x)))

    def reduce_vector(self, vec):
        return self._elim.reduce(vec)

    def pivots(self):
        return sorted(self._elim.rows)

    def basis(self):
        """Row-reduced basis, one element per pivot, in window order."""
        self._elim.back_substitute()
        rows = self._elim.rows
        return [self.index.element(rows[p]) for p in sorted(rows)]

    def contains_space(self, other):
        return all(self.member(b) for b in other.basis())

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.index.pres == other.index.pres
            and self.dim == other.dim
            and self.contains_space(other)
        )

    __hash__ = None

    def __repr__(self):
        return f"<Subspace dim {self.dim} of window {self.index.weight_bound}>"


def span(p, elements, weight_bound):
    return Subspace(MonomialIndex(p, weight_bound), elements)


def member(space, x):
    return space.member(x)


# ----- powers of the augmentation ideal --------------------------------------


def power_ideal_span(p, k, weight_bound):
    """Span of normal forms of all words of length >= k up to the bound.

    Built by the recursion A_j = sum_g g * A_{j-1}, with A_0 the whole
    window.  Normal forms never raise weight, so the recursion is
    complete inside the window.
    """
    p.require_confluent()
    if k < 0:
        raise ValueError("power must be nonnegative")
    index = MonomialIndex(p, weight_bound)
    cache = {}

    def level(j, bound):
        if bound < 0:
            return Subspace(index)
        key = (j, bound)
        hit = cache.get(key)
        if hit is not None:
            return hit
        space = Subspace(index)
        if j == 0:
            for m in p.enumerate_basis(bound):
                space.add(PBWElement(p, {m: Fraction(1)}))
        else:
            weights = p.alphabet.weights
            for gi in range(len(p.alphabet)):
                g = p.gen(gi)
                for b in level(j - 1, bound - weights[gi]).basis():
                    space.add(p.multiply(g, b))
        cache[key] = space
        return space

    return level(k, weight_bound)


# ----- truncated algebras ----------------------------------------------------


@dataclass
class CenterReport:
    dim: int
    basis: tuple  # PBWElement representatives of central classes


class Truncation:
    """The quotient by the k-th power of the augmentation ideal.

    Finite dimensional: classes of monomials with fewer than k letters
    span it, and the window must be wide enough to hold them all, which
    is exactly (k - 1) * max generator weight <= weight bound.
    """

    def __init__(self, pres, power, weight_bound):
        needed = (power - 1) * pres.max_weight
        if needed > weight_bound:
            raise WindowTooSmall(
                f"truncation at power {power} needs window {needed}, "
                f"got {weight_bound}"
            )
        self.pres = pres
        self.power = power
        self.weight_bound = weight_bound
        self.index = MonomialIndex(pres, weight_bound)
        self.ideal = power_ideal_span(pres, power, weight_bound)
        pivots = set(self.ideal.pivots())
        light = [
            m
            for pos, m in enumerate(self.index.monomials)
            if pos not in pivots and pres.mono_degree(m) < power
        ]
        # every monomial with >= power letters lies in the ideal, so the
        # surviving classes are exactly the light non-pivot monomials
        self.basis = tuple(m for m in light if any(m))
        self.dim = len(self.basis)
        self._slot = {m: i for i, m in enumerate(self.basis)}

    def project(self, x):
        """Class of x as {basis monomial: coeff}, constant term dropped."""
        rem = self.ideal.reduce_vector(self.index.vector(x))
        out = {}
        for pos, c in rem.items():
            m = self.index.monomials[pos]
            if any(m):
                out[m] = c
        return out

    def class_element(self, coords):
        return PBWElement(self.pres, dict(coords))

    def multiply_classes(self, coords1, coords2):
        """Product of two augmentation-ideal classes."""
        out = {}
        p = self.pres
        for m1, c1 in coords1.items():
            d1 = p.mono_degree(m1)
            for m2, c2 in coords2.items():
                if d1 + p.mono_degree(m2) >= self.power:
                    continue  # lands in the ideal
                for m, c in self.project(p.mono_product(m1, m2)).items():
                    _acc(out, m, c1 * c2 * c)
        return out

    def gen_image(self, g):
        return self.project(self.pres.gen(g))

    def center(self):
        """Central classes of the augmentation part of the quotient.

        Solved against the generator classes, then verified against the
        whole basis; generators generate, so the two must agree.
        """
        p = self.pres
        gens = [self.gen_image(gi) for gi in range(len(p.alphabet))]
        elim = _Echelon()
        for m in self.basis:
            coords = {m: Fraction(1)}
            commutators = {}
            for gi, g in enumerate(gens):
                for mm, c in self.multiply_classes(coords, g).items():
                    _acc(commutators, (gi, self._slot[mm]), c)
                for mm, c in self.multiply_classes(g, coords).items():
                    _acc(commutators, (gi, self._slot[mm]), -c)
            elim.insert(commutators, {m: Fraction(1)})
        # each kernel tag has coefficient 1 on its own class and otherwise
        # only classes inserted before it, so the tags are independent
        reps = elim.kernel
        for coords in reps:  # double-check against every basis class
            for m in self.basis:
                other = {m: Fraction(1)}
                if self.multiply_classes(coords, other) != self.multiply_classes(
                    other, coords
                ):
                    raise AssertionError(
                        "center candidate fails against a non-generator class"
                    )
        reps.sort(key=lambda coords: min(self._slot[m] for m in coords))
        return CenterReport(len(reps), tuple(self.class_element(c) for c in reps))

    def __repr__(self):
        return (
            f"<Truncation power {self.power} window {self.weight_bound} "
            f"dim {self.dim}>"
        )


def truncation_algebra(p, power, weight_bound):
    p.require_confluent()
    return Truncation(p, power, weight_bound)


# ----- primitives and the coradical chain ------------------------------------


def primitive_space(p, weight_bound):
    """Primitives of weight <= bound, as a canonical subspace."""
    return _coradical_chain(p, weight_bound, levels=1)[0]


class _CoradicalState:
    def __init__(self, p, weight_bound):
        self.index = MonomialIndex(p, weight_bound)
        self.aug = [m for m in self.index if any(m)]
        mach = _hopf._machine(p)
        self.deltas = {m: mach.reduced_mono(m) for m in self.aug}
        self.chain = []
        self.stable = False

    def next_level(self):
        index = self.index
        previous = self.chain[-1] if self.chain else Subspace(index)
        kappa = {}

        def reduce_leg(mono):
            hit = kappa.get(mono)
            if hit is None:
                hit = previous.reduce_vector({index.index(mono): Fraction(1)})
                kappa[mono] = hit
            return hit

        elim = _Echelon()
        for m in self.aug:
            image = {}
            for (u, v), c in self.deltas[m].items():
                for col, cv in reduce_leg(u).items():
                    _acc(image, (0, col, index.index(v)), c * cv)
                for col, cv in reduce_leg(v).items():
                    _acc(image, (1, index.index(u), col), c * cv)
            elim.insert(image, {index.index(m): Fraction(1)})
        level = Subspace(index)
        for tag in elim.kernel:
            level.add_vector(tag)
        if self.chain and level.dim == self.chain[-1].dim:
            self.stable = True
            return
        self.chain.append(level)
        if level.dim == len(self.aug):
            self.stable = True


def _coradical_chain(p, weight_bound, levels=None):
    """Augmentation-part levels S_1 <= S_2 <= ... inside the window.

    S_n collects the x whose reduced coproduct lies in
    S_{n-1} (x) S_{n-1}; the test maps both tensor legs through the
    quotient by S_{n-1} and intersects the kernels, with S_0 the
    scalars, whose augmentation part is zero.  Levels are computed on
    demand, cached per window on the presentation, and stop for good
    once one repeats.
    """
    cache = getattr(p, "_coradical_cache", None)
    if cache is None:
        cache = {}
        p._coradical_cache = cache
    state = cache.get(weight_bound)
    if state is None:
        state = _CoradicalState(p, weight_bound)
        cache[weight_bound] = state
    while not state.stable and (levels is None or len(state.chain) < levels):
        state.next_level()
    if levels is None:
        return state.chain
    return state.chain[:levels] if state.chain else [Subspace(state.index)]


@dataclass
class CoradicalReport:
    weight_bound: int
    dims: tuple  # cumulative dimensions, scalars included, level 0 first

    @property
    def levels(self):
        return len(self.dims) - 1


def coradical_levels(p, weight_bound):
    chain = _coradical_chain(p, weight_bound)
    return CoradicalReport(weight_bound, (1,) + tuple(s.dim + 1 for s in chain))


# ----- the signature ---------------------------------------------------------


@dataclass
class SignatureReport:
    weight_bound: int
    entries: tuple  # one level number per unexplained dimension
    by_level: tuple  # (level, count) pairs, counts > 0 only
    gk: object  # int or None
    complete: bool

    def __str__(self):
        body = ", ".join(str(e) for e in self.entries)
        return f"({body})"


def signature(p, weight_bound):
    """Level multiset of coradical growth not explained by products.

    For each level n, count the dimensions of S_n beyond
    S_{n-1} + (products of pairs of levels summing to n), the product
    span intersected with the window.  Products of window elements live
    in the doubled window, of which the window is a prefix.  Columns are
    fed in reversed order, c -> full - 1 - c, so the window becomes the
    last window_size columns; a row whose smallest-column pivot falls
    there has all its support inside the window, and the intersection
    dimension is the number of such pivots.  The multiset is complete
    when its size reaches the geometric growth dimension of the series.
    """
    chain = _coradical_chain(p, weight_bound)
    index = MonomialIndex(p, weight_bound)
    wide = MonomialIndex(p, 2 * weight_bound)
    for pos, m in enumerate(index.monomials):
        assert wide.monomials[pos] == m, "window is not a prefix of its double"
    window_size = len(index)
    bases = [[]] + [s.basis() for s in chain]  # bases[n] = basis of S_n
    elim = _Echelon()
    full = len(wide)
    window_start = full - window_size

    def insert(x):
        elim.insert({full - 1 - c: v for c, v in wide.vector(x).items()})

    def window_rank():
        return sum(1 for pivot in elim.rows if pivot >= window_start)

    entries = []
    by_level = []
    top = len(chain)
    for n in range(1, top + 1):
        for q in range(1, n):
            for b1 in bases[n - q]:
                if elim.rank == full:
                    break
                for b2 in bases[q]:
                    insert(p.multiply(b1, b2))
        explained = window_rank()
        count = chain[n - 1].dim - explained
        if count > 0:
            entries.extend([n] * count)
            by_level.append((n, count))
        for b in bases[n]:
            insert(b)
    gk = None
    try:
        exponents = factor_series(hilbert_series(p, max(10, 2 * weight_bound)))
        gk = gk_dimension(exponents)
    except NotHopfAdmissible:
        gk = None
    return SignatureReport(
        weight_bound, tuple(entries), tuple(by_level), gk, gk is not None and len(entries) == gk
    )
