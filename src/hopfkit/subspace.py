"""Exact linear algebra over weight windows: spans, quotients, invariants.

Everything here works inside a window: the finite list of basis
monomials up to a weight bound, in canonical order.  Because the order
is weight-first, the window for a smaller bound is a prefix of the
window for a larger one.  Powers I^k of the augmentation ideal are built
on the monomials of fewer than k letters alone, so they are exact and
do not depend on the window.

Every rank, kernel and remainder comes from one sparse echelon engine
that puts each pivot at its row's smallest column.  A dimension of the
form dim(span intersected with the span of some columns) is read off by
numbering those columns after every other: a row whose pivot falls
among them has all its support there.  Kernels are read the same way: a
vector's tag rides along as a trailing block of columns, and a
remainder whose pivot falls in that block is a kernel element.

Ranks, memberships, remainders and kernels are exact.  Values come in
and go out as Fraction, but the engine keeps its rows as primitive
integer vectors and reduces fraction-free, with one integer scale per
reduction; Fraction is built only where a result is handed back.
"""

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import groupby
from math import gcd, lcm
from operator import sub

from .errors import WindowTooSmall
from .freealg import _acc, _one_budget, over_budget, term_budget
from .pbw import PBWElement
from . import hopf as _hopf
from .grading import factor_series, gk_dimension, hilbert_series, series_settles


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

    def ids(self):
        """Monomial ids in window order; numbers every window monomial."""
        number = self.pres._number
        return [number(m) for m in self.monomials]

    def positions_by_id(self):
        """Window positions by monomial id, a list with None outside the window.

        Numbers every window monomial first, so an id the list does not
        reach is outside the window too.
        """
        ids = self.ids()
        position = [None] * len(self.pres._monos)
        for pos, i in enumerate(ids):
            position[i] = pos
        return position

    def vector(self, x):
        """Coordinates of an element as a sparse {position: coeff} map."""
        x = self.pres.normal_form(x)
        return {self.index(m): c for m, c in x.terms.items()}

    def element(self, vec):
        return PBWElement(self.pres, {self.monomials[pos]: c for pos, c in vec.items() if c})


# ----- sparse elimination ----------------------------------------------------


_TAGS = 1 << 62  # tag key k is column _TAGS + k, after every vector column


def _clear(vec):
    """Integer copy of vec over the lcm of its denominators, as (vec, den).

    The copy is den times the given map, zero entries dropped.
    """
    den = 1
    for v in vec.values():
        d = v.denominator
        if den % d:
            den = lcm(den, d)
    return {c: v.numerator * (den // v.denominator) for c, v in vec.items() if v}, den


def _combine(vec, r, a, row):
    """vec = r * vec - a * row over the integers, in place.

    r == 1 skips the scaling pass; entries that cancel are dropped.
    """
    if r != 1:
        for c in vec:
            vec[c] *= r
    get = vec.get
    for c, v in row.items():
        old = get(c)
        if old is None:
            vec[c] = -a * v
        elif new := old - a * v:
            vec[c] = new
        else:
            del vec[c]


def _clear_blocks(vec, rows, size, hits):
    """Clear the columns of an integer vec at rows' pivots, block by block, in place.

    Column c < _TAGS is position c % size of block c // size, and hits
    lists vec's columns at pivots.  Each step is _Echelon._reduce's with
    the row read at the block's offset; it adds only columns past the one
    it clears, and those at pivots join the hits.
    """
    heapify(hits)
    get = vec.get
    while hits:
        col = heappop(hits)
        a = get(col)
        if a is None:  # cancelled, or a second entry of a column cleared
            continue
        pos = col % size
        row, offset = rows[pos], col - pos
        r = row[pos]
        g = gcd(a, r)
        if g != 1:
            a //= g
            r //= g
        if r != 1:
            for c in vec:
                vec[c] *= r
        for c, v in row.items():
            key = offset + c
            old = get(key)
            if old is None:
                vec[key] = -a * v
                if c in rows:
                    heappush(hits, key)
            elif new := old - a * v:
                vec[key] = new
            else:
                del vec[key]


class _Echelon:
    """Sparse row echelon form over the integers, pivots at smallest columns.

    Each row is a primitive integer vector (the gcd of its entries is 1)
    whose pivot entry, at its smallest column, is positive.  Rows are
    forward-reduced only: row p has support at columns >= p but may keep
    entries at later pivot columns until back_substitute() clears them.
    Remainders are canonical either way, because reduction clears the
    pivot columns in increasing order and a vector of the span is fixed
    by its pivot coordinates.  A stored row is never edited, so echelons
    may share rows; E, the coradical chain's echelon of images, is the one
    whose rows _CoradicalState._update and _clear_blocks edit, and it
    shares no row.

    Reduction is fraction-free: at pivot p, with a = vec[p], r = row[p]
    and g = gcd(a, r), vec becomes (r/g) vec - (a/g) row, and a running
    integer scale is multiplied by r/g.  Fraction appears only at the
    boundary: insert() and reduce() clear their input by the lcm of its
    denominators, reduce() returns exact Fraction remainders, and
    row(p) reads a row as row / row[p].

    A vector may be inserted with a tag, a {key: coeff} map, which is
    appended to it as the block of columns _TAGS + key and so follows
    every row operation.  A tagged vector that reduces to zero leaves a
    remainder whose pivot falls in that block: its tag part, at the
    reduction's scale, is a kernel element, appended to `kernel` as
    exact Fractions, and the row is not stored.  Stored rows keep their
    tag blocks, which remainders drop.  Insert every vector with a tag or
    none.
    """

    def __init__(self):
        self.rows = {}  # pivot column -> primitive integer row
        self.kernel = []  # tags of inserted vectors that reduced to zero

    @property
    def rank(self):
        return len(self.rows)

    def _reduce(self, vec):
        """Clear the pivot columns of an integer vec in place.

        Returns the scale: vec is scale times its remainder.
        """
        rows = self.rows
        scale = 1
        while True:
            hits = rows.keys() & vec.keys()
            if not hits:
                return scale
            col = min(hits)
            row = rows[col]
            a, r = vec[col], row[col]
            g = gcd(a, r)
            if g != 1:
                a //= g
                r //= g
            _combine(vec, r, a, row)
            scale *= r

    def remainder(self, vec):
        """Remainder of a vector modulo the span, as (integer map, den).

        The remainder is the map divided by den, with den > 0 and no
        common factor of den and the map's entries.
        """
        vec, den = _clear(vec)
        den *= self._reduce(vec)
        vec = {c: v for c, v in vec.items() if c < _TAGS}
        g = gcd(den, *vec.values())
        if g != 1:
            den //= g
            for c in vec:
                vec[c] //= g
        return vec, den

    def reduce(self, vec):
        """Remainder of a vector modulo the span, as exact Fractions."""
        vec, den = self.remainder(vec)
        return {c: Fraction(v, den) for c, v in vec.items()}

    def insert(self, vec, tag=None):
        """Add a rational vector; returns its pivot column, or None if dependent."""
        if tag is not None:
            vec = vec | {_TAGS + k: v for k, v in tag.items()}
        return self.insert_cleared(*_clear(vec))

    def insert_cleared(self, vec, scale):
        """Add an integer vector that is scale times the one meant.

        vec, tag block included, is an integer map with no zero entries;
        the engine takes it over.  Returns the pivot column, or None if
        dependent.
        """
        scale *= self._reduce(vec)
        if not vec:
            return None
        pivot = min(vec)
        if pivot >= _TAGS:
            self.kernel.append({c - _TAGS: Fraction(v, scale) for c, v in vec.items()})
            return None
        self.rows[pivot] = vec
        self._normalize(pivot)
        return pivot

    def _normalize(self, pivot):
        """Make a row primitive with a positive pivot."""
        row = self.rows[pivot]
        g = gcd(*row.values())
        if row[pivot] < 0:
            g = -g
        if g != 1:
            for c in row:
                row[c] //= g

    def row(self, pivot):
        """The row with the given pivot, as exact Fractions with 1 at the pivot."""
        row = self.rows[pivot]
        lead = row[pivot]
        return {c: Fraction(v, lead) for c, v in row.items()}

    def back_substitute(self):
        """Clear every row at the other pivot columns, replacing each row that changes.

        Rows are done from the largest pivot down, so each row used for
        clearing is already reduced and brings in no pivot column; a
        row is never cleared by its own pivot.
        """
        rows = self.rows
        for pivot in sorted(rows, reverse=True):
            cols = [c for c in rows[pivot] if c != pivot and c in rows]
            if cols:
                row = rows[pivot] = dict(rows[pivot])
                for col in cols:
                    a, r = row[col], rows[col][col]
                    g = gcd(a, r)
                    _combine(row, r // g, a // g, rows[col])
                self._normalize(pivot)


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
        return not self._elim.remainder(self.index.vector(x))[0]

    def reduce(self, x):
        """Canonical remainder of x modulo the span."""
        return self.index.element(self._elim.reduce(self.index.vector(x)))

    def reduce_vector(self, vec):
        return self._elim.reduce(vec)

    def pivots(self):
        return sorted(self._elim.rows)

    def basis(self):
        """Row-reduced basis, one element per pivot, in window order."""
        elim = self._elim
        elim.back_substitute()
        return [self.index.element(elim.row(p)) for p in sorted(elim.rows)]

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


def _power_ideal(p, k, reverse=False):
    """J_k on V, the normal monomials of fewer than k letters, as (columns, column, echelon).

    columns lists V in window order, reversed if reverse; column maps V's
    ids to columns (D_k has none).  A constant tail puts 1 in I and empties V.
    """
    p.require_confluent()
    if k < 0:
        raise ValueError("power must be nonnegative")
    if any(() in rel.tail for rel in p.relations.values()):
        k = 0  # a constant tail puts 1 in I
    columns = [()]  # V, listed directly: every exponent vector is a normal monomial
    for _ in p.alphabet.weights:
        columns = [m + (e,) for m in columns for e in range(k - sum(m))]
    columns.sort(key=p.mono_key, reverse=reverse)
    ids = [p._number(m) for m in columns]  # column -> id
    column = {i: col for col, i in enumerate(ids)}
    elim = _Echelon()
    elim.rows = {col: {col: 1} for col in column.values()}  # J_0 = V
    gens = [p._table[p._unit(gi)] for gi in range(len(p.alphabet))]
    for _ in range(k):
        rows, elim = elim.rows, _Echelon()
        for g in gens:
            for row in rows.values():
                image = {}
                for col, c in row.items():
                    for w, v in g[ids[col]]:
                        if w in column:  # pi drops D_k
                            _acc(image, column[w], c * v)
                elim.insert(image)
    return columns, column, elim


def power_ideal_span(p, k, weight_bound):
    """I^k in the window: the span of normal forms of words of >= k letters.

    V and D_k are spanned by the normal monomials with fewer than k
    letters and with k or more; pi projects onto V along D_k.  From
    J_0 = V, J_j = pi(span{g b : g a generator, b in a basis of J_{j-1}})
    and I^j = J_j + D_k, a direct sum, for j <= k.  In the window, J_k
    keeps the rows whose pivot, their heaviest monomial, falls there and D_k
    its unit vectors; from window (k - 1) * max weight on, V lies inside and
    nothing is cut, so the answer does not depend on the window.

    D_k lies in I^k (a normal monomial is the product of its letters) and
    pi moves by elements of D_k, so by induction J_j + D_k lies in I^j.
    Conversely NF(w) lies in J_j + D_k for every word w of j or more
    letters, by induction on j and, inside j, on w in the rewrite order,
    which respects concatenation.  Split w = g w' with NF(w') = a + d, a in
    J_{j-1}, d in D_k; g a is in J_j + D_k by definition.  If w' is not
    normal, each monomial m of d comes from w' by rewriting, so g m is a
    smaller word with more than k letters.  The circular case is w' = m,
    normal with k or more letters: w = g m is in D_k if normal, else its
    first pair rewrites it to q h g m'' + t m'', m = h m''.  The swap word
    is smaller with as many letters, and each nonempty word u of the tail
    t gives a smaller u m'' with at least k letters.  t has no constant
    term here: a constant c in the tail of g h puts c = g h - q h g - (the
    rest of the tail) in I, so I, and with it every I^k, is the whole
    algebra, and that case is computed as I^0.
    """
    columns, _, elim = _power_ideal(p, k, reverse=True)
    index = MonomialIndex(p, weight_bound)
    space = Subspace(index)
    for pivot, row in elim.rows.items():
        if columns[pivot] in index.position:  # the row lies in the window
            space.add_vector({index.position[columns[col]]: v for col, v in row.items()})
    light = set(columns)
    for pos, m in enumerate(index.monomials):
        if m not in light:  # D_k
            space.add_vector({pos: 1})
    return space


# ----- truncated algebras ----------------------------------------------------


@dataclass
class CenterReport:
    dim: int
    basis: tuple  # PBWElement representatives of central classes


class Truncation:
    """The quotient by the k-th power of the augmentation ideal.

    Finite dimensional: the classes of V, the monomials with fewer than k
    letters, span it, and V lies in the window exactly when (k - 1) * max
    generator weight <= weight bound.  It is V / J_k (see power_ideal_span):
    classes are V's nonempty monomials off J_k's lightest-monomial pivots.
    """

    def __init__(self, pres, power, weight_bound):
        needed = (power - 1) * pres.max_weight
        if needed > weight_bound:
            raise WindowTooSmall(
                f"truncation at power {power} needs window {needed}, got {weight_bound}"
            )
        self.pres, self.power, self.weight_bound = pres, power, weight_bound
        self._monomials, self._column, self._ideal = _power_ideal(pres, power)
        rows = self._ideal.rows  # J_k on V
        self.basis = tuple(m for c, m in enumerate(self._monomials) if any(m) and c not in rows)
        self.dim = len(self.basis)
        self._slot = {m: i for i, m in enumerate(self.basis)}

    def _reduce(self, terms):
        """Class of (id, coeff) pairs; D_k has no column, and the constant term is dropped."""
        column, monos = self._column, self._monomials
        rem = self._ideal.reduce({column[i]: c for i, c in terms if i in column})
        return {monos[col]: c for col, c in rem.items() if any(monos[col])}

    def project(self, x):
        """Class of x as {basis monomial: coeff}, with D_k and the constant term dropped."""
        ids = self.pres._ids  # V's monomials are all numbered
        return self._reduce((ids.get(m), c) for m, c in self.pres.normal_form(x).terms.items())

    def class_element(self, coords):
        return PBWElement(self.pres, dict(coords))

    def multiply_classes(self, coords1, coords2):
        """Product of two augmentation-ideal classes."""
        out = {}
        p = self.pres
        for m1, c1 in coords1.items():
            d1, row = p.mono_degree(m1), p._table[p._number(m1)]
            for m2, c2 in coords2.items():
                if d1 + p.mono_degree(m2) >= self.power:
                    continue  # lands in the ideal
                for m, c in self._reduce(row[p._number(m2)]).items():
                    _acc(out, m, c1 * c2 * c)
        return out

    def gen_image(self, g):
        return self.project(self.pres.gen(g))

    def center(self):
        """Central classes of the augmentation part of the quotient.

        Solved against the generator classes, then verified against the
        whole basis; generators generate, so the two must agree.  The
        check skips the classes whose products with a candidate all land
        in the ideal, on both sides.
        """
        gens = [self.gen_image(gi) for gi in range(len(self.pres.alphabet))]
        dim, slot = self.dim, self._slot
        elim = _Echelon()
        for i, m in enumerate(self.basis):
            coords = {m: Fraction(1)}
            commutators = {}
            for gi, g in enumerate(gens):
                for mm, c in self.multiply_classes(coords, g).items():
                    _acc(commutators, gi * dim + slot[mm], c)
                for mm, c in self.multiply_classes(g, coords).items():
                    _acc(commutators, gi * dim + slot[mm], -c)
            elim.insert(commutators, {i: Fraction(1)})
        # each kernel tag has coefficient 1 on its own slot and otherwise
        # only slots inserted before it, so the tags are independent
        tags = sorted(elim.kernel, key=min)
        reps = [{self.basis[i]: c for i, c in tag.items()} for tag in tags]
        degree = self.pres.mono_degree
        for coords in reps:  # double-check against every basis class
            heavy = self.power - min(map(degree, coords))
            for m in self.basis:
                if degree(m) >= heavy:  # both products are {}
                    continue
                other = {m: Fraction(1)}
                if self.multiply_classes(coords, other) != self.multiply_classes(other, coords):
                    raise AssertionError("center candidate fails against a non-generator class")
        return CenterReport(len(reps), tuple(self.class_element(c) for c in reps))

    def __repr__(self):
        return f"<Truncation power {self.power} window {self.weight_bound} dim {self.dim}>"


def truncation_algebra(p, power, weight_bound):
    p.require_confluent()
    return Truncation(p, power, weight_bound)


# ----- primitives and the coradical chain ------------------------------------


@_one_budget()
def primitive_space(p, weight_bound):
    """Primitives of weight <= bound, as a canonical subspace.

    p must be a Hopf algebra: Delta an algebra map and coassociative, as
    check proves.  The chain reads only some coproduct terms, and on any
    other coproduct what it returns decides nothing.  Nothing here checks
    that: only the command line refuses such a coproduct, so on
    tests/presentations/not_an_algebra_map.hopf, whose Delta is no algebra
    map, this still returns a space.  It builds level 1 alone and reads
    the term budget once.
    """
    state = _CoradicalState(p, weight_bound)
    state.next_level()
    return state.chain[0] if state.chain else Subspace(state.index)


def _factor(terms):
    """The factor that clears the denominators of a flat tuple's coefficients terms[2::3]."""
    return lcm(*(c.denominator for c in terms[2::3] if type(c) is not int))


class _CoradicalState:
    """The coradical chain of one window, one level at a time.

    Every level reads only the terms of the reduced coproducts whose left
    leg is a pivot monomial of primitives already found (see next_level), so
    the state builds its coproducts cut to the left legs in a set V of
    window monomials, through a hopf._Machine of its own with kept = V,
    and never the full ones of the machine check reads.  V is the
    smallest set that holds 1 and the pivots U read so far, and that holds
    x whenever NF(u x) has a monomial in V, for some left leg u other than
    1 of some Delta(g) (g itself, or a left leg of delta(g)) with
    wt(u) + wt(x) <= the bound.

    Closure: write Delta(m) = Delta(g) Delta(m / g), g the first letter of
    m.  A term x (x) y of Delta(m / g) times a term u (x) v of Delta(g) has
    the left legs NF(u x); u = 1 leaves x, and for u != 1,
    wt(u) + wt(x) <= wt(g) + wt(m / g) = wt(m) <= the bound, as no leg of
    Delta(y) outweighs y, so a term whose left leg x is outside V puts no
    monomial into V.  Hence Delta(m)|_V = (Delta(g) Delta(m / g)|_V)|_V, term for
    term, and the cut tuples are the whole ones with the other terms
    dropped, in the same order, for every presentation: a V that is the
    whole window keeps every term.

    Finding V (_grow) scans no window.  Every rewrite step of u x
    swaps a pair or replaces a head pair {hi, lo} by one of its tail
    words, and a replacement never raises the weight, so each monomial t
    of NF(u x) comes from the letters of u + x by replacements through
    multisets of weight <= wt(u) + wt(x).  Undone, they lead from t to
    u + x: the candidates x for t are s - u, for the s that reverse
    replacements reach from t at weight <= the bound.  A candidate joins V
    only if NF(u x), read from the product table, has t among its
    monomials, so V is exact.

    U grows weight by weight during level 1 (_primitives), and V with it;
    when V grows, the machine is replaced by one cut to the larger V, and
    each tuple read again at a restart of level 1 is built again by it.
    A tuple cut to a larger V than a level needs is harmless, since
    _images reads only the left legs that have an offset in left.  left
    gains U's new pivots at the end of each weight, the top weight
    included, so it ends level 1 holding every pivot of S_1, and V holds
    them too.

    A cut tuple is the flat tuple (u0, v0, c0, u1, ...) of the
    presentation's monomial ids and coefficients, three entries per term,
    read with the position of its monomial and the factor that clears its
    denominators (1 when its coefficients are ints), read from the
    coefficients terms[2::3].  Ids follow first sight, not the window, so
    lists indexed by id restore window order: position
    (MonomialIndex.positions_by_id), the window position of a leg, and
    left, the position of a pivot of U times the window size.
    built_terms counts the terms of every cut tuple built, again for each
    one built again.
    """

    def __init__(self, p, weight_bound):
        self.index = MonomialIndex(p, weight_bound)
        self.aug = [m for m in self.index if any(m)]
        self.ids = self.index.ids()  # window position -> id
        self.position = self.index.positions_by_id()  # id -> window position
        self.left = [None] * len(self.position)  # id -> column offset of a pivot of U
        weights, monos = p.alphabet.weights, p._monos
        self.v = frozenset()  # V, as ids
        self.machine = _hopf._Machine(p, self.v)  # the coproducts cut to V
        # the left legs u != 1 of every Delta(g), as (monomial, id); one
        # heavier than the bound meets no window monomial
        legs = {u for gi in range(len(weights)) for u in self.machine._gen(gi)[0::3] if u}
        self._legs = sorted((monos[u], u) for u in legs if p.mono_weight(monos[u]) <= weight_bound)
        # per tail word of a relation: hi, lo, the word's (letter, exponent)
        # pairs, and the weight a reverse replacement adds
        self._tails = []
        for (hi, lo), rel in sorted(p.relations.items()):
            for word in rel.tail:
                letters = tuple((k, word.count(k)) for k in sorted(set(word)))
                self._tails.append((hi, lo, letters, weights[hi] + weights[lo] - p.word_weight(word)))
        self._dropped = 0  # terms of the cut tuples dropped when V grew
        self._grow([0])
        self.echelon = None  # E, level 1's echelon: the images of S_1's non-pivots
        self.updates = []  # per level past 1: (rows reduced, rows inserted again)
        self.restarts = []  # per restart of level 1's elimination, the first weight the fresh one serves
        self.chain = []
        self.stable = False

    @property
    def built_terms(self):
        """Terms of every cut tuple built so far, those dropped when V grew included."""
        return self._dropped + sum(map(len, self.machine._deltas.values())) // 3 - 1

    def _grow(self, ids):
        """Put the monomials with the given ids into V and close it (see the class docstring).

        When V grows, the machine is replaced by one cut to the new V, and
        the cut tuples built so far are dropped with the old one.
        """
        p = self.index.pres
        monos, number, table = p._monos, p._number, p._table
        v = set(self.v)
        work = [i for i in ids if i not in v]
        v.update(work)
        while work:
            t = work.pop()
            for s in self._sources(monos[t]):
                for u, ui in self._legs:
                    x = tuple(map(sub, s, u))
                    if min(x) < 0:
                        continue
                    xi = number(x)
                    if xi not in v and any(w == t for w, _ in table[ui][xi]):
                        v.add(xi)
                        work.append(xi)
        if len(v) == len(self.v):
            return
        self._dropped = self.built_terms
        self.v = frozenset(v)
        self.machine = _hopf._Machine(p, self.v)

    def _sources(self, t):
        """The exponent vectors that reverse replacements reach from t at weight <= the bound, t included."""
        bound, weight = self.index.weight_bound, self.index.pres.mono_weight(t)
        seen, work = {t}, [(t, weight)]
        while work:
            s, w = work.pop()
            for hi, lo, letters, rise in self._tails:
                if w + rise > bound or any(s[k] < e for k, e in letters):
                    continue
                r = list(s)
                for k, e in letters:
                    r[k] -= e
                r[hi] += 1
                r[lo] += 1
                r = tuple(r)
                if r not in seen:
                    seen.add(r)
                    work.append((r, w + rise))
        return seen

    def _delta(self, pos):
        """The reduced coproduct of the window monomial at pos, cut to V, as a flat tuple."""
        return self.machine.delta(self.ids[pos])

    def _coproduct(self, pos):
        """(pos, terms, factor) of the window monomial at pos, terms cut to V."""
        terms = self._delta(pos)
        return pos, terms, _factor(terms)

    def _update(self, budget):
        """Reduce E's rows modulo the last level S_n, block by block; returns the kernel tags found.

        The rows were reduced modulo S_{n-1}, and so is any combination of
        them, so only the pivots that S_n adds can be hit, and a row with
        no column at one is left as it is.  A reduced row keeps its pivot
        unless that is at a pivot of S_n, as a step adds only columns past
        the one it clears; the rows whose pivot is cleared are inserted
        again.
        """
        elim, size, rows = self.echelon, len(self.index), self.chain[-1]._elim.rows
        elim.kernel, moved, reduced = [], [], 0
        for pivot, row in elim.rows.items():
            hits = [c for c in row if c < _TAGS and c % size in rows]
            if not hits:
                continue
            reduced += 1
            _clear_blocks(row, rows, size, hits)
            width = sum(c < _TAGS for c in row)
            if width > budget:
                raise over_budget(width, budget)
            if pivot in row:
                elim._normalize(pivot)
            else:
                moved.append(pivot)
        for pivot in moved:
            elim.insert_cleared(elim.rows.pop(pivot), 1)
        self.updates.append((reduced, len(moved)))
        return elim.kernel

    def _primitives(self, budget):
        """S_1 = P(D), found weight by weight; returns its echelon and keeps the images' as E.

        At each weight w, U is the set of pivots of P(D_{<w}), the kernel
        tags found so far, and the left legs read are U's (see next_level).  One
        elimination serves while U stays the same, and each weight's
        monomials are inserted into it.  The new pivots enter left and V
        at the end of their weight, the top weight's too; rows held then
        lack the new columns and could declare false primitives, so a
        fresh elimination, recorded as a restart at w + 1, is fed again
        every monomial of weight <= w that is no pivot of U.  They span a
        complement of P(D_{<=w}), so their images have no kernel.  After
        the last restart every row is inserted under U = S_1's pivots, so
        the elimination ends holding the images of S_1's non-pivots, in
        window order: E.
        """
        ids, size, left = self.ids, len(self.index), self.left
        weight = self.index.pres.mono_weight
        found = _Echelon()  # the primitives found so far
        elim, fed = _Echelon(), []
        self.restarts = []
        for w, group in groupby(enumerate(self.aug, 1), lambda pair: weight(pair[1])):
            group = [pos for pos, _ in group]
            fed += group
            start = len(elim.kernel)
            self._images(elim, map(self._coproduct, group), budget)
            for tag in elim.kernel[start:]:
                found.insert(tag)
            new = [pivot for pivot in found.rows if left[ids[pivot]] is None]
            for pivot in new:
                left[ids[pivot]] = pivot * size
            self._grow(ids[pivot] for pivot in new)
            if new and elim.rows:
                self.restarts.append(w + 1)
                elim = _Echelon()
                fed = [pos for pos in fed if pos not in found.rows]
                self._images(elim, map(self._coproduct, fed), budget)
                if elim.kernel:
                    raise AssertionError(f"coradical chain: the images of the non-pivots of weight "
                                         f"<= {w} have a kernel of dimension {len(elim.kernel)}")
        self.echelon = elim
        return found

    def _images(self, elim, coproducts, budget):
        """Insert the image of each coproduct into elim, tagged by its position.

        A term c u (x) v is read when left[u], u's column offset, is not
        None, and adds c at column left[u] + position[v] (see next_level).
        """
        position, left = self.position, self.left
        for pos, terms, factor in coproducts:
            flat = iter(terms)
            terms = zip(flat, flat, flat)
            if factor != 1:  # the terms read are cleared one by one, never stored
                terms = ((u, v, c.numerator * (factor // c.denominator))
                         for u, v, c in terms if left[u] is not None)
            image = {}
            get = image.get
            for u, v, c in terms:
                start = left[u]
                if start is None:  # u is no pivot of U
                    continue
                key = start + position[v]
                image[key] = get(key, 0) + c
            image = {k: x for k, x in image.items() if x}
            if len(image) > budget:
                raise over_budget(len(image), budget)
            image[_TAGS + pos] = factor
            elim.insert_cleared(image, factor)

    def next_level(self):
        """Add the next level S_n, or mark the chain stable.

        S_n = S_{n-1} + the span of a basis of the x in a complement of
        S_{n-1} whose reduced coproduct, read at the terms below, lies in
        H+ (x) S_{n-1} (see _coradical_chain for why the right leg alone
        decides), S_0 the scalars.  Level 1 is _primitives' echelon as it
        is; a later S_n starts from S_{n-1}'s rows, the same objects, and
        only the kernel rows _update finds are new.

        Only the terms u (x) v whose left leg u lies in a set U of pivot
        monomials of primitives are read.  Both legs of the reduced
        coproduct of a monomial weigh less than it, so D_{<=w}, the span
        of the window monomials of weight <= w, is a subcoalgebra for every
        w, with delta(D_{<=w}) inside D_{<w} (x) D_{<w}; the window D is
        one of them.  In the dual D*, the convolution algebra, let
        m = {f : f(1) = 0} and x < f = (f (x) id) Delta x; then
        (x < f) < g = x < (f * g), and for f in m, x < f is f(x) 1 plus
        (f (x) id) delta x.  So for x in D+, x lies in C_n exactly when
        x < f lies in C_{n-1} for every f in m, and because C_{n-1} is a
        subcoalgebra, A_x = {f in m : x < f in C_{n-1}} is a right ideal:
        x lies in C_n iff A_x = m.  A finite dimensional connected
        coalgebra E has a nilpotent m_E, and m_E^2 is the annihilator of
        k1 + P(E), P the primitives: (f * g)(x) = (f (x) g) delta x for f,
        g in m_E.  By Nakayama, any f_1, ..., f_k in m_E whose restrictions
        form a basis of P(E)* generate m_E as a right ideal.  The
        coordinate functionals at P(E)'s echelon pivots are such a basis,
        as the pivot block of P(E)'s rows is triangular, and x < f_u, for u
        a pivot monomial, is f_u(x) 1 plus the sum of c v over the terms
        c u (x) v of delta x.  Every condition is necessary, so functionals
        beyond a generating set change nothing.

        Those terms are read from the state's own coproducts, built cut
        to V, which holds U (see the class docstring): by the closure of
        V, Delta(y)|_V = (Delta(g) Delta(y / g)|_V)|_V for a monomial y
        with first letter g, since a term whose left leg lies outside V
        meets V under no left leg of Delta(g); and the candidates that
        can enter V are found by undoing tail replacements, which never
        lower the weight when undone.  So every term with its left leg in
        U is built, and no full coproduct is.

        Level 1, S_1 = P(D), is built weight by weight (_primitives).  For
        x in D_{<=w}+, and C_0 the scalars, A_x = {f in m : x < f in k}
        contains D_{<w}^perp, an ideal of D*, so A_x = m iff its image in
        D* / D_{<w}^perp = D_{<w}*, connected, is all of m_{D_{<w}}.
        E = D_{<w} then gives U = the pivots of P(D_{<w}): x is primitive
        iff the sum of c v over the terms c u (x) v of delta x vanishes for
        each u in U.

        Past level 1, E = D and U = the pivots of S_1.  Write phi(x) for
        the sum of c v placed in block u, over the terms c u (x) v of
        delta x with u in U, and kappa_n for the remainder modulo S_n in
        every block: x is in S_{n+1} iff kappa_n phi(x) = 0.  E is level
        1's echelon of images, which ends holding the images phi of S_1's
        non-pivots, tagged by position (see _primitives), one row each, as
        S_1 meets their span in 0.  Level n+1 reduces each row of E modulo
        S_n and inserts again the rows whose pivot that clears;
        those that reduce to a zero image give its kernel, their tags
        (_update).  This is correct because the remainder modulo S_n is
        linear and canonical, so a row holding kappa_{n-1} phi(t), t its
        tag, comes to hold kappa_n phi(t); the rows' tags, with the
        kernels found so far, span the complement that S_1's non-pivots
        span; and every kernel found so far lies in S_n, so
        S_{n+1} = S_n + the span of the new kernel.  The levels are the
        same spans, so every reader, which reads spans, pivots, remainders
        or back-substituted rows, sees what any complement would give.

        In E, u (x) v is column left[u] + position[v], u and v window
        positions, and the tag, scaled by the factor that cleared the
        coproduct, is column _TAGS + the position.  The term budget is read
        once per level when the levels are driven on their own, and once for
        the whole chain by _coradical_chain; an image, or the image part of
        a row a level reduces, of more terms raises BudgetExceeded.
        """
        budget = term_budget()
        level = Subspace(self.index)
        if self.chain:
            level._elim.rows = dict(self.chain[-1]._elim.rows)
            for tag in self._update(budget):
                level.add_vector(tag)
        else:
            level._elim = self._primitives(budget)
        if level.dim == (self.chain[-1].dim if self.chain else 0):
            self.stable = True  # a repeat; S_0 has no augmentation part
            return
        self.chain.append(level)
        if level.dim == len(self.aug):
            self.stable = True


@_one_budget()
def _coradical_chain(p, weight_bound):
    """Augmentation-part levels S_1 <= S_2 <= ... inside the window.

    S_n collects the x in H+ whose reduced coproduct lies in
    H+ (x) S_{n-1}, with S_0 the scalars, whose augmentation part is
    zero.  This is Sweedler's wedge C_n = Delta^-1(H (x) C_{n-1} +
    C_0 (x) H): for x in H+, x (x) 1 and 1 (x) x already lie in that
    sum, and both legs of the reduced coproduct lie in H+, so only its
    right leg is tested.  Levels run until one repeats or fills the
    window; the term budget is read once (freealg._one_budget).
    """
    state = _CoradicalState(p, weight_bound)
    while not state.stable:
        state.next_level()
    return state.chain


@dataclass
class CoradicalReport:
    weight_bound: int
    dims: tuple  # cumulative dimensions, scalars included, level 0 first

    @property
    def levels(self):
        return len(self.dims) - 1


def coradical_levels(p, weight_bound):
    """Dimensions of the coradical chain in the window, scalars included.

    p must be a Hopf algebra, as for primitive_space: when Delta is not an
    algebra map the levels decide nothing, and are returned unchecked.
    """
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


@_one_budget()
def signature(p, weight_bound):
    """Level multiset of coradical growth not explained by products.

    For each level n, count the dimensions of S_n beyond
    S_{n-1} + (products of pairs of levels summing to n), the product
    span intersected with the window.  A window monomial's column is its
    reversed position, last - pos >= 0, and any other monomial id w is
    column -1 - w < 0, so the window is the block of nonnegative columns,
    after every other.  A row whose smallest-column pivot is >= 0 has all
    its support inside the window, and the intersection dimension,
    `explained`, is the number of such pivots, whatever order the outside
    columns take; it is kept as a running count, since rows never change
    their pivots.  The multiset is complete when its size reaches the
    geometric growth dimension of the series.

    A level's products stop as soon as explained == dim S_n.  The
    coradical filtration is an algebra filtration, C_i C_j <= C_{i+j},
    and the window is closed under the legs of Delta, so S_n is C_n
    intersected with the window: everything fed so far lies in C_n, and
    explained <= dim S_n always (a violation raises AssertionError).
    Once equal, the count of level n is 0 whatever is fed next.  The
    skipped products are never needed later either: at a level n' > n
    the products S_{n'-q} S_q span every S_{n-q} S_q, since the levels
    are nested, so a level that runs its products to the end has the
    full product span of every earlier level inside it.

    S_a's rows are S_{a-1}'s rows plus N_a, the rows level a inserted,
    a complement of S_{a-1} in S_a; O_a is S_{a-1}'s rows.  They are
    read as stored, as the argument above reads spans.  Level n feeds
    N_{n-q} N_q for every q first, then N_{n-q} O_q, then O_{n-q} S_q,
    which together are every pair of S_{n-q} x S_q.  The feeding order
    changes no count: the early-stop argument above holds in any order.
    Since S_a = S_{a-1} + N_a, S_{n-q} S_q lies in N_{n-q} N_q + C_{n-1}:
    the new pairs carry what lies beyond C_{n-1}, so they come first.
    At a level's end only N_n is inserted: the echelon already spans
    S_{n-1}, so the span, and every later value of `explained`, is the
    same as with all of S_n.

    p must be a Hopf algebra, as for primitive_space: when Delta is not an
    algebra map the levels and their counts decide nothing, and are
    returned unchecked.
    """
    chain = _coradical_chain(p, weight_bound)
    # window position -> id, from the window the chain listed (an empty
    # chain feeds nothing); id -> column, ids numbered after the window
    # lie outside it
    ids = chain[0].index.ids() if chain else []
    column = [-1 - w for w in range(len(p._monos))]
    for col, w in enumerate(reversed(ids)):
        column[w] = col
    known = len(column)
    # bases[n] = S_n's primitive integer rows in pivot order, each encoded once
    # as (id, coeff) pairs; news[n] = N_n, olds[n] = S_{n-1}'s rows
    encoded, bases, news = {}, [[]], [[]]
    for level in chain:
        rows = level._elim.rows
        new = sorted(rows.keys() - encoded.keys())
        encoded.update((pivot, [(ids[c], v) for c, v in rows[pivot].items()]) for pivot in new)
        bases.append([encoded[pivot] for pivot in sorted(rows)])
        news.append([encoded[pivot] for pivot in new])
    olds = [[]] + bases[:-1]
    elim = _Echelon()
    explained = 0

    def insert(terms):
        nonlocal explained
        pivot = elim.insert({column[w] if w < known else -1 - w: v for w, v in terms})
        if pivot is not None and pivot >= 0:
            explained += 1

    entries, by_level = [], []
    for n, level in enumerate(chain, 1):
        dim = level.dim
        products = (
            (b1, b2)
            for left, right in ((news, news), (news, olds), (olds, bases))
            for q in range(1, n)
            for b1 in left[n - q]
            for b2 in right[q]
        )
        for b1, b2 in products:
            if explained == dim:
                break
            insert(p._multiply_ids(b1, b2).items())
        if explained > dim:  # it never falls and products stop at dim
            raise AssertionError(
                f"signature level {n}: products explain {explained} window "
                f"dimensions, but the level has dimension {dim}"
            )
        count = dim - explained
        if count > 0:
            entries.extend([n] * count)
            by_level.append((n, count))
        for b in news[n]:
            insert(b)
    gk = None
    degree = max(10, 2 * weight_bound)
    if series_settles(p, degree):
        gk = gk_dimension(factor_series(hilbert_series(p, degree)))
    return SignatureReport(
        weight_bound, tuple(entries), tuple(by_level), gk, gk is not None and len(entries) == gk
    )
