"""Coalgebra layer: coproduct, counit, and antipode over straightened algebras.

A presentation may carry coproduct data: for each generator g a reduced
part delta(g), a sum of u (x) v with both factors of strictly smaller
weight.  The full coproduct is

    Delta(g) = g (x) 1 + 1 (x) g + delta(g)

extended to the whole algebra multiplicatively, with every tensor
component kept in normal form.  Everything else in this module is
derived from, or checked against, that single map: compatibility with
the straightening relations, coassociativity, the counit laws, and the
antipode forced by the comultiplication.

All of it is exact rational arithmetic; failures surface as residual
tensors, never as tolerances.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
import random

from .errors import (
    AlphabetMismatch,
    AxiomFailure,
    NoCoproductAttached,
    NonzeroConstantTerm,
    QSkewRejected,
)
from .freealg import _LinearCombination, _Memo, _acc, _one_budget, check_budget, over_budget, term_budget
from .pbw import PBWElement, Presentation, _integral


# ----- tensor elements ------------------------------------------------------


def _tensor_product(left, right, xs, ys):
    """Product of two elements of the tensor square, as a {(left, right): coeff} map.

    Both factors are flat sequences (left0, right0, coeff0, left1, ...)
    of monomial ids and coefficients, read three at a time.  The left
    legs of the product are read from left and the right legs from right,
    each a product table by id, left[a][b] the (id, coeff) pairs of
    NF(m_a m_b): the presentation's table twice, or a left table whose
    entries keep only some monomials (see _Machine).  The unit leg
    is id 0, and 1 times b is b, so a term a (x) 1 or 1 (x) a multiplies
    one leg only.  Entries that cancel are dropped before the result is
    checked against the term budget.
    """
    out = {}
    get = out.get
    xs = iter(xs)
    for a1, a2, c in zip(xs, xs, xs):
        it = iter(ys)
        terms = zip(it, it, it)
        if not a2:  # (a1 (x) 1)(b1 (x) b2) = a1 b1 (x) b2
            lefts = left[a1]
            for b1, b2, d in terms:
                cd = c * d
                for u, cu in lefts[b1]:
                    key = (u, b2)
                    out[key] = get(key, 0) + cd * cu
        elif not a1:  # (1 (x) a2)(b1 (x) b2) = b1 (x) a2 b2
            rights = right[a2]
            for b1, b2, d in terms:
                cd = c * d
                for v, cv in rights[b2]:
                    key = (b1, v)
                    out[key] = get(key, 0) + cd * cv
        else:
            lefts, rights = left[a1], right[a2]
            for b1, b2, d in terms:
                cd = c * d
                right_leg = rights[b2]
                for u, cu in lefts[b1]:
                    cu_cd = cd * cu
                    for v, cv in right_leg:
                        key = (u, v)
                        out[key] = get(key, 0) + cu_cd * cv
    out = {key: c for key, c in out.items() if c}
    check_budget(len(out))
    return out


def _flat(terms):
    """A {(left, right): coeff} map as one flat tuple (left0, right0, coeff0, left1, ...).

    Built by slice assignment, with no tuple per term.
    """
    flat = [None] * (3 * len(terms))
    if terms:
        flat[0::3], flat[1::3] = zip(*terms)
        flat[2::3] = terms.values()
    return tuple(flat)


class TensorElement(_LinearCombination):
    """Element of a tensor power of the algebra, every leg in normal form.

    Terms are keyed by tuples of monomials, one per leg, so the key length
    is the arity: two for the tensor square, three for the triple power
    that coassociativity compares.  Sums and scalar multiples work in any
    arity; products are defined on the tensor square only.
    """

    __slots__ = ()
    pres = _LinearCombination.owner
    _mismatch = "tensors belong to different presentations"
    _repr = "TensorElement({})"

    def __init__(self, pres, terms=None):
        super().__init__(pres, terms)

    @staticmethod
    def _key(key):
        return tuple(tuple(m) for m in key)

    @property
    def arity(self):
        """Number of legs; None for the zero tensor, which has every arity."""
        return len(next(iter(self.terms))) if self.terms else None

    def _check(self, other):
        super()._check(other)
        if len({self.arity, other.arity} - {None}) > 1:
            raise TypeError("tensors of different arity")

    def _product(self, other):
        if self.arity not in (2, None) or other.arity not in (2, None):
            raise TypeError("products are defined on the tensor square only")
        p = self.pres
        number = p._number
        xs, ys = ([x for (u, v), c in t.terms.items() for x in (number(u), number(v), c)]
                  for t in (self, other))
        return _decoded(p, _tensor_product(p._table, p._table, xs, ys))

    def _order(self, legs):
        key = self.pres.mono_key
        return tuple(key(m) for m in legs)

    def _show(self, legs):
        return " (x) ".join(self.pres.render_mono(m) for m in legs)


# the triple tensor power is the same class with three legs per key
Tensor3Element = TensorElement


def tensor(x, y):
    """The simple tensor of two elements of the same algebra."""
    if not isinstance(x, PBWElement) or not isinstance(y, PBWElement):
        raise TypeError("tensor expects two algebra elements")
    if x.pres is not y.pres and x.pres != y.pres:
        raise AlphabetMismatch("tensor legs belong to different presentations")
    terms = {}
    for m1, c1 in x.terms.items():
        for m2, c2 in y.terms.items():
            terms[(m1, m2)] = c1 * c2
    return TensorElement._raw(x.pres, terms)


def _decoded(p, terms):
    """A tensor from a map keyed by tuples of monomial ids, coefficients as Fractions."""
    monos = p._monos
    return TensorElement._raw(
        p, {tuple(monos[i] for i in key): Fraction(c) for key, c in terms.items()})


# ----- the comultiplication machine ----------------------------------------


def _require_coproduct(p):
    if not p.has_coproduct:
        raise NoCoproductAttached(
            f"{p.name or 'presentation'} carries no coproduct data"
        )


def _require_hopf(p):
    _require_coproduct(p)
    names = p.alphabet.names
    for (hi, lo), rel in sorted(p.relations.items()):
        if rel.q != 1:
            raise QSkewRejected(
                f"relation {names[hi]} {names[lo]} = {rel.q} {names[lo]} {names[hi]} + ... "
                "has q != 1; only q = 1 presentations carry this coproduct shape"
            )
    p.require_confluent()


def _first_letter_build(p, store, i, step):
    """store[i], built with every monomial below it on the first-letter chain m, m / g, ... .

    Walks down from id i to the first id already in store, numbering each
    monomial on the way, then builds back up with no recursion:
    store[m] = step(store[m / g], id of m / g, g, m), g the index of the
    first letter of m, bottom first.  Returns store[i].
    """
    monos, number = p._monos, p._number
    chain = []
    while i not in store:
        rest = list(monos[i])
        gi = next(k for k, e in enumerate(rest) if e)
        rest[gi] -= 1
        chain.append((i, gi))
        i = number(tuple(rest))
    hit = store[i]
    for m, gi in reversed(chain):
        hit = store[m] = step(hit, i, gi, m)
        i = m
    return hit


def _cut_entry(row, kept, b):
    """Entry b of a product table row, cut to the monomials whose ids are in kept."""
    return tuple(t for t in row[b] if t[0] in kept)


class _Machine:
    """Cache of Delta on basis monomials, by the presentation's monomial ids.

    delta(i) is the reduced coproduct Delta(m) - m (x) 1 - 1 (x) m of
    the monomial with id i, stored as one flat tuple
    (u0, v0, c0, u1, v1, c1, ...) of left id, right id and coefficient
    per term, with no tuple per term, built once and shared; its readers
    take it three at a time with zip(it, it, it), it = iter(delta(i)).
    The tuples live in _deltas, a _Memo by id seeded with
    delta(1) = -1 (x) 1, and the generators' flat Delta(g) in _gens, a
    _Memo by generator index; delta and _gen read them.  A missing delta
    is built by _first_letter_build, as AntipodeTable builds S:
    Delta(m) = Delta(g) Delta(m / g), with g the first letter of m, from
    leg products read by id, so a coproduct numbers only its first-letter
    chain and the legs of its leg products.  Coefficients are ints where
    integral, Fractions otherwise; full_mono decodes a tuple to a
    {(left, right): coeff} map.

    The memo is shared: the machine _machine(p) serves coproduct,
    reduced_coproduct, check_coassociativity, check_counit and
    solve_antipode alike.  solve_antipode drops the deltas of the window's
    heaviest monomials from _deltas once it has verified them; a later
    read of a dropped entry builds it again, equal to the one dropped.

    The right legs are read from the presentation's product table, and
    so are the left legs when kept is None: then every term is built, as
    in the machine _machine(p) shares, which check reads.  Otherwise
    kept is a set of ids, the left legs are read from the table with its
    entries cut to the monomials in kept, and each tuple holds exactly
    the terms of delta whose left leg is in kept, provided kept holds 1
    and every x for which NF(u x) has a monomial in kept, u a left leg
    other than 1 of some Delta(g); a unit term j (x) 1 enters only when
    j is in kept.  The coradical chain builds its coproducts so (see
    subspace._CoradicalState).
    """

    def __init__(self, p, kept=None):
        _require_hopf(p)
        self.p, self.kept = p, kept
        self.empty = p._monos[0]
        self._deltas = _Memo(self._build_delta)  # id -> flat delta(m), built on first read
        self._deltas[0] = (0, 0, -1)  # delta(1) = -1 (x) 1
        self._gens = _Memo(self._build_gen)  # generator -> flat Delta(g), built on first read
        self.delta, self._gen = self._deltas.__getitem__, self._gens.__getitem__
        table = p._table
        self._left = table if kept is None else _Memo(lambda a: _Memo(partial(_cut_entry, table[a], kept)))

    def _build_gen(self, gi):
        """Delta(g) of a generator, unit terms first, as a flat tuple of ids and coefficients."""
        number, g, terms = self.p._number, self.p._unit(gi), self.p.delta.get(gi, {}).items()
        return (g, 0, 1, 0, g, 1) + tuple(
            x for (u, v), c in terms for x in (number(u), number(v), _integral(c)))

    def _build_delta(self, i):
        """delta of the monomial with id i, built into _deltas with the chain below it."""
        return _first_letter_build(self.p, self._deltas, i, self._delta_step)

    def _delta_step(self, below, j, gi, m):
        """delta(m) from delta(m / g) = below, m / g with id j: Delta(m) = Delta(g) Delta(m / g)."""
        p, kept = self.p, self.kept
        unit = (j, 0, 1) if kept is None or j in kept else ()
        out = _tensor_product(self._left, p._table, self._gens[gi], unit + (0, j, 1) + below)
        if kept is None or m in kept:
            _acc(out, (m, 0), -1)
        _acc(out, (0, m), -1)
        if set(map(type, out.values())) - {int}:  # Fractions, some maybe integral
            out = {key: c if type(c) is int else _integral(c) for key, c in out.items()}
        return _flat(out)

    def full_delta(self, i):
        """Delta of the monomial with id i, as a flat tuple: its unit terms, then delta(i)."""
        return (i, 0, 1, 0, i, 1) + self.delta(i)

    def full_mono(self, mono):
        """Delta of a basis monomial, as a fresh {(left, right): coeff} map, with delta's coefficients."""
        monos, terms, out = self.p._monos, iter(self.full_delta(self.p._number(mono))), {}
        for u, v, c in zip(terms, terms, terms):
            _acc(out, (monos[u], monos[v]), c)
        return out


def _machine(p):
    if p._hopf_machine is None:
        p._hopf_machine = _Machine(p)
    return p._hopf_machine


# ----- the coproduct and its immediate derivatives --------------------------


def _summed(p, x, flat):
    """The sum of c flat(i) over the terms c m_i of x's normal form, decoded once."""
    terms = {}
    for mono, coeff in p.normal_form(x).terms.items():
        it = iter(flat(p._number(mono)))
        for u, v, c in zip(it, it, it):
            _acc(terms, (u, v), coeff * c)
    return _decoded(p, terms)


def coproduct(p, x):
    """Delta(x), with both tensor legs straightened."""
    return _summed(p, x, _machine(p).full_delta)


def reduced_coproduct(p, x):
    """delta(x) = Delta(x) - x (x) 1 - 1 (x) x."""
    return _summed(p, x, _machine(p).delta)


def counit(p, x):
    """The augmentation: the constant coefficient of the normal form."""
    return p.normal_form(x).constant_term()


def is_primitive(p, x):
    """True when delta(x) = 0; undefined for elements with constant term."""
    x = p.normal_form(x)
    if counit(p, x) != 0:
        raise NonzeroConstantTerm(
            "primitivity is only defined inside the augmentation ideal"
        )
    return reduced_coproduct(p, x).is_zero()


# ----- relation compatibility ------------------------------------------------


def relation_label(p, hi, lo):
    """Human name for a straightening relation, in bracket form when q = 1."""
    names = p.alphabet.names
    rel = p.relations[(hi, lo)]
    base = f"[{names[lo]},{names[hi]}]"
    if rel.q == 1:
        defect = p.normal_form({word: -c for word, c in rel.tail.items()})
        if defect.is_zero():
            return base
        text = str(defect)
        if len(defect.terms) > 1 or text.startswith("-"):
            text = f"({text})"
        return f"{base} - {text}"
    return f"{names[hi]}{names[lo]} - q {names[lo]}{names[hi]} - tail (q = {rel.q})"


@dataclass
class RelationCheck:
    label: str
    ok: bool
    residual: TensorElement


@dataclass
class CompatReport:
    checks: tuple

    @property
    def ok(self):
        return all(check.ok for check in self.checks)

    @property
    def failures(self):
        return tuple(check for check in self.checks if not check.ok)


def check_relation_compatibility(p):
    """Does Delta respect every straightening relation?

    For each pair the residual Delta(hi) Delta(lo) - q Delta(lo) Delta(hi)
    - Delta(tail) must vanish in the tensor square; whatever is left is
    reported verbatim.  It is built on monomial ids, from the generators'
    flat coproducts and the product table, and decoded for the report.
    """
    mach, table = _machine(p), p._table
    checks = []
    for (hi, lo), rel in sorted(p.relations.items()):
        residual = _tensor_product(table, table, mach._gen(hi), mach._gen(lo))
        q = -_integral(rel.q)
        for key, c in _tensor_product(table, table, mach._gen(lo), mach._gen(hi)).items():
            _acc(residual, key, q * c)
        for m, c in p.normal_form(dict(rel.tail)).terms.items():
            terms, c = iter(mach.full_delta(p._number(m))), -_integral(c)
            for u, v, d in zip(terms, terms, terms):
                _acc(residual, (u, v), c * d)
        residual = _decoded(p, residual)
        checks.append(RelationCheck(relation_label(p, hi, lo), residual.is_zero(), residual))
    return CompatReport(tuple(checks))


# ----- coassociativity -------------------------------------------------------


def _expand_leg(terms, leg, delta):
    """(delta (x) id) for leg 0, (id (x) delta) for leg 1, on a flat tuple of terms.

    delta maps a monomial id to a flat tuple; the result is keyed by
    triples of ids.
    """
    out = {}
    terms = iter(terms)
    for u, v, c in zip(terms, terms, terms):
        flat = iter(delta(v if leg else u))
        for a, b, d in zip(flat, flat, flat):
            _acc(out, (u, a, b) if leg else (a, b, v), c * d)
    return out


@dataclass
class GeneratorCoassoc:
    name: str
    left: TensorElement
    right: TensorElement

    @property
    def ok(self):
        return self.left == self.right


@dataclass
class CoassocReport:
    generators: tuple
    monomials: tuple  # (monomial, ok) pairs for the sampled full-Delta checks

    @property
    def ok(self):
        return all(g.ok for g in self.generators) and all(ok for _, ok in self.monomials)


def check_coassociativity(p, weight_bound=None, samples=20, seed=0):
    """Coassociativity on generators, plus sampled monomial checks.

    On the generators the unit terms cancel symbolically, so the exact
    condition is (delta (x) id) delta(g) = (id (x) delta) delta(g); both
    sides are reported so a failure shows its shape.  On top of that a
    deterministic sample of basis monomials is pushed through the full
    (Delta (x) id) Delta = (id (x) Delta) Delta comparison.  Both run on
    monomial ids; only the generators' sides are decoded, for the report.
    """
    mach = _machine(p)
    gens = []
    for gi in range(len(p.alphabet)):
        pairs = mach._gen(gi)[6:]  # delta(g), the unit terms dropped
        left, right = (_decoded(p, _expand_leg(pairs, leg, mach.delta)) for leg in (0, 1))
        gens.append(GeneratorCoassoc(p.alphabet.names[gi], left, right))
    basis = []
    if samples != 0:
        bound = weight_bound if weight_bound is not None else p.max_weight + 2
        basis = [m for m in p.enumerate_basis(bound) if any(m)]
    if samples is not None and len(basis) > samples:
        basis = sorted(random.Random(seed).sample(basis, samples), key=p.mono_key)
    monos, full = [], mach.full_delta
    for m in basis:
        pairs = full(p._number(m))
        monos.append((m, _expand_leg(pairs, 0, full) == _expand_leg(pairs, 1, full)))
    return CoassocReport(tuple(gens), tuple(monos))


# ----- counit ----------------------------------------------------------------


@dataclass
class CounitReport:
    relation_checks: tuple  # (label, residual Fraction)
    generator_checks: tuple  # (name, ok)

    @property
    def ok(self):
        return all(res == 0 for _, res in self.relation_checks) and all(
            ok for _, ok in self.generator_checks
        )


def check_counit(p):
    """The counit laws for epsilon(generator) = 0.

    Per relation, applying epsilon to head - q swap - tail leaves minus
    the constant part of the tail; per generator, both one-sided counit
    identities (epsilon (x) id) Delta(g) = g = (id (x) epsilon) Delta(g)
    are evaluated on the nose, on ids: the terms of the flat Delta(g) with
    the unit, id 0, as left leg, or as right leg, must sum to g alone.
    """
    mach = _machine(p)
    relation_checks = [(relation_label(p, hi, lo), -rel.tail.get((), Fraction(0)))
                       for (hi, lo), rel in sorted(p.relations.items())]
    generator_checks = []
    for gi in range(len(p.alphabet)):
        left, right = {}, {}
        terms = iter(mach._gen(gi))
        for u, v, c in zip(terms, terms, terms):
            if not u:
                _acc(left, v, c)
            if not v:
                _acc(right, u, c)
        generator_checks.append((p.alphabet.names[gi], left == {p._unit(gi): 1} == right))
    return CounitReport(tuple(relation_checks), tuple(generator_checks))


# ----- antipode --------------------------------------------------------------


@dataclass
class AntipodeTable:
    """S on the generators, with enough cache to apply it anywhere.

    S is held by the presentation's monomial ids: _images, a _Memo, maps
    id i to S of the monomial with id i as (id, coeff) pairs, ints where
    integral.  It is seeded when the table is made with S(1) = 1 at id 0
    and by_gen's S(g) at each generator's id; any other entry is built on
    first read by _image, through _first_letter_build, as _Machine builds
    its coproducts.  by_gen holds the same S(g) as elements, for the
    reports.
    """

    pres: Presentation
    by_gen: dict
    weight_bound: int
    monomials_checked: int = 0
    _images: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        p = self.pres
        images = self._images = _Memo(self._image)
        images[0] = ((0, 1),)
        for gi, image in self.by_gen.items():
            images[p._unit(gi)] = tuple((p._number(m), _integral(c)) for m, c in image.terms.items())

    def of_gen(self, g):
        gi = g if isinstance(g, int) else self.pres.alphabet.index_of(g)
        return self.by_gen[gi]

    def _image(self, i):
        """S of the monomial with id i: S(m) = S(m / g) S(g), g the first letter of m.

        Built with the chain below it by _first_letter_build, products read
        from the product table.  1 and the generators are seeded; a
        generator with no stored S(g) raises KeyError naming it.
        """
        p, images = self.pres, self._images
        mono = p._monos[i]
        if sum(mono) == 1:
            raise KeyError(mono.index(1))
        return _first_letter_build(p, images, i, lambda below, j, gi, m: tuple(
            (w, _integral(c)) for w, c in p._multiply_ids(below, images[p._unit(gi)]).items()))

    def apply_mono(self, mono):
        """S on a basis monomial, as a fresh element with Fraction coefficients."""
        return self.apply(self.pres.element({mono: 1}))

    def apply(self, x):
        p, total = self.pres, {}
        for mono, coeff in p.normal_form(x).terms.items():
            for w, c in self._images[p._number(mono)]:
                _acc(total, w, coeff * c)
        monos = p._monos
        return p.element({monos[w]: c for w, c in total.items()})


@_one_budget()
def solve_antipode(p, weight_bound=None):
    """Solve for the antipode and verify both axiom sides up to a weight.

    m(S (x) id) Delta(g) = 0 pins down S(g) = -g - sum c S(u) v over the
    terms c u (x) v of delta(g); generators are processed in weight order
    so every S(u) is already known.  Each S(g) is solved by id into the
    table's _images, its running sum held to the term budget after every
    term of delta(g), then decoded once into by_gen.  The two-sided axiom
    is then re-derived on every basis monomial up to the bound, and the
    first failure raises AxiomFailure with the offending monomial and
    residual.

    The check command never sees that failure: it calls this only after
    proving Delta compatible with every relation, coassociative on the
    generators and counital.  Delta is then an algebra map, so both laws
    hold on all of H, and legs of strictly smaller weight make H
    connected; the antipode then exists and is anti-multiplicative
    (Montgomery 1993, section 5.2), so the first-letter recursion
    S(m) = S(m / g) S(g) computes it.  The failure stays as a guard, and
    callers that skip those checks can meet it.

    The verification walks Delta(m) term by term, with no regrouping by
    leg, since S-images are a term or two each, in one loop per side: the
    left adds c S(u) v, the right c u S(v).  The unit terms come first, as
    they are: S(m) then m on the left, whose sum the right side starts
    from.  Then comes the machine's delta(m), whose legs are never 1 for
    m != 1; m = 1, where both sides are 1 - epsilon(1) 1 = 0, reads
    nothing.  Every other product is read by id from the product table the
    coproducts are built from, S-images as AntipodeTable's (id, coeff)
    pairs.  A side's sum keeps cancelled terms as zeros, dropped once at
    its end; the left side is finished, and a failure raised, before the
    right is built.  The term budget, read once per call, is checked after
    every term of Delta(m), exactly: a sum longer than the budget drops its
    zeros, and over_budget is raised only if its nonzero terms still
    exceed it.  A failure decodes its residual back to monomials.  The
    call is one budget scope (freealg._one_budget): the coproducts and
    products it builds read the budget that this call read.

    S(m), the first unit term, needs no check of its own: the table is
    new for each call, and every S-image in it was held to this call's
    budget when it was stored, a built one by _multiply_ids'
    check_budget, S(g) by the check after each term of delta(g), and S(1)
    has one term.  S(m) + m, the sum after the second, is checked.

    Delta(m) is read by its own check and, through the first-letter
    recursion, by Delta(g m) alone, so once both sides of a monomial
    heavier than the bound minus the least generator weight are verified,
    its delta leaves the machine's store: no window monomial reads it
    again, and the store holds the lighter ones only.
    """
    mach = _machine(p)
    weight_bound = p.default_window if weight_bound is None else weight_bound
    table = AntipodeTable(p, {}, weight_bound)
    images, legs, monos, number = table._images, p._table, p._monos, p._number
    budget = term_budget()

    weights = p.alphabet.weights
    last = weight_bound - min(weights)  # the heaviest m whose Delta(m) a Delta(g m) in the window reads
    for gi in sorted(range(len(p.alphabet)), key=lambda i: (weights[i], i)):
        g, terms = p._unit(gi), iter(mach._gen(gi)[6:])  # delta(g), the unit terms dropped
        image = {g: -1}
        for u, v, c in zip(terms, terms, terms):
            for w, d in p._multiply_ids(images[u], ((v, 1),)).items():
                _acc(image, w, -c * d)
            if len(image) > budget:
                raise over_budget(len(image), budget)
        images[g] = tuple((w, _integral(c)) for w, c in image.items())
        table.by_gen[gi] = PBWElement._raw(p, {monos[w]: Fraction(c) for w, c in images[g]})

    basis = p.enumerate_basis(weight_bound)
    for mono in basis:
        i = number(mono)
        if not i:  # 1: both sides are 1 - epsilon(1) 1 = 0
            continue
        out = dict(images[i])  # the unit terms: S(m) 1, then 1 m
        out[i] = out.get(i, 0) + 1
        if len(out) > budget:
            _drop_zeros(out, budget)
        right = dict(out)  # m 1 + 1 S(m), the same sum, within the budget the left just met
        get, terms = out.get, iter(mach.delta(i))
        for u, v, c in zip(terms, terms, terms):
            for w, d in images[u]:  # c S(u) v
                cd = c * d
                for m, e in legs[w][v]:
                    out[m] = get(m, 0) + cd * e
            if len(out) > budget:
                _drop_zeros(out, budget)
        _side_vanishes(p, mono, out, "left")
        out, get, terms = right, right.get, iter(mach.delta(i))
        for u, v, c in zip(terms, terms, terms):
            row = legs[u]
            for w, d in images[v]:  # c u S(v)
                cd = c * d
                for m, e in row[w]:
                    out[m] = get(m, 0) + cd * e
            if len(out) > budget:
                _drop_zeros(out, budget)
        _side_vanishes(p, mono, out, "right")
        if p.mono_weight(mono) > last:
            del mach._deltas[i]
    table.monomials_checked = len(basis)
    return table


def _drop_zeros(out, budget):
    """Delete the zero terms of a running sum; raise over_budget if more than budget remain."""
    for m in [m for m, e in out.items() if not e]:
        del out[m]
    if len(out) > budget:
        raise over_budget(len(out), budget)


def _side_vanishes(p, mono, out, side):
    """Raise AxiomFailure on mono unless every term of out, one side of the axiom, is zero."""
    if any(out.values()):
        residual = p.element({p._monos[m]: c for m, c in out.items() if c})
        raise AxiomFailure(p.render_mono(mono), residual, side)


def antipode(p, x, table=None):
    """S(x); solves for the table first when one is not supplied."""
    if table is None:
        table = solve_antipode(p)
    return table.apply(x)


@dataclass
class InvolutiveReport:
    checked: int
    failures: tuple  # (monomial, S(S(monomial)))

    @property
    def ok(self):
        return not self.failures


def check_involutive_antipode(p, table=None, weight_bound=None):
    """Is S an involution on the basis up to the weight bound?

    S(S(m)) = sum c S(w) over the terms c w of S(m), read by id from the
    table's _images, must be m alone once its zeros are dropped: the sum
    keeps a cancelled term as a zero, as solve_antipode's sides do.  Only a
    failing S(S(m)) is decoded.
    S^2 = Id is no Hopf axiom: it holds on every connected graded Hopf
    algebra of finite GK dimension, and can fail on a connected one.
    """
    if table is None:
        table = solve_antipode(p, weight_bound)
    bound = weight_bound if weight_bound is not None else table.weight_bound
    images, monos, basis, failures = table._images, p._monos, p.enumerate_basis(bound), []
    for mono in basis:
        i, twice = p._number(mono), {}
        get = twice.get
        for w, c in images[i]:
            for x, d in images[w]:
                twice[x] = get(x, 0) + c * d
        one = twice.pop(i, 0)
        if one != 1 or any(twice.values()):  # zeros kept from cancellation are no failure
            twice[i] = one
            failures.append((mono, p.element({monos[x]: c for x, c in twice.items() if c})))
    return InvolutiveReport(len(basis), tuple(failures))


# ----- surgery used by the corruption switch --------------------------------


def drop_correction(p, g):
    """Copy of the presentation with delta(g) removed, leaving g primitive.

    This deliberately breaks nothing structural: the result is still a
    valid presentation, but if delta(g) was load-bearing the coproduct
    stops being an algebra map and the compatibility check exposes it.
    """
    _require_coproduct(p)
    gi = g if isinstance(g, int) else p.alphabet.index_of(g)
    word = p.mono_word
    delta_in = {i: {(word(m1), word(m2)): c for (m1, m2), c in terms.items()}
                for i, terms in p.delta.items() if i != gi}
    relations_in = {key: (rel.q, dict(rel.tail)) for key, rel in p.relations.items() if not rel.is_default()}
    name = f"{p.name or 'presentation'} (delta({p.alphabet.names[gi]}) dropped)"
    return Presentation(p.alphabet, relations=relations_in, coproduct=delta_in, name=name)
