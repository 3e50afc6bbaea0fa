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
import random

from .errors import (
    AlphabetMismatch,
    AxiomFailure,
    NoCoproductAttached,
    NonzeroConstantTerm,
    QSkewRejected,
)
from .freealg import as_coeff, check_budget
from .pbw import _ONE, PBWElement, Presentation


# ----- tensor elements ------------------------------------------------------


def _render_tensor_terms(pairs):
    """Signed-sum joiner for tensor terms.

    Same contract as freealg.render_terms, except the body may start
    with the digit "1" (an empty leg), so non-unit coefficients only
    juxtapose when that cannot be misread.
    """
    if not pairs:
        return "0"
    chunks = []
    for coeff, body_text in pairs:
        negative = coeff < 0
        mag = -coeff if negative else coeff
        if mag == 1:
            body = body_text
        elif mag.denominator == 1 and not body_text.startswith("1"):
            body = f"{mag}{body_text}"
        else:
            body = f"{mag} {body_text}"
        if not chunks:
            chunks.append(f"-{body}" if negative else body)
        else:
            chunks.append(f" - {body}" if negative else f" + {body}")
    return "".join(chunks)


def _tensor_product(pres, xs, ys):
    """Product of two {(left, right): coeff} maps in the tensor square.

    Each leg is multiplied by mono_product, whose interned monomials make
    the (left, right) keys share their tuples; a coefficient that is the
    interned one is not multiplied.
    """
    mono_product = pres.mono_product
    out = {}
    for (a1, a2), c in xs.items():
        for (b1, b2), d in ys.items():
            cd = d if c is _ONE else c * d
            left = mono_product(a1, b1).terms
            right = mono_product(a2, b2).terms
            for u, cu in left.items():
                cu_cd = cd if cu is _ONE else cd * cu
                for v, cv in right.items():
                    key = (u, v)
                    term = cu_cd if cv is _ONE else cu_cd * cv
                    old = out.get(key)
                    if old is None:
                        out[key] = term
                    elif new := old + term:
                        out[key] = new
                    else:
                        del out[key]
    check_budget(len(out))
    return out


class TensorElement:
    """Element of the tensor square, both legs in normal form."""

    __slots__ = ("pres", "terms")

    def __init__(self, pres, terms=None):
        self.pres = pres
        self.terms = {}
        if terms:
            for key, coeff in terms.items():
                coeff = as_coeff(coeff)
                if coeff:
                    m1, m2 = key
                    self.terms[(tuple(m1), tuple(m2))] = coeff

    @classmethod
    def _raw(cls, pres, terms):
        out = cls.__new__(cls)
        out.pres = pres
        out.terms = terms
        return out

    def _check(self, other):
        if self.pres is not other.pres and self.pres != other.pres:
            raise AlphabetMismatch("tensors belong to different presentations")

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, TensorElement)
            and not (self.pres is not other.pres and self.pres != other.pres)
            and self.terms == other.terms
        )

    __hash__ = None

    def __add__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        self._check(other)
        terms = dict(self.terms)
        for key, coeff in other.terms.items():
            new = terms.get(key, Fraction(0)) + coeff
            if new:
                terms[key] = new
            else:
                terms.pop(key, None)
        return TensorElement._raw(self.pres, terms)

    def __neg__(self):
        return TensorElement._raw(self.pres, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            coeff = as_coeff(other)
            if not coeff:
                return TensorElement._raw(self.pres, {})
            return TensorElement._raw(
                self.pres, {k: c * coeff for k, c in self.terms.items()}
            )
        if not isinstance(other, TensorElement):
            return NotImplemented
        self._check(other)
        return TensorElement._raw(self.pres, _tensor_product(self.pres, self.terms, other.terms))

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def sorted_terms(self):
        key = self.pres.mono_key
        return sorted(self.terms.items(), key=lambda item: (key(item[0][0]), key(item[0][1])))

    def __str__(self):
        render = self.pres.render_mono
        return _render_tensor_terms(
            [(c, f"{render(m1)} (x) {render(m2)}") for (m1, m2), c in self.sorted_terms()]
        )

    def __repr__(self):
        return f"TensorElement({self})"


class Tensor3Element:
    """Element of the triple tensor power; only linear structure is needed."""

    __slots__ = ("pres", "terms")

    def __init__(self, pres, terms=None):
        self.pres = pres
        self.terms = {}
        if terms:
            for key, coeff in terms.items():
                coeff = as_coeff(coeff)
                if coeff:
                    m1, m2, m3 = key
                    self.terms[(tuple(m1), tuple(m2), tuple(m3))] = coeff

    @classmethod
    def _raw(cls, pres, terms):
        out = cls.__new__(cls)
        out.pres = pres
        out.terms = terms
        return out

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, Tensor3Element)
            and not (self.pres is not other.pres and self.pres != other.pres)
            and self.terms == other.terms
        )

    __hash__ = None

    def __add__(self, other):
        if not isinstance(other, Tensor3Element):
            return NotImplemented
        terms = dict(self.terms)
        for key, coeff in other.terms.items():
            new = terms.get(key, Fraction(0)) + coeff
            if new:
                terms[key] = new
            else:
                terms.pop(key, None)
        return Tensor3Element._raw(self.pres, terms)

    def __neg__(self):
        return Tensor3Element._raw(self.pres, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Tensor3Element):
            return NotImplemented
        return self + (-other)

    def sorted_terms(self):
        key = self.pres.mono_key
        return sorted(
            self.terms.items(),
            key=lambda item: tuple(key(m) for m in item[0]),
        )

    def __str__(self):
        render = self.pres.render_mono
        return _render_tensor_terms(
            [
                (c, f"{render(m1)} (x) {render(m2)} (x) {render(m3)}")
                for (m1, m2, m3), c in self.sorted_terms()
            ]
        )

    def __repr__(self):
        return f"Tensor3Element({self})"


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


# ----- the comultiplication machine ----------------------------------------


def _require_hopf(p):
    if not p.has_coproduct:
        raise NoCoproductAttached(
            f"{p.name or 'presentation'} carries no coproduct data"
        )
    names = p.alphabet.names
    for (hi, lo), rel in sorted(p.relations.items()):
        if rel.q != 1:
            raise QSkewRejected(
                f"relation {names[hi]} {names[lo]} = {rel.q} {names[lo]} {names[hi]} + ... "
                "has q != 1; only q = 1 presentations carry this coproduct shape"
            )
    p.require_confluent()


class _Machine:
    """Per-presentation cache of Delta on basis monomials."""

    def __init__(self, p):
        _require_hopf(p)
        self.p = p
        n = len(p.alphabet)
        self.empty = (0,) * n
        self.gen_delta = {gi: dict(p.delta.get(gi, {})) for gi in range(n)}
        self.gen_full = {}
        for gi in range(n):
            unit = [0] * n
            unit[gi] = 1
            unit = tuple(unit)
            full = {(unit, self.empty): _ONE, (self.empty, unit): _ONE}
            for key, coeff in self.gen_delta[gi].items():
                full[key] = full.get(key, Fraction(0)) + coeff
            self.gen_full[gi] = {k: c for k, c in full.items() if c}
        self._full = {self.empty: {(self.empty, self.empty): Fraction(1)}}

    def full_mono(self, mono):
        """Delta of a basis monomial, as a {(left, right): coeff} map."""
        hit = self._full.get(mono)
        if hit is not None:
            return hit
        gi = next(i for i, e in enumerate(mono) if e)
        rest = list(mono)
        rest[gi] -= 1
        out = _tensor_product(self.p, self.gen_full[gi], self.full_mono(tuple(rest)))
        self._full[mono] = out
        return out

    def reduced_mono(self, mono):
        """delta of a basis monomial: Delta(m) - m (x) 1 - 1 (x) m."""
        out = dict(self.full_mono(mono))
        for key in ((mono, self.empty), (self.empty, mono)):
            new = out.get(key, Fraction(0)) - 1
            if new:
                out[key] = new
            else:
                out.pop(key, None)
        return out

    def full(self, x):
        terms = {}
        for mono, coeff in x.terms.items():
            for key, c in self.full_mono(mono).items():
                new = terms.get(key, Fraction(0)) + coeff * c
                if new:
                    terms[key] = new
                else:
                    terms.pop(key, None)
        return TensorElement._raw(self.p, terms)


def _machine(p):
    mach = getattr(p, "_hopf_machine", None)
    if mach is None:
        mach = _Machine(p)
        p._hopf_machine = mach
    return mach


# ----- the coproduct and its immediate derivatives --------------------------


def coproduct(p, x):
    """Delta(x), with both tensor legs straightened."""
    return _machine(p).full(p.normal_form(x))


def reduced_coproduct(p, x):
    """delta(x) = Delta(x) - x (x) 1 - 1 (x) x."""
    x = p.normal_form(x)
    one = p.one()
    return coproduct(p, x) - tensor(x, one) - tensor(one, x)


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
    reported verbatim.
    """
    mach = _machine(p)
    checks = []
    for (hi, lo), rel in sorted(p.relations.items()):
        d_hi = mach.full(p.gen(hi))
        d_lo = mach.full(p.gen(lo))
        tail_elem = p.normal_form(dict(rel.tail))
        residual = d_hi * d_lo - rel.q * (d_lo * d_hi) - mach.full(tail_elem)
        checks.append(
            RelationCheck(relation_label(p, hi, lo), residual.is_zero(), residual)
        )
    return CompatReport(tuple(checks))


# ----- coassociativity -------------------------------------------------------


def _acc3(store, key, coeff):
    new = store.get(key, Fraction(0)) + coeff
    if new:
        store[key] = new
    else:
        store.pop(key, None)


def _reduced_left(mach, pairs):
    """(delta (x) id) applied to a {(u, v): c} map."""
    out = {}
    for (u, v), c in pairs.items():
        for (a, b), d in mach.reduced_mono(u).items():
            _acc3(out, (a, b, v), c * d)
    return out


def _reduced_right(mach, pairs):
    """(id (x) delta) applied to a {(u, v): c} map."""
    out = {}
    for (u, v), c in pairs.items():
        for (a, b), d in mach.reduced_mono(v).items():
            _acc3(out, (u, a, b), c * d)
    return out


def _full_left(mach, pairs):
    out = {}
    for (u, v), c in pairs.items():
        for (a, b), d in mach.full_mono(u).items():
            _acc3(out, (a, b, v), c * d)
    return out


def _full_right(mach, pairs):
    out = {}
    for (u, v), c in pairs.items():
        for (a, b), d in mach.full_mono(v).items():
            _acc3(out, (u, a, b), c * d)
    return out


@dataclass
class GeneratorCoassoc:
    name: str
    left: Tensor3Element
    right: Tensor3Element

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
    (Delta (x) id) Delta = (id (x) Delta) Delta comparison.
    """
    mach = _machine(p)
    gens = []
    for gi in range(len(p.alphabet)):
        pairs = mach.gen_delta[gi]
        left = Tensor3Element._raw(p, _reduced_left(mach, pairs))
        right = Tensor3Element._raw(p, _reduced_right(mach, pairs))
        gens.append(GeneratorCoassoc(p.alphabet.names[gi], left, right))
    bound = weight_bound if weight_bound is not None else p.max_weight + 2
    basis = [m for m in p.enumerate_basis(bound) if any(m)]
    if samples is not None and len(basis) > samples:
        basis = sorted(random.Random(seed).sample(basis, samples), key=p.mono_key)
    monos = []
    for m in basis:
        pairs = mach.full_mono(m)
        ok = _full_left(mach, pairs) == _full_right(mach, pairs)
        monos.append((m, ok))
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
    are evaluated on the nose.
    """
    mach = _machine(p)
    empty_word = ()
    relation_checks = []
    for (hi, lo), rel in sorted(p.relations.items()):
        residual = -rel.tail.get(empty_word, Fraction(0))
        relation_checks.append((relation_label(p, hi, lo), residual))
    generator_checks = []
    empty = mach.empty
    for gi in range(len(p.alphabet)):
        g = p.gen(gi)
        left = p.zero()
        right = p.zero()
        for (u, v), c in mach.gen_full[gi].items():
            if u == empty:
                left = left + c * p.element({v: 1})
            if v == empty:
                right = right + c * p.element({u: 1})
        generator_checks.append((p.alphabet.names[gi], left == g and right == g))
    return CounitReport(tuple(relation_checks), tuple(generator_checks))


# ----- antipode --------------------------------------------------------------


@dataclass
class AntipodeTable:
    """S on the generators, with enough cache to apply it anywhere."""

    pres: Presentation
    by_gen: dict
    weight_bound: int
    monomials_checked: int = 0
    _mono_cache: dict = field(default_factory=dict, repr=False)

    def of_gen(self, g):
        gi = g if isinstance(g, int) else self.pres.alphabet.index_of(g)
        return self.by_gen[gi]

    def apply_mono(self, mono):
        """S on a basis monomial, by the reversed-product rule."""
        hit = self._mono_cache.get(mono)
        if hit is not None:
            return hit
        p = self.pres
        if not any(mono):
            result = p.one()
        else:
            gi = next(i for i, e in enumerate(mono) if e)
            rest = list(mono)
            rest[gi] -= 1
            result = p.multiply(self.apply_mono(tuple(rest)), self.by_gen[gi])
        self._mono_cache[mono] = result
        return result

    def apply(self, x):
        x = self.pres.normal_form(x)
        total = self.pres.zero()
        for mono, coeff in x.terms.items():
            total = total + coeff * self.apply_mono(mono)
        return total


def solve_antipode(p, weight_bound=None):
    """Solve for the antipode and verify both axiom sides up to a weight.

    m(S (x) id) Delta(g) = 0 pins down S(g) = -g - sum S(u) v over the
    reduced part; generators are processed in weight order so every S(u)
    is already known.  The two-sided axiom is then re-derived on every
    basis monomial up to the bound, and the first failure raises
    AxiomFailure with the offending monomial and residual.
    """
    mach = _machine(p)
    if weight_bound is None:
        weight_bound = 2 * p.max_weight + 2
    table = AntipodeTable(p, {}, weight_bound)
    weights = p.alphabet.weights
    for gi in sorted(range(len(p.alphabet)), key=lambda i: (weights[i], i)):
        correction = p.zero()
        for (u, v), c in mach.gen_delta[gi].items():
            correction = correction + c * p.multiply(
                table.apply_mono(u), p.element({v: 1})
            )
        table.by_gen[gi] = -p.gen(gi) - correction
    checked = 0
    for mono in p.enumerate_basis(weight_bound):
        eps = p.one() if not any(mono) else p.zero()
        left = -eps
        right = -eps
        for (u, v), c in mach.full_mono(mono).items():
            left = left + c * p.multiply(table.apply_mono(u), p.element({v: 1}))
            right = right + c * p.multiply(p.element({u: 1}), table.apply_mono(v))
        if not left.is_zero():
            raise AxiomFailure(p.render_mono(mono), left, "left")
        if not right.is_zero():
            raise AxiomFailure(p.render_mono(mono), right, "right")
        checked += 1
    table.monomials_checked = checked
    return table


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
    """Is S an involution on the basis up to the weight bound?"""
    if table is None:
        table = solve_antipode(p, weight_bound)
    bound = weight_bound if weight_bound is not None else table.weight_bound
    failures = []
    checked = 0
    for mono in p.enumerate_basis(bound):
        twice = table.apply(table.apply_mono(mono))
        checked += 1
        if twice != p.element({mono: 1}):
            failures.append((mono, twice))
    return InvolutiveReport(checked, tuple(failures))


# ----- surgery used by the corruption switch --------------------------------


def drop_correction(p, g):
    """Copy of the presentation with delta(g) removed, leaving g primitive.

    This deliberately breaks nothing structural: the result is still a
    valid presentation, but if delta(g) was load-bearing the coproduct
    stops being an algebra map and the compatibility check exposes it.
    """
    if not p.has_coproduct:
        raise NoCoproductAttached(
            f"{p.name or 'presentation'} carries no coproduct data"
        )
    gi = g if isinstance(g, int) else p.alphabet.index_of(g)
    delta_in = {}
    for i, terms in p.delta.items():
        if i == gi:
            continue
        delta_in[i] = {
            (p.mono_word(m1), p.mono_word(m2)): c for (m1, m2), c in terms.items()
        }
    relations_in = {
        key: (rel.q, dict(rel.tail))
        for key, rel in p.relations.items()
        if not rel.is_default()
    }
    gens = list(zip(p.alphabet.names, p.alphabet.weights))
    name = p.alphabet.names[gi]
    base = p.name or "presentation"
    return Presentation(
        gens,
        relations=relations_in,
        coproduct=delta_in,
        name=f"{base} (delta({name}) dropped)",
    )
