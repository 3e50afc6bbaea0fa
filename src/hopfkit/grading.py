"""Hilbert series and weight-grading analysis of PBW-type presentations.

A confluent presentation has the ordered monomials as a vector-space
basis, so its series is the product of geometric factors 1/(1 - t^w) over
the generators.  The factorization routine runs the other way: it peels
an arbitrary truncated series into the unique shape
prod_i (1 - t^i)^(-n_i), failing if some multiplicity would have to be
negative.  Everything is exact integer arithmetic on coefficient lists.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotHopfAdmissible, TailAboveHead
from .freealg import render_terms
from .pbw import Presentation


class PowerSeries:
    """Truncated integer power series, coefficients for degrees 0..D."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = tuple(int(c) for c in coeffs)
        if not coeffs:
            raise ValueError("series needs at least the degree-0 coefficient")
        self.coeffs = coeffs

    @property
    def truncation(self):
        return len(self.coeffs) - 1

    def __getitem__(self, i):
        return self.coeffs[i]

    def __eq__(self, other):
        return isinstance(other, PowerSeries) and self.coeffs == other.coeffs

    __hash__ = None

    @classmethod
    def geometric_product(cls, weights, degree):
        """Expansion of prod 1/(1 - t^w) for the given generator weights."""
        if degree < 0:
            raise ValueError("series degree must be nonnegative")
        coeffs = [0] * (degree + 1)
        coeffs[0] = 1
        for w in weights:
            for i in range(w, degree + 1):
                coeffs[i] += coeffs[i - w]
        return cls(coeffs)

    def times_one_minus_power(self, i, n):
        """Multiply by (1 - t^i)^n for n >= 0, truncated."""
        coeffs = list(self.coeffs)
        for _ in range(n):
            for d in range(len(coeffs) - 1, i - 1, -1):
                coeffs[d] -= coeffs[d - i]
        return PowerSeries(coeffs)

    def __str__(self):
        terms = [(c, "1" if d == 0 else "t" if d == 1 else f"t^{d}")
                 for d, c in enumerate(self.coeffs) if c]
        return render_terms(terms) + " + ..."

    def __repr__(self):
        return f"<series {self}>"


@dataclass(frozen=True)
class ExponentSequence:
    """Multiplicities n_i of the factors (1 - t^i)^(-n_i), i = 1..D."""

    entries: tuple

    def n(self, i):
        return self.entries[i - 1]

    def __iter__(self):
        return iter(self.entries)

    def support(self):
        return [i + 1 for i, n in enumerate(self.entries) if n]

    def total(self):
        return sum(self.entries)

    def degrees(self):
        """The multiset of factor degrees, e.g. (1, 1, 2) for n = (2, 1)."""
        out = []
        for i, n in enumerate(self.entries, start=1):
            out.extend([i] * n)
        return tuple(out)

    def product_form(self):
        if not any(self.entries):
            return "1"
        factors = []
        for i, n in enumerate(self.entries, start=1):
            if not n:
                continue
            base = "(1-t)" if i == 1 else f"(1-t^{i})"
            factors.append(base if n == 1 else f"{base}^{n}")
        return "1/(" + " ".join(factors) + ")"


def hilbert_series(p, degree):
    """Series of the presentation's monomial basis, truncated at `degree`.

    Requires confluence; for a weight-graded presentation this is the
    Hilbert series of the algebra itself, otherwise it is the series of
    the associated graded algebra.

    The series is prod 1/(1 - t^w) over the generator weights w, all
    >= 1, so factor_series never fails on it.  Its constant term is 1,
    and by induction on i, after peeling degrees 1..i-1 the working
    series is the product over the generators of weight >= i, whose
    t^i coefficient n_i is the number of generators of weight exactly
    i, never negative.
    """
    if not isinstance(p, Presentation):
        raise TypeError("hilbert_series expects a presentation")
    p.require_confluent()
    return PowerSeries.geometric_product(p.alphabet.weights, degree)


def series_settles(p, degree):
    """Whether p's series truncated at `degree` can settle anything.

    Below the largest generator weight some generator is missing from the
    truncated series, which then reads like the series of a smaller
    algebra.  So neither the growth dimension nor the polynomial-series
    certificate is settled unless degree >= p.max_weight.
    """
    return degree >= p.max_weight


def factor_series(series):
    """Peel a series into prod (1 - t^i)^(-n_i) by iterated elimination.

    At step i the remaining coefficient of t^i is forced to equal n_i;
    a negative value means no such factorization exists and raises
    NotHopfAdmissible(i).
    """
    degree = series.truncation
    working = series
    if working[0] != 1:
        raise NotHopfAdmissible(0, "series must start with constant term 1")
    entries = []
    for i in range(1, degree + 1):
        n_i = working[i]
        if n_i < 0:
            raise NotHopfAdmissible(i)
        entries.append(n_i)
        if n_i:
            working = working.times_one_minus_power(i, n_i)
    return ExponentSequence(tuple(entries))


def gk_dimension(exponents):
    """Sum of multiplicities, or None when the truncation boundary is dirty.

    A nonzero multiplicity at the last representable degree means higher
    factors may be hiding beyond the window, so the dimension cannot be
    certified and None ("possibly infinite") is returned.
    """
    entries = exponents.entries
    if entries and entries[-1]:
        return None
    return sum(entries)


def is_commutative(p):
    return all(rel.is_default() for rel in p.relations.values())


@dataclass(frozen=True)
class ObstructionReport:
    code: str  # "q-skew-pair", "polynomial-series", or "none"
    message: str
    detail: str = ""

    @property
    def obstructed(self):
        return self.code != "none"


def hopf_obstruction(p, degree=None):
    """Cheap certificates that a presentation admits no Hopf structure.

    Two tests: a purely q-commuting generator pair with q != 1, and a
    noncommutative presentation whose series is (1-t)^(-d) (which would
    force a commutative polynomial ring).  Both certificates are
    theorems about connected weight-graded algebras, so filtered
    presentations are never flagged.  Absence of an obstruction proves
    nothing, and the report says so.
    """
    names = p.alphabet.names
    if not p.is_graded:
        return ObstructionReport(
            code="none",
            message=(
                "no obstruction found: the certificates apply to weight-graded "
                "presentations only"
            ),
        )
    for (hi, lo), rel in sorted(p.relations.items()):
        if rel.q != 1 and not rel.tail:
            return ObstructionReport(
                code="q-skew-pair",
                message=(
                    f"no Hopf structure: {names[hi]} {names[lo]} = "
                    f"{rel.q} {names[lo]} {names[hi]} is a q-commuting pair with q != 1"
                ),
                detail=f"pair ({names[lo]}, {names[hi]}), q = {rel.q}",
            )
    degree = p.default_window if degree is None else degree
    if not series_settles(p, degree):
        return ObstructionReport(
            code="none",
            message=(
                f"no obstruction found: degree {degree} is below the largest "
                f"generator weight {p.max_weight}, so the series settles nothing"
            ),
        )
    exponents = factor_series(hilbert_series(p, degree))
    if set(exponents.support()) <= {1} and not is_commutative(p):
        d = exponents.n(1)
        return ObstructionReport(
            code="polynomial-series",
            message=(
                f"no Hopf structure: series is (1-t)^-{d}, which forces a commutative "
                "polynomial ring, but the presentation is noncommutative"
            ),
            detail=f"exponents {tuple(exponents)}",
        )
    return ObstructionReport(code="none", message="no obstruction found")


def associated_graded(p):
    """Presentation of the associated graded algebra.

    Tail monomials of weight strictly below their head are dropped; for
    already weight-graded presentations the result is the presentation
    itself (coproduct included), so the operation is idempotent.  A tail
    above its head would leave nothing well defined and raises
    TailAboveHead, though validated presentations cannot reach it.
    """
    if p.is_graded:
        return p
    relations = {}
    names = p.alphabet.names
    for (hi, lo), rel in p.relations.items():
        head_weight = p.word_weight((hi, lo))
        tail = {}
        for word, coeff in rel.tail.items():
            tw = p.word_weight(word)
            if tw > head_weight:
                raise TailAboveHead(
                    f"tail word {p.alphabet.render_word(word)} outweighs head "
                    f"{names[hi]} {names[lo]}"
                )
            if tw == head_weight:
                tail[word] = coeff
        if rel.q != 1 or tail:
            relations[(hi, lo)] = (rel.q, tail)
    gr_name = f"gr({p.name})" if p.name else None
    return Presentation(
        p.alphabet,
        relations=relations,
        coproduct=None,
        name=gr_name,
    )
