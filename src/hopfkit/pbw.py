"""Finitely presented algebras of PBW type.

A presentation fixes an ordered alphabet of weighted generators and, for
every pair j > i, a straightening rule

    g_j g_i  ->  q * g_i g_j  +  tail

with q a nonzero rational and tail a combination of ordered monomials.
Pairs without an explicit rule commute.  Normal forms are computed by
rewriting the largest live word, popped from an integer-keyed heap, and
validation certifies termination before any rewriting is attempted.
Each monomial gets an integer id on first sight, and products of basis
monomials are read from one table by id pairs, closed forms included; in
a confluent presentation each tailed entry is built from smaller ones,
products of monomials by generators among them (see Presentation._entry).

Termination certificate.  Rewriting must strictly decrease every produced
word in some monomial order.  Weight alone is not enough when a tail keeps
the head's weight (the enveloping-algebra examples here do exactly that),
and plain weight-then-lex fails too: a single-letter tail can be
lex-larger than its two-letter head while a three-letter tail elsewhere
must be lex-smaller, and no letter order fixes both at once.  Validation
therefore searches for an auxiliary positive weight vector psi and uses
the order

    (weight, psi-weight, length, lexicographic by index).

All four components are compatible with concatenation, so each rewrite
step strictly decreases the multiset of term words and straightening
terminates.

The conditions on psi are linear: each equal-weight tail asks that the
head's psi-weight exceed the tail's, or merely reach it when the (length,
lex) tie-break already puts the tail below.  Whether some psi >= 1 meets
them all is decided exactly, by a phase-1 simplex over Fraction, so a
valid presentation is never refused because a search gave up.  A rational
solution scales to an integer one, and psi is the canonical integer
certificate: the smallest largest entry, then the lexicographically first.
When the system is infeasible the presentation is rejected with
TailNotSmaller; systems such as yx -> xy + yy - xx, where rewriting
genuinely cycles, are refused this way.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from heapq import heapify, heappop, heappush
from itertools import combinations
from operator import add, itemgetter

from .errors import (
    AlphabetMismatch,
    InvalidCoproduct,
    NotConfluent,
    TailNotNormal,
    TailNotSmaller,
    ZeroQ,
)
from .freealg import (
    Alphabet,
    FreeElement,
    _LinearCombination,
    _Memo,
    _acc,
    as_coeff,
    check_budget,
    over_budget,
    term_budget,
)

Monomial = tuple

_ONE = Fraction(1)

# bits per letter of a monomial's exponent code; a monomial with an exponent at or
# above half a field gets no code, so a sum of two codes never carries into a letter
_FIELD = 32

_DEBUG_ORDER = False  # set to check the rewrite order at every step


def _integral(c):
    """c as an int when it is integral, else unchanged."""
    return c.numerator if c.denominator == 1 else c


class _Row(dict):
    """Row a of the product table of pres(): row[b] is NF(m_a m_b), see _entry.

    A missing entry is its closed form (Presentation._closed) when no tail
    crosses the pair, and is built by _entry otherwise.  The presentation
    is held weakly, so its table makes no reference cycle.
    """

    __slots__ = ("pres", "a")

    def __init__(self, pres, a):
        self.pres, self.a = pres, a

    def __missing__(self, b):
        p, a = self.pres(), self.a
        hit = self[b] = p._closed(a, b) or p._entry(a, b)
        return hit


def _last_letter(pres, i):
    """(k, id of m / x_k, id of x_k), x_k the last letter of monomial i; held as in _row."""
    p = pres()
    m = p._monos[i]
    k = max(j for j, e in enumerate(m) if e)
    return k, p._number(m[:k] + (m[k] - 1,) + m[k + 1:]), p._unit(k)


def _relation_ids(pres, pair):
    """q of the relation pair of pres() and its tail words as (id, coeff) pairs, held as in _row."""
    p = pres()
    rel, n = p.relations[pair], len(p.alphabet)
    return _integral(rel.q), tuple((p._number(_word_to_monomial(word, n)), _integral(coeff))
                                   for word, coeff in rel.tail_items)


def _scaled(c, num, den):
    """c * num / den for an int or Fraction c, as an int where it is integral."""
    return _integral(Fraction(c.numerator * num, c.denominator * den))


def _is_ordered(word):
    return all(word[i] <= word[i + 1] for i in range(len(word) - 1))


def _word_code(word, n):
    """The word read as an integer in base n, most significant letter first."""
    code = 0
    for letter in word:
        code = code * n + letter
    return code


def _word_to_monomial(word, size):
    expo = [0] * size
    for letter in word:
        expo[letter] += 1
    return tuple(expo)


def _psi_rows(constraints, n):
    """One linear row (a, r) per equal-weight tail: psi certifies it iff a.psi >= r.

    a counts the head letters minus the tail letters.  r is 1 when the
    (length, word) tie-break does not already put the tail below the head,
    so its psi-weight must drop, and 0 when a tie in psi-weight suffices.
    """
    rows = {}
    for (hi, lo), word in constraints:
        a = [0] * n
        a[hi] += 1
        a[lo] += 1
        for letter in word:
            a[letter] -= 1
        rows[(tuple(a), 0 if (len(word), word) < (2, (hi, lo)) else 1)] = None
    return list(rows)


def _lp_feasible(rows, n):
    """Whether some real psi >= 1 satisfies a.psi >= r for every row (a, r).

    Phase 1 of the simplex method, exact over Fraction.  With psi = 1 + x,
    row i reads a.x - s_i = r - sum(a) with x, s >= 0; each row whose right
    side is positive also gets an artificial variable, and the system is
    feasible iff their sum can be driven to zero.  Bland's rule (smallest
    entering column, ratio ties to the smallest basic column) rules out
    cycling, so the loop ends (Bland, Math. Oper. Res. 2, 1977).
    """
    m = len(rows)
    artificial = n + m
    width = artificial + sum(1 for a, r in rows if r > sum(a))
    tableau, basis = [], []
    for i, (a, r) in enumerate(rows):
        line = [Fraction(c) for c in a] + [Fraction(0)] * (width - n) + [Fraction(r - sum(a))]
        line[n + i] = Fraction(-1)
        if line[-1] > 0:
            line[artificial] = _ONE
            basis.append(artificial)
            artificial += 1
        else:
            line = [-v for v in line]
            basis.append(n + i)
        tableau.append(line)
    # reduced costs of "minimise the sum of the artificials"; cost[-1] is minus that sum
    cost = [Fraction(0)] * (width + 1)
    for line, b in zip(tableau, basis):
        if b >= n + m:
            cost = [c - v for c, v in zip(cost, line)]
    cost[n + m:width] = [Fraction(0)] * (width - n - m)
    while True:
        enter = next((j for j in range(width) if cost[j] < 0), None)
        if enter is None:
            return cost[-1] == 0
        # the sum of the artificials is bounded below, so some entry is positive
        _, _, row = min(
            (line[-1] / line[enter], basis[i], i)
            for i, line in enumerate(tableau)
            if line[enter] > 0
        )
        pivot = tableau[row][enter]
        pivot_line = tableau[row] = [v / pivot for v in tableau[row]]
        for i, line in enumerate(tableau):
            if i != row and line[enter]:
                f = line[enter]
                tableau[i] = [v - f * w for v, w in zip(line, pivot_line)]
        f = cost[enter]
        cost = [v - f * w for v, w in zip(cost, pivot_line)]
        basis[row] = enter


def _least_psi(rows, n):
    """The smallest-max, then lexicographically first integer psi >= 1 for rows.

    The rows must be feasible: a rational solution then scales to an
    integer one, so raising the bound from 2 ends.  Each bound is a
    depth-first search over the boxes [1, bound]; generators in no row stay
    at 1, the others are fixed left to right, smallest value first.  At
    every node each row shrinks the boxes to what it still allows with the
    other entries at their best ends, until nothing changes; a box left
    empty cuts the branch.  At a leaf every box is one value, which the
    tightening has checked against every row, so the first leaf reached
    is the answer.
    """
    free = [j for j in range(n) if any(a[j] for a, _ in rows)]

    def tighten(lo, hi):
        changed = True
        while changed:
            changed = False
            for a, r in rows:
                top = sum(c * (hi[j] if c > 0 else lo[j]) for j, c in enumerate(a) if c)
                if top < r:
                    return False
                for j, c in enumerate(a):
                    # the row still needs c * psi[j] >= r - (top without entry j)
                    if c > 0:
                        need = -((top - c * hi[j] - r) // c)
                        if need > lo[j]:
                            lo[j], changed = need, True
                    elif c < 0:
                        cap = (top - c * lo[j] - r) // -c
                        if cap < hi[j]:
                            hi[j], changed = cap, True
                    if lo[j] > hi[j]:
                        return False
        return True

    def descend(k, lo, hi):
        if not tighten(lo, hi):
            return None
        if k == len(free):
            return tuple(lo)
        j = free[k]
        for value in range(lo[j], hi[j] + 1):
            lo2, hi2 = lo[:], hi[:]
            lo2[j] = hi2[j] = value
            found = descend(k + 1, lo2, hi2)
            if found:
                return found
        return None

    bound = 1
    while True:
        bound += 1
        found = descend(0, [1] * n, [bound if j in free else 1 for j in range(n)])
        if found:
            return found


@dataclass(frozen=True)
class Relation:
    """Straightening rule g_hi g_lo -> q g_lo g_hi + tail."""

    hi: int
    lo: int
    q: Fraction
    tail: dict = field(compare=False)
    tail_items: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "tail_items", tuple(sorted(self.tail.items())))

    def __eq__(self, other):
        return (
            isinstance(other, Relation)
            and (self.hi, self.lo, self.q) == (other.hi, other.lo, other.q)
            and self.tail_items == other.tail_items
        )

    def is_default(self):
        return self.q == 1 and not self.tail


@dataclass(frozen=True)
class ValidationReport:
    graded: bool
    psi: tuple
    relation_count: int
    nontrivial_relations: int
    messages: tuple

    @property
    def classification(self):
        return "weight-graded" if self.graded else "filtered"


@dataclass
class ConfluenceReport:
    triples_checked: int
    residuals: list  # [(triple names, PBWElement)] for failing triples

    @property
    def ok(self):
        return not self.residuals


class Presentation:
    """Validated PBW-type presentation, optionally with coproduct data.

    generators: iterable of (name, weight) pairs, in presentation order.
    relations: mapping (hi, lo) -> (q, tail); hi and lo may be names or
        indices with hi later than lo, and tail maps words (tuples of
        letter indices, which must be ordered) to rational coefficients.
    coproduct: None to leave the algebra bare, otherwise a mapping
        gen -> {(left word, right word): coefficient} giving the reduced
        coproduct of each non-primitive generator.
    """

    def __init__(self, generators, relations=None, coproduct=None, name=None):
        self.alphabet = generators if isinstance(generators, Alphabet) else Alphabet(generators)
        self.name = name
        self.relations = self._build_relations(relations or {})
        self.validation = self._validate()
        self.psi = self.validation.psi
        self.is_graded = self.validation.graded
        self.delta = self._build_coproduct(coproduct)
        self._confluence = None
        n = len(self.alphabet)
        # monomial ids: the empty monomial is 0, every other one numbered on first sight
        self._monos = [(0,) * n]  # id -> monomial
        self._ids = {self._monos[0]: 0}  # monomial -> id
        self._unit_ids = [None] * n  # generator -> id of its monomial, numbered on first use
        # per id, for _closed: its exponent code (_FIELD bits per letter, or _wide when an
        # exponent reaches half a field), its letter mask, and its blocked mask, the letters
        # lo of the tailed relations (hi, lo) with hi in it; _by_code maps codes back to ids
        self._codes, self._masks, self._blocked, self._by_code = [0], [0], [0], {0: 0}
        self._wide = -1 << (_FIELD * n)
        self._tails_below = [0] * n  # hi -> the mask of every lo of a tailed relation (hi, lo)
        for (hi, lo), rel in self.relations.items():
            if rel.tail:
                self._tails_below[hi] |= 1 << lo
        ref = weakref.ref(self)
        self._table = _Memo(partial(_Row, ref))  # _table[a][b], see _entry
        self._lasts = _Memo(partial(_last_letter, ref))  # id -> (k, id of m/x_k, id of x_k)
        self._relation_ids = _Memo(partial(_relation_ids, ref))  # (hi, lo) -> q, tail ids
        self._ones = {}  # id -> its closed-form entry ((id, 1),), shared by every pair giving it
        self._shared = {}  # each distinct built entry's one tuple, keyed by itself
        self._hopf_machine = None  # hopf._machine(self): coproducts by monomial id
        self._skew_pairs = tuple(
            (hi, lo, rel.q) for (hi, lo), rel in sorted(self.relations.items()) if rel.q != 1
        )
        # at hi * n + lo, per pair: q as (numerator, denominator), None for q = 1, and per
        # tail word its int-where-integral coefficient, drops below the head, code and n^len
        key, self._rewrites = self.rewrite_key, [None] * (n * n)
        for (hi, lo), rel in self.relations.items():
            q = None if rel.q == 1 else (rel.q.numerator, rel.q.denominator)
            self._rewrites[hi * n + lo] = (q, tuple(
                (word, _integral(coeff), *(h - t for h, t in zip(key((hi, lo))[:3], key(word))),
                 _word_code(word, n), n ** len(word))
                for word, coeff in rel.tail.items()
            ))

    # ----- construction helpers -------------------------------------

    def _resolve_gen(self, g):
        if isinstance(g, str):
            return self.alphabet.index_of(g)
        if isinstance(g, int) and 0 <= g < len(self.alphabet):
            return g
        raise KeyError(f"unknown generator {g!r}")

    def _build_relations(self, given):
        n = len(self.alphabet)
        rels = {}
        for pair, (q, tail) in given.items():
            hi, lo = (self._resolve_gen(pair[0]), self._resolve_gen(pair[1]))
            if hi <= lo:
                raise ValueError(
                    f"relation pair must name the later generator first, got "
                    f"({self.alphabet.names[hi]}, {self.alphabet.names[lo]})"
                )
            if (hi, lo) in rels:
                raise ValueError(f"duplicate relation for pair ({hi}, {lo})")
            q = as_coeff(q)
            if q == 0:
                raise ZeroQ(
                    f"relation {self.alphabet.names[hi]} {self.alphabet.names[lo]} has q = 0"
                )
            clean = {}
            for word, coeff in tail.items():
                word = tuple(word)
                coeff = as_coeff(coeff)
                if not coeff:
                    continue
                for letter in word:
                    if not (0 <= letter < n):
                        raise KeyError(f"tail letter {letter} out of range")
                if not _is_ordered(word):
                    raise TailNotNormal(
                        f"tail word {self.alphabet.render_word(word)} of relation "
                        f"{self.alphabet.names[hi]} {self.alphabet.names[lo]} is not an "
                        "ordered monomial"
                    )
                _acc(clean, word, coeff)
            rels[(hi, lo)] = Relation(hi, lo, q, clean)
        # total relation map: unspecified pairs commute
        for hi in range(n):
            for lo in range(hi):
                rels.setdefault((hi, lo), Relation(hi, lo, Fraction(1), {}))
        return rels

    def _validate(self):
        names = self.alphabet.names
        ww = self.alphabet.word_weight
        graded = True
        messages = []
        # (head psi-vector is psi[hi] + psi[lo]; constraint rows collect the
        #  equal-weight tails that the psi search must dominate)
        constraints = []
        nontrivial = 0
        for (hi, lo), rel in sorted(self.relations.items()):
            if not rel.is_default():
                nontrivial += 1
            head_weight = ww((hi, lo))
            for word in rel.tail:
                tw = ww(word)
                if tw > head_weight:
                    raise TailNotSmaller(
                        f"tail word {self.alphabet.render_word(word)} of relation "
                        f"{names[hi]} {names[lo]} has weight {tw} above head weight {head_weight}"
                    )
                if tw < head_weight:
                    graded = False
                else:
                    constraints.append(((hi, lo), word))
        psi = self._find_psi(constraints)
        if psi is None:
            raise TailNotSmaller(
                "no termination certificate: no positive auxiliary weight vector "
                "puts every equal-weight tail below its head"
            )
        label = "weight-graded" if graded else "filtered"
        messages.append(f"presentation is {label}")
        if constraints:
            messages.append(f"termination certified with auxiliary weights {psi}")
        return ValidationReport(
            graded=graded,
            psi=psi,
            relation_count=len(self.relations),
            nontrivial_relations=nontrivial,
            messages=tuple(messages),
        )

    def _find_psi(self, constraints):
        """The canonical certificate, or None when no psi >= 1 exists.

        Among integer certificates this is the one with the smallest largest
        entry, then the lexicographically first: exactly what trying the
        vectors of [1, bound]^n in order, for bound = 1, 2, ..., would find.
        """
        n = len(self.alphabet)
        rows = _psi_rows(constraints, n)
        if all(sum(a) >= r for a, r in rows):
            return (1,) * n
        if not _lp_feasible(rows, n):
            return None
        return _least_psi(rows, n)

    def _build_coproduct(self, given):
        if given is None:
            return None
        names = self.alphabet.names
        ww = self.alphabet.word_weight
        n = len(self.alphabet)
        delta = {}
        for g, terms in given.items():
            gi = self._resolve_gen(g)
            gw = self.alphabet.weights[gi]
            clean = {}
            for (left, right), coeff in terms.items():
                coeff = as_coeff(coeff)
                if not coeff:
                    continue
                left, right = tuple(left), tuple(right)
                for side, word in (("left", left), ("right", right)):
                    if not word:
                        raise InvalidCoproduct(
                            f"delta({names[gi]}) has a constant {side} factor; reduced "
                            "coproduct factors must sit in the augmentation ideal"
                        )
                    if not _is_ordered(word):
                        raise InvalidCoproduct(
                            f"delta({names[gi]}) {side} factor "
                            f"{self.alphabet.render_word(word)} is not an ordered monomial"
                        )
                    if ww(word) >= gw:
                        raise InvalidCoproduct(
                            f"delta({names[gi]}) {side} factor "
                            f"{self.alphabet.render_word(word)} has weight >= weight({names[gi]})"
                        )
                if ww(left) + ww(right) > gw:
                    raise InvalidCoproduct(
                        f"delta({names[gi]}) term exceeds the weight of {names[gi]}"
                    )
                key = (_word_to_monomial(left, n), _word_to_monomial(right, n))
                _acc(clean, key, coeff)
            if clean:
                delta[gi] = clean
        return delta

    # ----- basic structure ------------------------------------------

    @property
    def has_coproduct(self):
        return self.delta is not None

    @property
    def max_weight(self):
        return max(self.alphabet.weights)

    @property
    def default_window(self):
        """The weight window used when none is given: 2 * max weight + 2."""
        return 2 * self.max_weight + 2

    def __eq__(self, other):
        return (
            isinstance(other, Presentation)
            and self.alphabet == other.alphabet
            and self.relations == other.relations
            and self.delta == other.delta
        )

    __hash__ = None

    def __repr__(self):
        label = self.name or "presentation"
        return f"<{label}: {len(self.alphabet)} generators, {self.validation.classification}>"

    def word_weight(self, word):
        return self.alphabet.word_weight(word)

    def mono_weight(self, mono):
        weights = self.alphabet.weights
        return sum(e * weights[i] for i, e in enumerate(mono))

    def mono_degree(self, mono):
        return sum(mono)

    def mono_word(self, mono):
        word = []
        for i, e in enumerate(mono):
            word.extend([i] * e)
        return tuple(word)

    def mono_key(self, mono):
        return (self.mono_weight(mono), self.mono_word(mono))

    def render_mono(self, mono):
        return self.alphabet.render_word(self.mono_word(mono))

    # ----- elements ---------------------------------------------------

    def zero(self):
        return PBWElement(self, {})

    def one(self, coeff=1):
        return self.scalar(coeff)

    def scalar(self, coeff):
        coeff = as_coeff(coeff)
        empty = (0,) * len(self.alphabet)
        return PBWElement(self, {empty: coeff} if coeff else {})

    def gen(self, g):
        gi = self._resolve_gen(g)
        mono = [0] * len(self.alphabet)
        mono[gi] = 1
        return PBWElement(self, {tuple(mono): Fraction(1)})

    def element(self, terms):
        """Build an element from {monomial exponents: coefficient}."""
        return PBWElement(self, {tuple(m): as_coeff(c) for m, c in terms.items()})

    # ----- rewriting ---------------------------------------------------

    def rewrite_key(self, word):
        """The rewrite order, the reference for the _DEBUG_ORDER checks."""
        weight = self.alphabet.word_weight(word)
        return weight, sum(self.psi[letter] for letter in word), len(word), word

    def normal_form(self, x):
        """Straighten to the ordered-monomial basis.

        Accepts a FreeElement over the same alphabet, a PBWElement over
        this presentation, or a plain {word: coefficient} map; a letter
        outside the alphabet raises AlphabetMismatch.  Rewrites the largest
        live word under rewrite_key (leftmost misordered pair first) until
        none remains.  The term budget is read once per call.

        Live words wait in a binary heap of entries (-weight, -psi-weight,
        -length, -code, word, hint), code being the word read in base n: on
        equal lengths codes order as the words do, so the heap pops the
        largest word.  Produced entries come from the parent's: a swap of
        hi > lo (its rewrite at hi * n + lo of one flat list) lowers only the
        code, by (hi - lo)(n - 1) n^|suffix|, from a list of powers grown
        with the words; a tail word adds its relation's drops and splices
        its code between prefix and suffix.  A word is pushed when it enters
        the live map; a popped entry whose word is gone is skipped.  Every
        rewrite lowers the key, so a popped word never comes back.

        The hint is where the scan for the leftmost descent may start: 0
        for an input word, pos - 1 (or 0) for one that a tail or a swap
        makes at the descent pos, as the letters before pos are ordered.
        The descent is the word's own, so any producer's hint bounds it; a
        word merged into a live one leaves that one's hint.  Equal codes at
        equal lengths mean equal words, so the hint decides between two
        entries of one word only, and either pops to the same rewrites.

        A popped word stays in a list and is rewritten in place while the
        heap would pop it next.  A swap keeps weight, psi-weight and length
        and lowers the code, so while no entry shares those three
        (heap[0] >= below) the swapped word is not live and its entry is
        the least.  Else the swap is contested; the top, at least the popped
        entry, shares all three, and a live swapped word has an entry at
        least the top, so the word is pushed or merged iff the top's code
        is above its own, or equal (the same word) with the word live; only
        those cases build its tuple.  Each in-place step is thus the heap's
        own next pop, so for any presentation, confluent or not, the terms
        come out in the same order, and BudgetExceeded at the same count,
        the held word counted as live.  The budget is checked after the
        first swap of a popped word and after every swap that pushes or
        merges a word; a held swap with no tail changes no count since the
        check before it, so it skips the check.

        Inside, a coefficient is an int wherever it is integral: the input's
        and the relations' tails pass through _integral, so does each
        popped coefficient that is no int, and the result's are turned back
        into Fractions at the end, so public values stay Fractions.  A held
        run does not multiply its coefficient by q at each swap: it gathers
        the swaps' q's as one numerator qn and one denominator qd, and
        multiplies them in, once, just before the coefficient is read: when
        the ordered word goes to the result, when a tail term is formed
        (after which qn = qd = 1 again), and when the swapped word is pushed
        or merged.
        """
        if isinstance(x, PBWElement):
            if x.pres is not self and x.pres != self:
                raise AlphabetMismatch("element belongs to a different presentation")
            return x
        if isinstance(x, FreeElement):
            if x.alphabet != self.alphabet:
                raise AlphabetMismatch("element lives over a different alphabet")
            work = {word: _integral(coeff) for word, coeff in x.terms.items()}
        else:
            work = {}
            for word, coeff in x.items():
                coeff = as_coeff(coeff)
                if coeff:
                    _acc(work, tuple(word), _integral(coeff))
        return PBWElement._raw(self, {m: Fraction(c) for m, c in self._straighten(work).items()})

    def _straighten(self, work):
        """The loop of normal_form on a {word: coeff} map, which it consumes.

        Returns {monomial: coeff}, a coefficient an int or a Fraction.  A
        tail term's coefficient, the held one times the tail's, is stored
        as an int when it is integral, so a word made by c^3 / 3 from 3 w
        is rewritten on ints; where both factors are ints no Fraction is
        touched; a popped sum of Fractions is an int if it is integral.
        """
        n, weights, psi = len(self.alphabet), self.alphabet.weights, self.psi
        letters, heap = range(n), []
        for word in work:
            for letter in word:
                if not isinstance(letter, int) or letter not in letters:
                    raise AlphabetMismatch(f"letter {letter!r} of {word!r} is not a generator")
            heap.append((-sum(weights[g] for g in word), -sum(psi[g] for g in word),
                         -len(word), -_word_code(word, n), word, 0))
        heapify(heap)
        rewrites, out, powers = self._rewrites, {}, [1]
        budget = term_budget()
        while heap:
            kw, kpsi, klen, kcode, word, start = entry = heappop(heap)
            coeff = work.pop(word, None)
            if coeff is None:
                continue
            coeff = coeff if type(coeff) is int else _integral(coeff)
            if _DEBUG_ORDER:
                key = self.rewrite_key(word)
                assert entry[:5] == (-key[0], -key[1], -key[2], -_word_code(word, n), word)
                assert _is_ordered(word[:start + 1])
            w, size, below = list(word), len(word), (kw, kpsi, klen + 1)
            while len(powers) <= size:
                powers.append(powers[-1] * n)
            first, qn, qd = True, 1, 1  # coeff * qn / qd is the held word's coefficient
            while True:
                for pos in range(start, size - 1):
                    if w[pos] > w[pos + 1]:
                        break
                else:
                    _acc(out, _word_to_monomial(w, n), _scaled(coeff, qn, qd) if qn != qd else coeff)
                    break
                hi, lo = w[pos], w[pos + 1]
                q, tails = rewrites[hi * n + lo]
                shift = powers[size - pos - 2]
                if tails:
                    if qn != qd:
                        coeff, qn, qd = _scaled(coeff, qn, qd), 1, 1
                    prefix, suffix = tuple(w[:pos]), tuple(w[pos + 2:])
                    prefix_code, suffix_code = -kcode // powers[size - pos], -kcode % shift
                    hint = pos - 1 if pos else 0
                    for tail_word, tail_coeff, dw, dpsi, dlen, tcode, tscale in tails:
                        produced = prefix + tail_word + suffix
                        if _DEBUG_ORDER:
                            assert self.rewrite_key(produced) < key
                        if produced not in work:
                            code = (prefix_code * tscale + tcode) * shift + suffix_code
                            heappush(heap, (kw + dw, kpsi + dpsi, klen + dlen, -code, produced, hint))
                        product = coeff * tail_coeff
                        if type(product) is not int:  # a Fraction, perhaps integral
                            product = _integral(product)
                        _acc(work, produced, product)
                w[pos], w[pos + 1] = lo, hi
                kcode += (hi - lo) * (n - 1) * shift
                if q is not None:
                    qn *= q[0]
                    qd *= q[1]
                if _DEBUG_ORDER:  # the swap lowers the key, and the entry follows it
                    above, key = key, self.rewrite_key(tuple(w))
                    assert key < above
                    assert (kw, kpsi, klen, kcode) == (-key[0], -key[1], -key[2], -_word_code(w, n))
                held = True  # the swapped word is the heap's next pop, rewritten here
                if heap and (top := heap[0]) < below and top[3] <= kcode:  # contested, top no smaller
                    swapped = tuple(w)
                    if swapped in work or top[3] < kcode:
                        if swapped not in work:
                            heappush(heap, (kw, kpsi, klen, kcode, swapped, pos - 1 if pos else 0))
                        _acc(work, swapped, _scaled(coeff, qn, qd) if qn != qd else coeff)
                        held = False
                if first or tails or not held:
                    if len(work) + held + len(out) > budget:
                        raise over_budget(len(work) + held + len(out), budget)
                    first = False
                if not held:
                    break
                start = pos - 1 if pos and w[pos - 1] > lo else pos + 1
        return out

    def multiply(self, x, y):
        """Product of two elements of this algebra, in normal form.

        normal_form applies one fixed rewrite to each word, so it is
        linear: NF(sum c w) = sum c NF(w).  With x = sum c1 m1 and
        y = sum c2 m2 in normal form, the product is sum c1 c2 NF(m1 m2),
        read term by term from the product table by monomial id, exactly,
        for every presentation, confluent or not (see _entry).
        """
        x, y = self.normal_form(x), self.normal_form(y)
        number, monos = self._number, self._monos
        out = self._multiply_ids(
            [(number(m), c) for m, c in x.terms.items()], [(number(m), c) for m, c in y.terms.items()]
        )
        return PBWElement._raw(self, {monos[w]: c for w, c in out.items()})

    def _multiply_ids(self, xs, ys):
        """sum c d NF(m_a m_b) over the (id, coeff) pairs (a, c) of xs and (b, d) of ys.

        A {id: coeff} map of the nonzero terms, checked against the term budget.
        """
        table, out = self._table, {}
        for a, c in xs:
            row = table[a]
            for b, d in ys:
                cd = c * d
                for w, e in row[b]:
                    _acc(out, w, cd * e)
        check_budget(len(out))
        return out

    def mono_product(self, m1, m2):
        """Normal form of the product of two basis monomials, given as tuples.

        A fresh element read from the product table: its coefficients are
        Fractions and its monomials are the table's own tuples.
        """
        number, monos = self._number, self._monos
        pairs = self._table[number(m1)][number(m2)]
        return PBWElement._raw(self, {monos[w]: Fraction(c) for w, c in pairs})

    # ----- the product table, by monomial id ----------------------------

    def _number(self, mono):
        """The id of a monomial tuple, given on first sight; _monos maps it back.

        A new id gets its exponent code, letter mask and blocked mask (see
        __init__); a code is kept in _by_code only for a monomial whose
        exponents all lie below half a field, and any other monomial's code
        is _wide, which is negative by more than a code can be positive, so
        no sum with it is ever found there.
        """
        i = self._ids.get(mono)
        if i is None:
            i = self._ids[mono] = len(self._monos)
            self._monos.append(mono)
            code = mask = blocked = 0
            for k, e in enumerate(mono):
                if e:
                    code |= e << (_FIELD * k)
                    mask |= 1 << k
                    blocked |= self._tails_below[k]
            if max(mono) >> (_FIELD - 1):
                code = self._wide
            else:
                self._by_code[code] = i
            self._codes.append(code)
            self._masks.append(mask)
            self._blocked.append(blocked)
        return i

    def _unit(self, g):
        """The id of the monomial of generator g, numbered on first use."""
        if self._unit_ids[g] is None:
            self._unit_ids[g] = self._number(tuple(int(k == g) for k in range(len(self._unit_ids))))
        return self._unit_ids[g]

    def _entry(self, a, b):
        """The product table's entry _table[a][b]: NF(m_a m_b) as (id, coeff) pairs.

        The one place where a product of two basis monomials is
        straightened, on the entry's first read; a coefficient is an int
        where it is integral and a Fraction otherwise.  Equal entries
        share one tuple: many pairs have equal products, such as those
        that differ by where a central letter sits.

        Closed form: when no pair hi > lo with hi in m_a and lo in m_b has
        a relation with a tail, straightening only swaps letters, and each
        such inversion exactly once.  The product is then the single
        monomial m_a + m_b with coefficient prod q_{hi,lo}^(m_a[hi] m_b[lo])
        (_closed, read off the two ids' exponent codes); under q = 1 every
        such entry is the one shared tuple of its id.  A row of the table
        takes the closed form itself and calls _entry only for a pair that
        a tail crosses.

        A tailed pair of a confluent presentation is built by _steps as a
        sum over one smaller entry of this table, each term multiplied by
        one more entry, so an entry is stored once whichever product asked
        for it.  By Bergman's diamond lemma (Adv. Math. 29, 1978)
        confluence and the terminating rewrite order make the normal form
        of every word unique, whatever rewrites reach it, so
        NF(u v) = NF(NF(u) v) and the product built from smaller ones
        equals normal_form of the word m_a m_b.  A presentation whose
        confluence() is not ok has no such guarantee: there the pair is
        straightened by normal_form itself, whose fixed strategy the table
        need not follow.

        Building is iterative: each pair under construction is a suspended
        _steps generator on one explicit stack, which yields the id pair of
        an entry it lacks and is resumed with that entry's pairs.  Every
        pair it yields stands for a word below its own in the rewrite
        order (see _steps), so the stack is as deep as a descending chain
        of such words, not as Python's recursion limit allows.
        """
        closed = self._closed(a, b)
        if closed is not None:
            return closed
        shared = self._shared
        if not self.confluence().ok:
            m1, m2 = self._monos[a], self._monos[b]
            out = self._straighten({self.mono_word(m1) + self.mono_word(m2): 1})
            entry = tuple((self._number(m), _integral(c)) for m, c in out.items())
            return shared.setdefault(entry, entry)
        table, hit = self._table, None
        stack = [(a, b, self._steps(a, b))]
        while True:
            u, v, steps = stack[-1]
            try:
                need = steps.send(hit)
            except StopIteration as built:
                stack.pop()
                hit = shared.setdefault(built.value, built.value)
                if not stack:
                    return hit
                table[u][v] = hit
            else:
                stack.append((*need, self._steps(*need)))
                hit = None

    def _closed(self, a, b):
        """NF(m_a m_b) as its one-pair entry, or None when a tail crosses.

        Read off the two ids: a tail crosses iff a letter of m_b is blocked
        by m_a, and the product's id is that of the sum of their exponent
        codes, numbered from the sum of the tuples only when that code is
        new or wide.  An entry with coefficient 1 is its id's one shared
        tuple ((id, 1),).
        """
        if self._masks[b] & self._blocked[a]:
            return None
        coeff = 1
        if self._skew_pairs:
            m1, m2 = self._monos[a], self._monos[b]
            for hi, lo, q in self._skew_pairs:
                e = m1[hi] * m2[lo]
                if e:
                    coeff = _integral(coeff * q**e)
        i = self._by_code.get(self._codes[a] + self._codes[b])
        if i is None:
            i = self._number(tuple(map(add, self._monos[a], self._monos[b])))
        if coeff != 1:
            return ((i, coeff),)
        hit = self._ones.get(i)
        if hit is None:
            hit = self._ones[i] = ((i, 1),)
        return hit

    def _steps(self, a, b):
        """Build the entry (a, b) of a tailed pair from smaller entries; run by _entry.

        When m_b has several letters, x_l its last and m_b = b' x_l, the
        entry is the sum of the terms w of (a, b'), each multiplied by x_l
        through (w, e_l).  When m_b = x_g, a tail crosses only below the
        last letter x_k of m_a, so k > g, and with m_a = m' x_k the relation
        x_k x_g = q x_g x_k + tail gives m_a x_g = q (m' x_g) x_k + m' tail:
        the terms w of (m', e_g), each multiplied by x_k through (w, e_k),
        plus the terms of (m', t) for each tail word t, as they are (w 1 = w).
        Each pair is looked up in the table first, by get, which makes no
        row; a pair not stored is its closed form when no tail crosses it,
        taken in place and not stored, and is yielded otherwise.  The term
        budget is read once per call, so once per built entry outside a
        budget scope (freealg._one_budget) and once per scope inside one,
        and checked on the running sum after each read.

        Each yielded pair stands for a word below m_a m_b in the rewrite
        order, which appending a letter keeps.  (a, b') and (m', e_g) are
        shorter words; m' t lies below m' x_k x_g as t lies below x_k x_g.
        A term w of NF(u) lies at or below u, strictly when u is unordered.
        So w x_k lies at or below m' x_g x_k, which is below m_a x_g; and
        w x_l lies below m_a b' x_l = m_a m_b, since m_a b' is unordered
        even when (a, b') is a closed form: the letter of m_a that a tail
        crosses lies above a letter of m_b, so above m_b's least letter,
        which b' keeps.
        """
        closed, table, lasts, no_row, budget = (
            self._closed, self._table, self._lasts, {}, term_budget())
        # each read (u, v, scale, r): the terms w of (u, v) times scale, each through (w, r)
        g, v, r = lasts[b]
        if v:
            reads = [(a, v, 1, r)]
        else:  # m_b = x_g
            k, u, r = lasts[a]
            q, tails = self._relation_ids[k, g]
            reads = [(u, b, q, r)] + [(u, t, coeff, 0) for t, coeff in tails]  # id 0: the unit
        out = {}
        for u, v, scale, r in reads:
            pairs = table.get(u, no_row).get(v)
            if pairs is None:
                pairs = closed(u, v)
                if pairs is None:
                    pairs = yield u, v
            for w, c in pairs:
                c *= scale
                if not r:
                    _acc(out, w, c)
                else:
                    step = table.get(w, no_row).get(r)
                    if step is None:
                        step = closed(w, r)
                        if step is None:
                            step = yield w, r
                    for y, d in step:
                        _acc(out, y, c * d)
                if len(out) > budget:
                    raise over_budget(len(out), budget)
        if set(map(type, out.values())) - {int}:  # Fractions, some maybe integral
            return tuple((v, _integral(c)) for v, c in out.items())
        return tuple(out.items())

    def commutator(self, x, y):
        return self.multiply(x, y) - self.multiply(y, x)

    # ----- basis enumeration -------------------------------------------

    def enumerate_basis(self, max_weight):
        """All ordered monomials of weight <= max_weight, canonically sorted.

        The canonical order is mono_key's: weight, then the word.  Every
        generator weight is positive, so no word of a weight is a proper
        prefix of another word of that weight, and two words of one weight
        first differ where their exponent vectors do: the word with the
        larger exponent there holds that letter where the other holds a
        later one.  So within a weight the words rise as the exponent
        vectors fall, and the window is sorted in C, with no key per
        monomial: by exponent vector descending, then stably by weight.
        """
        if max_weight < 0:
            return []
        partial = [((), 0)]
        for gi, gw in enumerate(self.alphabet.weights):
            extended = []
            for mono, weight in partial:
                e = 0
                while weight + e * gw <= max_weight:
                    extended.append((mono + (e,), weight + e * gw))
                    e += 1
            partial = extended
        partial.sort(reverse=True)
        partial.sort(key=itemgetter(1))
        return [m for m, _ in partial]

    def basis_counts(self, max_weight):
        counts = [0] * (max_weight + 1)
        for mono in self.enumerate_basis(max_weight):
            counts[self.mono_weight(mono)] += 1
        return tuple(counts)

    # ----- confluence ---------------------------------------------------

    def confluence(self):
        """Resolve every overlap word g_k g_j g_i both ways and compare."""
        if self._confluence is not None:
            return self._confluence
        names = self.alphabet.names
        residuals = []
        count = 0
        for k, j, i in combinations(range(len(self.alphabet) - 1, -1, -1), 3):
            count += 1
            diff = self._straighten(self._one_step((k, j, i), 0))
            for m, c in self._straighten(self._one_step((k, j, i), 1)).items():
                _acc(diff, m, -c)
            if diff:
                diff = PBWElement._raw(self, {m: Fraction(c) for m, c in diff.items()})
                residuals.append(((names[k], names[j], names[i]), diff))
        self._confluence = ConfluenceReport(triples_checked=count, residuals=residuals)
        return self._confluence

    def _one_step(self, word, pos):
        hi, lo = word[pos], word[pos + 1]
        rel = self.relations[(hi, lo)]
        prefix, suffix = word[:pos], word[pos + 2:]
        terms = {prefix + (lo, hi) + suffix: _integral(rel.q)}
        for tail_word, coeff in rel.tail.items():
            _acc(terms, prefix + tail_word + suffix, _integral(coeff))
        return terms

    def require_confluent(self):
        report = self.confluence()
        if not report.ok:
            triple, diff = report.residuals[0]
            raise NotConfluent(
                f"overlap {' '.join(triple)} does not resolve; residual {diff}"
            )
        return report


class PBWElement(_LinearCombination):
    """Rational linear combination of ordered monomials of a presentation."""

    __slots__ = ()
    pres = _LinearCombination.owner
    _mismatch = "elements belong to different presentations"
    _repr = "<pbw {}>"

    def __init__(self, pres, terms=None):
        super().__init__(pres, terms)

    def constant_term(self):
        empty = (0,) * len(self.pres.alphabet)
        return self.terms.get(empty, Fraction(0))

    def max_weight(self):
        if not self.terms:
            return 0
        return max(self.pres.mono_weight(m) for m in self.terms)

    def augmentation_part(self):
        """The element with its constant term removed."""
        empty = (0,) * len(self.pres.alphabet)
        terms = {m: c for m, c in self.terms.items() if m != empty}
        return PBWElement(self.pres, terms)

    def _coerce(self, other):
        """Rational scalars add as multiples of the unit."""
        return other if isinstance(other, PBWElement) else self.pres.scalar(other)

    def __radd__(self, other):
        return self + other

    def _product(self, other):
        return self.pres.multiply(self, other)

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("powers must be nonnegative integers")
        result = self.pres.scalar(1)
        for _ in range(n):
            result = self.pres.multiply(result, self)
        return result

    def _order(self, mono):
        return self.pres.mono_key(mono)

    def _show(self, mono):
        return self.pres.render_mono(mono)


# ----- module-level operation surface ------------------------------------


def validate_presentation(p):
    """Validation report of a presentation (construction already enforces it)."""
    return p.validation


def normal_form(p, x):
    return p.normal_form(x)


def confluence_check(p):
    return p.confluence()


def commutator(p, x, y):
    return p.commutator(x, y)


def enumerate_basis(p, max_weight):
    return p.enumerate_basis(max_weight)
