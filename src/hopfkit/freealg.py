"""Free associative algebra over the rationals with weighted generators.

Words are tuples of generator indices, elements are finite maps from words
to nonzero rational coefficients.  Everything is exact: coefficients are
`fractions.Fraction` values and floats are rejected outright.

The canonical order on words is (total weight, then lexicographic by
generator index, a proper prefix counting as smaller); all rendering and
iteration follows it, so printed output is reproducible byte for byte.

The linear-combination core lives here too: `_LinearCombination` holds
the terms and their owner and implements the clean-up constructor, sums,
differences, negation, scalar multiples, equality, canonical ordering and
printing once, for free elements, PBW elements (`pbw`) and tensors
(`hopf`) alike.  `render_terms` is the one signed-sum printer, used for
display and for the file format.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction

from .errors import AlphabetMismatch, BudgetExceeded, InvalidSetting

Word = tuple

DEFAULT_MAX_TERMS = 10_000_000
_BUDGET_SCOPE = ContextVar("hopfkit_budget_scope", default=None)


def term_budget():
    """HOPFKIT_MAX_TERMS, or DEFAULT_MAX_TERMS when it is unset.

    Outside a _one_budget scope every call reads the environment.  Inside
    one, the first call reads it and every later call returns that value,
    so a command reads the variable once however many builds it drives.
    A malformed value raises InvalidSetting at each read that meets it.
    """
    scope = _BUDGET_SCOPE.get()
    if scope is None:
        return _read_budget()
    if not scope:
        scope.append(_read_budget())
    return scope[0]


@contextmanager
def _one_budget():
    """A scope in which term_budget reads the environment once; nested, it does nothing."""
    if _BUDGET_SCOPE.get() is not None:
        yield
        return
    token = _BUDGET_SCOPE.set([])
    try:
        yield
    finally:
        _BUDGET_SCOPE.reset(token)


def _read_budget():
    raw = os.environ.get("HOPFKIT_MAX_TERMS")
    if raw is None:
        return DEFAULT_MAX_TERMS
    try:
        budget = int(raw)
    except ValueError:
        budget = 0
    if budget < 1:
        raise InvalidSetting(f"HOPFKIT_MAX_TERMS must be an integer >= 1, got {raw!r}")
    return budget


def over_budget(count, budget):
    """The error for an expression of count terms against the budget."""
    return BudgetExceeded(
        f"intermediate expression has {count} terms, budget is {budget} "
        "(raise HOPFKIT_MAX_TERMS to override)"
    )


def check_budget(count):
    budget = term_budget()
    if count > budget:
        raise over_budget(count, budget)


class _Memo(dict):
    """memo[key] is build(key), built on first use."""

    __slots__ = ("build",)

    def __init__(self, build):
        super().__init__()
        self.build = build

    def __missing__(self, key):
        hit = self[key] = self.build(key)
        return hit


def _acc(store, key, coeff):
    """Add a nonzero coeff to store[key] in place, dropping the key on cancellation."""
    old = store.get(key)
    if old is None:
        store[key] = coeff
    elif new := old + coeff:
        store[key] = new
    else:
        del store[key]


def as_coeff(value):
    """Coerce to an exact rational; floats are forbidden everywhere."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"exact rational required, got {type(value).__name__}")


@dataclass(frozen=True)
class Generator:
    index: int
    name: str
    weight: int


class Alphabet:
    """Ordered list of named generators with positive integer weights."""

    def __init__(self, generators):
        gens = []
        seen = set()
        for i, (name, weight) in enumerate(generators):
            if not isinstance(name, str) or not name:
                raise ValueError("generator names must be nonempty strings")
            if name in seen:
                raise ValueError(f"duplicate generator name {name!r}")
            if not isinstance(weight, int) or isinstance(weight, bool) or weight < 1:
                raise ValueError(f"generator {name!r} needs integer weight >= 1")
            seen.add(name)
            gens.append(Generator(i, name, weight))
        if not gens:
            raise ValueError("alphabet needs at least one generator")
        self.generators = tuple(gens)
        self.names = tuple(g.name for g in gens)
        self.weights = tuple(g.weight for g in gens)
        self._by_name = {g.name: g.index for g in gens}

    def __len__(self):
        return len(self.generators)

    def __eq__(self, other):
        return (
            isinstance(other, Alphabet)
            and self.names == other.names
            and self.weights == other.weights
        )

    def __hash__(self):
        return hash((self.names, self.weights))

    def __repr__(self):
        body = " ".join(f"{g.name}:{g.weight}" for g in self.generators)
        return f"Alphabet({body})"

    def index_of(self, name):
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"unknown generator {name!r}") from None

    def word_weight(self, word):
        weights = self.weights
        return sum(weights[i] for i in word)

    def word_key(self, word):
        """Canonical sort key: weight, then the letter sequence itself."""
        return (self.word_weight(word), word)

    def render_word(self, word, sep=""):
        """Generator names joined by sep, runs of a letter shown as powers.

        Display juxtaposes them ("ab^2"); the file format needs a space
        ("a b^2") so that multi-character names stay unambiguous.
        """
        if not word:
            return "1"
        parts = []
        run_letter, run_len = word[0], 1
        for letter in word[1:]:
            if letter == run_letter:
                run_len += 1
            else:
                parts.append(self._run(run_letter, run_len))
                run_letter, run_len = letter, 1
        parts.append(self._run(run_letter, run_len))
        return sep.join(parts)

    def _run(self, letter, count):
        name = self.names[letter]
        return name if count == 1 else f"{name}^{count}"


def render_terms(pairs, juxtapose=True):
    """Join (coefficient, rendered body) pairs into a signed sum.

    `pairs` must already be in canonical order; a body of "1" stands for
    the empty word.  An integer coefficient is written against its body
    ("2ab") when `juxtapose` is set, unless the body starts with "1" (an
    empty tensor leg); otherwise a space separates them, the spacing the
    file format parses back.  Returns "0" for an empty list.
    """
    if not pairs:
        return "0"
    chunks = []
    for coeff, text in pairs:
        negative = coeff < 0
        mag = -coeff if negative else coeff
        if text == "1":
            body = str(mag)
        elif mag == 1:
            body = text
        elif juxtapose and mag.denominator == 1 and not text.startswith("1"):
            body = f"{mag}{text}"
        else:
            body = f"{mag} {text}"
        if not chunks:
            chunks.append(f"-{body}" if negative else body)
        else:
            chunks.append(f" - {body}" if negative else f" + {body}")
    return "".join(chunks)


class _LinearCombination:
    """Finite rational linear combination of basis keys, the shared core.

    `terms` maps keys to nonzero Fractions, and `owner` is the alphabet or
    presentation the keys belong to; each subclass reads the owner slot
    under its public name.  Subclasses supply `_order` and `_show` (the
    canonical sort key and the rendering of one key), `_product`, and the
    `_mismatch` and `_repr` texts; they may override `_key` (clean-up of
    one key) and `_coerce` (which right operands + and - accept).
    """

    __slots__ = ("owner", "terms")

    def __init__(self, owner, terms=None):
        self.owner = owner
        clean = {}
        if terms:
            for key, coeff in terms.items():
                coeff = as_coeff(coeff)
                if coeff:
                    clean[self._key(key)] = coeff
        self.terms = clean

    @classmethod
    def _raw(cls, owner, terms):
        """Wrap an already clean {key: nonzero Fraction} map without copying."""
        out = cls.__new__(cls)
        out.owner = owner
        out.terms = terms
        return out

    @staticmethod
    def _key(key):
        return tuple(key)

    def _check(self, other):
        if self.owner is not other.owner and self.owner != other.owner:
            raise AlphabetMismatch(self._mismatch)

    def _coerce(self, other):
        """other as an element of this kind, or NotImplemented."""
        return other if isinstance(other, type(self)) else NotImplemented

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._check(other)
        terms = dict(self.terms)
        for key, coeff in other.terms.items():
            _acc(terms, key, coeff)
        return self._raw(self.owner, terms)

    def __neg__(self):
        return self._raw(self.owner, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, type(self)):
            self._check(other)
            return self._product(other)
        return self._scaled(as_coeff(other))

    def __rmul__(self, other):
        return self._scaled(as_coeff(other))

    def _scaled(self, coeff):
        if not coeff:
            return self._raw(self.owner, {})
        return self._raw(self.owner, {k: c * coeff for k, c in self.terms.items()})

    def __eq__(self, other):
        return (
            isinstance(other, type(self))
            and (self.owner is other.owner or self.owner == other.owner)
            and self.terms == other.terms
        )

    __hash__ = None

    def sorted_terms(self):
        order = self._order
        return sorted(self.terms.items(), key=lambda item: order(item[0]))

    def __str__(self):
        show = self._show
        return render_terms([(c, show(k)) for k, c in self.sorted_terms()])

    def __repr__(self):
        return self._repr.format(self)


class FreeElement(_LinearCombination):
    """Finite rational linear combination of words.

    Every letter must be an index of the alphabet: construction and the
    operands of sums and products are checked, and a stray letter raises
    AlphabetMismatch naming it.  `_raw` stays unchecked.
    """

    __slots__ = ()
    alphabet = _LinearCombination.owner
    _mismatch = "elements live over different alphabets"
    _repr = "<free {}>"

    def __init__(self, alphabet, terms=None):
        super().__init__(alphabet, terms)

    def _key(self, word):
        word = tuple(word)
        letters = range(len(self.alphabet))
        for letter in word:
            if letter not in letters:
                raise AlphabetMismatch(f"letter {letter!r} of {word!r} is not a generator")
        return word

    def _check(self, other):
        super()._check(other)
        for word in (*self.terms, *other.terms):
            self._key(word)

    @classmethod
    def zero(cls, alphabet):
        return cls(alphabet)

    @classmethod
    def one(cls, alphabet):
        return cls(alphabet, {(): Fraction(1)})

    @classmethod
    def letter(cls, alphabet, index):
        return cls(alphabet, {(index,): Fraction(1)})

    @classmethod
    def from_word(cls, alphabet, word, coeff=1):
        return cls(alphabet, {tuple(word): as_coeff(coeff)})

    def constant_term(self):
        return self.terms.get((), Fraction(0))

    def _product(self, other):
        terms = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                _acc(terms, w1 + w2, c1 * c2)
        check_budget(len(terms))
        return self._raw(self.alphabet, terms)

    def _order(self, word):
        return self.alphabet.word_key(word)

    def _show(self, word):
        return self.alphabet.render_word(word)


def word_weight(alphabet, word):
    """Total weight of a word under the alphabet's weight function."""
    return alphabet.word_weight(word)


def free_add(x, y):
    """Sum of two free elements over the same alphabet."""
    return x + y


def free_mul(x, y):
    """Concatenation product, extended bilinearly."""
    if not isinstance(y, FreeElement):
        raise TypeError("free_mul needs two free elements")
    return x * y
