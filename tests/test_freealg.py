"""Free-algebra layer: words, weights, exact arithmetic, rendering."""

import re
from fractions import Fraction

import pytest

from hopfkit import builtin
from hopfkit.errors import AlphabetMismatch, BudgetExceeded, InvalidSetting
from hopfkit.freealg import (
    Alphabet,
    FreeElement,
    _one_budget,
    as_coeff,
    free_add,
    free_mul,
    render_terms,
    term_budget,
    word_weight,
)


def make_alphabet():
    return Alphabet([("a", 1), ("b", 1), ("c", 2)])


def test_alphabet_basics():
    A = make_alphabet()
    assert len(A) == 3
    assert A.names == ("a", "b", "c")
    assert A.weights == (1, 1, 2)
    assert A.index_of("b") == 1
    with pytest.raises(KeyError):
        A.index_of("q")


def test_alphabet_rejects_bad_weights():
    with pytest.raises(ValueError):
        Alphabet([("a", 0)])
    with pytest.raises(ValueError):
        Alphabet([("a", -2)])
    with pytest.raises(ValueError):
        Alphabet([("a", 1), ("a", 2)])


def test_word_weight_and_key():
    A = make_alphabet()
    assert A.word_weight(()) == 0
    assert A.word_weight((0, 1)) == 2
    assert A.word_weight((2, 2, 0)) == 5
    assert word_weight(A, (2,)) == 2
    # weight first, then lexicographic, prefix counts as smaller
    assert A.word_key((2,)) < A.word_key((0, 2))
    assert A.word_key((0, 1)) < A.word_key((2,)) or A.word_key((2,)) < A.word_key((0, 1))
    words = [(2,), (0, 0), (0, 1), (1, 0), (1, 1), ()]
    ordered = sorted(words, key=A.word_key)
    assert ordered == [(), (0, 0), (0, 1), (1, 0), (1, 1), (2,)]


def test_render_word():
    A = make_alphabet()
    assert A.render_word(()) == "1"
    assert A.render_word((0,)) == "a"
    assert A.render_word((0, 0, 0)) == "a^3"
    assert A.render_word((0, 1, 1, 2)) == "ab^2c"
    assert A.render_word((2, 0, 2)) == "cac"


def test_render_terms_signs_and_coefficients():
    A = make_alphabet()
    # integer coefficients juxtapose, fractional coefficients get a space
    e = FreeElement(A, {(0,): Fraction(2), (1,): Fraction(-1), (): Fraction(1, 2)})
    assert str(e) == "1/2 + 2a - b"
    assert str(FreeElement(A, {(): Fraction(-3)})) == "-3"
    assert str(FreeElement(A, {(2,): Fraction(1, 3)})) == "1/3 c"
    assert str(FreeElement(A, {(2,): Fraction(-1, 3)})) == "-1/3 c"
    assert str(FreeElement.zero(A)) == "0"
    assert str(FreeElement.one(A)) == "1"
    pairs = [(Fraction(1), "x"), (Fraction(-2), "y")]
    assert render_terms(pairs) == "x - 2y"
    assert render_terms([]) == "0"


def test_as_coeff_rejects_floats():
    assert as_coeff(3) == Fraction(3)
    assert as_coeff(Fraction(1, 2)) == Fraction(1, 2)
    with pytest.raises(TypeError):
        as_coeff(0.5)


def test_free_element_arithmetic():
    A = make_alphabet()
    a = FreeElement.letter(A, 0)
    b = FreeElement.letter(A, 1)
    assert str(a + b) == "a + b"
    assert str(a - a) == "0"
    assert (a - a).is_zero()
    assert str(a * b) == "ab"
    assert str(b * a) == "ba"
    assert a * b != b * a
    assert str(2 * a) == "2a"
    assert str(a * Fraction(1, 2)) == "1/2 a"
    x = (a + b) * (a - b)
    assert str(x) == "a^2 - ab + ba - b^2"
    assert free_add(a, b) == a + b
    assert free_mul(a, b) == a * b


def test_free_element_constant_term():
    A = make_alphabet()
    a = FreeElement.letter(A, 0)
    e = a + FreeElement.one(A) * Fraction(5)
    assert e.constant_term() == Fraction(5)
    assert a.constant_term() == 0


def test_alphabet_mismatch():
    A = make_alphabet()
    B = Alphabet([("x", 1)])
    with pytest.raises(AlphabetMismatch):
        FreeElement.letter(A, 0) + FreeElement.letter(B, 0)


@pytest.mark.parametrize(
    "word",
    [(-1,), (3,), (0, 3), (1, -1), (0, "a")],
    ids=["negative", "past_end", "past_end_second", "negative_second", "not_an_index"],
)
def test_letters_outside_the_alphabet_rejected(word):
    A = make_alphabet()
    letter = word[-1]
    message = "^" + re.escape(f"letter {letter!r} of {word!r} is not a generator") + "$"
    a = FreeElement.letter(A, 0)
    with pytest.raises(AlphabetMismatch, match=message):
        FreeElement(A, {word: 1})
    with pytest.raises(AlphabetMismatch, match=message):
        FreeElement(A, {(0,): 1, word: 2})
    with pytest.raises(AlphabetMismatch, match=message):
        FreeElement.from_word(A, word)
    # sums and concatenations check both operands, raw-built ones too
    stray = FreeElement._raw(A, {word: Fraction(1)})
    for combine in (
        lambda: a + stray,
        lambda: stray + a,
        lambda: a - stray,
        lambda: free_add(a, stray),
        lambda: a * stray,
        lambda: stray * a,
        lambda: free_mul(a, stray),
    ):
        with pytest.raises(AlphabetMismatch, match=message):
            combine()


def test_letters_inside_the_alphabet_accepted():
    A = make_alphabet()
    x = FreeElement(A, {(2, 0, 1): 1, (): 3})
    assert str(x) == "3 + cab"
    assert str(x + FreeElement.letter(A, 2)) == "3 + c + cab"
    assert str(x * FreeElement.letter(A, 2)) == "3c + cabc"


def test_term_budget(monkeypatch):
    A = make_alphabet()
    monkeypatch.setenv("HOPFKIT_MAX_TERMS", "3")
    a = FreeElement.letter(A, 0)
    b = FreeElement.letter(A, 1)
    c = FreeElement.letter(A, 2)
    s = a + b + c
    with pytest.raises(BudgetExceeded):
        s * s  # nine distinct words, over the budget of three
    J = builtin("J")
    t = J.gen("a") + J.gen("b") + J.gen("c")
    with pytest.raises(BudgetExceeded):
        t * t  # seven ordered monomials, over the budget of three
    # normal_form reads the budget once per call: the same message, and a
    # changed budget takes effect on the next call
    word = {(5, 4, 3, 2, 1, 0): 1}  # d w z c b a, straightened through the tails
    with pytest.raises(
        BudgetExceeded,
        match=r"^intermediate expression has 4 terms, budget is 3 "
        r"\(raise HOPFKIT_MAX_TERMS to override\)$",
    ):
        J.normal_form(word)
    monkeypatch.setenv("HOPFKIT_MAX_TERMS", "4")
    assert len(J.normal_form(word).terms) == 4
    monkeypatch.setenv("HOPFKIT_MAX_TERMS", "3")
    with pytest.raises(BudgetExceeded):
        J.normal_form(word)
    monkeypatch.delenv("HOPFKIT_MAX_TERMS")
    assert len((s * s).terms) == 9
    assert len((t * t).terms) == 7


@pytest.mark.parametrize("value", ["abc", "0", "-5", "2.5", ""])
def test_malformed_term_budget_names_the_variable(monkeypatch, value):
    monkeypatch.setenv("HOPFKIT_MAX_TERMS", value)
    message = f"HOPFKIT_MAX_TERMS must be an integer >= 1, got {value!r}"
    with pytest.raises(InvalidSetting, match=f"^{re.escape(message)}$"):
        term_budget()
    J = builtin("J")
    with pytest.raises(InvalidSetting):
        J.normal_form({(1, 0): 1})
    monkeypatch.setenv("HOPFKIT_MAX_TERMS", "1")
    assert term_budget() == 1


def test_a_budget_scope_reads_the_variable_once(monkeypatch):
    from hopfkit import freealg

    reads = []
    read = freealg._read_budget
    monkeypatch.setattr(freealg, "_read_budget", lambda: reads.append(1) or read())
    monkeypatch.setenv("HOPFKIT_MAX_TERMS", "5")
    assert (term_budget(), term_budget()) == (5, 5) and len(reads) == 2  # no scope: every call
    reads.clear()
    with _one_budget():
        assert term_budget() == 5
        monkeypatch.setenv("HOPFKIT_MAX_TERMS", "6")
        with _one_budget():  # a nested scope keeps the outer one's value
            assert term_budget() == 5
        assert term_budget() == 5
    assert reads == [1]
    assert term_budget() == 6  # closed: the environment is read again
    # the read stays lazy: a malformed value raises at the first read in a
    # scope, with the message it has outside one, and at every later read
    monkeypatch.setenv("HOPFKIT_MAX_TERMS", "abc")
    message = "HOPFKIT_MAX_TERMS must be an integer >= 1, got 'abc'"
    with _one_budget():
        for _ in range(2):
            with pytest.raises(InvalidSetting, match=f"^{re.escape(message)}$"):
                term_budget()
