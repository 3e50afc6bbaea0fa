"""Text format for presentations: parsing, dumping, round trips."""

from fractions import Fraction
from pathlib import Path

import pytest

from hopfkit import (
    builtin,
    dump_presentation,
    load_presentation,
    parse_expression,
    parse_presentation,
    presfile,
)
from hopfkit.errors import ParseError
from hopfkit.freealg import Alphabet
from hopfkit.pbw import Presentation

PRESENTATIONS = Path(__file__).resolve().parent.parent / "presentations"

L_TEXT = """\
name: L
generators: a:1 b:1 c:2 z:3 w:3
rel: b a = a b - c
rel: w z = z w - 1/3 c^3
delta: z = z (x) 1 + 1 (x) z + a (x) c - c (x) a
delta: w = w (x) 1 + 1 (x) w + b (x) c - c (x) b
"""


def test_parse_builtin_text():
    p = parse_presentation(L_TEXT)
    assert p.name == "L"
    assert p.alphabet.names == ("a", "b", "c", "z", "w")
    assert p.alphabet.weights == (1, 1, 2, 3, 3)
    assert p == builtin("L")


def test_dump_builtin_round_trip():
    for name in ("J", "L", "heis3", "U_n5", "H6", "poly(3)", "qplane(2)"):
        p = builtin(name)
        text = dump_presentation(p)
        again = parse_presentation(text)
        assert again == p, name
        assert again.psi == p.psi, name
        assert dump_presentation(again) == text, name
    # integer coefficients are dumped with a space, "2 c" and "2 a (x) b",
    # never "2c" as on display, and parse back equal
    text = (
        "generators: a:1 b:1 c:2\n"
        "rel: b a = a b + 2 c\n"
        "delta: c = c (x) 1 + 1 (x) c + 2 a (x) b\n"
    )
    p = parse_presentation(text)
    assert str(2 * p.gen("c")) == "2c"  # display juxtaposes
    assert dump_presentation(p) == text
    assert parse_presentation(dump_presentation(p)) == p


@pytest.mark.parametrize("name", ["poly(3)", "qplane(2)", "qplane(-3/2)"])
def test_dump_round_trip_keeps_parametrized_names(name):
    p = builtin(name)
    text = dump_presentation(p)
    assert text.startswith(f"name: {name}\n")
    again = parse_presentation(text)
    assert again.name == p.name == name
    assert again == p


@pytest.mark.parametrize("name", ["a=b", "poly(x)", "poly(3", "poly()", "q(1/2/3)", "poly(3)x"])
def test_names_outside_the_grammar_fail(name):
    with pytest.raises(ParseError) as info:
        parse_presentation(f"name: {name}\ngenerators: x:1\n")
    assert info.value.line == 1


def test_dump_exact_text():
    assert dump_presentation(builtin("L")) == L_TEXT


def test_builtin_texts_are_their_dumps():
    # dump-builtin prints what the catalogue's source says
    assert set(presfile._BUILTIN_TEXTS) == {"H6", "J", "L", "U_n5", "heis3"}
    for name, text in presfile._BUILTIN_TEXTS.items():
        assert dump_presentation(builtin(name)) == text, name


def test_parse_expression_words_and_coefficients():
    L = builtin("L")
    A = L.alphabet
    e = parse_expression("a b - 2 c + 1/3 a^2", A)
    assert dict(e.terms) == {
        (0, 1): Fraction(1),
        (2,): Fraction(-2),
        (0, 0): Fraction(1, 3),
    }
    # a bare number is a constant term
    e2 = parse_expression("3 - a", A)
    assert dict(e2.terms) == {(): Fraction(3), (0,): Fraction(-1)}
    # juxtaposed powers parse the same as spelled-out repetition
    assert parse_expression("a^3", A) == parse_expression("a a a", A)


def test_parse_expression_multicharacter_names():
    U = builtin("U_n5")
    e = parse_expression("x1 x2 - x4", U.alphabet)
    assert dict(e.terms) == {(1, 2): Fraction(1), (4,): Fraction(-1)}


def test_parse_expression_errors():
    A = Alphabet([("a", 1)])
    with pytest.raises(ParseError):
        parse_expression("a +", A)
    with pytest.raises(ParseError):
        parse_expression("+ a", A)
    with pytest.raises(ParseError):
        parse_expression("q", A)
    with pytest.raises(ParseError):
        parse_expression("", A)


def test_comments_and_blank_lines():
    text = "# header\n\ngenerators: x:1 y:1  # trailing note\nrel: y x = x y\n"
    p = parse_presentation(text)
    assert p.alphabet.names == ("x", "y")
    assert p.relations[(1, 0)].is_default()


def test_default_coproduct_is_all_primitive():
    p = parse_presentation("generators: x:1 y:1\n")
    assert p.has_coproduct
    assert p.delta == {}


def test_coproduct_none_detaches():
    p = parse_presentation("generators: x:1 y:1\ncoproduct: none\n")
    assert not p.has_coproduct


def test_delta_requires_unit_terms():
    with pytest.raises(ParseError) as info:
        parse_presentation(
            "generators: a:1 b:2\ndelta: b = b (x) 1 + a (x) a\n"
        )
    assert info.value.line == 2
    assert "unit terms" in str(info.value)


def test_parse_error_lines():
    bad = "generators: a:1 b:1\nrel: a b = b a\n"
    with pytest.raises(ParseError) as info:
        parse_presentation(bad)
    assert info.value.line == 2
    assert "later generator first" in str(info.value)

    with pytest.raises(ParseError) as info:
        parse_presentation("generators: a:1 b:1\nrel: b a = a b\nrel: b a = 2 a b\n")
    assert info.value.line == 3
    assert "duplicate" in str(info.value)

    with pytest.raises(ParseError) as info:
        parse_presentation("generators: a:1\nfoo: bar\n")
    assert "unknown directive" in str(info.value)

    with pytest.raises(ParseError) as info:
        parse_presentation("generators: a:1 @\n")
    assert "unexpected character" in str(info.value)


_GENS = "generators: a:1 b:1\n"
_DELTA = "delta: a = a (x) 1 + 1 (x) a\n"
_PARSE_ERRORS = [
    (_GENS + "rel: b = a b\n", 2, "unexpected end of line"),
    ("generators: a 1\n", 1, "expected ':', found '1'"),
    (_GENS + "rel: b a = a^0 b\n", 2, "bad exponent '0'"),
    (_GENS + "rel: b a = a b 2\n", 2, "expected + or - between terms, found '2'"),
    (_GENS + "delta: a = a (x) 1 + 1 (x) a + (x) b\n", 2, "missing tensor leg"),
    ("generators a 1\n", 1, "expected a 'keyword:' directive, found 'generators a 1'"),
    ("generators: a:1\ngenerators: b:1\n", 2, "duplicate generators line"),
    ("generators: 1:1\n", 1, "generator name expected, found '1'"),
    ("generators: a:1 a:2\n", 1, "duplicate generator 'a'"),
    ("generators: a:0\n", 1, "weight of 'a' must be a positive integer"),
    ("generators:\n", 1, "generators line is empty"),
    ("rel: b a = a b\n", 1, "rel before generators"),
    (_GENS + "rel: b a\n", 2, "rel needs an = sign"),
    (_GENS + "rel: b a a = a b\n", 2, "relation head must be exactly two generators"),
    (_GENS + "rel: b 2 = a b\n", 2, "generator name expected, found '2'"),
    (_DELTA, 1, "delta before generators"),
    ("generators: a:1\ncoproduct: none\n" + _DELTA, 3, "delta line after coproduct: none"),
    ("generators: a:1\ndelta: a\n", 2, "delta needs an = sign"),
    ("generators: a:1\n" + _DELTA + _DELTA, 3, "duplicate delta for a"),
    ("generators: a:1\ncoproduct: some\n", 2, "coproduct directive only accepts 'none'"),
    ("name: L\n", 1, "missing generators line"),
    (None, None, "generator name 'a b' cannot be written"),
]


@pytest.mark.parametrize("source,line,message", _PARSE_ERRORS, ids=[m for _, _, m in _PARSE_ERRORS])
def test_parse_error_messages(source, line, message):
    """The format's ParseErrors, one per raise, each with its message and
    line; the last is dump_presentation's, which has no line."""
    with pytest.raises(ParseError) as info:
        if source is None:
            dump_presentation(Presentation([("a b", 1)], {}))
        else:
            parse_presentation(source)
    assert info.value.line == line
    assert str(info.value) == (message if line is None else f"line {line}: {message}")


def test_q_coefficient_extraction():
    p = parse_presentation("generators: x:1 y:1\nrel: y x = 2 x y + x^2\n")
    rel = p.relations[(1, 0)]
    assert rel.q == 2
    assert rel.tail == {(0, 0): Fraction(1)}


def test_tensor_leg_must_be_unit_or_word():
    with pytest.raises(ParseError) as info:
        parse_presentation(
            "generators: a:1 b:2\ndelta: b = b (x) 1 + 1 (x) b + 2 (x) a\n"
        )
    assert "tensor leg" in str(info.value)


def test_coproduct_none_conflicts_with_delta():
    text = (
        "generators: a:1 b:2\n"
        "delta: b = b (x) 1 + 1 (x) b + a (x) a\n"
        "coproduct: none\n"
    )
    with pytest.raises(ParseError) as info:
        parse_presentation(text)
    assert info.value.line == 3


def test_load_presentation_files():
    jordan = load_presentation(PRESENTATIONS / "jordan.hopf")
    assert jordan.name == "jordan"
    assert not jordan.has_coproduct
    rel = jordan.relations[(1, 0)]
    assert rel.q == 1
    assert rel.tail == {(0, 0): Fraction(1)}

    ell = load_presentation(PRESENTATIONS / "L.hopf")
    assert ell == builtin("L")

    heavy = load_presentation(PRESENTATIONS / "L_heavy.hopf")
    assert heavy.alphabet.weights == (1, 1, 2, 4, 4)
    assert not heavy.is_graded
    assert heavy.has_coproduct


def test_dump_then_parse_fractional_coefficients():
    text = "generators: x:1 y:1 u:2\nrel: y x = x y - 5/7 u\n"
    p = parse_presentation(text)
    assert p.relations[(1, 0)].tail == {(2,): Fraction(-5, 7)}
    assert parse_presentation(dump_presentation(p)) == p
