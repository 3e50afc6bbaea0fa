"""Plain-text presentation files: parsing, dumping and the builtins.

The format is line oriented; `#` starts a comment.  A file looks like

    name: L
    generators: a:1 b:1 c:2 z:3 w:3
    rel: b a = a b - c
    rel: w z = z w - 1/3 c^3
    delta: z = z (x) 1 + 1 (x) z + a (x) c - c (x) a
    delta: w = w (x) 1 + 1 (x) w + b (x) c - c (x) b

Rules the parser enforces:

  * `name:` is an identifier, optionally followed by one integer or
    rational in parentheses, as in poly(3) or qplane(-3/2).
  * `generators:` comes before any `rel:` or `delta:` line and gives
    name:weight pairs; names are identifiers, weights positive ints.
  * `rel:` heads are two generator names; the right side is a free
    expression whose coefficient on the swapped pair becomes q and
    whose remainder becomes the tail.
  * `delta:` lines give the full coproduct of one generator, so the
    two unit terms g (x) 1 and 1 (x) g must be present with
    coefficient one; what remains after removing them is the reduced
    part.  Generators without a delta line are primitive.
  * `coproduct: none` marks a bare algebra with no coproduct attached;
    it cannot be combined with delta lines.

Words are whitespace separated generator names with optional ^k
powers, so multi-character names like x1 stay unambiguous.

The builtin presentations are written in this format too, and builtin()
parses them as a file is parsed.
"""

import re
from fractions import Fraction
from functools import partial

from .errors import ParseError, UnknownBuiltin
from .freealg import Alphabet, FreeElement, _acc, render_terms
from .pbw import Presentation

_TOKEN_RE = re.compile(r"\d+/\d+|\d+|\(x\)|[A-Za-z_][A-Za-z0-9_]*|[\^+\-=:]|\S")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(\(-?\d+(/\d+)?\))?\Z")


def _tokens(text, line):
    out = []
    for match in _TOKEN_RE.finditer(text):
        tok = match.group(0)
        if len(tok) == 1 and not (tok.isalnum() or tok in "+-=^:_"):
            raise ParseError(f"unexpected character {tok!r}", line)
        out.append(tok)
    return out


def _is_number(tok):
    return tok is not None and tok[0].isdigit()


def _is_name(tok):
    return _IDENT_RE.match(tok) is not None


def _index(alphabet, name, line):
    try:
        return alphabet.index_of(name)
    except KeyError:
        raise ParseError(f"unknown generator {name!r}", line) from None


class _Cursor:
    def __init__(self, tokens, line):
        self.tokens = tokens
        self.pos = 0
        self.line = line

    def peek(self, ahead=0):
        pos = self.pos + ahead
        return self.tokens[pos] if pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of line", self.line)
        self.pos += 1
        return tok

    def expect(self, tok):
        got = self.take()
        if got != tok:
            raise ParseError(f"expected {tok!r}, found {got!r}", self.line)

    def number(self):
        tok = self.take()
        try:
            return Fraction(tok)
        except ZeroDivisionError:
            self.fail(f"zero denominator in {tok!r}")

    def done(self):
        return self.pos >= len(self.tokens)

    def fail(self, message):
        raise ParseError(message, self.line)


def _parse_word(cur, alphabet):
    """A possibly empty run of name[^power] atoms."""
    letters = []
    while True:
        tok = cur.peek()
        if tok is None or not _is_name(tok):
            return tuple(letters)
        idx = _index(alphabet, tok, cur.line)
        cur.take()
        count = 1
        if cur.peek() == "^":
            cur.take()
            power = cur.take()
            if not power.isdigit() or int(power) < 1:
                cur.fail(f"bad exponent {power!r}")
            count = int(power)
        letters.extend([idx] * count)


def _parse_sign(cur, first):
    tok = cur.peek()
    if tok == "-":
        cur.take()
        return Fraction(-1)
    if tok == "+":
        if first:
            cur.fail("a leading + is not allowed")
        cur.take()
        return Fraction(1)
    if first:
        return Fraction(1)
    cur.fail(f"expected + or - between terms, found {tok!r}")


def _parse_sum(cur, term, what):
    """Signed sum of terms, each read by term(cur) as (key, coefficient)."""
    terms = {}
    first = True
    while not cur.done():
        sign = _parse_sign(cur, first)
        first = False
        key, coeff = term(cur)
        if coeff:
            _acc(terms, key, sign * coeff)
    if first:
        cur.fail(f"empty {what}")
    return terms


def _free_term(cur, alphabet):
    """[coefficient] [word], not both missing."""
    numbered = _is_number(cur.peek())
    coeff = cur.number() if numbered else Fraction(1)
    word = _parse_word(cur, alphabet)
    if not word and not numbered:
        cur.fail("empty term")
    return word, coeff


def _parse_leg(cur, alphabet):
    """One tensor leg: the literal 1, or a nonempty word."""
    tok = cur.peek()
    if _is_number(tok):
        if tok != "1":
            cur.fail(f"tensor leg must be 1 or a word, found {tok!r}")
        cur.take()
        return ()
    word = _parse_word(cur, alphabet)
    if not word:
        cur.fail("missing tensor leg")
    return word


def _tensor_term(cur, alphabet):
    """[coefficient] leg (x) leg; a number just before (x) is the left leg."""
    numbered = _is_number(cur.peek()) and cur.peek(1) != "(x)"
    coeff = cur.number() if numbered else Fraction(1)
    left = _parse_leg(cur, alphabet)
    cur.expect("(x)")
    return (left, _parse_leg(cur, alphabet)), coeff


def parse_expression(text, alphabet, line=None):
    """A free expression over an alphabet, e.g. for command-line input."""
    cur = _Cursor(_tokens(text, line), line)
    terms = _parse_sum(cur, partial(_free_term, alphabet=alphabet), "expression")
    return FreeElement(alphabet, terms)


def parse_presentation(text):
    """Parse the file format into a Presentation."""
    name = None
    gens = None
    alphabet = None
    relations = {}
    deltas = {}
    detached = False
    saw_delta = False
    rel_heads = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        head, sep, rest = body.partition(":")
        if not sep:
            raise ParseError(f"expected a 'keyword:' directive, found {body!r}", line_no)
        head = head.strip()
        rest = rest.strip()
        if head == "name":
            if not _NAME_RE.match(rest):
                raise ParseError(f"name must be like L or qplane(-3/2), found {rest!r}", line_no)
            name = rest
        elif head == "generators":
            if gens is not None:
                raise ParseError("duplicate generators line", line_no)
            cur = _Cursor(_tokens(rest, line_no), line_no)
            gens = []
            seen = set()
            while not cur.done():
                gname = cur.take()
                if not _is_name(gname):
                    cur.fail(f"generator name expected, found {gname!r}")
                if gname in seen:
                    cur.fail(f"duplicate generator {gname!r}")
                seen.add(gname)
                cur.expect(":")
                weight = cur.take()
                if not weight.isdigit() or int(weight) < 1:
                    cur.fail(f"weight of {gname!r} must be a positive integer")
                gens.append((gname, int(weight)))
            if not gens:
                raise ParseError("generators line is empty", line_no)
            alphabet = Alphabet(gens)
        elif head == "rel":
            if alphabet is None:
                raise ParseError("rel before generators", line_no)
            lhs_text, eq, rhs_text = rest.partition("=")
            if not eq:
                raise ParseError("rel needs an = sign", line_no)
            cur = _Cursor(_tokens(lhs_text, line_no), line_no)
            first = cur.take()
            second = cur.take()
            if not cur.done():
                cur.fail("relation head must be exactly two generators")
            heads = []
            for tok in (first, second):
                if not _is_name(tok):
                    raise ParseError(f"generator name expected, found {tok!r}", line_no)
                heads.append(_index(alphabet, tok, line_no))
            hi, lo = heads
            if hi <= lo:
                raise ParseError(
                    f"relation head {first} {second} must have the later "
                    "generator first",
                    line_no,
                )
            if (hi, lo) in rel_heads:
                raise ParseError(f"duplicate relation for {first} {second}", line_no)
            rel_heads.add((hi, lo))
            rhs = parse_expression(rhs_text, alphabet, line_no)
            swapped = (lo, hi)
            q = rhs.terms.get(swapped, Fraction(0))
            tail = {w: c for w, c in rhs.terms.items() if w != swapped}
            relations[(hi, lo)] = (q, tail)
        elif head == "delta":
            if alphabet is None:
                raise ParseError("delta before generators", line_no)
            if detached:
                raise ParseError("delta line after coproduct: none", line_no)
            gname, eq, rhs_text = rest.partition("=")
            gname = gname.strip()
            if not eq:
                raise ParseError("delta needs an = sign", line_no)
            gi = _index(alphabet, gname, line_no)
            if gi in deltas:
                raise ParseError(f"duplicate delta for {gname}", line_no)
            cur = _Cursor(_tokens(rhs_text, line_no), line_no)
            terms = _parse_sum(cur, partial(_tensor_term, alphabet=alphabet), "tensor expression")
            unit = ()
            gword = (gi,)
            for key in ((gword, unit), (unit, gword)):
                if terms.get(key) != 1:
                    raise ParseError(
                        f"delta({gname}) must contain the unit terms "
                        f"{gname} (x) 1 and 1 (x) {gname} with coefficient 1",
                        line_no,
                    )
                del terms[key]
            saw_delta = True
            deltas[gi] = terms
        elif head == "coproduct":
            if rest != "none":
                raise ParseError("coproduct directive only accepts 'none'", line_no)
            if saw_delta:
                raise ParseError("coproduct: none conflicts with delta lines", line_no)
            detached = True
        else:
            raise ParseError(f"unknown directive {head!r}", line_no)
    if gens is None:
        raise ParseError("missing generators line", 1)
    coproduct = None if detached else deltas
    return Presentation(gens, relations=relations, coproduct=coproduct, name=name)


def load_presentation(path):
    with open(path, "r", encoding="utf-8") as handle:
        return parse_presentation(handle.read())


# ----- builtin catalogue -----------------------------------------------------

BUILTIN_NAMES = ("H6", "J", "L", "U_n5", "heis3", "poly(d)", "qplane(q)")

# two commuting Heisenberg copies: [a,b] = c and [z,w] = d, c and d central
_H6_ALGEBRA = """\
generators: a:1 b:1 c:1 z:2 w:2 d:3
rel: b a = a b - c
rel: w z = z w - d
"""

# each text is written as dump_presentation writes it
_BUILTIN_TEXTS = {
    "H6": "name: H6\n" + _H6_ALGEBRA,
    # same algebra as H6 with the deformed coproduct that couples the copies
    "J": "name: J\n" + _H6_ALGEBRA + """\
delta: z = z (x) 1 + 1 (x) z + a (x) c - c (x) a
delta: w = w (x) 1 + 1 (x) w + b (x) c - c (x) b
delta: d = d (x) 1 + 1 (x) d + c (x) c^2 + c^2 (x) c
""",
    # quotient of J by its central primitive: [z,w] becomes (1/3)c^3
    "L": """\
name: L
generators: a:1 b:1 c:2 z:3 w:3
rel: b a = a b - c
rel: w z = z w - 1/3 c^3
delta: z = z (x) 1 + 1 (x) z + a (x) c - c (x) a
delta: w = w (x) 1 + 1 (x) w + b (x) c - c (x) b
""",
    # five-dimensional nilpotent Lie algebra: [x1,x2] = x = [x3,x4]
    "U_n5": """\
name: U_n5
generators: x:1 x1:1 x2:1 x3:1 x4:1
rel: x2 x1 = x1 x2 - x
rel: x4 x3 = x3 x4 - x
""",
    "heis3": """\
name: heis3
generators: x:1 y:1 z:2
rel: y x = x y - z
""",
}


def builtin(name):
    """Compiled-in example presentations by name, parsed from their texts.

    Plain names: H6, J, L, U_n5, heis3.  Parametrized: poly(d) for d >= 1
    commuting generators, qplane(q) for the q-commuting plane (q nonzero).
    """
    text = name.strip()
    if text in _BUILTIN_TEXTS:
        return parse_presentation(_BUILTIN_TEXTS[text])
    kind, _, body = text.partition("(")
    if kind not in ("poly", "qplane") or not body.endswith(")"):
        raise UnknownBuiltin(f"unknown builtin {name!r}; available: {', '.join(BUILTIN_NAMES)}")
    body = body[:-1]
    try:
        value = int(body) if kind == "poly" else Fraction(body)
    except (ValueError, ZeroDivisionError):
        wanted = "an integer" if kind == "poly" else "a rational"
        raise UnknownBuiltin(f"{kind} takes {wanted}, got {body!r}") from None
    if kind == "qplane":
        source = f"generators: x:1 y:1\nrel: y x = {value} x y\ncoproduct: none"
    elif value < 1:
        raise UnknownBuiltin("poly(d) needs d >= 1")
    else:
        source = "generators: " + " ".join(f"x{i}:1" for i in range(1, value + 1))
    return parse_presentation(f"name: {kind}({value})\n{source}")


# ----- dumping ---------------------------------------------------------------


def dump_presentation(p):
    """Render a presentation in the file format; parses back equal."""
    alphabet = p.alphabet
    word = partial(alphabet.render_word, sep=" ")
    dump_sum = partial(render_terms, juxtapose=False)
    for gname in alphabet.names:
        if not _IDENT_RE.match(gname):
            raise ParseError(f"generator name {gname!r} cannot be written")
    lines = []
    if p.name and _NAME_RE.match(p.name):
        lines.append(f"name: {p.name}")
    lines.append(
        "generators: "
        + " ".join(f"{n}:{w}" for n, w in zip(alphabet.names, alphabet.weights))
    )
    for (hi, lo), rel in sorted(p.relations.items()):
        if rel.is_default():
            continue
        pairs = [(rel.q, word((lo, hi)))] if rel.q else []
        for tail, coeff in sorted(rel.tail.items(), key=lambda kv: alphabet.word_key(kv[0])):
            pairs.append((coeff, word(tail)))
        lines.append(
            f"rel: {alphabet.names[hi]} {alphabet.names[lo]} = {dump_sum(pairs)}"
        )
    if p.delta is None:
        lines.append("coproduct: none")
    else:
        for gi in sorted(p.delta):
            gname = alphabet.names[gi]
            pairs = [(Fraction(1), f"{gname} (x) 1"), (Fraction(1), f"1 (x) {gname}")]
            entries = sorted(
                p.delta[gi].items(),
                key=lambda kv: (p.mono_key(kv[0][0]), p.mono_key(kv[0][1])),
            )
            for (m1, m2), coeff in entries:
                pairs.append((coeff, f"{word(p.mono_word(m1))} (x) {word(p.mono_word(m2))}"))
            lines.append(f"delta: {gname} = {dump_sum(pairs)}")
    return "\n".join(lines) + "\n"
