"""Plain-text presentation files: parsing and dumping.

The format is line oriented; `#` starts a comment.  A file looks like

    name: L
    generators: a:1 b:1 c:2 z:3 w:3
    rel: b a = a b - c
    rel: w z = z w - 1/3 c^3
    delta: z = z (x) 1 + 1 (x) z + a (x) c - c (x) a
    delta: w = w (x) 1 + 1 (x) w + b (x) c - c (x) b

Rules the parser enforces:

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
"""

import re
from fractions import Fraction
from functools import partial

from .errors import ParseError
from .freealg import Alphabet, FreeElement, _acc, render_terms
from .pbw import Presentation

_TOKEN_RE = re.compile(r"\d+/\d+|\d+|\(x\)|[A-Za-z_][A-Za-z0-9_]*|[\^+\-=:]|\S")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def _tokens(text, line):
    out = []
    for match in _TOKEN_RE.finditer(text):
        tok = match.group(0)
        if len(tok) == 1 and not (tok.isalnum() or tok in "+-=^:_"):
            raise ParseError(f"unexpected character {tok!r}", line)
        out.append(tok)
    return out


def _is_number(tok):
    return tok[0].isdigit()


def _is_name(tok):
    return _IDENT_RE.match(tok) is not None


class _Cursor:
    def __init__(self, tokens, line):
        self.tokens = tokens
        self.pos = 0
        self.line = line

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

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
        try:
            idx = alphabet.index_of(tok)
        except KeyError:
            cur.fail(f"unknown generator {tok!r}")
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


def _parse_free(cur, alphabet):
    """Free expression: signed sum of [coefficient] [word] terms."""
    terms = {}
    first = True
    while not cur.done():
        sign = _parse_sign(cur, first)
        first = False
        coeff = Fraction(1)
        saw_number = False
        tok = cur.peek()
        if tok is not None and _is_number(tok):
            coeff = cur.number()
            saw_number = True
        word = _parse_word(cur, alphabet)
        if not word and not saw_number:
            cur.fail("empty term")
        if coeff:
            _acc(terms, word, sign * coeff)
    if first:
        cur.fail("empty expression")
    return FreeElement(alphabet, terms)


def _parse_leg(cur, alphabet):
    """One tensor leg: the literal 1, or a nonempty word."""
    tok = cur.peek()
    if tok is not None and _is_number(tok):
        if tok != "1":
            cur.fail(f"tensor leg must be 1 or a word, found {tok!r}")
        cur.take()
        return ()
    word = _parse_word(cur, alphabet)
    if not word:
        cur.fail("missing tensor leg")
    return word


def _parse_tensor(cur, alphabet):
    """Tensor expression: signed sum of [coefficient] leg (x) leg terms."""
    terms = {}
    first = True
    while not cur.done():
        sign = _parse_sign(cur, first)
        first = False
        coeff = Fraction(1)
        tok = cur.peek()
        if tok is not None and _is_number(tok):
            after = cur.tokens[cur.pos + 1] if cur.pos + 1 < len(cur.tokens) else None
            if after != "(x)":
                coeff = cur.number()
        left = _parse_leg(cur, alphabet)
        cur.expect("(x)")
        right = _parse_leg(cur, alphabet)
        if coeff:
            _acc(terms, (left, right), sign * coeff)
    if first:
        cur.fail("empty tensor expression")
    return terms


def parse_expression(text, alphabet, line=None):
    """A free expression over an alphabet, e.g. for command-line input."""
    cur = _Cursor(_tokens(text, line), line)
    elem = _parse_free(cur, alphabet)
    return elem


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
            if not _IDENT_RE.match(rest):
                raise ParseError(f"name must be an identifier, found {rest!r}", line_no)
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
            for tok in (first, second):
                if not _is_name(tok):
                    raise ParseError(f"generator name expected, found {tok!r}", line_no)
                try:
                    alphabet.index_of(tok)
                except KeyError:
                    raise ParseError(f"unknown generator {tok!r}", line_no)
            hi, lo = alphabet.index_of(first), alphabet.index_of(second)
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
            try:
                gi = alphabet.index_of(gname)
            except KeyError:
                raise ParseError(f"unknown generator {gname!r}", line_no)
            if gi in deltas:
                raise ParseError(f"duplicate delta for {gname}", line_no)
            cur = _Cursor(_tokens(rhs_text, line_no), line_no)
            terms = _parse_tensor(cur, alphabet)
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
    if p.name and _IDENT_RE.match(p.name):
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
