"""Straightening engine: normal forms, confluence, builtins, validation."""

import gc
import random
import weakref
from contextlib import nullcontext
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import product
from math import comb
from operator import add
from pathlib import Path

import pytest

from hopfkit import (
    BUILTIN_NAMES,
    Presentation,
    builtin,
    dump_presentation,
    load_presentation,
    parse_presentation,
    pbw,
    solve_antipode,
)
from hopfkit.errors import (
    AlphabetMismatch,
    BudgetExceeded,
    InvalidCoproduct,
    NotConfluent,
    PresentationError,
    TailNotNormal,
    TailNotSmaller,
    UnknownBuiltin,
    ZeroQ,
)
from hopfkit.freealg import FreeElement, _acc, over_budget, term_budget

from strategies import nilpotent_lie_algebras

PRESENTATIONS = Path(__file__).resolve().parent.parent / "presentations"


def test_builtin_names_and_loading():
    for name in ("H6", "J", "L", "U_n5", "heis3"):
        assert name in BUILTIN_NAMES
        p = builtin(name)
        assert p.name == name
    assert builtin("poly(3)").max_weight == 1
    assert builtin("qplane(2)").name == "qplane(2)"
    with pytest.raises(UnknownBuiltin):
        builtin("nosuch")
    with pytest.raises(UnknownBuiltin):
        builtin("qplane(q)")  # the parameter must be a literal rational


def test_builtin_parameters_are_checked():
    with pytest.raises(UnknownBuiltin, match=r"^poly\(d\) needs d >= 1$"):
        builtin("poly(0)")
    with pytest.raises(UnknownBuiltin, match=r"^poly takes an integer, got 'x'$"):
        builtin("poly(x)")
    with pytest.raises(UnknownBuiltin, match=r"^qplane takes a rational, got 'a'$"):
        builtin("qplane(a)")
    with pytest.raises(ZeroQ):
        builtin("qplane(0)")


def test_parametrized_builtins_equal_their_hand_built_presentations():
    q = builtin("qplane(-3/2)")
    assert q == Presentation([("x", 1), ("y", 1)], relations={("y", "x"): (Fraction(-3, 2), {})})
    assert q.delta is None
    assert q.name == "qplane(-3/2)"
    poly = Presentation([("x1", 1), ("x2", 1), ("x3", 1)], coproduct={})
    assert builtin("poly(3)") == poly


def test_builtin_instances_are_fresh():
    assert builtin("J") is not builtin("J")


def test_generator_weights():
    J = builtin("J")
    assert J.alphabet.names == ("a", "b", "c", "z", "w", "d")
    assert J.alphabet.weights == (1, 1, 1, 2, 2, 3)
    L = builtin("L")
    assert L.alphabet.names == ("a", "b", "c", "z", "w")
    assert L.alphabet.weights == (1, 1, 2, 3, 3)


def test_validation_classification():
    assert builtin("J").validation.classification == "filtered"
    assert not builtin("J").is_graded
    assert builtin("L").validation.classification == "weight-graded"
    assert builtin("L").is_graded
    assert builtin("heis3").validation.classification == "weight-graded"
    assert builtin("H6").validation.classification == "filtered"
    assert builtin("poly(2)").validation.classification == "weight-graded"


def test_relation_counts():
    # every unordered generator pair carries a relation; unstated ones commute
    J = builtin("J")
    assert J.validation.relation_count == 15
    assert J.validation.nontrivial_relations == 2
    L = builtin("L")
    assert L.validation.relation_count == 10
    assert L.validation.nontrivial_relations == 2


def test_straightening_single_swap():
    L = builtin("L")
    a, b, c = L.gen("a"), L.gen("b"), L.gen("c")
    # b a rewrites to a b - c
    assert str(b * a) == "ab - c"
    assert b * a == a * b - c
    assert str(L.commutator(b, a)) == "-c"
    assert str(L.commutator(a, b)) == "c"


def test_straightening_deep():
    L = builtin("L")
    a, b = L.gen("a"), L.gen("b")
    x = b * a * b * a
    assert str(x) == "a^2b^2 - 3abc + c^2"
    # normal form is idempotent
    assert L.normal_form(x) == x


def test_straightening_j_relation():
    J = builtin("J")
    z, w, c, d = J.gen("z"), J.gen("w"), J.gen("c"), J.gen("d")
    assert w * z == z * w - d
    assert str(J.commutator(z, w)) == "d"
    assert str(J.commutator(w, z)) == "-d"
    assert d * c == c * d  # unstated pairs commute


def test_scalar_and_power_arithmetic():
    L = builtin("L")
    a = L.gen("a")
    assert str(a**3) == "a^3"
    assert str(L.one()) == "1"
    assert str(L.zero()) == "0"
    assert str(L.scalar(Fraction(-1, 2))) == "-1/2"
    e = (a + L.one()) ** 2
    assert str(e) == "1 + 2a + a^2"
    assert e.constant_term() == 1
    assert e.max_weight() == 2
    assert str(e.augmentation_part()) == "2a + a^2"


def test_confluence_reports():
    for name in ("H6", "J", "L", "U_n5", "heis3"):
        p = builtin(name)
        report = p.confluence()
        assert report.ok, name
        assert report.triples_checked > 0
        assert report.residuals == []
        p.require_confluent()
    assert builtin("J").confluence().triples_checked == 20
    assert builtin("L").confluence().triples_checked == 10


def test_nonconfluent_rejected():
    # [b,a] = c, [c,a] = a, [c,b] = 0 violates the Jacobi identity, so the
    # c b a overlap resolves two different ways and leaves a residual of c.
    p = Presentation(
        [("a", 1), ("b", 1), ("c", 2)],
        {
            ("b", "a"): (1, {(2,): 1}),
            ("c", "a"): (1, {(0,): 1}),
        },
        name="broken",
    )
    report = p.confluence()
    assert not report.ok
    assert report.triples_checked == 1
    [(triple, residual)] = report.residuals
    assert triple == ("c", "b", "a")
    assert str(residual) == "c"
    with pytest.raises(NotConfluent):
        p.require_confluent()


def test_zero_q_rejected():
    with pytest.raises(ZeroQ):
        Presentation([("x", 1), ("y", 1)], {("y", "x"): (0, {})})
    assert issubclass(ZeroQ, PresentationError)


def test_divergent_tail_rejected():
    # tail y^3 has weight 3, above the head weight 2
    with pytest.raises(TailNotSmaller):
        Presentation([("x", 1), ("y", 1)], {("y", "x"): (1, {(1, 1, 1): 1})})


@pytest.mark.parametrize("generators, delta, message", [
    ([("a", 1), ("z", 2)], {((), (0,)): 1},
     "delta(z) has a constant left factor; reduced coproduct factors must sit in the augmentation ideal"),
    ([("a", 1), ("b", 1), ("z", 3)], {((1, 0), (0,)): 1}, "delta(z) left factor ba is not an ordered monomial"),
    ([("a", 1), ("z", 2)], {((1,), (0,)): 1}, "delta(z) left factor z has weight >= weight(z)"),
    ([("a", 1), ("c", 2), ("z", 3)], {((1,), (1,)): 1}, "delta(z) term exceeds the weight of z"),
])
def test_invalid_coproduct_rejected(generators, delta, message):
    # a leg of the reduced coproduct must be a nonconstant ordered monomial
    # lighter than its generator, and a term no heavier than it
    with pytest.raises(InvalidCoproduct) as info:
        Presentation(generators, {}, coproduct={"z": delta})
    assert str(info.value) == message
    assert issubclass(InvalidCoproduct, PresentationError)


def test_parse_rejects_a_coproduct_term_heavier_than_its_generator():
    with pytest.raises(InvalidCoproduct, match=r"^delta\(z\) term exceeds the weight of z$"):
        parse_presentation("generators: a:1 c:2 z:3\ndelta: z = z (x) 1 + 1 (x) z + c (x) c\n")


def test_equal_weight_tail_needs_certificate():
    # tail x^2 + y^2: x^2 needs the auxiliary weight of x below that of y
    # while y^2 needs the reverse, so no termination certificate exists
    with pytest.raises(TailNotSmaller):
        Presentation([("x", 1), ("y", 1)], {("y", "x"): (1, {(0, 0): 1, (1, 1): 1})})


def test_tail_must_be_normal():
    # the tail must already be a straightened combination
    with pytest.raises(TailNotNormal):
        Presentation([("x", 1), ("y", 1)], {("y", "x"): (1, {(1, 0): 1})})


def test_filtered_tail_allowed():
    # head weight 2, tail weight 1: legal, but only as a filtered algebra
    p = Presentation([("x", 1), ("y", 1)], {("y", "x"): (1, {(0,): 1})})
    assert p.validation.classification == "filtered"
    x, y = p.gen("x"), p.gen("y")
    assert str(y * x) == "x + xy"


def test_enumerate_basis_counts():
    J = builtin("J")
    counts = J.basis_counts(6)
    assert counts == (1, 3, 8, 17, 33, 58, 97)
    L = builtin("L")
    assert L.basis_counts(6) == (1, 2, 4, 8, 13, 20, 31)
    basis = L.enumerate_basis(3)
    assert len(basis) == 1 + 2 + 4 + 8
    # canonical order: weight first, then generator order
    rendered = [L.render_mono(m) for m in basis[:7]]
    assert rendered == ["1", "a", "b", "a^2", "ab", "b^2", "c"]


def test_basis_is_sorted_and_unique():
    L = builtin("L")
    basis = L.enumerate_basis(5)
    keys = [L.mono_key(m) for m in basis]
    assert keys == sorted(keys)
    assert len(set(basis)) == len(basis)


def test_window_is_listed_in_mono_key_order():
    # enumerate_basis sorts by exponent vector and weight, never by the word
    # itself; it must agree with mono_key's order on every window
    for name in ("H6", "J", "L", "U_n5", "heis3", "poly(3)", "qplane(2)"):
        p = builtin(name)
        for bound in range(13):
            basis = p.enumerate_basis(bound)
            assert basis == sorted(basis, key=p.mono_key), (name, bound)
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(derandomize=True, max_examples=40, deadline=None)
    @hypothesis.given(nilpotent_lie_algebras(), st.integers(0, 9))
    def random_algebras(algebra, bound):
        p = algebra[0]
        basis = p.enumerate_basis(bound)
        assert basis == sorted(basis, key=p.mono_key)

    random_algebras()


def _seeded_element(p, rng, max_weight, size):
    basis = p.enumerate_basis(max_weight)
    return p.element(
        {m: Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 4)) for m in rng.sample(basis, size)}
    )


def _qskew_with_tail():
    # y x = 2 x y + z, z central: confluent, with q != 1 and a tail
    return Presentation(
        [("x", 1), ("y", 1), ("z", 2)],
        relations={("y", "x"): (Fraction(2), {(2,): Fraction(1)})},
        name="qskew_with_tail",
    )


def _qskew_mixed():
    # the Heisenberg pair y x = x y + z scaled by w: w x = 2 x w, w y = 3 y w, w z = 6 z w;
    # confluent, with tailed and tail-free q != 1 pairs side by side
    return Presentation(
        [("x", 1), ("y", 1), ("z", 2), ("w", 1)],
        relations={("y", "x"): (1, {(2,): Fraction(1)}), ("w", "x"): (Fraction(2), {}),
                   ("w", "y"): (Fraction(3), {}), ("w", "z"): (Fraction(6), {})},
        name="qskew_mixed",
    )


def _residual():
    # [x, z] = x breaks the Jacobi identity: not confluent
    return Presentation(
        [("x", 1), ("y", 1), ("z", 1)],
        relations={("y", "x"): (1, {(2,): Fraction(1)}), ("z", "x"): (1, {(0,): Fraction(1)})},
        name="residual",
    )


def test_multiply_matches_normal_form_of_concatenation():
    J = builtin("J")
    w, z, b = J.gen("w"), J.gen("z"), J.gen("b")
    assert (w * z) * b == w * (z * b)
    qskew_with_tail = _qskew_with_tail()
    # the residual presentation is not confluent; the product is still exact
    residual = _residual()
    assert not residual.confluence().ok
    rng = random.Random(5)
    for p in (J, builtin("L"), builtin("U_n5"), builtin("qplane(3/2)"), qskew_with_tail, residual):
        for _ in range(4):
            x = _seeded_element(p, rng, 3, 4)
            y = _seeded_element(p, rng, 3, 3)
            words = {}
            for m1, c1 in x.terms.items():
                for m2, c2 in y.terms.items():
                    word = p.mono_word(m1) + p.mono_word(m2)
                    words[word] = words.get(word, 0) + c1 * c2
            assert p.multiply(x, y) == p.normal_form(words)


def test_mono_product_closed_form():
    p = builtin("qplane(3/2)")
    x, y = p.gen("x"), p.gen("y")
    expected = p.element({(3, 2): Fraction(3, 2) ** 6})
    assert p.mono_product((0, 2), (3, 0)) == expected
    assert y**2 * x**3 == expected


def _tuple_closed(p, a, b):
    """(a, b)'s closed form read off the two monomial tuples, as _closed read it
    before exponent codes: None when a tail crosses, else (m_a + m_b, coeff)."""
    m1, m2 = p._monos[a], p._monos[b]
    if any(m1[hi] and m2[lo] for (hi, lo), rel in p.relations.items() if rel.tail):
        return None
    coeff = 1
    for (hi, lo), rel in sorted(p.relations.items()):
        if rel.q != 1 and m1[hi] * m2[lo]:
            coeff = pbw._integral(coeff * rel.q ** (m1[hi] * m2[lo]))
    return tuple(map(add, m1, m2)), coeff


def test_wide_exponents_take_the_tuple_route():
    # an exponent at or above half its code field gets no code, so no sum of
    # codes carries into the next letter: x^(2^40) would otherwise be coded as
    # y^256, and x^(2^32 - 1) x as y, both numbered here first
    half = 1 << (pbw._FIELD - 1)
    e = 1 << 40
    for name in ("qplane(3/2)", "L"):
        p = builtin(name)
        n = len(p.alphabet)
        y, y256 = (0, 1) + (0,) * (n - 2), (0, 256) + (0,) * (n - 2)
        assert p._codes[p._number(y256)] == e
        assert p._codes[p._number(y)] == 1 << pbw._FIELD
        x = [(k,) + (0,) * (n - 1) for k in (e, 2 * half - 1, half, half - 1, 1, 5)]
        pairs = [(x[0], x[0]), (x[0], (0, e) + (0,) * (n - 2)), (x[0], (0, 3) + (0,) * (n - 2)),
                 (x[1], x[4]), (x[3], x[4]), (x[3], x[3]), (x[2], x[5])]
        if name == "qplane(3/2)":
            pairs.append(((e, 3), (5, 0)))  # y^3 x^5 = (3/2)^15 x^5 y^3
        for m1, m2 in pairs:
            a, b = p._number(m1), p._number(m2)
            mono, coeff = _tuple_closed(p, a, b)
            assert p.mono_product(m1, m2) == p.element({mono: coeff}), (name, m1, m2)
            assert p._closed(a, b) == ((p._ids[mono], coeff),)
        assert p._codes[p._ids[x[2]]] == p._wide and p._codes[p._ids[x[3]]] == half - 1
        assert p._by_code == {p._codes[i]: i for i in range(len(p._monos)) if p._codes[i] >= 0}


@pytest.mark.parametrize("name, bound", [("J", 9), ("U_n5", 8), ("L", 9), ("qplane(3/2)", 6)])
def test_closed_forms_from_exponent_codes_match_the_tuple_sums(name, bound):
    # every pair the table holds: _closed, read off the two ids' codes and
    # masks, gives what the sum of the two tuples gives, numbers nothing new,
    # and a closed form with coefficient 1 is its id's one tuple
    p = builtin(name)
    if p.has_coproduct:
        solve_antipode(p, bound)
    else:
        window = p.enumerate_basis(bound)
        for m1, m2 in product(window, repeat=2):
            p.mono_product(m1, m2)
    size, table = len(p._monos), p._table
    kinds = {"tailed": 0, "one": 0, "q": 0}
    for a, row in table.items():
        for b, pairs in row.items():
            want, got = _tuple_closed(p, a, b), p._closed(a, b)
            if want is None:
                assert got is None, (p._monos[a], p._monos[b])
                kinds["tailed"] += 1
                continue
            mono, coeff = want
            assert got == pairs == ((p._ids[mono], coeff),), (p._monos[a], p._monos[b])
            if coeff == 1:
                assert got is pairs is p._ones[p._ids[mono]]
            kinds["one" if coeff == 1 else "q"] += 1
    assert len(p._monos) == size
    assert kinds["one"] > 100 and (kinds["q"] if name == "qplane(3/2)" else kinds["tailed"]) > 100


def test_qplane_straightening():
    p = builtin("qplane(2)")
    x, y = p.gen("x"), p.gen("y")
    assert str(y * x) == "2xy"
    assert str(y * x * x) == "4x^2y"
    h = builtin("qplane(1/2)")
    assert str(h.gen("y") * h.gen("x")) == "1/2 xy"


def _entries(p):
    """The product table's entries by monomial pair: {(m1, m2): its (id, coeff) pairs}."""
    monos = p._monos
    return {(monos[a], monos[b]): pairs for a, row in p._table.items() for b, pairs in row.items()}


def _stored(p):
    """The entries of tailed pairs, those the table builds rather than reads off in closed form."""
    tailed = [pair for pair, rel in p.relations.items() if rel.tail]
    return {
        (m1, m2): pairs
        for (m1, m2), pairs in _entries(p).items()
        if any(m1[hi] and m2[lo] for hi, lo in tailed)
    }


def _decoded(p, pairs):
    return [(p._monos[w], c) for w, c in pairs]


def test_mono_product_caching():
    L = builtin("L")
    m1 = (0, 1, 0, 0, 0)  # b
    m2 = (1, 0, 0, 0, 0)  # a
    first = L.mono_product(m1, m2)
    second = L.mono_product(m1, m2)
    # two fresh elements over the one stored entry of the product table
    assert first == second and first is not second
    assert str(first) == "ab - c"
    assert all(type(c) is Fraction for c in first.terms.values())
    assert list(_stored(L)) == [(m1, m2)]
    # result monomials are the table's own: equal monomials are one tuple
    ab = (1, 1, 0, 0, 0)
    (closed,) = L.mono_product(m2, m1).terms
    assert closed == ab and any(mono is closed for mono in first.terms)
    assert list(_stored(L)) == [(m1, m2)]  # the closed form is built by no step


def test_product_table_matches_normal_form():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    from test_subspace import J_SCALED_D

    # q != 1 with powers fractional and integral; J_scaled_d has a fractional tail -5/6 d;
    # the builtins and L_heavy are built from smaller products, residual (not confluent)
    # by normal_form
    makers = [lambda: builtin("qplane(3/2)"), lambda: builtin("qplane(2)"),
              lambda: parse_presentation(J_SCALED_D), _qskew_with_tail, _qskew_mixed, _residual,
              lambda: load_presentation(PRESENTATIONS / "L_heavy.hopf")]
    makers += [lambda name=name: builtin(name) for name in ("J", "L", "H6", "U_n5", "heis3")]
    tabled = set()  # names of the presentations whose tailed products were checked

    def check(p, data):
        monos = st.tuples(*[st.integers(0, 2)] * len(p.alphabet))
        pairs = data.draw(st.lists(st.tuples(monos, monos), min_size=1, max_size=8))
        tailed = [pair for pair, rel in p.relations.items() if rel.tail]

        def closed(m1, m2):
            return not any(m1[hi] and m2[lo] for hi, lo in tailed)

        pairs.sort(key=lambda pair: not closed(*pair))  # closed forms first
        interned, requested = {}, set()
        for m1, m2 in pairs:
            got = p._table[p._number(m1)][p._number(m2)]
            want = _reference_normal_form(p, {p.mono_word(m1) + p.mono_word(m2): 1})
            assert dict(_decoded(p, got)) == want and len(got) == len(want), (m1, m2)
            for mono, c in _decoded(p, got):
                # an int where integral, a Fraction otherwise
                assert type(c) is int or (type(c) is Fraction and c.denominator != 1), c
                # equal monomials are one tuple
                assert interned.setdefault(mono, mono) is mono
            if closed(m1, m2):
                assert not _stored(p)
            else:
                assert _stored(p)[m1, m2] is got
                requested.add((m1, m2))
                # smaller products are built for confluent presentations only
                if not p.confluence().ok:
                    assert set(_stored(p)) == requested
                tabled.add(p.name)

    @hypothesis.settings(derandomize=True, max_examples=80, deadline=None)
    @hypothesis.given(nilpotent_lie_algebras(), st.data())
    def random_algebras(algebra, data):
        check(algebra[0], data)

    random_algebras()
    # each fixed presentation gets its own examples, so none is left undrawn
    for make in makers:
        @hypothesis.settings(derandomize=True, max_examples=12, deadline=None)
        @hypothesis.given(st.data())
        def fixed(data):
            check(make(), data)

        fixed()
    named = {"J_scaled_d", "qskew_with_tail", "qskew_mixed", "residual", "L_heavy", "J", "L", "H6",
             "U_n5", "heis3"}
    assert named | {"U(g)"} <= tabled


def test_associativity_oracle():
    # (xy)z = x(yz) needs no reference straightener; every tailed product
    # below is built from (monomial x generator) entries of the product table
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    tabled = []

    def check(p, top, data):
        monos = st.tuples(*[st.integers(0, top)] * len(p.alphabet))
        coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool)
        x, y, z = (data.draw(st.dictionaries(monos, coeffs, min_size=1, max_size=3).map(p.element))
                   for _ in range(3))
        assert p.multiply(p.multiply(x, y), z) == p.multiply(x, p.multiply(y, z))
        tabled.append(any(sum(m2) == 1 for _, m2 in _stored(p)))

    @hypothesis.settings(derandomize=True, max_examples=60, deadline=None)
    @hypothesis.given(nilpotent_lie_algebras(), st.data())
    def random_algebras(algebra, data):
        check(algebra[0], 1, data)

    @hypothesis.settings(derandomize=True, max_examples=60, deadline=None)
    @hypothesis.given(st.data())
    def qskew(data):
        check(data.draw(st.sampled_from((_qskew_with_tail, _qskew_mixed)))(), 2, data)

    random_algebras()
    assert any(tabled)
    tabled.clear()
    qskew()
    assert any(tabled)


def test_deep_table_products():
    # each product walks a chain of table entries as long as the exponent,
    # deeper than Python's default recursion limit of 1000
    for name, m1, m2, text in (
        ("heis3", (0, 1500, 0), (2, 0, 0), "x^2y^1500 - 3000xy^1499z + 2248500y^1498z^2"),
        ("U_n5", (0, 0, 1200, 0, 0), (0, 1, 0, 0, 0), "-1200xx2^1199 + x1x2^1200"),
    ):
        p = builtin(name)
        got = p.mono_product(m1, m2)
        assert got == p.normal_form({p.mono_word(m1) + p.mono_word(m2): 1}), name
        assert str(got) == text
        assert len(_stored(p)) >= 1200


def test_table_products_keep_the_term_budget(monkeypatch):
    p = builtin("U_n5")
    assert p.confluence().ok  # decided under the default budget
    m1, m2 = (0, 0, 3, 0, 3), (0, 3, 0, 3, 0)  # x2^3 x4^3 times x1^3 x3^3: 16 terms

    def straighten(x):
        raise AssertionError("a confluent presentation's product went through normal_form")

    monkeypatch.setattr(p, "normal_form", straighten)
    monkeypatch.setenv("HOPFKIT_MAX_TERMS", "3")
    with pytest.raises(
        BudgetExceeded,
        match=r"^intermediate expression has \d+ terms, budget is 3 "
        r"\(raise HOPFKIT_MAX_TERMS to override\)$",
    ):
        p._table[p._number(m1)][p._number(m2)]
    # entries finished before the budget stopped the build may stay, and are exact
    assert _stored(p) and (m1, m2) not in _entries(p)
    monkeypatch.undo()
    for (u, v), pairs in _stored(p).items():
        assert dict(_decoded(p, pairs)) == p.normal_form({p.mono_word(u) + p.mono_word(v): 1}).terms
    # the budget is read once per built table entry, the requested product included
    p = builtin("U_n5")
    p.confluence()
    reads = []
    monkeypatch.setattr(pbw, "term_budget", lambda: reads.append(1) or term_budget())
    assert len(p._table[p._number(m1)][p._number(m2)]) == 16
    assert len(reads) == len(_stored(p))


def test_table_reads_outside_a_call_read_the_variable_per_entry(monkeypatch):
    from hopfkit import freealg

    m1, m2 = (0, 0, 3, 0, 3), (0, 3, 0, 3, 0)
    reads = []
    read = freealg._read_budget
    monkeypatch.setattr(freealg, "_read_budget", lambda: reads.append(1) or read())
    sizes = []
    for scoped in (False, True):
        p = builtin("U_n5")
        p.confluence()
        reads.clear()
        with freealg._one_budget() if scoped else nullcontext():
            assert len(p._table[p._number(m1)][p._number(m2)]) == 16
        sizes.append((len(reads), len(_stored(p))))
    (outside, entries), inside = sizes
    assert outside == entries > 1 and inside == (1, entries)


def test_generator_entries_are_stored_once():
    # NF(m x_g) is the product (m, e_g): a later request for it reads the entry
    # that building a larger product stored, and stores no second copy
    p = builtin("heis3")
    assert str(p.mono_product((0, 3, 0), (2, 0, 0))) == "x^2y^3 - 6xy^2z + 6yz^2"
    size = len(_stored(p))
    for k in (1, 2, 3):
        m1, m2 = (0, k, 0), (1, 0, 0)
        stored = p._table[p._number(m1)].get(p._unit(0))
        assert stored is not None and p._table[p._number(m1)][p._number(m2)] is stored
    assert len(_stored(p)) == size


def test_tailed_entries_are_read_off_two_smaller_entries():
    # m_b = b' x_l: (a, b) sums the terms w of (a, b'), each through (w, e_l);
    # y^3 x^2 is read off the entry (y^3, e_x), stored for later reads
    p = builtin("heis3")
    y3, x2 = (0, 3, 0), (2, 0, 0)
    got = p.mono_product(y3, x2)
    assert got == p.normal_form({p.mono_word(y3) + p.mono_word(x2): 1})
    stored = _stored(p)[y3, (1, 0, 0)]
    assert p._table[p._number(y3)][p._unit(0)] is stored
    # y^3 x^3 is read off (y^3, x^2), which it stores, not built from (y^3, e_x) alone
    p = builtin("heis3")
    got = p.mono_product(y3, (3, 0, 0))
    assert got == p.normal_form({p.mono_word(y3) + p.mono_word((3, 0, 0)): 1})
    assert (y3, x2) in _stored(p) and (y3, (1, 0, 0)) in _stored(p)
    # x4 (x1 x3): (x4, x1) is a closed form, taken in place and not stored, and
    # only the last letter x3 crosses x4, through the stored entry (x1 x4, e_x3)
    p = builtin("U_n5")
    m1, m2 = (0, 0, 0, 0, 1), (0, 1, 0, 1, 0)
    got = p.mono_product(m1, m2)
    assert got == p.normal_form({p.mono_word(m1) + p.mono_word(m2): 1})
    assert str(got) == "-xx1 + x1x3x4"
    assert set(_stored(p)) == {(m1, m2), ((0, 1, 0, 0, 1), (0, 0, 0, 1, 0))}
    assert (m1, (0, 1, 0, 0, 0)) not in _entries(p)


def test_a_build_reads_a_stored_pair_before_its_closed_form(monkeypatch):
    # _steps looks each pair up in the table first, by get: a stored pair is
    # read with no closed form computed and no row made
    p = builtin("J")
    solve_antipode(p, 7)
    monos, table = p._monos, p._table
    stored = {(a, b) for a, row in table.items() for b in row}
    calls = []
    closed = p._closed
    monkeypatch.setattr(p, "_closed", lambda a, b: calls.append((a, b)) or closed(a, b))
    tailed = [pair for pair, rel in p.relations.items() if rel.tail]
    builds = [(a, b) for a, b in sorted(stored)
              if any(monos[a][hi] and monos[b][lo] for hi, lo in tailed)]
    silent = 0  # builds that compute no closed form at all
    for a, b in builds:
        calls.clear()
        steps = p._steps(a, b)
        with pytest.raises(StopIteration) as built:  # every pair it lacks is a closed form
            next(steps)
        assert built.value.value == table[a][b], (monos[a], monos[b])
        assert not stored & set(calls)
        silent += not calls
    assert len(builds) > 1000 and silent > 100
    assert {(a, b) for a, row in table.items() for b in row} == stored


def test_last_letters_and_relation_ids_match_the_monomials():
    p = builtin("J")
    solve_antipode(p, 7)
    monos, n = p._monos, len(p.alphabet)
    for i in range(1, len(monos)):
        k, u, r = p._lasts[i]
        assert k == max(j for j, e in enumerate(monos[i]) if e)
        assert monos[r] == tuple(int(j == k) for j in range(n))
        assert tuple(map(add, monos[u], monos[r])) == monos[i]
    for pair, rel in p.relations.items():
        q, tails = p._relation_ids[pair]
        assert q == rel.q and type(q) is int
        assert {monos[t]: c for t, c in tails} == {
            pbw._word_to_monomial(word, n): c for word, c in rel.tail.items()}


def test_a_presentation_used_for_products_is_freed_by_reference_counting():
    # the table's rows and the per-id memos hold the presentation weakly, so
    # products leave no reference cycle through it (solve_antipode does leave
    # one, through the coproduct machine it keeps in p._hopf_machine)
    gc.disable()
    try:
        p = builtin("J")
        p.multiply(p.gen("b") ** 3 * p.gen("w"), p.gen("a") * p.gen("d") * p.gen("z") ** 2)
        p.mono_product((0, 2, 0, 0, 3, 0), (1, 0, 0, 2, 0, 0))
        assert p._lasts and p._relation_ids and any(p._table.values())
        ref = weakref.ref(p)
        del p
        assert ref() is None
    finally:
        gc.enable()


def _check_table(p):
    """Every entry of p's product table against the max() scan's straightening
    of the joined word, and the id invariants; returns the entries checked."""
    monos, ids = p._monos, p._ids
    assert monos[0] == (0,) * len(p.alphabet)  # id 0 is the empty monomial
    assert sorted(ids.values()) == list(range(len(monos)))  # ids are dense
    for m, i in ids.items():
        assert monos[i] is m
    tailed = [pair for pair, rel in p.relations.items() if rel.tail]
    entries = _entries(p)
    for (m1, m2), pairs in entries.items():
        want = _reference_normal_form(p, {p.mono_word(m1) + p.mono_word(m2): 1})
        assert dict(_decoded(p, pairs)) == want and len(pairs) == len(want), (p.name, m1, m2)
        if any(m1[hi] and m2[lo] for hi, lo in tailed):
            assert p._shared[pairs] is pairs  # equal built entries are one tuple
        elif pairs[1:] == () and pairs[0][1] == 1:
            assert pairs is p._ones[pairs[0][0]]  # a closed form is its id's one tuple
    return len(entries)


def test_every_table_entry_matches_the_reference_straightening():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    seen = {}  # name -> (entries, tailed entries, entries with a coefficient not 1)

    def check(p, data):
        monos = st.tuples(*[st.integers(0, 1)] * len(p.alphabet))
        coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool)
        x, y = (data.draw(st.dictionaries(monos, coeffs, min_size=1, max_size=3).map(p.element))
                for _ in range(2))
        p.multiply(p.multiply(x, y), p.gen(data.draw(st.integers(0, len(p.alphabet) - 1))))
        p.mono_product(*data.draw(st.tuples(monos, monos)))
        counts = seen.setdefault(p.name, [0, 0, 0])
        counts[0] += _check_table(p)
        counts[1] += len(_stored(p))
        counts[2] += sum(c != 1 for pairs in _entries(p).values() for _, c in pairs)

    @hypothesis.settings(derandomize=True, max_examples=25, deadline=None)
    @hypothesis.given(nilpotent_lie_algebras(), st.data())
    def random_algebras(algebra, data):
        check(algebra[0], data)

    random_algebras()
    for make in (lambda: builtin("qplane(3/2)"), _residual):
        @hypothesis.settings(derandomize=True, max_examples=10, deadline=None)
        @hypothesis.given(st.data())
        def fixed(data):
            check(make(), data)

        fixed()
    assert not _residual().confluence().ok  # its tailed entries straighten the joined word
    assert seen["U(g)"][1] and seen["residual"][1]
    assert seen["qplane(3/2)"][2]  # closed forms with q powers


def test_antipode_table_of_j_matches_the_reference_straightening():
    # every entry that solving and checking J's antipode wrote, tailed entries
    # built from two smaller ones among them, is the joined word's normal form
    p = builtin("J")
    solve_antipode(p, 6)
    assert _check_table(p) > 1000 and len(_stored(p)) > 100


def test_tailless_words_keep_the_budget_point(monkeypatch):
    # a held swap with no tail changes no count, so only the first swap of a
    # popped word is checked; words of distinct lengths stay held through
    # every swap, and the budget fires where the max() scan, which checks
    # after every step, fires, with the same count
    p = builtin("qplane(3/2)")
    x = {(0,) * 6 + (1,): 1, (1,) * 4 + (0,): 2, (1, 1, 1, 0): 3, (1, 0): 5}
    for budget in ("2", "3", "4"):
        monkeypatch.setenv("HOPFKIT_MAX_TERMS", budget)
        expected = _outcome(lambda: _reference_normal_form(p, x))
        assert _outcome(lambda: p.normal_form(x).terms) == expected, budget
    q = Fraction(3, 2)  # y x = q x y
    assert dict(expected) == {(6, 1): 1, (1, 4): 2 * q**4, (1, 3): 3 * q**3, (1, 1): 5 * q}
    monkeypatch.setenv("HOPFKIT_MAX_TERMS", "3")
    with pytest.raises(BudgetExceeded) as info:
        p.normal_form(x)
    assert str(info.value) == str(over_budget(4, 3))


# ----- the termination certificate psi -------------------------------------

# yx = xy + y^2 - x^2 rewrites in a cycle; six commuting spectators make n = 8
CYCLING_TEXT = """\
name: cycling
generators: x:1 y:1 u1:1 u2:1 u3:1 u4:1 u5:1 u6:1
rel: y x = x y + y^2 - x^2
coproduct: none
"""


def _l_plus(extra):
    names = " ".join(f"e{i}:1" for i in range(1, extra + 1))
    return f"""\
name: L_plus{extra}
generators: a:1 b:1 c:2 z:3 w:3 {names}
rel: b a = a b - c
rel: w z = z w - 1/3 c^3
delta: z = z (x) 1 + 1 (x) z + a (x) c - c (x) a
delta: w = w (x) 1 + 1 (x) w + b (x) c - c (x) b
"""


# the tail c^12 keeps the head's weight and is longer, so psi must drop by
# at least one across it: psi(z) + psi(w) >= 12 psi(c) + 1 needs an entry 7
HEAVY_TAIL_TEXT = """\
name: heavy_tail
generators: c:1 z:6 w:6
rel: w z = z w + c^12
coproduct: none
"""

ACCEPTED_TEXTS = {
    _l_plus(3): (1, 1, 1, 2, 2, 1, 1, 1),
    _l_plus(4): (1, 1, 1, 2, 2, 1, 1, 1, 1),
    HEAVY_TAIL_TEXT: (1, 6, 7),
}


def test_cycling_system_rejected():
    with pytest.raises(TailNotSmaller):
        parse_presentation(CYCLING_TEXT)


@pytest.mark.parametrize("text,psi", ACCEPTED_TEXTS.items(), ids=["L+3", "L+4", "heavy_tail"])
def test_certificate_psi(text, psi):
    p = parse_presentation(text)
    assert p.psi == psi
    assert all(type(entry) is int for entry in p.psi)
    report = p.confluence()
    assert report.ok
    assert report.triples_checked == comb(len(p.alphabet), 3)


def test_straighten_stores_integral_tail_products_as_ints(monkeypatch):
    """L's tail -1/3 c^3 times an int coefficient divisible by 3 is
    integral; _straighten stores it as an int, so no integral Fraction made
    by a tail product enters its maps.  Tail coefficients that record
    their products find such products on 150 seeded words."""
    p = builtin("L")
    made = []  # every Fraction a tail coefficient made, kept alive for `is`

    class Recording(Fraction):
        def __rmul__(self, other):
            product = Fraction(self.numerator * other.numerator, self.denominator * other.denominator)
            made.append(product)
            return product

    p._rewrites = [
        rewrite and (rewrite[0], tuple((word, Recording(c) if type(c) is Fraction else c, *rest)
                                       for word, c, *rest in rewrite[1]))
        for rewrite in p._rewrites
    ]
    stored = []
    monkeypatch.setattr(pbw, "_acc", lambda d, k, v: stored.append(v) or _acc(d, k, v))
    rng = random.Random(7)
    n = len(p.alphabet)
    for i in range(150):
        word = tuple(rng.randrange(n) for _ in range(4 + (i * 7) % 13))
        assert p._straighten({word: 1}) == _reference_normal_form(p, {word: 1})
    integral = {id(x) for x in made if x.denominator == 1}
    assert integral
    assert not any(id(v) in integral for v in stored)


def test_straighten_rewrites_a_popped_integral_sum_on_an_int():
    """Two Fractions can sum to an integral Fraction in the live map;
    each popped coefficient that is no int passes through _integral, so on
    150 seeded L words the raw map holds no integral Fraction (it held 42
    of 533 coefficients when such sums stayed Fractions)."""
    p = builtin("L")
    rng = random.Random(7)
    n = len(p.alphabet)
    coeffs = []
    for i in range(150):
        word = tuple(rng.randrange(n) for _ in range(4 + (i * 7) % 13))
        raw = p._straighten({word: 1})
        assert raw == _reference_normal_form(p, {word: 1})
        coeffs += raw.values()
    assert len(coeffs) == 533
    assert not [c for c in coeffs if type(c) is Fraction and c.denominator == 1]


DEBUG_BUILTINS = ("H6", "J", "L", "U_n5", "heis3", "poly(1)", "poly(3)", "qplane(3/2)", "qplane(-1)")


def _straighten_seeded(p, rng, count, longest):
    """Straighten count seeded words against the product of their generators."""
    gens = [p.gen(name) for name in p.alphabet.names]
    for _ in range(count):
        word = tuple(rng.randrange(len(gens)) for _ in range(rng.randint(2, longest)))
        product_of_gens = p.one()
        for letter in word:
            product_of_gens = product_of_gens * gens[letter]
        assert p.normal_form({word: 1}) == product_of_gens


@pytest.mark.parametrize(
    "source,longest",
    [(_l_plus(4), 9), (HEAVY_TAIL_TEXT, 9), ("L_heavy", 9)]
    + [(name, 14) for name in DEBUG_BUILTINS],
    ids=["L+4", "heavy_tail", "L_heavy", *DEBUG_BUILTINS],
)
def test_certificate_orders_every_rewrite(source, longest, monkeypatch):
    # with the debug flag on, normal_form asserts that each popped heap entry
    # is the key rewrite_key gives its word, and that each rewrite lowers it
    monkeypatch.setattr(pbw, "_DEBUG_ORDER", True)
    if source in DEBUG_BUILTINS:
        p = builtin(source)
    elif source == "L_heavy":
        p = load_presentation(PRESENTATIONS / "L_heavy.hopf")
    else:
        p = parse_presentation(source)
    _straighten_seeded(p, random.Random(4), 60, longest)


def test_debug_order_checks_on_random_enveloping_algebras(monkeypatch):
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    monkeypatch.setattr(pbw, "_DEBUG_ORDER", True)
    # the checks are live: a key that disagrees with the heap's entry is caught
    p = builtin("heis3")
    monkeypatch.setattr(p, "rewrite_key", lambda word: (0, 0, 0, ()))
    with pytest.raises(AssertionError):
        p.normal_form({(1, 0): 1})

    @hypothesis.settings(derandomize=True, max_examples=40, deadline=None)
    @hypothesis.given(nilpotent_lie_algebras(), st.integers(0, 2**32 - 1))
    def check(algebra, seed):
        _straighten_seeded(algebra[0], random.Random(seed), 20, 9)

    check()


@pytest.mark.parametrize("text", list(ACCEPTED_TEXTS), ids=["L+3", "L+4", "heavy_tail"])
def test_dump_round_trip_keeps_psi(text):
    p = parse_presentation(text)
    again = parse_presentation(dump_presentation(p))
    assert again == p
    assert again.psi == p.psi


def _psi_ok(psi, constraints):
    """Whether psi puts every equal-weight tail below its head in the
    order (psi-weight, length, word), compared directly."""
    for (hi, lo), word in constraints:
        head = (psi[hi] + psi[lo], 2, (hi, lo))
        tail = (sum(psi[letter] for letter in word), len(word), word)
        if not tail < head:
            return False
    return True


def _brute_force_psi(p, constraints):
    """The exhaustive search the exact certificate replaced: every vector of
    [1, bound]^n in itertools.product order, for bound = 1, ..., 6."""
    n = len(p.alphabet)
    if not constraints:
        return tuple([1] * n)
    for bound in range(1, 7):
        for psi in product(range(1, bound + 1), repeat=n):
            if max(psi) != bound:
                continue
            if _psi_ok(psi, constraints):
                return psi
    return None


def test_psi_matches_brute_force():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @st.composite
    def row_systems(draw):
        n = draw(st.integers(2, 6))
        pairs = [(hi, lo) for hi in range(n) for lo in range(hi)]
        constraints = draw(
            st.lists(
                st.tuples(
                    st.sampled_from(pairs),
                    st.lists(st.integers(0, n - 1), min_size=1, max_size=4).map(
                        lambda letters: tuple(sorted(letters))
                    ),
                ),
                max_size=4,
            )
        )
        return n, constraints

    @hypothesis.settings(derandomize=True, max_examples=200, deadline=None)
    @hypothesis.given(row_systems())
    def check(system):
        n, constraints = system
        p = builtin(f"poly({n})")
        expected = _brute_force_psi(p, constraints)
        got = p._find_psi(constraints)
        if expected is not None:
            assert got == expected
        if got is None:
            assert expected is None
        else:
            assert _psi_ok(got, constraints)

    check()


def test_lp_feasibility_matches_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.solvers.simplex import InfeasibleLPError, linprog

    rng = random.Random(1977)
    verdicts = set()
    for _ in range(300):
        n = rng.randint(2, 9)
        rows = [
            (tuple(rng.choice((-3, -2, -1, 0, 0, 1, 2)) for _ in range(n)), rng.randint(0, 1))
            for _ in range(rng.randint(1, 5))
        ]
        # with psi = 1 + x and x >= 0, a.psi >= r reads -a.x <= sum(a) - r
        A = sympy.Matrix([[-c for c in a] for a, _ in rows])
        b = sympy.Matrix([sum(a) - r for a, r in rows])
        try:
            linprog(sympy.zeros(n, 1), A, b)
            expected = True
        except InfeasibleLPError:
            expected = False
        assert pbw._lp_feasible(rows, n) == expected, rows
        verdicts.add(expected)
    assert verdicts == {True, False}


# ----- the rewrite heap against the max() scan it replaced -------------------


def _reference_normal_form(p, x):
    """The straightening loop the rewrite heap replaced: every step takes the
    largest live word by a max() scan over p.rewrite_key.  Returns the terms."""
    work = {}
    for word, coeff in x.items():
        if coeff:
            _acc(work, tuple(word), Fraction(coeff))
    out = {}
    key = p.rewrite_key
    n = len(p.alphabet)
    budget = term_budget()
    while work:
        word = max(work, key=key)
        coeff = work.pop(word)
        pos = -1
        for i in range(len(word) - 1):
            if word[i] > word[i + 1]:
                pos = i
                break
        if pos < 0:
            _acc(out, pbw._word_to_monomial(word, n), coeff)
            continue
        hi, lo = word[pos], word[pos + 1]
        rel = p.relations[(hi, lo)]
        prefix, suffix = word[:pos], word[pos + 2:]
        _acc(work, prefix + (lo, hi) + suffix, coeff * rel.q)
        for tail_word, tail_coeff in rel.tail.items():
            _acc(work, prefix + tail_word + suffix, coeff * tail_coeff)
        if len(work) + len(out) > budget:
            raise over_budget(len(work) + len(out), budget)
    return out


def _outcome(straighten):
    """The terms in the order they came out, or the budget error's text."""
    try:
        return list(straighten().items())
    except BudgetExceeded as err:
        return str(err)


QS = (Fraction(1), Fraction(-1), Fraction(2, 3), Fraction(-3, 2))
EQUIVALENCE_BUILTINS = (
    "H6", "J", "L", "U_n5", "heis3", "poly(1)", "poly(2)", "qplane(-1)", "qplane(2/3)", "qplane(-3/2)",
)


def test_heap_matches_max_scan(monkeypatch):
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @st.composite
    def random_presentations(draw):
        # tails of lower or equal weight; most of these systems are not
        # confluent, and equal-weight ones without a certificate are refused
        n = draw(st.integers(1, 6))
        weights = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
        relations = {}
        pairs = [(hi, lo) for hi in range(n) for lo in range(hi)]
        for hi, lo in draw(st.sets(st.sampled_from(pairs)) if pairs else st.just(())):
            tail = {}
            for letters in draw(st.lists(st.lists(st.integers(0, n - 1), max_size=3), max_size=2)):
                word = tuple(sorted(letters))
                if sum(weights[letter] for letter in word) <= weights[hi] + weights[lo]:
                    tail[word] = draw(st.sampled_from(QS))
            relations[(hi, lo)] = (draw(st.sampled_from(QS)), tail)
        try:
            return Presentation([(f"g{i}", w) for i, w in enumerate(weights)], relations)
        except TailNotSmaller:
            hypothesis.reject()

    @st.composite
    def cases(draw):
        if draw(st.booleans()):
            p = builtin(draw(st.sampled_from(EQUIVALENCE_BUILTINS)))
        else:
            p = draw(random_presentations())
        letters = st.lists(st.integers(0, len(p.alphabet) - 1), max_size=8)
        if draw(st.booleans()):
            # rearrangements of one word pass through the same words, so with
            # unit coefficients their terms cancel and come back
            words = draw(st.lists(st.permutations(draw(letters)), min_size=2, max_size=4))
            coeffs = st.sampled_from(QS[:2])
        else:
            words = draw(st.lists(letters, min_size=1, max_size=4))
            coeffs = st.sampled_from(QS)
        return p, {tuple(word): draw(coeffs) for word in words}

    @hypothesis.settings(derandomize=True, max_examples=400, deadline=None)
    @hypothesis.given(cases())
    # in L, z w z a cancels a w z^2 early on and brings it back later
    @hypothesis.example((builtin("L"), {(0, 4, 3, 3): 1, (3, 4, 3, 0): -1}))
    @hypothesis.example((builtin("poly(1)"), {(0, 0): 2, (): -1}))
    @hypothesis.example((builtin("qplane(-1)"), {(1, 0, 1, 0): 1, (0, 1, 1, 0): 1}))
    def check(case):
        p, x = case
        for budget in ("2000", "5"):
            monkeypatch.setenv("HOPFKIT_MAX_TERMS", budget)
            expected = _outcome(lambda: _reference_normal_form(p, x))
            assert _outcome(lambda: p.normal_form(x).terms) == expected
            assert _outcome(lambda: p.normal_form(FreeElement(p.alphabet, x)).terms) == expected

    check()


# tails that share their head's weight, psi-weight and length (b c under d a,
# a d under c b), so a tail can wait beside the word rewritten in place; not
# confluent
SHARED_CLASS = Presentation(
    [("a", 1), ("b", 1), ("c", 1), ("d", 1)],
    {
        ("d", "a"): (-1, {(1, 2): 1}),
        ("c", "b"): (Fraction(2, 3), {(0, 3): 1}),
        ("d", "b"): (1, {(0,): 1}),
    },
    name="shared_class",
)


def test_heap_matches_max_scan_on_long_words(monkeypatch):
    # a long word alone runs free; rearrangements of one word share their
    # (weight, psi-weight, length), so their swaps are tested one by one
    presentations = [builtin(name) for name in EQUIVALENCE_BUILTINS] + [SHARED_CLASS]
    rng = random.Random(20)
    for p in presentations:
        for _ in range(6):
            n = len(p.alphabet)
            word = [rng.randrange(n) for _ in range(rng.randint(10, 20))]
            rearranged = {tuple(rng.sample(word, len(word))): rng.choice(QS) for _ in range(3)}
            for x in ({tuple(word): rng.choice(QS)}, rearranged):
                for budget in ("2000", "5"):
                    monkeypatch.setenv("HOPFKIT_MAX_TERMS", budget)
                    expected = _outcome(lambda: _reference_normal_form(p, x))
                    assert _outcome(lambda: p.normal_form(x).terms) == expected, (p.name, x)


# ----- the rewrite loop against the one it was made leaner from --------------


def _pair_rewrites(p):
    """The rewrite table the older loop read: a dict by (hi, lo) pair."""
    n, key = len(p.alphabet), p.rewrite_key
    return {
        pair: (None if rel.q == 1 else (rel.q.numerator, rel.q.denominator), tuple(
            (word, pbw._integral(coeff), *(h - t for h, t in zip(key(pair)[:3], key(word))),
             pbw._word_code(word, n), n ** len(word))
            for word, coeff in rel.tail.items()
        ))
        for pair, rel in p.relations.items()
    }


def _older_straighten(p, work, ties=None):
    """Presentation._straighten before the descent-start hint, the flat
    rewrite table and the code test on contested swaps: each popped word
    scanned from 0, pairs looked up by tuple, and every contested swap
    compared as a whole entry.  ties, if given, records per contested swap
    whose top has the held word's code whether that word is live."""
    n, weights, psi = len(p.alphabet), p.alphabet.weights, p.psi
    heap = [(-sum(weights[g] for g in word), -sum(psi[g] for g in word),
             -len(word), -pbw._word_code(word, n), word) for word in work]
    heapify(heap)
    rewrites, out = _pair_rewrites(p), {}
    budget = term_budget()
    while heap:
        kw, kpsi, klen, kcode, word = heappop(heap)
        coeff = work.pop(word, None)
        if coeff is None:
            continue
        w, size, start, below = list(word), len(word), 0, (kw, kpsi, klen + 1)
        first, qn, qd = True, 1, 1
        while True:
            for pos in range(start, size - 1):
                if w[pos] > w[pos + 1]:
                    break
            else:
                _acc(out, pbw._word_to_monomial(w, n), pbw._scaled(coeff, qn, qd) if qn != qd else coeff)
                break
            hi, lo = w[pos], w[pos + 1]
            q, tails = rewrites[hi, lo]
            shift = n ** (size - pos - 2)
            if tails:
                if qn != qd:
                    coeff, qn, qd = pbw._scaled(coeff, qn, qd), 1, 1
                prefix, suffix = tuple(w[:pos]), tuple(w[pos + 2:])
                prefix_code, suffix_code = -kcode // (shift * n * n), -kcode % shift
                for tail_word, tail_coeff, dw, dpsi, dlen, tcode, tscale in tails:
                    produced = prefix + tail_word + suffix
                    if produced not in work:
                        code = (prefix_code * tscale + tcode) * shift + suffix_code
                        heappush(heap, (kw + dw, kpsi + dpsi, klen + dlen, -code, produced))
                    product = coeff * tail_coeff
                    if type(product) is not int:
                        product = pbw._integral(product)
                    _acc(work, produced, product)
            w[pos], w[pos + 1] = lo, hi
            kcode += (hi - lo) * (n - 1) * shift
            if q is not None:
                qn *= q[0]
                qd *= q[1]
            held = True
            if heap and heap[0] < below:
                swapped = tuple(w)
                entry = (kw, kpsi, klen, kcode, swapped)
                if ties is not None and heap[0][3] == kcode:
                    ties.append(swapped in work)
                if swapped in work or heap[0] < entry:
                    if swapped not in work:
                        heappush(heap, entry)
                    _acc(work, swapped, pbw._scaled(coeff, qn, qd) if qn != qd else coeff)
                    held = False
            if first or tails or not held:
                if len(work) + held + len(out) > budget:
                    raise over_budget(len(work) + held + len(out), budget)
                first = False
            if not held:
                break
            start = pos - 1 if pos and w[pos - 1] > lo else pos + 1
    return out


def _budget_outcomes(straighten, x, monkeypatch):
    """The terms in order at no budget, then the outcome at budgets 1-64."""
    monkeypatch.delenv("HOPFKIT_MAX_TERMS", raising=False)
    outcomes = [list(straighten(dict(x)).items())]
    for budget in range(1, 65):
        monkeypatch.setenv("HOPFKIT_MAX_TERMS", str(budget))
        outcomes.append(_outcome(lambda: straighten(dict(x))))
    return outcomes


def test_straighten_keeps_the_older_loops_order_and_budget_points(monkeypatch):
    # seeded single words, and rearrangements of one word, whose swaps are
    # contested; L_heavy's tail c^3 lengthens words past their input length
    presentations = [builtin(name) for name in EQUIVALENCE_BUILTINS]
    presentations += [SHARED_CLASS, load_presentation(PRESENTATIONS / "L_heavy.hopf")]
    rng = random.Random(40)
    ties = []
    for p in presentations:
        n = len(p.alphabet)
        for _ in range(4):
            word = [rng.randrange(n) for _ in range(rng.randint(4, 10))]
            coeffs = [pbw._integral(c) for c in QS]
            rearranged = {tuple(rng.sample(word, len(word))): rng.choice(coeffs[:2]) for _ in range(3)}
            for x in ({tuple(word): rng.choice(coeffs)}, rearranged):
                _older_straighten(p, dict(x), ties)
                assert _budget_outcomes(p._straighten, x, monkeypatch) == _budget_outcomes(
                    lambda work: _older_straighten(p, work), x, monkeypatch), (p.name, x)
    assert set(ties) == {False, True}


def test_a_dead_entry_of_the_held_word_leaves_it_held(monkeypatch):
    # in heis3, y x z (-1) swaps to x y z (1) under the top x z y, merges and
    # cancels it, leaving a dead entry; x z y (-1) then swaps to x y z, the
    # heap top's very code, and as x y z is not live it is held, not pushed
    p = builtin("heis3")
    x = {(1, 0, 2): -1, (0, 1, 2): 1, (0, 2, 1): -1}
    ties = []
    _older_straighten(p, dict(x), ties)
    assert ties == [False]
    pushed = []
    monkeypatch.setattr(pbw, "heappush",
                        lambda heap, entry: pushed.append(entry[4]) or heappush(heap, entry))
    assert list(p._straighten(dict(x)).items()) == [((1, 1, 1), -1), ((0, 0, 2), 1)]
    assert pushed == [(2, 2)]
    monkeypatch.undo()
    assert _budget_outcomes(p._straighten, x, monkeypatch) == _budget_outcomes(
        lambda work: _older_straighten(p, work), x, monkeypatch)


def test_a_q_commuting_word_is_rewritten_in_place(monkeypatch):
    # y^20 x^20 in qplane(3/2) takes 400 swaps; each swapped word is the
    # heap's next pop, so all of them happen in place after the first pop
    pops = []

    def counting(heap):
        pops.append(heap[0])
        return heappop(heap)

    monkeypatch.setattr(pbw, "heappop", counting)
    p = builtin("qplane(3/2)")
    assert p.normal_form({(1,) * 20 + (0,) * 20: 1}).terms == {(20, 20): Fraction(3, 2) ** 400}
    assert len(pops) <= 2


@pytest.mark.parametrize(
    "x",
    [{(-1,): 1}, {(6,): 1}, {(6, 0): 1}, {(0, -1): 1}, {(1.0, 0): 1}, {(1, 0.0): 1}, "free"],
    ids=["negative", "past_end", "past_end_first", "negative_second", "float_first", "float_second",
         "free_element"],
)
def test_out_of_range_letters_rejected(x):
    J = builtin("J")
    if x == "free":  # construction rejects the letter too, so build it raw
        x = FreeElement._raw(J.alphabet, {(-1,): Fraction(1)})
    with pytest.raises(AlphabetMismatch, match=r"letter (-1|6|1\.0|0\.0) "):
        J.normal_form(x)


# ----- int coefficients inside, Fractions at the boundary --------------------


@pytest.mark.parametrize(
    "make", [lambda: builtin("J"), lambda: builtin("L"), lambda: builtin("qplane(3/2)"), _qskew_mixed],
    ids=["J", "L", "qplane(3/2)", "qskew_mixed"],
)
def test_public_coefficients_stay_fractions(make):
    # normal_form straightens on ints where it can; what it, multiply and
    # mono_product hand out are Fractions all the same, for every input kind
    p = make()
    rng = random.Random(36)
    n = len(p.alphabet)
    for _ in range(12):
        words = [tuple(rng.randrange(n) for _ in range(rng.randint(1, 8))) for _ in range(3)]
        inputs = (
            {words[0]: 1},
            {word: Fraction(rng.randint(-4, 4) or 1, rng.randint(1, 3)) for word in words},
            FreeElement(p.alphabet, {word: rng.choice(QS) for word in words}),
        )
        outputs = [p.normal_form(x) for x in inputs]
        outputs += [p.multiply(x, y) for x, y in product(inputs, repeat=2)]
        outputs += [p.mono_product(m1, m2) for m1 in outputs[1].terms for m2 in outputs[0].terms]
        for x, nf in zip(inputs, outputs):
            terms = x.terms if isinstance(x, FreeElement) else x
            assert nf.terms == _reference_normal_form(p, terms)
        for out in outputs:
            assert {type(c) for c in out.terms.values()} <= {Fraction}, out


def test_a_held_run_takes_its_q_power_once(monkeypatch):
    # y^20 x^20 in qplane(3/2) is one held run of 400 swaps by q = 3/2; their
    # q's are gathered as one numerator and one denominator and multiplied in
    # once, when the ordered word goes to the result: no Fraction product per
    # swap, where one per swap made 400
    p = builtin("qplane(3/2)")
    want = {(20, 20): Fraction(3, 2) ** 400}
    products = []

    def counting(op):
        def counted(a, b):
            products.append((a, b))
            return op(a, b)
        return counted

    monkeypatch.setattr(Fraction, "__mul__", counting(Fraction.__mul__))
    monkeypatch.setattr(Fraction, "__rmul__", counting(Fraction.__rmul__))
    terms = p.normal_form({(1,) * 20 + (0,) * 20: 1}).terms
    monkeypatch.undo()
    assert terms == want
    assert len(products) <= 2


def test_gathered_q_powers_are_flushed_before_tails_and_pushes(monkeypatch):
    # held runs that mix q != 1 swaps with tailed pairs: the gathered q-power
    # is multiplied in before a tail term is formed and before the swapped
    # word is pushed or merged, so terms, their order and the budget point
    # are the max() scan's
    flushed = []

    def recording(c, num, den):
        flushed.append((num, den))
        return scaled(c, num, den)

    scaled = pbw._scaled
    monkeypatch.setattr(pbw, "_scaled", recording)
    rng = random.Random(36)
    for p in (_qskew_mixed(), _qskew_with_tail()):
        n = len(p.alphabet)
        for length in range(2, 25):
            for _ in range(2):
                x = {tuple(rng.randrange(n) for _ in range(length)): rng.choice(QS)}
                for budget in (None, "2", "5", "20"):
                    if budget is None:
                        monkeypatch.delenv("HOPFKIT_MAX_TERMS", raising=False)
                    else:
                        monkeypatch.setenv("HOPFKIT_MAX_TERMS", budget)
                    expected = _outcome(lambda: _reference_normal_form(p, x))
                    assert _outcome(lambda: p.normal_form(x).terms) == expected, (p.name, x, budget)
    # qskew_mixed's single swaps take q = 2, 3 or 6; some flushes carry more
    assert {num for num, den in flushed} - {2, 3, 6}
