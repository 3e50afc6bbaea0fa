"""Coproduct machinery, axiom checks, antipode construction."""

from fractions import Fraction
from functools import partial
from math import comb
from pathlib import Path
import sys

import pytest

from hopfkit import (
    Tensor3Element,
    TensorElement,
    antipode,
    builtin,
    check_coassociativity,
    check_counit,
    check_involutive_antipode,
    check_relation_compatibility,
    coproduct,
    counit,
    drop_correction,
    hilbert_series,
    is_primitive,
    load_presentation,
    parse_presentation,
    reduced_coproduct,
    solve_antipode,
    tensor,
)
from hopfkit.errors import (
    AxiomFailure,
    BudgetExceeded,
    NoCoproductAttached,
    NonzeroConstantTerm,
    QSkewRejected,
)
from hopfkit.freealg import DEFAULT_MAX_TERMS, _Memo as Memo, _acc, check_budget, over_budget
from hopfkit.pbw import _ONE, Presentation

from strategies import nilpotent_lie_algebras


def test_coproduct_of_primitive_generator():
    J = builtin("J")
    a = J.gen("a")
    assert str(coproduct(J, a)) == "1 (x) a + a (x) 1"
    assert str(reduced_coproduct(J, a)) == "0"
    assert reduced_coproduct(J, a).is_zero()


def test_coproduct_of_corrected_generator():
    J = builtin("J")
    d = J.gen("d")
    assert str(coproduct(J, d)) == "1 (x) d + c (x) c^2 + c^2 (x) c + d (x) 1"
    assert str(reduced_coproduct(J, d)) == "c (x) c^2 + c^2 (x) c"
    z = J.gen("z")
    assert str(reduced_coproduct(J, z)) == "a (x) c - c (x) a"


def test_coproduct_respects_unit_and_scalars():
    J = builtin("J")
    one = J.one()
    assert str(coproduct(J, one)) == "1 (x) 1"
    assert str(coproduct(J, J.scalar(3))) == "3 1 (x) 1"
    assert str(coproduct(J, J.zero())) == "0"


def test_coproduct_is_multiplicative():
    J = builtin("J")
    z, w = J.gen("z"), J.gen("w")
    assert coproduct(J, z * w) == coproduct(J, z) * coproduct(J, w)
    assert coproduct(J, w * z) == coproduct(J, w) * coproduct(J, z)
    # and therefore respects the straightening relation [z,w] = d
    lhs = coproduct(J, z) * coproduct(J, w) - coproduct(J, w) * coproduct(J, z)
    assert lhs == coproduct(J, J.gen("d"))


def test_tensor_element_arithmetic_and_rendering():
    J = builtin("J")
    z, c = J.gen("z"), J.gen("c")
    t = tensor(J.one(), z)
    assert str(t) == "1 (x) z"
    assert str(2 * t) == "2 1 (x) z"
    assert str(tensor(c, c) * 2) == "2c (x) c"
    assert str(tensor(c, c) - tensor(c, c)) == "0"
    prod = tensor(c, z) * tensor(c, z)
    assert str(prod) == "c^2 (x) z^2"
    # legs straighten independently; d (weight 3) sorts before zw (weight 4)
    w = J.gen("w")
    left = tensor(w, J.one()) * tensor(z, J.one())
    assert str(left) == "-d (x) 1 + zw (x) 1"


def test_tensor_element_arities():
    J = builtin("J")
    one, a, c = (0,) * 6, (1, 0, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0)
    pair = TensorElement(J, {(c, a): 2, (a, one): -1})
    assert str(pair) == "-a (x) 1 + 2c (x) a"
    assert pair == tensor(J.gen("c"), 2 * J.gen("a")) - tensor(J.gen("a"), J.one())
    triple = Tensor3Element(J, {(a, one, c): Fraction(1, 2), (c, c, a): -1})
    assert isinstance(triple, TensorElement)
    assert str(triple) == "1/2 a (x) 1 (x) c - c (x) c (x) a"
    assert triple == TensorElement(J, {(c, c, a): -1}) + TensorElement(J, {(a, one, c): Fraction(1, 2)})
    assert triple != pair
    assert str(triple - triple) == "0"
    assert triple - triple == pair - pair  # the zero tensor has every arity
    with pytest.raises(TypeError):
        triple + pair
    with pytest.raises(TypeError):
        triple * triple  # products live on the tensor square only
    # an integer never juxtaposes with an empty leg: "2 1 (x) a", not "21 (x) a"
    legs = TensorElement(J, {(one, a): 2, (one, one): -3, (a, one): 4})
    assert str(legs) == "-3 1 (x) 1 + 2 1 (x) a + 4a (x) 1"
    assert str(-legs) == "3 1 (x) 1 - 2 1 (x) a - 4a (x) 1"


def test_counit_values():
    J = builtin("J")
    assert counit(J, J.gen("a")) == 0
    assert counit(J, J.scalar(5) + J.gen("d")) == Fraction(5)
    assert isinstance(counit(J, J.one()), Fraction)


def test_primitivity():
    J = builtin("J")
    for g in ("a", "b", "c", "z", "w"):
        # a, b, c are primitive; z and w carry corrections
        expected = g in ("a", "b", "c")
        assert is_primitive(J, J.gen(g)) == expected, g
    assert not is_primitive(J, J.gen("d"))
    fixed = J.gen("d") - J.gen("c") ** 3 * Fraction(1, 3)
    assert is_primitive(J, fixed)
    # sums of primitives are primitive
    assert is_primitive(J, J.gen("a") - 2 * J.gen("b"))
    with pytest.raises(NonzeroConstantTerm):
        is_primitive(J, J.one() + J.gen("a"))


def test_relation_compatibility_passes_for_builtins():
    for name in ("H6", "J", "L", "U_n5", "heis3", "poly(2)"):
        report = check_relation_compatibility(builtin(name))
        assert report.ok, name
        assert not report.failures
    J = builtin("J")
    report = check_relation_compatibility(J)
    assert len(report.checks) == 15
    labels = {c.label for c in report.checks}
    assert "[z,w] - d" in labels
    assert "[a,b] - c" in labels
    assert "[a,c]" in labels


def test_relation_compatibility_catches_dropped_correction():
    bad = drop_correction(builtin("J"), "d")
    assert bad.name == "J (delta(d) dropped)"
    report = check_relation_compatibility(bad)
    assert not report.ok
    [failure] = report.failures
    assert failure.label == "[z,w] - d"
    assert str(failure.residual) == "-c (x) c^2 - c^2 (x) c"
    # the corrupted coproduct is still linearly consistent, so the
    # failure surfaces only in relation compatibility
    assert check_coassociativity(bad).ok
    assert check_counit(bad).ok


def test_coassociativity_report():
    J = builtin("J")
    report = check_coassociativity(J, samples=12, seed=3)
    assert report.ok
    assert len(report.generators) == 6
    assert len(report.monomials) == 12
    by_name = {g.name: g for g in report.generators}
    # the doubly iterated reduced coproduct of the degree-3 generator
    assert str(by_name["d"].left) == "2c (x) c (x) c"
    assert by_name["d"].left == by_name["d"].right
    assert str(by_name["a"].left) == "0"


def test_coassociativity_is_deterministic_per_seed():
    J = builtin("J")
    r1 = check_coassociativity(J, samples=8, seed=5)
    r2 = check_coassociativity(J, samples=8, seed=5)
    assert [m for m, _ in r1.monomials] == [m for m, _ in r2.monomials]


def test_counit_report():
    J = builtin("J")
    report = check_counit(J)
    assert report.ok
    assert all(flag for _, flag in report.generator_checks)
    assert all(residual == 0 for _, residual in report.relation_checks)


def test_antipode_on_generators():
    L = builtin("L")
    table = solve_antipode(L, weight_bound=6)
    for g in ("a", "b", "c", "z", "w"):
        assert str(table.of_gen(g)) == f"-{g}"
    J = builtin("J")
    tj = solve_antipode(J, weight_bound=6)
    assert str(tj.of_gen("d")) == "-d"
    assert tj.monomials_checked == len(J.enumerate_basis(6))


def test_antipode_is_antimultiplicative():
    L = builtin("L")
    table = solve_antipode(L, weight_bound=6)
    a, b = L.gen("a"), L.gen("b")
    # S(ab) = S(b)S(a) = ba = ab - c
    assert antipode(L, a * b, table) == a * b - L.gen("c")
    assert antipode(L, a * a, table) == a * a


def test_antipode_negates_primitives():
    J = builtin("J")
    table = solve_antipode(J, weight_bound=6)
    fixed = J.gen("d") - J.gen("c") ** 3 * Fraction(1, 3)
    assert antipode(J, fixed, table) == -fixed


def test_enveloping_algebra_antipode_oracle():
    # in U(g) every generator is primitive, so S(x) = -x and S reverses words:
    # S(x_1 ... x_n) = (-1)^n x_n ... x_1, straightened apart from the product
    # table that apply_mono reads its (monomial x generator) products from
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(derandomize=True, max_examples=30, deadline=None)
    @hypothesis.given(nilpotent_lie_algebras(), st.integers(2, 4))
    def check(algebra, bound):
        p = algebra[0]
        table = solve_antipode(p, weight_bound=bound)
        for g in range(len(p.alphabet)):
            assert table.of_gen(g) == -p.gen(g)
        for m in p.enumerate_basis(bound):
            word = p.mono_word(m)
            assert table.apply_mono(m) == p.normal_form({word[::-1]: (-1) ** len(word)}), m
        assert check_involutive_antipode(p, table, bound).ok

    check()


def test_dropped_correction_keeps_a_consistent_coalgebra():
    # removing delta(d) leaves a perfectly valid coalgebra (d becomes
    # primitive), so the antipode axiom still holds; the damage is only
    # visible through relation compatibility
    bad = drop_correction(builtin("J"), "d")
    table = solve_antipode(bad, weight_bound=5)
    assert str(table.of_gen("d")) == "-d"


def test_antipode_axiom_fails_for_lopsided_coproduct():
    # delta(u) = z (x) a with delta(z) = a (x) a is not coassociative:
    # the left iterate gives a (x) a (x) a while the right iterate is 0,
    # and the one-sided antipode recursion misses the right axiom by a^3
    p = Presentation(
        [("a", 1), ("z", 2), ("u", 3)],
        {},
        coproduct={"z": {((0,), (0,)): 1}, "u": {((1,), (0,)): 1}},
        name="lopsided",
    )
    co = check_coassociativity(p)
    assert not co.ok
    bad_gen = [g for g in co.generators if not g.ok]
    assert [g.name for g in bad_gen] == ["u"]
    assert str(bad_gen[0].left) == "a (x) a (x) a"
    assert str(bad_gen[0].right) == "0"
    with pytest.raises(AxiomFailure) as info:
        solve_antipode(p, weight_bound=4)
    assert info.value.monomial == "u"
    assert info.value.side == "right"
    assert str(info.value.residual) == "-a^3"


@pytest.mark.parametrize("name", ["H6", "J", "L", "U_n5", "heis3", "poly(3)"])
def test_antipode_window_defaults_to_the_default_window(name):
    p = builtin(name)
    assert solve_antipode(p).weight_bound == 2 * p.max_weight + 2


def test_involutive_antipode():
    for name in ("J", "L"):
        report = check_involutive_antipode(builtin(name), weight_bound=6)
        assert report.ok, name
        assert report.checked > 0
        assert not report.failures


def test_no_coproduct_attached():
    q = builtin("qplane(2)")
    with pytest.raises(NoCoproductAttached):
        coproduct(q, q.gen("x"))
    with pytest.raises(NoCoproductAttached):
        solve_antipode(q)


def test_q_skew_rejected():
    p = Presentation(
        [("x", 1), ("y", 1)],
        {("y", "x"): (2, {})},
        coproduct={},
        name="skew",
    )
    with pytest.raises(QSkewRejected):
        coproduct(p, p.gen("x"))


def test_default_coproduct_makes_all_generators_primitive():
    h = builtin("heis3")
    for g in h.alphabet.names:
        assert is_primitive(h, h.gen(g)), g
    report = check_relation_compatibility(h)
    assert report.ok


# ----- the coproduct engine against the recursion it replaced ----------------


def _reference_tensor_product(p, xs, ys):
    """The tensor-square product as it was: every leg product through
    mono_product, Fraction coefficients, one budget check per product."""
    out = {}
    for (a1, a2), c in xs.items():
        for (b1, b2), d in ys.items():
            for u, cu in p.mono_product(a1, b1).terms.items():
                for v, cv in p.mono_product(a2, b2).terms.items():
                    _acc(out, (u, v), c * d * cu * cv)
    check_budget(len(out))
    return out


def _reference_full_mono(p, mono, memo):
    """Delta(m) = Delta(g) Delta(m / g), g the first letter, over Fraction."""
    hit = memo.get(mono)
    if hit is None:
        n = len(p.alphabet)
        if not any(mono):
            return {(mono, mono): Fraction(1)}
        gi = next(i for i, e in enumerate(mono) if e)
        unit = tuple(int(i == gi) for i in range(n))
        gen = {(unit, (0,) * n): Fraction(1), ((0,) * n, unit): Fraction(1)}
        for key, c in p.delta.get(gi, {}).items():
            _acc(gen, key, c)
        rest = tuple(e - (i == gi) for i, e in enumerate(mono))
        hit = _reference_tensor_product(p, gen, _reference_full_mono(p, rest, memo))
        memo[mono] = hit
    return hit


def _hopf_presentations():
    from test_subspace import J_SCALED_D

    for name in ("H6", "J", "L", "U_n5", "heis3", "poly(1)", "poly(3)"):
        p = builtin(name)
        yield name, p, 2 * p.max_weight + 2
    yield "J_scaled_d", parse_presentation(J_SCALED_D), 7
    # S^2 != Id: of these, only B(0)'s antipode check fails if the loop reads
    # S(u) v as v S(u) and u S(v) as S(v) u
    b0 = load_presentation(Path(__file__).resolve().parent / "presentations" / "b0.hopf")
    yield "B(0)", b0, 2 * b0.max_weight + 2


def test_full_mono_matches_the_reference_recursion():
    from hopfkit import hopf

    fractional = 0
    for name, p, bound in _hopf_presentations():
        mach, memo = hopf._machine(p), {}
        for m in p.enumerate_basis(bound):
            delta = mach.full_mono(m)
            assert delta == _reference_full_mono(p, m, memo), (name, m)
            # ints where integral, Fractions otherwise
            for c in delta.values():
                assert type(c) is int or (type(c) is Fraction and c.denominator != 1), (name, m)
            fractional += sum(type(c) is Fraction for c in delta.values())
            expected = dict(memo.get(m) or _reference_full_mono(p, m, memo))
            for key in ((m, mach.empty), (mach.empty, m)):
                _acc(expected, key, Fraction(-1))
            assert reduced_coproduct(p, p.element({m: 1})).terms == expected, (name, m)
        # the product table has one row per left factor, by monomial id; on
        # a presentation that has only built coproducts every left factor is
        # a leg of some Delta(g) or the left factor of a tailed entry that a
        # tailed product is built from (the antipode check adds S-image
        # monomials as left factors), and every entry is the normal form of
        # its joined word, by id
        gens = [next(iter(p.gen(gi).terms)) for gi in range(len(p.alphabet))]
        legs = {leg for g in gens for pair in mach.full_mono(g) for leg in pair}
        monos, tailed = p._monos, [pair for pair, rel in p.relations.items() if rel.tail]
        steps = {monos[a] for a, row in p._table.items()
                 if any(monos[a][hi] and monos[b][lo] for b in row for hi, lo in tailed)}
        assert {monos[a] for a in p._table} <= legs | steps, name
        for a, row in p._table.items():
            for b, pairs in row.items():
                expected = p.normal_form({p.mono_word(monos[a]) + p.mono_word(monos[b]): 1})
                assert {monos[w]: c for w, c in pairs} == expected.terms, (name, a, b)
    assert fractional  # J_scaled_d has fractional coproducts


@pytest.mark.parametrize(
    "name,exponents", [("J", {"a": 40, "z": 3}), ("heis3", {"x": 2, "y": 200})]
)
def test_heavy_coproduct_numbers_only_what_it_needs(name, exponents):
    from hopfkit import hopf

    p = builtin(name)
    m = [0] * len(p.alphabet)
    for g, e in exponents.items():
        m[p.alphabet.index_of(g)] = e
    m = tuple(m)
    mach = hopf._machine(p)
    delta = mach.full_mono(m)
    assert delta == _reference_full_mono(p, m, {})
    # Delta(m) is built from Delta(m / g), g the first letter, down to 1
    chain, rest = {m}, list(m)
    while any(rest):
        rest[next(i for i, e in enumerate(rest) if e)] -= 1
        chain.add(tuple(rest))
    legs = {leg for pair in delta for leg in pair}
    assert len(p._monos) <= len(legs | chain)
    window = sum(hilbert_series(p, p.mono_weight(m)).coeffs)  # enumerate_basis's length
    assert 1000 * len(p._monos) < window


def _stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_deep_monomials_build_without_recursion():
    # Delta(y^n) and S(y^n) walk the first-letter chain y^n, y^(n-1), ...,
    # 1 without a Python frame per letter: with the recursion limit 100
    # frames above the caller, y^400 still builds, against the closed forms
    # Delta(y^n) = sum C(n, k) y^k (x) y^(n-k) and S(y^n) = (-1)^n y^n
    from hopfkit import hopf

    h = builtin("heis3")
    y = h.alphabet.index_of("y")

    def power(k):
        return tuple(k if i == y else 0 for i in range(len(h.alphabet)))

    table = solve_antipode(h, weight_bound=2)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 100)
    try:
        built = {n: (hopf._machine(h).full_mono(power(n)), table.apply_mono(power(n))) for n in (400, 401)}
    finally:
        sys.setrecursionlimit(limit)
    for n, (delta, s) in built.items():
        assert delta == {(power(k), power(n - k)): comb(n, k) for k in range(n + 1)}, n
        assert s == h.element({power(n): (-1) ** n}), n


def test_coproduct_store_takes_at_most_32_bytes_a_term():
    # every stored delta is one flat tuple of ids and coefficients, with no
    # tuple per term; sys.getsizeof counts each tuple the store holds
    from hopfkit import hopf

    J = builtin("J")
    mach = hopf._machine(J)
    window = J.enumerate_basis(10)
    for m in window:
        mach.delta(J._number(m))
    stored = list(mach._deltas.values())
    size = sum(sys.getsizeof(d) + sum(sys.getsizeof(x) for x in d if type(x) is tuple) for d in stored)
    terms = sum(len(reduced_coproduct(J, J.element({m: 1})).terms) for m in window)
    assert terms > 100_000
    assert size <= 32 * terms, size / terms


def test_a_stored_coproduct_is_read_without_a_walk(monkeypatch):
    # a read of a stored delta returns the stored tuple itself, with no walk
    # down the first-letter chain; a monomial not yet built still walks
    from hopfkit import hopf

    J = builtin("J")
    mach = hopf._machine(J)
    ids = [J._number(m) for m in J.enumerate_basis(8)]
    first = [mach.delta(i) for i in ids]
    stored, build, walks = dict(mach._deltas), hopf._first_letter_build, []
    monkeypatch.setattr(hopf, "_first_letter_build", lambda p, store, i, step: walks.append(i) or build(p, store, i, step))
    assert all(mach.delta(i) is d for i, d in zip(ids, first))
    assert walks == [] and mach._deltas == stored
    a9 = J._number((9, 0, 0, 0, 0, 0))
    assert mach.delta(a9) and walks == [a9]


def test_the_first_letter_builder_steps_up_the_chain_once_per_monomial():
    # a3b walks down a3b, a2b, ab, b to the seeded 1, then builds back up,
    # bottom first: one step per monomial, each given the value stored
    # below it, that monomial's id, the first letter and the new id
    from hopfkit import hopf

    J = builtin("J")
    ids = [J._number(m) for m in ((0, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (1, 1, 0, 0, 0, 0),
                                  (2, 1, 0, 0, 0, 0), (3, 1, 0, 0, 0, 0))]
    store, calls = {0: "one"}, []

    def step(below, j, gi, m):
        calls.append((below, j, gi, m))
        return ("built", m)

    assert hopf._first_letter_build(J, store, ids[-1], step) == ("built", ids[-1])
    built = [("built", m) for m in ids[1:]]
    assert calls == [(below, j, gi, m) for below, j, gi, m
                     in zip(["one"] + built, ids, (1, 0, 0, 0), ids[1:])]
    assert store == dict(zip(ids, ["one"] + built))
    for i in ids:
        assert hopf._first_letter_build(J, store, i, step) == store[i]
    assert len(calls) == 4
    assert hopf._Machine(J)._deltas == {0: (0, 0, -1)}


def _check_tensor_products(p, xs, ys):
    x, y = TensorElement(p, xs), TensorElement(p, ys)
    expected = _reference_tensor_product(p, x.terms, y.terms)
    assert (x * y).terms == expected, (xs, ys)


def test_tensor_products_with_unit_legs_match_the_reference():
    # a left term a (x) 1 or 1 (x) a multiplies one leg only, a term with
    # no unit leg both; random tensor squares whose legs are often the unit,
    # with coefficient 1 and others, against the leg-by-leg reference
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    def squares(p, bound):
        window = p.enumerate_basis(bound)
        legs = st.one_of(st.just(window[0]), st.sampled_from(window))  # window[0] is 1
        coeffs = st.sampled_from((Fraction(1), Fraction(1), Fraction(-1), Fraction(2), Fraction(-3, 2)))
        return st.dictionaries(st.tuples(legs, legs), coeffs, min_size=1, max_size=5)

    J = builtin("J")
    one = (0,) * len(J.alphabet)
    a, b, c = (next(iter(J.gen(g).terms)) for g in "abc")
    _check_tensor_products(
        J, {(a, one): 1, (one, b): Fraction(-3, 2), (one, one): 2, (c, a): 1}, {(b, a): 2, (a, one): 1}
    )

    @hypothesis.settings(derandomize=True, max_examples=60, deadline=None)
    @hypothesis.given(st.data())
    def check_j(data):
        _check_tensor_products(J, data.draw(squares(J, 4)), data.draw(squares(J, 4)))

    @hypothesis.settings(derandomize=True, max_examples=40, deadline=None)
    @hypothesis.given(nilpotent_lie_algebras(), st.data())
    def check_enveloping(algebra, data):
        p = algebra[0]
        _check_tensor_products(p, data.draw(squares(p, 3)), data.draw(squares(p, 3)))

    check_j()
    check_enveloping()


def test_full_mono_keeps_the_term_budget(monkeypatch):
    from hopfkit import hopf

    J = builtin("J")
    memo = {}
    m = max(J.enumerate_basis(6), key=lambda m: len(_reference_full_mono(J, m, memo)))
    budget = len(memo[m]) - 1
    monkeypatch.setenv("HOPFKIT_MAX_TERMS", str(budget))

    def outcome(run):
        try:
            run()
        except BudgetExceeded as error:
            return str(error)
        return None

    expected = outcome(lambda: _reference_full_mono(J, m, {}))
    assert expected and expected.endswith(f", budget is {budget} (raise HOPFKIT_MAX_TERMS to override)")
    assert outcome(lambda: hopf._machine(J).full_mono(m)) == expected
    assert outcome(lambda: coproduct(J, J.element({m: 1}))) == expected


def _fractions(terms):
    return all(type(c) is Fraction for c in terms.values())


def test_public_values_stay_fractions():
    from hopfkit.subspace import _CoradicalState

    for name, p, bound in _hopf_presentations():
        for m in p.enumerate_basis(min(bound, 5)):
            x = p.element({m: 1})
            assert _fractions(coproduct(p, x).terms), name
            assert _fractions(reduced_coproduct(p, x).terms), name
        report = check_coassociativity(p, weight_bound=4, samples=5)
        assert report.ok
        for g in report.generators:
            assert _fractions(g.left.terms) and _fractions(g.right.terms), name
        table = solve_antipode(p, weight_bound=4)
        for gi in range(len(p.alphabet)):
            assert _fractions(table.of_gen(gi).terms), name
        state, kernels = _CoradicalState(p, 4), []
        update = state._update
        state._update = lambda budget: kernels.append(update(budget)) or kernels[-1]
        while not state.stable:
            state.next_level()
        assert all(_fractions(tag) for tags in kernels for tag in tags), name
    p = Presentation(
        [("a", 1), ("z", 2), ("u", 3)],
        {},
        coproduct={"z": {((0,), (0,)): 1}, "u": {((1,), (0,)): 1}},
        name="lopsided",
    )
    with pytest.raises(AxiomFailure) as info:
        solve_antipode(p, weight_bound=4)
    assert _fractions(info.value.residual.terms)


# ----- the antipode verification against the loop it replaced ---------------


def _reference_verify(p, table):
    """The verification as it was: two multiply calls per term of each
    Delta(m), Fraction coefficients; returns the monomials checked."""
    from hopfkit import hopf

    mach = hopf._machine(p)

    def unit(mono):
        return p.element({mono: 1})

    def add_product(out, c, x, y):
        for m, d in p.multiply(x, y).terms.items():
            _acc(out, m, c * d)

    checked = 0
    for mono in p.enumerate_basis(table.weight_bound):
        left = {} if any(mono) else {mono: -_ONE}
        right = dict(left)
        for (u, v), c in mach.full_mono(mono).items():
            add_product(left, c, table.apply_mono(u), unit(v))
            add_product(right, c, unit(u), table.apply_mono(v))
        if left:
            raise AxiomFailure(p.render_mono(mono), p.element(left), "left")
        if right:
            raise AxiomFailure(p.render_mono(mono), p.element(right), "right")
        checked += 1
    return checked


def _replica_verify(p, table):
    """The id loop as it was before its sides were split: one loop for both
    sides, the unit terms taken from full_delta, each cancelled term deleted
    as it cancels, the term budget read from the environment.  Returns the
    monomials checked and the widest running side, in nonzero terms."""
    from hopfkit import hopf
    from hopfkit.freealg import term_budget

    mach, images, legs, monos = hopf._machine(p), table._images, p._table, p._monos
    budget, checked, widest = term_budget(), 0, 0
    for mono in p.enumerate_basis(table.weight_bound):
        i = p._number(mono)
        flat = mach.full_delta(i)
        for side, left in (("left", True), ("right", False)):
            out = {} if i else {0: -1}
            terms = iter(flat)
            for u, v, c in zip(terms, terms, terms):
                a, image = (v, images[u]) if left else (u, images[v])
                for w, d in image:
                    products = (legs[w][a] if left else legs[a][w]) if a and w else ((a or w, 1),)
                    for m, e in products:
                        _acc(out, m, c * d * e)
                widest = max(widest, len(out))
                if len(out) > budget:
                    raise hopf.over_budget(len(out), budget)
            if out:
                residual = p.element({monos[m]: c for m, c in out.items()})
                raise AxiomFailure(p.render_mono(mono), residual, side)
        checked += 1
    return checked, widest


def _solved(p, bound, table_class=None):
    """A table of S on the generators, to be verified up to bound.

    The solve at bound 0 verifies the unit alone, which always holds.
    """
    from hopfkit import hopf

    by_gen = solve_antipode(p, 0).by_gen
    return (table_class or hopf.AntipodeTable)(p, dict(by_gen), bound)


def _failure(run):
    with pytest.raises(AxiomFailure) as info:
        run()
    error = info.value
    return error.monomial, error.side, error.residual


def test_verification_matches_the_reference_loop():
    for name, p, bound in _hopf_presentations():
        table = solve_antipode(p, bound)
        assert table.monomials_checked == len(p.enumerate_basis(bound)), name
        assert _reference_verify(p, _solved(p, bound)) == table.monomials_checked, name
        assert table.by_gen == _solved(p, bound).by_gen, name
    lopsided = Presentation(
        [("a", 1), ("z", 2), ("u", 3)],
        {},
        coproduct={"z": {((0,), (0,)): 1}, "u": {((1,), (0,)): 1}},
        name="lopsided",
    )
    # delta(c) = a (x) b breaks compatibility with b a = a b - c; legs
    # multiplied in the wrong order would fail on c, not on bc
    skew = parse_presentation(
        "name: skew\ngenerators: a:1 b:1 c:2 z:3\nrel: b a = a b - c\n"
        "delta: z = z (x) 1 + 1 (x) z + a (x) c\n"
        "delta: c = c (x) 1 + 1 (x) c + a (x) b\n"
    )
    for p, monomial, side in ((lopsided, "u", "right"), (skew, "bc", "left")):
        expected = _failure(lambda: _reference_verify(p, _solved(p, 6)))
        assert expected[:2] == (monomial, side)
        assert _failure(lambda: solve_antipode(p, weight_bound=6)) == expected


def test_antipode_check_reads_products_from_the_table(monkeypatch):
    # the check reads every product by id from the presentation's one
    # product table, S-images included, so a second check on the
    # presentation builds no entry of the table
    from hopfkit import coradical_levels, primitive_space

    J, fresh = builtin("J"), builtin("J")
    first = solve_antipode(J, 9)
    build, calls = Presentation._entry, []

    def counting(self, a, b):
        calls.append((a, b))
        return build(self, a, b)

    monkeypatch.setattr(Presentation, "_entry", counting)
    second = solve_antipode(J, 9)
    monkeypatch.undo()
    assert calls == []
    assert second.monomials_checked == first.monomials_checked == 945
    assert second.by_gen == first.by_gen
    # a closed form, one monomial with coefficient 1, is one shared tuple per id
    units, closed = {}, 0
    for row in J._table.values():
        for pairs in row.values():
            if len(pairs) == 1 and pairs[0][1] == 1:
                assert units.setdefault(pairs[0][0], pairs) is pairs
                closed += 1
    assert closed > 10 * len(units) > 1000
    # the S-image monomials the check adds as left factors leave the
    # coradical chain and the primitives as on a fresh presentation
    assert coradical_levels(J, 9) == coradical_levels(fresh, 9)
    primitives, expected = primitive_space(J, 10), primitive_space(fresh, 10)
    assert primitives.dim == expected.dim
    assert [str(b) for b in primitives.basis()] == [str(b) for b in expected.basis()]


def test_antipode_check_multiplies_by_the_unit_directly(monkeypatch):
    # 1 w = w 1 = w: with the window's coproducts built, the check asks the
    # product table for no product with the empty monomial, id 0
    from hopfkit import hopf

    J = builtin("J")
    mach = hopf._machine(J)
    for mono in J.enumerate_basis(9):
        mach.delta(J._number(mono))
    requested = []

    def counting(a, b):
        requested.append((a, b))
        return J._entry(a, b)

    monkeypatch.setattr(J, "_table", Memo(lambda a: Memo(partial(counting, a))))
    assert solve_antipode(J, 9).monomials_checked == 945
    assert requested
    assert [pair for pair in requested if 0 in pair] == []
    monkeypatch.undo()
    # check --corrupt drop-dd-correction leaves a consistent coalgebra, whose
    # antipode axiom holds in the reference loop too; the residuals of
    # failing coproducts are held to that loop in
    # test_verification_matches_the_reference_loop
    bad = drop_correction(builtin("J"), "d")
    assert solve_antipode(bad, 9).monomials_checked == 945
    assert _reference_verify(bad, _solved(bad, 9)) == 945


def test_the_budget_fails_where_the_delete_on_cancel_loop_fails(monkeypatch):
    # zeros kept until a side would exceed the budget: at every budget up to
    # the widest running side, solve_antipode stops after the same product
    # read and with the same count as the loop that deleted each cancelled
    # term, or finishes where it finishes
    from hopfkit import hopf
    from hopfkit.pbw import _Row

    reads = []

    class Counting(_Row):
        __slots__ = ()

        def __getitem__(self, b):
            reads.append(b)
            return super().__getitem__(b)

    def outcome(p, run):
        with monkeypatch.context() as unbounded:  # the coproducts a solve dropped, built again uncounted
            unbounded.delenv("HOPFKIT_MAX_TERMS")
            for mono in p.enumerate_basis(6):
                hopf._machine(p).delta(p._number(mono))
        reads.clear()
        try:
            return "done", run(), len(reads)
        except BudgetExceeded as error:
            return "raised", str(error), len(reads)

    def replica(p):
        table = solve_antipode(p, 0)  # the generator solve, under the same budget
        table.weight_bound = 6  # verified on, with the S-images the solve built
        return _replica_verify(p, table)[0]

    for p in (builtin("J"), drop_correction(builtin("J"), "d")):
        assert solve_antipode(p, 6).monomials_checked == 217  # the table and coproducts built
        checked, widest = _replica_verify(p, _solved(p, 6))
        assert checked == 217 and widest > 4
        rows = len(p._table)
        for row in p._table.values():
            row.__class__ = Counting
        seen = []
        for budget in range(1, widest + 1):
            monkeypatch.setenv("HOPFKIT_MAX_TERMS", str(budget))
            expected = outcome(p, lambda: replica(p))
            assert outcome(p, lambda: solve_antipode(p, 6).monomials_checked) == expected, budget
            seen.append(expected)
        monkeypatch.delenv("HOPFKIT_MAX_TERMS")
        for row in p._table.values():
            row.__class__ = _Row
        assert len(p._table) == rows
        assert seen[-1][:2] == ("done", 217)
        assert seen[-2][1] == str(hopf.over_budget(widest, widest - 1))
        # the failures stop at distinct points, most of them in the verification
        assert len({read for _, _, read in seen}) == widest
        assert sum(read > 1000 for _, _, read in seen) > widest // 2


def test_the_antipode_check_leaves_the_product_table_as_it_was():
    # with the window's coproducts built, solve_antipode(J, 9) leaves the
    # table with the entries, rows and tailed entries (a pair that a relation
    # with a tail crosses) that tools/rate.py products counts for it
    from hopfkit import hopf

    J = builtin("J")
    mach = hopf._machine(J)
    for mono in J.enumerate_basis(9):
        mach.delta(J._number(mono))
    assert solve_antipode(J, 9).monomials_checked == 945
    monos, tailed = J._monos, [pair for pair, rel in J.relations.items() if rel.tail]
    crossing = sum(any(monos[a][hi] and monos[b][lo] for hi, lo in tailed)
                   for a, row in J._table.items() for b in row)
    assert (sum(map(len, J._table.values())), len(J._table), crossing) == (21_000, 602, 6_047)


def test_the_antipode_check_drops_the_coproducts_no_later_monomial_reads():
    # Delta(m) is read by its own check and by Delta(g m) alone, so after the
    # check at window 9 no weight-9 coproduct is held (J's least generator
    # weight is 1); a second check builds them again and gives the same table
    from hopfkit import hopf

    J = builtin("J")
    first = solve_antipode(J, 9)
    mach, monos = hopf._machine(J), J._monos
    held = {J.mono_weight(monos[i]) for i in mach._deltas}
    assert held == set(range(9))

    def entries():
        return {(a, b): pairs for a, row in J._table.items() for b, pairs in row.items()}

    kept, table, images = dict(mach._deltas), entries(), dict(first._images)
    second = solve_antipode(J, 9)
    assert second.monomials_checked == first.monomials_checked == 945
    assert second.by_gen == first.by_gen and dict(second._images) == images
    assert entries() == table and mach._deltas == kept
    # a dropped coproduct read again is built again, equal to a fresh one
    fresh = builtin("J")
    top = [mono for mono in J.enumerate_basis(9) if J.mono_weight(mono) == 9]
    assert len(top) > 300
    assert all(mach.full_mono(mono) == hopf._machine(fresh).full_mono(mono) for mono in top)
    assert {J.mono_weight(monos[i]) for i in mach._deltas} == set(range(10))


def test_a_constant_tail_gives_the_reference_failure():
    # y x = x y + 1 puts the unit into S(xy): its products are read from the
    # table, whose closed form for 1 w and w 1 is w, and fail where the
    # reference loop fails
    p = load_presentation(Path(__file__).resolve().parent / "presentations" / "not_an_algebra_map.hopf")
    expected = _failure(lambda: _reference_verify(p, _solved(p, 6)))
    assert expected[:2] == ("yz", "left")
    assert _failure(lambda: solve_antipode(p, weight_bound=6)) == expected


def test_both_loops_reject_a_flipped_antipode_entry(monkeypatch):
    from hopfkit import hopf

    J = builtin("J")
    ab = (1, 1, 0, 0, 0, 0)  # S(ab) = ba = ab - c, not a leg of any delta(g)

    class Flipped(hopf.AntipodeTable):
        def _image(self, i):
            value = super()._image(i)
            if J._monos[i] != ab:
                return value
            terms = dict(value)
            first = min(terms, key=lambda w: J.mono_key(J._monos[w]))
            terms[first] = -terms[first]
            return tuple(terms.items())

    table = _solved(J, 6, Flipped)
    assert str(table.apply_mono(ab)) == "c + ab"
    expected = _failure(lambda: _reference_verify(J, table))
    assert expected[0] == "ab"
    monkeypatch.setattr(hopf, "AntipodeTable", Flipped)
    assert _failure(lambda: solve_antipode(J, 6)) == expected


def test_the_table_holds_s_of_1_and_of_every_generator_before_any_read():
    for name, p, bound in _hopf_presentations():
        table = _solved(p, bound)
        assert set(table.by_gen) == set(range(len(p.alphabet))), name
        expected = {0: ((0, 1),)}
        for gi, image in table.by_gen.items():
            expected[p._unit(gi)] = tuple((p._number(m), c) for m, c in image.terms.items())
        assert dict(table._images) == expected, name


def test_a_table_without_some_generator_raises_key_error_naming_it():
    # S(d), d the generator with index 5, missing: every monomial whose
    # first-letter chain meets d raises KeyError(5), as by_gen[5] would,
    # whether d is the letter the walk stops at or a letter it multiplies by
    from hopfkit import hopf

    J = builtin("J")
    by_gen = dict(solve_antipode(J, 0).by_gen)
    for missing, mono in ((5, (0, 0, 0, 0, 0, 1)), (5, (1, 0, 0, 0, 0, 2)), (0, (1, 1, 0, 0, 0, 0))):
        table = hopf.AntipodeTable(J, {gi: s for gi, s in by_gen.items() if gi != missing}, 6)
        with pytest.raises(KeyError) as info:
            table.apply_mono(mono)
        assert info.value.args == (missing,), mono
        assert str(table.apply_mono((0, 0, 1, 0, 0, 0))) == "-c"


# ----- check's id stages against the element paths they replaced -----------


def _reference_involution(p, table):
    """The S^2 stage as it was: each monomial through apply_mono and apply,
    as elements; returns the failures as (monomial, str(S(S(m))))."""
    failures = []
    for mono in p.enumerate_basis(table.weight_bound):
        twice = table.apply(table.apply_mono(mono))
        if twice != p.element({mono: 1}):
            failures.append((mono, str(twice)))
    return failures


def _reference_counit_generators(p):
    """The counit stage's generator checks as they were: Delta(g) decoded by full_mono."""
    from hopfkit import hopf

    mach, checks = hopf._machine(p), []
    for gi in range(len(p.alphabet)):
        gen, left, right = p.gen(gi).terms, {}, {}
        for (u, v), c in mach.full_mono(next(iter(gen))).items():
            if u == mach.empty:
                _acc(left, v, c)
            if v == mach.empty:
                _acc(right, u, c)
        checks.append((p.alphabet.names[gi], left == gen == right))
    return tuple(checks)


def test_id_stages_match_the_element_paths_they_replaced():
    root = Path(__file__).resolve().parent
    cases = [(name, builtin(name)) for name in ("H6", "J", "L", "U_n5", "heis3", "poly(3)")]
    cases += [(path.name, load_presentation(path))
              for path in (root.parent / "presentations" / "L_heavy.hopf", root / "presentations" / "b0.hopf")]
    for name, p in cases:
        table = solve_antipode(p, 6)
        report = check_involutive_antipode(p, table)
        assert report.checked == len(p.enumerate_basis(6)), name
        failures = [(mono, str(twice)) for mono, twice in report.failures]
        assert failures == _reference_involution(p, table), name
        assert check_counit(p).generator_checks == _reference_counit_generators(p), name
    # the comparison is not vacuous: on B(0), S(S(z)) = z - 2e
    assert failures[0] == ((0, 0, 1), "-2e + z")


def test_the_involution_stage_fails_as_an_acc_sum_does():
    # S(S(m)) summed with zeros kept and dropped once gives B(0)'s failures
    # as a sum that deletes each cancelled term does, equal as values
    p = load_presentation(Path(__file__).resolve().parent / "presentations" / "b0.hopf")
    table = solve_antipode(p, 6)
    images, monos, expected = table._images, p._monos, []
    for mono in p.enumerate_basis(6):
        i, twice = p._number(mono), {}
        for w, c in images[i]:
            for x, d in images[w]:
                _acc(twice, x, c * d)
        if twice != {i: 1}:
            expected.append((mono, p.element({monos[x]: c for x, c in twice.items()})))
    report = check_involutive_antipode(p, table)
    assert report.failures == tuple(expected)
    assert len(expected) > 1
    assert report.failures[0] == ((0, 0, 1), p.element({(0, 0, 1): 1, (0, 1, 0): -2}))


def test_solve_antipode_keeps_the_term_budget(monkeypatch):
    from hopfkit import hopf

    monkeypatch.setenv("HOPFKIT_MAX_TERMS", "8")
    with pytest.raises(BudgetExceeded) as info:
        solve_antipode(builtin("J"), 6)
    assert str(info.value).endswith(", budget is 8 (raise HOPFKIT_MAX_TERMS to override)")
    monkeypatch.delenv("HOPFKIT_MAX_TERMS")
    assert solve_antipode(builtin("J"), 6).monomials_checked == 217

    # both sides of the verification are held to the budget, read once per call
    reads = []

    def solve_under(budget):
        monkeypatch.setattr(hopf, "term_budget", lambda: reads.append(budget) or budget)
        return solve_antipode(builtin("J"), 6)

    with pytest.raises(BudgetExceeded) as info:
        solve_under(4)
    count = int(str(info.value).split()[3])
    assert count > 4
    assert str(info.value) == str(hopf.over_budget(count, 4))
    assert reads == [4]
    assert solve_under(DEFAULT_MAX_TERMS).monomials_checked == 217
    assert reads == [4, DEFAULT_MAX_TERMS]


def test_solve_antipode_reads_the_variable_once(monkeypatch):
    from hopfkit import freealg

    reads = []
    read = freealg._read_budget
    monkeypatch.setattr(freealg, "_read_budget", lambda: reads.append(1) or read())
    assert solve_antipode(builtin("J"), 6).monomials_checked == 217
    assert reads == [1]


def test_each_generator_image_keeps_the_term_budget(monkeypatch):
    # S(z) = ab - z: its running sum is held to the call's budget as it is
    # solved, before the verification builds a coproduct
    p = parse_presentation("generators: a:1 b:1 z:2\ndelta: z = z (x) 1 + 1 (x) z + a (x) b\n")
    assert str(solve_antipode(p, 4).by_gen[2]) == "ab - z"
    monkeypatch.setenv("HOPFKIT_MAX_TERMS", "1")
    with pytest.raises(BudgetExceeded) as info:
        solve_antipode(p, 4)
    assert str(info.value) == str(over_budget(2, 1))
    names = [entry.name for entry in info.traceback]
    assert names[-1] == "solve_antipode" and "_build_delta" not in names
