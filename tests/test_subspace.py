"""Exact linear algebra over monomial windows: spans, filtrations, quotients."""

import itertools
import random
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest

from hopfkit import (
    MonomialIndex,
    builtin,
    coradical_levels,
    load_presentation,
    member,
    parse_presentation,
    power_ideal_span,
    primitive_space,
    reduced_coproduct,
    signature,
    span,
    truncation_algebra,
)
from hopfkit.errors import WindowTooSmall
from hopfkit.pbw import Presentation
from hopfkit.subspace import Subspace, _Echelon
from hopfkit.freealg import _acc, _one_budget

from strategies import nilpotent_lie_algebras

PRESENTATIONS = Path(__file__).resolve().parent.parent / "presentations"

def test_monomial_index_layout():
    L = builtin("L")
    idx = MonomialIndex(L, 3)
    assert len(idx.monomials) == 1 + 2 + 4 + 8
    # weight-first order makes a smaller window a prefix of a larger one
    big = MonomialIndex(L, 5)
    assert big.monomials[: len(idx.monomials)] == idx.monomials


def test_monomial_index_rejects_heavy_elements():
    L = builtin("L")
    idx = MonomialIndex(L, 2)
    with pytest.raises(WindowTooSmall):
        idx.vector(L.gen("z"))  # weight 3 exceeds the window


def test_span_and_membership():
    L = builtin("L")
    a, b = L.gen("a"), L.gen("b")
    S = span(L, [a, a * b], 4)
    assert S.dim == 2
    assert member(S, a)
    assert member(S, 2 * a)
    assert member(S, a + a * b)
    assert not member(S, b)
    assert member(S, L.zero())


def test_span_deduplicates():
    L = builtin("L")
    a = L.gen("a")
    S = span(L, [a, 2 * a, a + a], 4)
    assert S.dim == 1


def test_subspace_comparison():
    L = builtin("L")
    a, b = L.gen("a"), L.gen("b")
    S = span(L, [a + b, a - b], 4)
    T = span(L, [a, b], 4)
    assert S == T
    assert S.contains_space(T) and T.contains_space(S)
    assert not span(L, [a], 4).contains_space(T)


def test_power_ideal_tower():
    L = builtin("L")
    S1 = power_ideal_span(L, 1, 4)
    S2 = power_ideal_span(L, 2, 4)
    S3 = power_ideal_span(L, 3, 4)
    # the first power is the whole augmentation ideal on the window
    assert S1.dim == len(L.enumerate_basis(4)) - 1
    assert S1.contains_space(S2)
    assert S2.contains_space(S3)
    assert S1.dim > S2.dim > S3.dim


def test_commutator_generator_sits_in_square():
    L = builtin("L")
    c = L.gen("c")
    assert member(power_ideal_span(L, 2, 4), c)  # c = [a, b]
    assert not member(power_ideal_span(L, 3, 6), c)


def test_truncation_window_guard():
    L = builtin("L")
    with pytest.raises(WindowTooSmall):
        truncation_algebra(L, 3, 5)
    truncation_algebra(L, 3, 6)  # exactly (power - 1) * max weight is fine


def test_truncation_of_l():
    L = builtin("L")
    T = truncation_algebra(L, 3, 8)
    assert T.dim == 15
    rendered = [L.render_mono(m) for m in T.basis]
    assert rendered == [
        "a", "b", "a^2", "ab", "b^2", "c", "z", "w",
        "az", "aw", "bz", "bw", "z^2", "zw", "w^2",
    ]
    center = T.center()
    assert center.dim == 13
    assert [str(x) for x in center.basis] == [
        "a^2", "ab", "b^2", "c", "z", "w",
        "az", "aw", "bz", "bw", "z^2", "zw", "w^2",
    ]


def test_truncation_of_u_n5():
    U = builtin("U_n5")
    T = truncation_algebra(U, 3, 3)
    assert T.dim == 15
    assert T.center().dim == 11


@pytest.mark.parametrize("name,power,bound", [("L", 4, 9), ("U_n5", 3, 3)])
def test_center_check_catches_a_planted_candidate(name, power, bound, monkeypatch):
    # with one generator class hidden from the solve, some candidates fail to
    # commute with it; the all-class check, which skips only the classes that
    # multiply a candidate into the ideal, still catches them
    T = truncation_algebra(builtin(name), power, bound)
    assert T.center().dim < T.dim
    real = T.gen_image
    monkeypatch.setattr(T, "gen_image", lambda g: {} if g == 1 else real(g))
    with pytest.raises(AssertionError, match="non-generator class"):
        T.center()


def test_truncation_multiplication():
    L = builtin("L")
    T = truncation_algebra(L, 3, 8)
    a, b = L.gen("a"), L.gen("b")
    # classes are {basis monomial: coeff} dicts; the empty dict is zero
    assert T.project(a * b) != T.project(b * a)
    # the commutator class survives: [a, b] = c is nonzero in degree 2
    assert T.project(a * b - b * a) == T.project(L.gen("c"))
    # any triple product of augmentation classes dies
    assert T.project(a * b * a) == {}
    assert T.project(L.gen("z") * a) != {}


def test_truncation_class_products():
    L = builtin("L")
    T = truncation_algebra(L, 3, 8)
    a, b = T.gen_image("a"), T.gen_image("b")
    ab = T.multiply_classes(a, b)
    ba = T.multiply_classes(b, a)
    assert ab != ba
    assert str(T.class_element(ab)) == "ab"
    # degree-2 classes multiply to zero at power 3
    za = T.project(L.gen("z") * L.gen("a"))
    wa = T.project(L.gen("w") * L.gen("a"))
    assert T.multiply_classes(za, wa) == {}
    assert T.multiply_classes(ab, a) == {}


@pytest.mark.parametrize(
    "name, power, bound", [("L", 3, 8), ("U_n5", 3, 3), ("heis3", 5, 10), ("J", 4, 9)]
)
def test_truncated_center_matches_sympy_nullspace(name, power, bound):
    """The center is the nullspace of the commutator matrix: column j
    holds [b_j, g] for every generator class g, one block of rows per
    generator, each product from multiply_classes."""
    sympy = pytest.importorskip("sympy")
    T = truncation_algebra(builtin(name), power, bound)
    slot = {m: j for j, m in enumerate(T.basis)}
    gens = [T.gen_image(gi) for gi in range(len(T.pres.alphabet))]
    M = sympy.zeros(len(gens) * T.dim, T.dim)
    for j, m in enumerate(T.basis):
        for gi, g in enumerate(gens):
            for mm, c in T.multiply_classes({m: Fraction(1)}, g).items():
                M[gi * T.dim + slot[mm], j] += sympy.Rational(c)
            for mm, c in T.multiply_classes(g, {m: Fraction(1)}).items():
                M[gi * T.dim + slot[mm], j] -= sympy.Rational(c)
    null = M.nullspace()
    center = T.center()
    assert center.dim == len(null)
    reps = [[sympy.Rational(b.terms.get(m, 0)) for m in T.basis] for b in center.basis]
    # the representatives are independent and lie in the nullspace
    assert sympy.Matrix(reps).rank() == center.dim
    assert all(not any(M * sympy.Matrix(r)) for r in reps)


@pytest.mark.parametrize("k", range(2, 9))
def test_truncation_of_u_n5_matches_the_closed_form_at_every_window(k):
    # x = [x1, x2] lies in I^2, so U_n5/I^k has the monomials with
    # 2 e(x) + deg(x1..x4) < k, whatever the window
    U = builtin("U_n5")
    expected = [m for m in U.enumerate_basis(k - 1) if any(m) and 2 * m[0] + sum(m[1:]) < k]
    light = []  # the ideal's basis elements on the monomials with < k letters
    for bound in (k - 1, k, 2 * k):
        T = truncation_algebra(U, k, bound)
        assert T.dim == len(expected)
        assert list(T.basis) == expected
        ideal = power_ideal_span(U, k, bound)
        light.append([str(b) for b in ideal.basis() if all(sum(m) < k for m in b.terms)])
    assert light[0] == light[1] == light[2]


def test_truncation_builds_its_ideal_in_the_smallest_window():
    # V, the monomials with fewer than k letters, lies in window
    # (k - 1) * max weight = 9, and I^k is built on V alone, not in the
    # window given: J numbers fewer monomials than even window 9 holds
    J = builtin("J")
    T = truncation_algebra(J, 4, 12)
    assert len(J._monos) < len(J.enumerate_basis(9))
    assert len(J._monos) < len(J.enumerate_basis(12)) == 3045
    assert T.basis == truncation_algebra(builtin("J"), 4, 9).basis
    # d^5 has weight 15, outside every window here, and lies in D_4
    assert T.project(J.gen("d") ** 5) == {}


def test_filtered_members_of_powers_of_u_n5():
    U = builtin("U_n5")
    x, x1 = U.gen("x"), U.gen("x1")
    assert member(power_ideal_span(U, 2, 1), x)  # x = x1 x2 - x2 x1
    assert member(power_ideal_span(U, 3, 2), x * x1)


def _words_oracle(p, k, bound):
    """I^k in the window, from normal forms of words alone.

    pi drops the monomials of k or more letters, which all lie in I^k.
    The span of pi(NF(w)) over the words of k to k + 2 letters stands in
    for pi(I^k): longer words are left out to keep the count small.  Its
    part inside the window is cut out as the kernel of the coordinates
    outside it, so no reversed columns are involved.
    """
    wide = MonomialIndex(p, max(bound, (k - 1) * p.max_weight))
    light = Subspace(wide)
    n = len(p.alphabet)
    for length in range(k, k + 3):
        for word in itertools.product(range(n), repeat=length):
            nf = p.normal_form({word: 1})
            light.add(p.element({m: c for m, c in nf.terms.items() if sum(m) < k}))
    basis = light.basis()
    index = MonomialIndex(p, bound)
    outside = _Echelon()
    for i, b in enumerate(basis):
        vec = wide.vector(b)
        outside.insert({c: v for c, v in vec.items() if c >= len(index)}, {i: Fraction(1)})
    space = Subspace(index)
    for tag in outside.kernel:
        space.add(sum((c * basis[i] for i, c in tag.items()), p.zero()))
    for m in index:
        if sum(m) >= k:
            space.add(p.element({m: 1}))
    return space


def _assert_matches_words_oracle(p, k, bound):
    got = power_ideal_span(p, k, bound)
    want = _words_oracle(p, k, bound)
    assert got.dim == want.dim, (p, k, bound)
    assert [str(b) for b in got.basis()] == [str(b) for b in want.basis()], (p, k, bound)


def _filiform(n):
    """[x1, xi] = x(i+1) for 1 < i < n, every weight 1: a filtered presentation."""
    relations = {(i, 0): (1, {(i + 1,): Fraction(-1)}) for i in range(1, n - 1)}
    return Presentation([(f"x{i}", 1) for i in range(1, n + 1)], relations, name=f"filiform({n})")


AFFINE = "generators: x:1 y:1\nrel: y x = x y + x\n"  # [y, x] = x, so x is in every I^k
WEYL = "generators: x:1 y:1\nrel: y x = x y + 1\n"  # a constant tail: 1 = [y, x] is in I^2
# c + d lies in I^2 and neither c nor d does, so the lightest and the
# heaviest monomial of that row differ
SUM_TAIL = "generators: a:1 b:1 c:2 d:2\nrel: b a = a b + c + d\n"

POWER_GRID = pytest.mark.parametrize(
    "make, powers",
    [
        (lambda: builtin("U_n5"), range(1, 4)),
        (lambda: builtin("L"), range(1, 4)),
        (lambda: builtin("J"), range(1, 4)),
        (lambda: builtin("H6"), range(1, 3)),
        (lambda: builtin("heis3"), range(1, 6)),
        (lambda: builtin("poly(3)"), range(1, 4)),
        (lambda: builtin("qplane(2)"), range(1, 5)),
        (lambda: _filiform(4), range(1, 5)),
        (lambda: _filiform(5), range(1, 4)),
        (lambda: parse_presentation(AFFINE), range(1, 6)),
        # at k = 1 the words oracle has 1 = yx - xy in I
        (lambda: parse_presentation(WEYL), range(1, 6)),
    ],
    ids=["U_n5", "L", "J", "H6", "heis3", "poly3", "qplane2", "filiform4", "filiform5", "affine", "weyl"],
)


@POWER_GRID
def test_power_ideal_span_matches_words_oracle(make, powers):
    p = make()
    for k in powers:
        least = (k - 1) * p.max_weight
        for bound in sorted({max(least - 1, 0), least, least + 2}):
            _assert_matches_words_oracle(p, k, bound)


def _assert_truncation_reduces_modulo_power_ideal_span(p, k, rng):
    least = max((k - 1) * p.max_weight, 0)
    T = truncation_algebra(p, k, least)
    for bound in (least, least + 2):
        ideal = power_ideal_span(p, k, bound)
        monomials = ideal.index.monomials
        for _ in range(6):
            terms = {rng.choice(monomials): Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                     for _ in range(rng.randint(1, 6))}
            x = p.element(terms)
            rem = ideal.reduce(x).terms
            assert T.project(x) == {m: c for m, c in rem.items() if any(m)}, (p, k, bound, x)
    # products of two classes may weigh up to twice the least window
    ideal = power_ideal_span(p, k, 2 * least)
    for _ in range(6):
        c1, c2 = ({m: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                   for m in rng.sample(T.basis, min(3, T.dim))} for _ in range(2))
        c1, c2 = ({m: c for m, c in coords.items() if c} for coords in (c1, c2))
        rem = ideal.reduce(T.class_element(c1) * T.class_element(c2)).terms
        want = {m: c for m, c in rem.items() if any(m)}
        assert T.multiply_classes(c1, c2) == want, (p, k, c1, c2)


@POWER_GRID
def test_truncation_reduces_modulo_power_ideal_span(make, powers):
    rng = random.Random(29)
    p = make()
    for k in powers:
        _assert_truncation_reduces_modulo_power_ideal_span(p, k, rng)


def test_truncation_classes_match_the_pivots_of_power_ideal_span():
    # J_2 = span{c + d}: the quotient keeps the heavier d as a class, as
    # power_ideal_span's canonical basis, whose pivots are lightest, does
    p = parse_presentation(SUM_TAIL)
    T = truncation_algebra(p, 2, 2)
    assert [p.render_mono(m) for m in T.basis] == ["a", "b", "d"]
    assert "c + d" in [str(b) for b in power_ideal_span(p, 2, 2).basis()]
    for k in range(1, 5):
        _assert_truncation_reduces_modulo_power_ideal_span(p, k, random.Random(k))


def test_truncation_stores_no_row_for_d_k():
    # V, the 462 monomials of J with fewer than 6 letters, lies in window
    # 15; the ideal is J_6 on V alone, with no unit row for a monomial of
    # D_6, and J numbers V and the products it reaches, not window 15
    J = builtin("J")
    T = truncation_algebra(J, 6, 20)
    light = [m for m in J.enumerate_basis(15) if sum(m) < 6]
    assert len(light) == 462
    assert len(T._ideal.rows) <= len(light)
    assert len(J._monos) < len(J.enumerate_basis(15))


def test_constant_tail_keeps_an_empty_truncation():
    p = parse_presentation(WEYL)
    for k in range(1, 5):
        assert truncation_algebra(p, k, k + 1).dim == 0


def test_power_ideal_span_matches_words_oracle_on_enveloping_algebras():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(derandomize=True, max_examples=25, deadline=None)
    @hypothesis.given(nilpotent_lie_algebras(), st.integers(1, 3), st.integers(-1, 2))
    def check(algebra, k, extra):
        p, _ = algebra
        while len(p.alphabet) ** (k + 2) > 5000:  # keeps the oracle's word count small
            k -= 1
        _assert_matches_words_oracle(p, k, max((k - 1) * p.max_weight + extra, 0))

    check()


def test_primitive_space_of_j():
    J = builtin("J")
    P = primitive_space(J, 6)
    assert P.dim == 4
    assert [str(x) for x in P.basis()] == ["a", "b", "c", "c^3 - 3d"]
    assert member(P, J.gen("d") - J.gen("c") ** 3 * Fraction(1, 3))
    assert not member(P, J.gen("d"))
    assert not member(P, J.gen("z"))


def test_primitive_space_of_l():
    L = builtin("L")
    P = primitive_space(L, 6)
    assert P.dim == 3
    assert [str(x) for x in P.basis()] == ["a", "b", "c"]


def test_coradical_levels_of_j():
    J = builtin("J")
    report = coradical_levels(J, 6)
    assert report.dims == (1, 5, 17, 41, 87, 137, 217)
    assert report.levels == 6
    # the final level saturates the whole window
    assert report.dims[-1] == len(J.enumerate_basis(6))


def test_coradical_levels_of_l():
    L = builtin("L")
    report = coradical_levels(L, 8)
    assert report.dims == (1, 4, 12, 28, 58, 103, 148, 175, 184)
    assert report.dims[-1] == len(L.enumerate_basis(8))


def test_coradical_chain_of_an_empty_augmentation_window():
    # window 0, and a window below the lightest generator, hold the
    # scalars alone: the chain stays empty instead of repeating level 0
    L = builtin("L")
    heavy = parse_presentation("generators: x:2 y:3\n")
    for p, bound in ((L, 0), (heavy, 0), (heavy, 1)):
        report = coradical_levels(p, bound)
        assert (report.dims, report.levels) == ((1,), 0)
        assert primitive_space(p, bound).dim == 0
        assert signature(p, bound).entries == ()
    assert coradical_levels(heavy, 2).dims == (1, 2)
    assert coradical_levels(heavy, 5).dims == (1, 3, 5)


def test_coradical_nesting():
    J = builtin("J")
    dims = coradical_levels(J, 5).dims
    assert all(a < b for a, b in zip(dims, dims[1:]))


def test_coradical_chain_reads_coproducts_numbered_out_of_window_order():
    # monomials are numbered as coproducts reach them: a heavy coproduct
    # built first numbers its legs and recursion chain, then the antipode
    # check the rest of its window, so the ids no longer follow the window
    # order; the chain's columns and pivots, put back in window order, must
    # not see it
    from hopfkit import coproduct, hopf, solve_antipode
    from hopfkit.subspace import _CoradicalState

    J, fresh = builtin("J"), builtin("J")
    window = J.enumerate_basis(10)
    coproduct(J, J.element({window[-1]: 1}))
    solve_antipode(J, 9)
    mach = hopf._machine(J)
    ids = [J._number(m) for m in window]
    assert ids != sorted(ids)
    assert coradical_levels(J, 9) == coradical_levels(fresh, 9)
    primitives, expected = primitive_space(J, 10), primitive_space(fresh, 10)
    assert primitives.dim == expected.dim
    assert [str(b) for b in primitives.basis()] == [str(b) for b in expected.basis()]
    state = _CoradicalState(J, 10)
    state.next_level()
    assert len(state.v) == 11
    for pos, m in enumerate(window[1:], 1):  # the machine's tuple, cut to V
        flat = iter(mach.delta(J._ids[m]))
        cut = tuple(x for t in zip(flat, flat, flat) if t[0] in state.v for x in t)
        assert state._coproduct(pos) == (state.index.position[m], cut, 1), m


def _recorded_reads(monkeypatch, p, bound):
    """A chain state run to its end, and per level the left legs of the
    terms its image loop reads: those with an offset in the list it is
    handed, counted again where level 1 starts its elimination over."""
    from hopfkit.subspace import _CoradicalState

    images, reads = _CoradicalState._images, []

    def record(self, elim, coproducts, budget):
        coproducts = list(coproducts)
        if len(reads) == len(self.chain):
            reads.append([])
        reads[-1].extend(u for _, terms, _ in coproducts for u in terms[0::3] if self.left[u] is not None)
        images(self, elim, coproducts, budget)

    monkeypatch.setattr(_CoradicalState, "_images", record)
    state = _CoradicalState(p, bound)
    while not state.stable:
        state.next_level()
    return state, reads


def test_levels_past_the_first_read_no_coproduct_term(monkeypatch):
    # level 1 reads the coproducts cut to V at the offsets of the pivots
    # it has found; at J 9 those of S_1 are a, b, c and c^3, one of them
    # no letter, and it reads 4,628 of the window's 56,658 terms, counted
    # again where it starts over; the levels past 1 update its echelon
    # and read none; the chain builds 10,465 terms cut to V, rebuilds
    # included, not the 56,658 of the machine's tuples
    J = builtin("J")
    state, reads = _recorded_reads(monkeypatch, J, 9)
    assert state.built_terms == 10465
    assert len(state.chain) == 9 and len(reads) == 1
    pivots = state.chain[0].pivots()
    assert [state.index.monomials[pos] for pos in pivots] == [
        (1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0), (0, 0, 3, 0, 0, 0)
    ]
    assert len(reads[0]) == 4628
    assert {state.position[u] for u in reads[0]} <= set(pivots)
    assert coradical_levels(J, 9).dims[-1] == len(state.index)


def test_level_one_reads_only_left_legs_at_pivots_of_lighter_primitives(monkeypatch):
    # level 1 reads a term u (x) v of delta(m) only when u is a pivot of
    # the primitives of weight < weight(m): at J 9, 4,628 of the window's
    # 56,658 terms, counted again where the elimination starts over
    from hopfkit.subspace import _CoradicalState

    J = builtin("J")
    lighter = {w: set(primitive_space(J, w - 1).pivots()) for w in range(1, 10)}
    images, reads = _CoradicalState._images, []

    def record(self, elim, coproducts, budget):
        coproducts = list(coproducts)
        if not self.chain:
            for pos, terms, _ in coproducts:
                reads.extend((pos, self.position[u]) for u in terms[0::3] if self.left[u] is not None)
        images(self, elim, coproducts, budget)

    monkeypatch.setattr(_CoradicalState, "_images", record)
    state = _CoradicalState(J, 9)
    state.next_level()
    assert len(reads) == 4628
    monomials = state.index.monomials
    assert all(u in lighter[J.mono_weight(monomials[pos])] for pos, u in reads)
    assert [str(b) for b in state.chain[0].basis()] == ["a", "b", "c", "c^3 - 3d"]


def test_level_one_starts_over_when_c_cubed_becomes_a_pivot():
    # J's primitives gain pivots twice: a, b and c at weight 1, while
    # level 1's elimination holds no rows, and c^3 at weight 3; only the
    # second starts the elimination over, at the next weight
    from hopfkit.subspace import _CoradicalState

    J = builtin("J")
    state = _CoradicalState(J, 9)
    state.next_level()
    assert state.restarts == [4]
    assert primitive_space(J, 2).dim == 3
    cubed = primitive_space(J, 3).pivots()[-1]
    assert (state.index.monomials[cubed], J.mono_weight(state.index.monomials[cubed])) == ((0, 0, 3, 0, 0, 0), 3)


# a^2 + z is primitive and its pivot a^2 is lighter than z, so a^3's
# level-1 row, built at weight 3 from left leg a alone, lacks the column
# a^2 (x) a; kept at weight 4, it would make a^3 - w, whose reduced
# coproduct is -3 (a^2 + z) (x) a, look primitive
NESTED = """name: nested
generators: a:1 z:3 w:4
delta: z = z (x) 1 + 1 (x) z - 2 a (x) a
delta: w = w (x) 1 + 1 (x) w + 3 a (x) a^2 - 3 z (x) a
"""


def test_level_one_starts_over_before_rows_miss_a_lighter_pivot():
    from hopfkit import is_primitive
    from hopfkit.subspace import _CoradicalState

    p = parse_presentation(NESTED)
    state = _CoradicalState(p, 6)
    state.next_level()
    assert state.restarts == [4]
    primitives = _assert_primitives_match_reference(p, 6)
    assert [str(b) for b in primitives.basis()] == ["a", "a^2 + z"]
    assert not is_primitive(p, p.gen("a") ** 3 - p.gen("w"))


def test_later_levels_read_the_pivots_found_at_the_top_weight(monkeypatch):
    # at window 3 the primitive a^2 + z is found at weight 3, the top
    # weight, with the lighter pivot a^2, while level 1 holds rows; the
    # echelon the later levels update must read the left leg a^2 as well
    # as a, so level 1 starts over at the end of the top weight too, with
    # a^2 in left and V, and feeds a^3 and z again, reading 3 of their
    # terms where it read 2; the levels past 1 read no term
    from hopfkit.subspace import _coradical_chain

    p = parse_presentation(NESTED)
    state, reads = _recorded_reads(monkeypatch, p, 3)
    assert [str(b) for b in state.chain[0].basis()] == ["a", "a^2 + z"]
    assert len(state.chain) == 3 and state.restarts == [4]
    assert [len(level) for level in reads] == [6]
    assert state.built_terms == 7
    chain, reference = _coradical_chain(p, 3), _reference_chain(p, 3)
    assert [b.terms for s in chain for b in s.basis()] == [b.terms for s in reference for b in s.basis()]
    assert [s.dim for s in chain] == [s.dim for s in reference]


def test_primitive_space_never_builds_the_later_levels(monkeypatch):
    # the later levels update the state's echelon of images; primitive_space
    # never does
    from hopfkit import subspace

    def update(self, budget):
        raise AssertionError("a later level")

    J = builtin("J")
    monkeypatch.setattr(subspace._CoradicalState, "_update", update)
    assert [str(b) for b in primitive_space(J, 9).basis()] == ["a", "b", "c", "c^3 - 3d"]
    with pytest.raises(AssertionError, match="a later level"):
        coradical_levels(J, 9)


def test_level_one_inserts_each_primitive_once(monkeypatch):
    """Level 1 is the echelon _primitives fills as it finds each primitive,
    handed to the chain as it is: no primitive is inserted into a level
    again."""
    from hopfkit import subspace

    def add_vector(self, vec):
        raise AssertionError("a primitive inserted again")

    J = builtin("J")
    primitives = subspace._CoradicalState._primitives
    found = []
    monkeypatch.setattr(subspace._CoradicalState, "_primitives",
                        lambda self, budget: found.append(primitives(self, budget)) or found[-1])
    monkeypatch.setattr(subspace.Subspace, "add_vector", add_vector)
    assert [str(b) for b in primitive_space(J, 9).basis()] == ["a", "b", "c", "c^3 - 3d"]
    state = subspace._CoradicalState(J, 9)
    state.next_level()
    assert len(found) == 2 and state.chain[0]._elim is found[-1]


def test_signature_of_l():
    sig = signature(builtin("L"), 6)
    assert sig.entries == (1, 1, 1, 2, 2)
    assert sig.complete
    assert sig.gk == 5
    assert str(sig) == "(1, 1, 1, 2, 2)"


def test_signature_of_j():
    sig = signature(builtin("J"), 6)
    assert sig.entries == (1, 1, 1, 1, 2, 2)
    assert sig.complete
    assert sig.gk == 6


def test_signature_of_small_builtins():
    assert signature(builtin("heis3"), 6).entries == (1, 1, 1)
    assert signature(builtin("heis3"), 6).complete
    assert signature(builtin("U_n5"), 4).entries == (1, 1, 1, 1, 1)


def test_signature_admits_small_windows():
    # a window too small to see the degree-2 and degree-3 generators
    sig = signature(builtin("L"), 2)
    assert sig.entries == (1, 1, 1)
    assert not sig.complete


def test_signature_enumerates_nothing_beyond_its_window(monkeypatch):
    """The product span is cut down to the window by column numbers
    alone, so no basis past the window is ever listed."""
    bounds = []
    enumerate_basis = Presentation.enumerate_basis

    def recording(self, max_weight):
        bounds.append(max_weight)
        return enumerate_basis(self, max_weight)

    for name, bound in [("J", 8), ("L", 9)]:
        p = builtin(name)
        bounds.clear()
        with monkeypatch.context() as patch:
            patch.setattr(Presentation, "enumerate_basis", recording)
            assert signature(p, bound).complete
        assert bounds and max(bounds) <= bound, (name, bounds)


def test_signature_lists_its_window_once(monkeypatch):
    # the chain's window index serves the signature's columns too
    calls = []
    enumerate_basis = Presentation.enumerate_basis

    def recording(self, max_weight):
        calls.append(max_weight)
        return enumerate_basis(self, max_weight)

    for name, bound in [("J", 8), ("L", 9), ("L", 0)]:
        p = builtin(name)
        calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(Presentation, "enumerate_basis", recording)
            signature(p, bound)
        assert calls == [bound], (name, calls)


def random_sparse_rows(rng, n_rows, n_cols):
    """Sparse rational rows, some of them combinations of earlier ones."""
    rows = []
    for _ in range(n_rows):
        if rows and rng.random() < 0.3:
            row = {}
            for earlier in rng.sample(rows, min(len(rows), 2)):
                scale = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                for c, v in earlier.items():
                    row[c] = row.get(c, 0) + scale * v
        else:
            row = {
                c: Fraction(rng.randint(-4, 4), rng.randint(1, 4))
                for c in rng.sample(range(n_cols), rng.randint(1, max(1, n_cols // 3)))
            }
        rows.append({c: v for c, v in row.items() if v})
    return rows


def test_echelon_matches_sympy():
    sympy = pytest.importorskip("sympy")
    from hopfkit.subspace import _Echelon

    def matrix(rows, n_cols):
        return sympy.Matrix(
            [[sympy.Rational(r.get(c, 0)) for c in range(n_cols)] for r in rows]
        )

    rng = random.Random(20160127)
    for _ in range(30):
        n_rows, n_cols = rng.randint(1, 9), rng.randint(1, 10)
        rows = random_sparse_rows(rng, n_rows, n_cols)
        M = matrix(rows, n_cols)
        rank = M.rank()

        elim = _Echelon()
        for i, row in enumerate(rows):
            elim.insert(row, {i: Fraction(1)})
        assert elim.rank == rank
        # kernel tags: rows minus rank of them, each combining the rows to zero
        assert len(elim.kernel) == n_rows - rank
        for tag in elim.kernel:
            combo = {}
            for i, t in tag.items():
                for c, v in rows[i].items():
                    combo[c] = combo.get(c, 0) + t * v
            assert not any(combo.values())
        # remainders vanish at the pivots and differ from the vector by the span
        probe = {c: Fraction(rng.randint(-3, 3)) for c in range(n_cols)}
        rem = elim.reduce(probe)
        assert not set(rem) & set(elim.rows)
        diff = {c: probe.get(c, 0) - rem.get(c, 0) for c in range(n_cols)}
        assert matrix(rows + [diff], n_cols).rank() == rank
        # back substitution gives exactly the reduced row echelon form
        elim.back_substitute()
        R, pivots = M.rref()
        assert tuple(sorted(elim.rows)) == pivots
        assert [[elim.row(p).get(c, 0) for c in range(n_cols)] for p in pivots] == [
            [Fraction(str(x)) for x in R.row(i)] for i in range(len(pivots))
        ]

        # reversed columns: pivots in the reversed prefix count the
        # dimension of the row space inside the first k columns
        reversed_elim = _Echelon()
        for row in rows:
            reversed_elim.insert({n_cols - 1 - c: v for c, v in row.items()})
        for k in range(n_cols + 1):
            inside = sum(1 for p in reversed_elim.rows if p >= n_cols - k)
            assert inside == rank - M[:, k:].rank()


class _FractionEchelon:
    """The Fraction echelon engine that the integer one replaced, kept as
    a reference: rows normalised to 1 at their pivot, tags alongside."""

    def __init__(self):
        self.rows = {}
        self.tags = {}
        self.kernel = []

    def _subtract(self, vec, tag, col, coeff):
        neg = -coeff
        for c, v in self.rows[col].items():
            _acc(vec, c, neg * v)
        if tag is not None:
            for c, v in self.tags[col].items():
                _acc(tag, c, neg * v)

    def reduce(self, vec, tag=None):
        vec = {c: v for c, v in vec.items() if v}
        rows = self.rows
        while True:
            pivots = [c for c in vec if c in rows]
            if not pivots:
                return vec
            col = min(pivots)
            self._subtract(vec, tag, col, vec[col])

    def insert(self, vec, tag=None):
        if tag is not None:
            tag = dict(tag)
        rem = self.reduce(vec, tag)
        if not rem:
            if tag:
                self.kernel.append(tag)
            return None
        pivot = min(rem)
        inv = 1 / rem[pivot]
        self.rows[pivot] = {c: v * inv for c, v in rem.items()}
        if tag is not None:
            self.tags[pivot] = {c: v * inv for c, v in tag.items()}
        return pivot

    def back_substitute(self):
        rows = self.rows
        for pivot in sorted(rows, reverse=True):
            row, tag = rows[pivot], self.tags.get(pivot)
            for col in [c for c in row if c != pivot and c in rows]:
                self._subtract(row, tag, col, row[col])


def test_integer_echelon_matches_fraction_reference():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    from hopfkit.subspace import _TAGS, _Echelon

    denominators = st.sampled_from((1, 2, 3, 4, 6, 9, 10, 35))
    coeff = st.builds(Fraction, st.integers(-6, 6), denominators)
    nonzero = st.builds(Fraction, st.integers(1, 6) | st.integers(-6, -1), denominators)

    @st.composite
    def systems(draw):
        """Sparse rational rows with mixed denominators, some of them
        combinations of earlier ones, optional tags, and probes."""
        n_cols = draw(st.integers(1, 12))
        entries = st.dictionaries(
            st.integers(0, n_cols - 1), coeff, min_size=1, max_size=max(1, n_cols // 2)
        )
        rows = []
        for _ in range(draw(st.integers(1, 10))):
            if rows and draw(st.booleans()):
                row = {}
                earlier = st.integers(0, len(rows) - 1)
                for i in draw(st.lists(earlier, min_size=1, max_size=3)):
                    scale = draw(coeff)
                    for c, v in rows[i].items():
                        row[c] = row.get(c, 0) + scale * v
            else:
                row = draw(entries)
            rows.append(row)
        tags = None
        if draw(st.booleans()):
            tag = st.dictionaries(st.integers(0, 5), nonzero, min_size=1, max_size=3)
            tags = [draw(tag) for _ in rows]
        probes = draw(st.lists(entries, max_size=3))
        split = draw(st.integers(0, len(rows)))
        return rows, tags, probes, split

    def agree(elim, ref, probes):
        assert sorted(elim.rows) == sorted(ref.rows)
        for pivot, row in elim.rows.items():
            assert all(type(v) is int for v in row.values())
            assert row[pivot] > 0 and gcd(*row.values()) == 1
            assert min(row) == pivot
            # the vector part, and the tag block after it, read at the pivot
            fractions = elim.row(pivot)
            assert {c: v for c, v in fractions.items() if c < _TAGS} == ref.rows[pivot]
            tag = {c - _TAGS: v for c, v in fractions.items() if c >= _TAGS}
            assert tag == ref.tags.get(pivot, {})
        assert elim.kernel == ref.kernel
        assert all(type(v) is Fraction for tag in elim.kernel for v in tag.values())
        for probe in probes:
            rem = elim.reduce(probe)
            assert rem == ref.reduce(probe)
            assert all(type(v) is Fraction for v in rem.values())

    @hypothesis.settings(derandomize=True, max_examples=300, deadline=None)
    @hypothesis.given(systems())
    def check(system):
        rows, tags, probes, split = system
        elim, ref = _Echelon(), _FractionEchelon()
        for i, row in enumerate(rows):
            tag = tags[i] if tags else None
            assert elim.insert(row, tag) == ref.insert(row, tag)
            if i + 1 == split:  # rows may arrive after a back-substitution
                elim.back_substitute()
                ref.back_substitute()
                agree(elim, ref, probes)
        agree(elim, ref, probes)
        elim.back_substitute()
        ref.back_substitute()
        agree(elim, ref, probes)

    check()


# J with d scaled by 6/5: the correction of its coproduct is fractional,
# and the primitive c^3 - 5/2 d mixes a monomial whose coproduct is
# integral with one whose coproduct is not, so the quotient maps of the
# levels have denominators too
J_SCALED_D = """name: J_scaled_d
generators: a:1 b:1 c:1 z:2 w:2 d:3
rel: b a = a b - c
rel: w z = z w - 5/6 d
delta: z = z (x) 1 + 1 (x) z + a (x) c - c (x) a
delta: w = w (x) 1 + 1 (x) w + b (x) c - c (x) b
delta: d = d (x) 1 + 1 (x) d + 6/5 c (x) c^2 + 6/5 c^2 (x) c
"""


@pytest.mark.parametrize(
    "make,bound",
    [(lambda: builtin("L"), 7), (lambda: parse_presentation(J_SCALED_D), 6)],
    ids=["L", "J_scaled_d"],
)
def test_coradical_kernels_match_fraction_reference(make, bound):
    """Each level equals, as exact Fractions, the S_n that the Fraction
    engine gets from Fraction images, kappa applied to both legs, fed the
    monomials that are not pivots of the last level: the same pivots and
    the same back-substituted rows.  The chain's kernel tags lie in that
    S_n and extend S_{n-1} by the dimension of the reference's kernel."""
    from hopfkit.subspace import _CoradicalState

    p = make()
    state = _CoradicalState(p, bound)
    index = state.index
    kernels, update = [], state._update
    state._update = lambda budget: kernels.append(update(budget)) or kernels[-1]

    def spanned(*parts):
        elim = _FractionEchelon()
        for part in parts:
            for vec in part:
                elim.insert(vec)
        return elim

    previous = _FractionEchelon()  # the scalars: no augmentation part
    while not state.stable:
        kappa = {
            m: previous.reduce({index.index(m): Fraction(1)}) for m in index.monomials
        }
        ref = _FractionEchelon()
        for m in state.aug:
            if index.index(m) in previous.rows:
                continue
            image = {}
            for (u, v), c in reduced_coproduct(p, p.element({m: 1})).terms.items():
                for col, cv in kappa[u].items():
                    _acc(image, (0, col, index.index(v)), c * cv)
                for col, cv in kappa[v].items():
                    _acc(image, (1, index.index(u), col), c * cv)
            ref.insert(image, {index.index(m): Fraction(1)})
        assert ref.kernel
        level = spanned(previous.rows.values(), ref.kernel)  # S_n = S_{n-1} + the kernel
        state.next_level()
        if len(state.chain) == 1:  # level 1 is an echelon of primitives: read its rows
            elim = state.chain[0]._elim
            tags = [elim.row(pivot) for pivot in sorted(elim.rows)]
        else:
            tags = kernels[-1]
        assert len(tags) == len(ref.kernel)
        assert all(type(v) is Fraction for tag in tags for v in tag.values())
        assert all(not level.reduce(tag) for tag in tags)
        assert len(spanned(previous.rows.values(), tags).rows) == len(level.rows)
        level.back_substitute()
        basis = [{index.index(m): c for m, c in b.terms.items()} for b in state.chain[-1].basis()]
        assert all(type(c) is Fraction for b in basis for c in b.values())
        assert basis == [level.rows[pivot] for pivot in sorted(level.rows)]
        previous = level
    assert state.chain[-1].dim == len(state.aug)


def test_rescaled_j_keeps_the_invariants_of_j():
    from hopfkit import hopf

    p = parse_presentation(J_SCALED_D)
    assert hopf.check_relation_compatibility(p).ok
    assert coradical_levels(p, 8).dims == coradical_levels(builtin("J"), 8).dims
    assert [str(b) for b in primitive_space(p, 8).basis()] == ["a", "b", "c", "c^3 - 5/2 d"]


# ----- early exits against the full computations they replaced ---------------


def _reference_chain(p, bound):
    """The coradical chain as it was computed with every augmentation
    monomial fed to the kernel: each level is the span of its kernel
    tags alone, and the coproducts are cleared from Fractions."""
    from hopfkit.subspace import _TAGS, Subspace, _Echelon, _clear

    index = MonomialIndex(p, bound)
    aug = [m for m in index if any(m)]
    position, size = index.position, len(index)
    deltas, legs = [], set()
    for m in aug:
        delta = {(position[u], position[v]): c for (u, v), c in reduced_coproduct(p, p.element({m: 1})).terms.items()}
        terms, den = _clear(delta)
        deltas.append((position[m], [(u, v, c) for (u, v), c in terms.items()], den))
        legs.update(pos for pair in terms for pos in pair)
    chain = []
    while True:
        previous = chain[-1]._elim if chain else _Echelon()
        rems = {pos: previous.remainder({pos: 1}) for pos in legs}
        den = lcm(*(d for _, d in rems.values()))
        kappa = {pos: {c: v * (den // d) for c, v in rem.items()} for pos, (rem, d) in rems.items()}
        elim = _Echelon()
        for pos, terms, factor in deltas:
            image = {}
            for u, v, c in terms:
                for col, cv in kappa[u].items():
                    _acc(image, col * size + v, c * cv)
                for col, cv in kappa[v].items():
                    _acc(image, size * size + u * size + col, c * cv)
            image[_TAGS + pos] = factor
            elim.insert_cleared(image, factor)
        level = Subspace(index)
        for tag in elim.kernel:
            level.add_vector(tag)
        if chain and level.dim == chain[-1].dim:
            return chain
        chain.append(level)
        if level.dim == len(aug):
            return chain


def _reference_signature(p, bound, chain):
    """(entries, by_level) as computed with every product of every level."""
    from hopfkit.subspace import _Echelon

    index, wide = MonomialIndex(p, bound), MonomialIndex(p, 2 * bound)
    bases = [[]] + [s.basis() for s in chain]
    elim = _Echelon()
    full = len(wide)
    window_start = full - len(index)

    def insert(x):
        elim.insert({full - 1 - c: v for c, v in wide.vector(x).items()})

    entries, by_level = [], []
    for n in range(1, len(chain) + 1):
        for q in range(1, n):
            for b1 in bases[n - q]:
                if elim.rank == full:
                    break
                for b2 in bases[q]:
                    insert(p.multiply(b1, b2))
        count = chain[n - 1].dim - sum(1 for pivot in elim.rows if pivot >= window_start)
        if count > 0:
            entries.extend([n] * count)
            by_level.append((n, count))
        for b in bases[n]:
            insert(b)
    return tuple(entries), tuple(by_level)


def _assert_matches_references(p, bound):
    """The complement-fed chain and the settled signature equal the
    references: the same levels, basis for basis, and the same counts."""
    from hopfkit.subspace import _coradical_chain

    reference = _reference_chain(p, bound)
    chain = _coradical_chain(p, bound)
    assert [s.dim for s in chain] == [s.dim for s in reference]
    for level, ref in zip(chain, reference):
        assert level.pivots() == ref.pivots()
        assert [b.terms for b in level.basis()] == [b.terms for b in ref.basis()]
    sig = signature(p, bound)
    assert (sig.entries, sig.by_level) == _reference_signature(p, bound, reference)
    return chain, sig


@pytest.mark.parametrize(
    "name,bound",
    [("H6", 6), ("J", 6), ("L", 6), ("U_n5", 5), ("heis3", 6), ("poly(1)", 4),
     ("poly(3)", 4), ("L", 9), ("J", 7), ("heis3", 10), ("J", 9)],
)
def test_settled_signature_and_complement_chain_match_references(name, bound):
    _assert_matches_references(builtin(name), bound)


@pytest.mark.parametrize("bound", [8, 9])
def test_cut_chain_matches_references_on_l_heavy(bound):
    _assert_matches_references(load_presentation(PRESENTATIONS / "L_heavy.hopf"), bound)


def test_one_sided_chain_matches_references_on_rescaled_j():
    # 6/5 in delta(d): coproducts are cleared by factors 5 and 25, and
    # kappa of a right leg has denominator 2 from level 1 on
    chain, _ = _assert_matches_references(parse_presentation(J_SCALED_D), 7)
    assert [str(b) for b in chain[0].basis()] == ["a", "b", "c", "c^3 - 5/2 d"]


def _unipotent_coordinate_ring(n):
    """O(U_n) (Waterhouse, 1979): commuting x_ij for i < j, of weight
    j - i, with Delta(x_ij) = x_ij (x) 1 + 1 (x) x_ij + the sum of
    x_ik (x) x_kj over i < k < j.  Its signature is the weights."""
    gens = [(i, i + d) for d in range(1, n) for i in range(1, n - d + 1)]
    lines = [f"name: O_U{n}", "generators: " + " ".join(f"x{i}{j}:{j - i}" for i, j in gens)]
    for i, j in gens:
        if j - i > 1:
            tail = "".join(f" + x{i}{k} (x) x{k}{j}" for k in range(i + 1, j))
            lines.append(f"delta: x{i}{j} = x{i}{j} (x) 1 + 1 (x) x{i}{j}{tail}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "make,bound,entries",
    [(lambda: load_presentation(PRESENTATIONS / "r2k3.hopf"), 5, (1,) * 5),
     (lambda: parse_presentation(_unipotent_coordinate_ring(4)), 6, (1, 1, 1, 2, 2, 3)),
     (lambda: parse_presentation(_unipotent_coordinate_ring(5)), 6, (1, 1, 1, 1, 2, 2, 2, 3, 3, 4))],
    ids=["r2k3", "O(U_4)", "O(U_5)"],
)
def test_signature_matches_references_past_the_builtins(make, bound, entries):
    # r2k3's tail x2 of x2 x1 = x1 x2 - x2 has lower weight, so a level's
    # new rows, those at the pivots the level below lacks, are no weight
    # block; O(U_n) has generators past level 2, whose levels run their
    # products to the end, through the pairs with an old row
    _, sig = _assert_matches_references(make(), bound)
    assert sig.entries == entries and sig.complete


B0 = Path(__file__).resolve().parent / "presentations" / "b0.hopf"


@_one_budget()
def _older_signature(p, bound):
    """signature's (entries, by_level) as it fed its products before the
    split: each level n feeds every S_{n-q} S_q for q = 1, 2, ... in pivot
    order until explained == dim S_n, then inserts all of S_n's basis."""
    from hopfkit.subspace import _coradical_chain

    chain = _coradical_chain(p, bound)
    ids = chain[0].index.ids() if chain else []
    column = [-1 - w for w in range(len(p._monos))]
    for col, w in enumerate(reversed(ids)):
        column[w] = col
    known = len(column)
    bases = [[]]
    for level in chain:
        level._elim.back_substitute()
        rows = level._elim.rows
        bases.append([[(ids[c], v) for c, v in rows[pivot].items()] for pivot in sorted(rows)])
    elim = _Echelon()
    explained = 0

    def insert(terms):
        nonlocal explained
        pivot = elim.insert({column[w] if w < known else -1 - w: v for w, v in terms})
        if pivot is not None and pivot >= 0:
            explained += 1

    entries, by_level = [], []
    for n in range(1, len(chain) + 1):
        dim = chain[n - 1].dim
        products = ((b1, b2) for q in range(1, n) for b1 in bases[n - q] for b2 in bases[q])
        for b1, b2 in products:
            if explained == dim:
                break
            insert(p._multiply_ids(b1, b2).items())
        count = dim - explained
        if count > 0:
            entries.extend([n] * count)
            by_level.append((n, count))
        for b in bases[n]:
            insert(b)
    return tuple(entries), tuple(by_level)


SIGNATURE_CASES = {"L 6": (lambda: builtin("L"), 6), "L 9": (lambda: builtin("L"), 9),
                   "J 8": (lambda: builtin("J"), 8), "H6 8": (lambda: builtin("H6"), 8),
                   "U_n5 7": (lambda: builtin("U_n5"), 7), "b0 6": (lambda: load_presentation(B0), 6),
                   "O(U_4) 6": (lambda: parse_presentation(_unipotent_coordinate_ring(4)), 6)}


def _signature_outcome(run, make, bound):
    """(entries, by_level) of run on a fresh presentation, or the budget error's text."""
    from hopfkit.errors import BudgetExceeded

    try:
        return run(make(), bound)
    except BudgetExceeded as err:
        return str(err)


@pytest.mark.parametrize("case", SIGNATURE_CASES)
def test_signature_keeps_the_older_orders_counts_and_budget_points(case, monkeypatch):
    """Feeding the new x new products first and inserting only each
    level's new rows change no count, and no outcome at budgets 1-64:
    each run gets a fresh presentation, so no table entry is inherited."""
    make, bound = SIGNATURE_CASES[case]

    def settled(p, bound):
        sig = signature(p, bound)
        return sig.entries, sig.by_level

    monkeypatch.delenv("HOPFKIT_MAX_TERMS", raising=False)
    assert settled(make(), bound) == _older_signature(make(), bound)
    for budget in range(1, 65):
        monkeypatch.setenv("HOPFKIT_MAX_TERMS", str(budget))
        older = _signature_outcome(_older_signature, make, bound)
        assert _signature_outcome(settled, make, bound) == older, (case, budget)


@pytest.mark.parametrize(
    "make,bound,products,older",
    [(lambda: builtin("L"), 9, 809, 2693), (lambda: builtin("J"), 9, 3955, 11308),
     (lambda: parse_presentation(_unipotent_coordinate_ring(4)), 6, 1152, 2583),
     (lambda: parse_presentation(_unipotent_coordinate_ring(5)), 6, 4487, 8272)],
    ids=["L 9", "J 9", "O(U_4) 6", "O(U_5) 6"],
)
def test_signature_feeds_fewer_products_than_the_older_order(make, bound, products, older, monkeypatch):
    # the pinned counts move only with the feeding order; re-pin on purpose.
    # L and J stop every level with no generator inside the new x new
    # pairs; O(U_n)'s levels past 2 run on through the pairs with old rows
    counts = []
    multiply_ids = Presentation._multiply_ids

    def counting(self, xs, ys):
        counts[-1] += 1
        return multiply_ids(self, xs, ys)

    monkeypatch.setattr(Presentation, "_multiply_ids", counting)
    for run in (signature, _older_signature):
        counts.append(0)
        run(make(), bound)
    assert counts == [products, older]


def _assert_primitives_match_reference(p, bound):
    """primitive_space, built weight by weight, equals the reference's
    first level, which reads every term: the same pivots, basis for basis."""
    primitives, reference = primitive_space(p, bound), _reference_chain(p, bound)[0]
    assert primitives.pivots() == reference.pivots()
    assert [b.terms for b in primitives.basis()] == [b.terms for b in reference.basis()]
    return primitives


@pytest.mark.parametrize("name", ["H6", "J", "L", "U_n5", "heis3", "poly(1)", "poly(3)"])
def test_primitive_space_matches_the_reference_at_default_windows(name):
    # every builtin with a coproduct; qplane(q) carries none
    p = builtin(name)
    _assert_primitives_match_reference(p, 2 * p.max_weight + 2)


@pytest.mark.parametrize("bound", [8, 9, 10])
def test_primitive_space_matches_the_reference_on_l_heavy(bound):
    _assert_primitives_match_reference(load_presentation(PRESENTATIONS / "L_heavy.hopf"), bound)


def test_primitive_space_matches_the_reference_on_rescaled_j():
    # fractional factors: delta(d) carries 6/5
    primitives = _assert_primitives_match_reference(parse_presentation(J_SCALED_D), 7)
    assert [str(b) for b in primitives.basis()] == ["a", "b", "c", "c^3 - 5/2 d"]


def test_primitive_space_matches_the_reference_on_enveloping_algebras():
    # generators of several weights are primitive, so level 1 starts over
    # wherever a new weight of them meets rows built without them
    hypothesis = pytest.importorskip("hypothesis")
    from hopfkit.subspace import _CoradicalState

    restarted = []

    @hypothesis.settings(derandomize=True, max_examples=40, deadline=None)
    @hypothesis.given(nilpotent_lie_algebras())
    def check(algebra):
        p, degrees = algebra
        bound = max(degrees) + 2
        primitives = _assert_primitives_match_reference(p, bound)
        assert primitives.dim == len(degrees)
        state = _CoradicalState(p, bound)
        state.next_level()
        restarted.append(bool(state.restarts))

    check()
    assert sum(restarted) >= len(restarted) // 2


def _prebuilt_state(p, bound):
    """A fresh chain state whose coproducts are all built, cut to the V of
    the primitives' pivots, under the budget in force."""
    from hopfkit.subspace import _CoradicalState

    state = _CoradicalState(p, bound)
    state._grow(state.ids[pos] for pos in primitive_space(p, bound).pivots())
    for pos in range(1, len(state.index)):
        state._delta(pos)
    return state


def test_coradical_kernel_keeps_the_term_budget(monkeypatch):
    """next_level reads the budget once per level and stops an image that
    exceeds it with the standard message, at level 1 as at the levels
    after it; the coproducts, built first under the default budget, are
    not what trips it.  8 terms is the widest image of J at window 6,
    both at level 1 and over the whole chain."""
    from hopfkit.errors import BudgetExceeded

    J = builtin("J")
    first, whole, fits = (_prebuilt_state(J, 6) for _ in range(3))
    monkeypatch.setenv("HOPFKIT_MAX_TERMS", "7")
    for state, levels in ((first, 1), (whole, None)):
        with pytest.raises(BudgetExceeded, match=r"^intermediate expression has \d+ terms, budget is 7 ") as info:
            while not state.stable and (levels is None or len(state.chain) < levels):
                state.next_level()
        names = {entry.name for entry in info.traceback}
        assert names & {"next_level", "_images"} and "_build_delta" not in names
    monkeypatch.setenv("HOPFKIT_MAX_TERMS", "8")
    while not fits.stable:
        fits.next_level()
    assert (1,) + tuple(s.dim + 1 for s in fits.chain) == (1, 5, 17, 41, 87, 137, 217)


def test_a_later_level_holds_its_reduced_rows_to_the_term_budget(monkeypatch):
    """At J 8 no image of level 1 has more than 11 terms, but level 6
    reduces a row of the echelon of images to 12: under budget 11 the chain stops there, in _update, with the
    standard message, and under budget 12 it runs to its end."""
    from hopfkit.errors import BudgetExceeded

    J = builtin("J")
    dims = coradical_levels(J, 8).dims
    tight, fits = _prebuilt_state(J, 8), _prebuilt_state(J, 8)
    monkeypatch.setenv("HOPFKIT_MAX_TERMS", "11")
    with pytest.raises(BudgetExceeded, match=r"^intermediate expression has 12 terms, budget is 11 ") as info:
        while not tight.stable:
            tight.next_level()
    assert len(tight.chain) == 5
    assert "_update" in {entry.name for entry in info.traceback}
    monkeypatch.setenv("HOPFKIT_MAX_TERMS", "12")
    while not fits.stable:
        fits.next_level()
    assert (1,) + tuple(s.dim + 1 for s in fits.chain) == dims


def test_a_restart_raises_when_its_images_have_a_kernel(monkeypatch):
    # the non-pivots a restart of level 1 feeds span a complement of the
    # primitives found, so their images have no kernel; J 6 starts over at
    # the end of weight 3, and a restart that reads its first coproduct,
    # a^2's, as empty feeds a zero image, which must trip the check
    from hopfkit.subspace import _CoradicalState

    images = _CoradicalState._images

    def emptied(self, elim, coproducts, budget):
        if self.restarts and not elim.rows:  # the restart's fresh elimination
            (pos, _, factor), *rest = coproducts
            assert self.index.monomials[pos] == (2, 0, 0, 0, 0, 0)
            coproducts = [(pos, (), factor), *rest]
        images(self, elim, coproducts, budget)

    monkeypatch.setattr(_CoradicalState, "_images", emptied)
    state = _CoradicalState(builtin("J"), 6)
    with pytest.raises(AssertionError, match=r"^coradical chain: the images of the non-pivots of "
                                             r"weight <= 3 have a kernel of dimension 1$"):
        state.next_level()
    assert state.restarts == [4]


def test_coradical_and_signature_read_the_variable_once(monkeypatch):
    """A call reads HOPFKIT_MAX_TERMS once, however many levels and
    builds it drives; a level driven on its own, outside such a call,
    still reads it once per level."""
    from hopfkit import freealg

    reads = []
    read = freealg._read_budget
    monkeypatch.setattr(freealg, "_read_budget", lambda: reads.append(1) or read())
    assert coradical_levels(builtin("J"), 6).dims == (1, 5, 17, 41, 87, 137, 217)
    assert reads == [1]
    reads.clear()
    assert str(signature(builtin("L"), 6)) == "(1, 1, 1, 2, 2)"
    assert reads == [1]
    state, levels = _prebuilt_state(builtin("J"), 6), 0
    reads.clear()
    while not state.stable:
        state.next_level()
        levels += 1
    assert len(reads) == levels == 6


def test_coradical_cut_build_keeps_the_term_budget(monkeypatch):
    """The chain's own coproduct build checks the budget as the machine's
    does: a fresh chain of J at window 6 builds tuples of up to 18 terms
    before any image wider than 8, so under budget 8 the build raises."""
    from hopfkit.errors import BudgetExceeded

    J = builtin("J")
    monkeypatch.setenv("HOPFKIT_MAX_TERMS", "8")
    for run in (primitive_space, coradical_levels):
        with pytest.raises(BudgetExceeded, match=r"^intermediate expression has \d+ terms, budget is 8 ") as info:
            run(J, 6)
        names = {entry.name for entry in info.traceback}
        assert "_build_delta" in names
    monkeypatch.delenv("HOPFKIT_MAX_TERMS")
    assert max(len(_prebuilt_state(J, 6)._delta(pos)) // 3 for pos in range(1, 217)) == 18


def test_signature_raises_when_products_overshoot_a_level(monkeypatch):
    # explained <= dim S_n is a theorem; a level 2 smaller than level 1,
    # whose basis is fed before level 2's products, must trip it
    from hopfkit import subspace

    L = builtin("L")
    chain = subspace._coradical_chain(L, 4)
    smaller = subspace.Subspace(chain[0].index, chain[0].basis()[:-1])
    monkeypatch.setattr(subspace, "_coradical_chain", lambda p, bound: [chain[0], smaller, *chain[2:]])
    with pytest.raises(AssertionError, match=r"^signature level 2: products explain \d+ "):
        signature(L, 4)


def test_early_exits_on_random_enveloping_algebras():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(derandomize=True, max_examples=40, deadline=None)
    @hypothesis.given(nilpotent_lie_algebras(), st.integers(0, 1))
    def check(algebra, extra):
        p, degrees = algebra
        bound = max(degrees) + extra + 1
        chain, sig = _assert_matches_references(p, bound)
        # primitive generators: C_n is spanned by the monomials of degree <= n
        window = p.enumerate_basis(bound)
        top = max(sum(m) for m in window)
        dims = tuple(sum(1 for m in window if sum(m) <= n) for n in range(top + 1))
        assert coradical_levels(p, bound).dims == dims
        # and every level past the first is explained by products
        assert sig.entries == (1,) * len(degrees)

    check()


def test_one_sided_chain_matches_the_two_sided_reference_on_enveloping_algebras():
    """On U(g) the chain equals the two-sided reference level for level,
    basis for basis.  The generators are primitive and the coradical
    filtration is an algebra filtration, so S_n is spanned by the basis
    monomials of degree 1 to n: dim S_n + 1 = #{monomials of degree <= n}."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    from hopfkit.subspace import _coradical_chain

    @hypothesis.settings(derandomize=True, max_examples=30, deadline=None)
    @hypothesis.given(nilpotent_lie_algebras(), st.integers(1, 5))
    def check(algebra, extra):
        p, degrees = algebra
        bound = max(degrees) + extra
        while len(p.enumerate_basis(bound)) > 300:  # keeps the reference small
            bound -= 1
        window = p.enumerate_basis(bound)
        chain, reference = _coradical_chain(p, bound), _reference_chain(p, bound)
        assert len(chain) == len(reference) == max(sum(m) for m in window)
        for n, (level, ref) in enumerate(zip(chain, reference), 1):
            monomials = [{m: 1} for m in window if 1 <= sum(m) <= n]
            assert [b.terms for b in level.basis()] == [b.terms for b in ref.basis()] == monomials

    check()


# ----- the chain's own coproducts, cut to the left legs in V ------------------


def _cut_state(p, bound):
    """A chain state after level 1, with V closed over the pivots of S_1,
    as the later levels read it."""
    from hopfkit.subspace import _CoradicalState

    state = _CoradicalState(p, bound)
    state.next_level()
    pivots = state.chain[0].pivots() if state.chain else []
    state._grow(state.ids[pos] for pos in pivots)
    assert 0 in state.v and {state.ids[pos] for pos in pivots} <= state.v
    return state


def _assert_cut_matches_machine(p, bound):
    """Every tuple the chain builds is the machine's tuple with the terms
    whose left leg is outside V dropped, term for term and in order, and
    its factor clears the kept coefficients."""
    from hopfkit import hopf

    state, mach = _cut_state(p, bound), hopf._machine(p)
    for pos in range(1, len(state.index)):
        flat = iter(mach.delta(state.ids[pos]))
        cut = tuple(x for t in zip(flat, flat, flat) if t[0] in state.v for x in t)
        factor = lcm(*(Fraction(c).denominator for c in cut[2::3]))
        assert state._coproduct(pos) == (pos, cut, factor), state.index.monomials[pos]
    return state


def _assert_v_closed(p, bound, state):
    """No left leg u != 1 of any Delta(g) takes a window monomial x outside V
    into V: NF(u x), straightened word by word, has no monomial in V when
    wt(u) + wt(x) <= bound.  Every member of V but 1 and the pivots is
    taken into V by some leg, so none is there for nothing."""
    n = len(p.alphabet)
    legs = {tuple(int(k == g) for k in range(n)) for g in range(n)}
    legs |= {u for terms in p.delta.values() for u, _ in terms if any(u)}
    v = {p._monos[i] for i in state.v}
    pivots = {state.index.monomials[pos] for pos in state.chain[0].pivots()} if state.chain else set()
    reached = set()
    for u in legs:
        for x in state.index.monomials:
            if p.mono_weight(u) + p.mono_weight(x) > bound:
                continue
            hits = set(p.normal_form({p.mono_word(u) + p.mono_word(x): 1}).terms) & v
            assert x in v or not hits, (p.render_mono(u), p.render_mono(x))
            if hits:
                reached.add(x)
    assert v - {(0,) * n} - pivots <= reached


@pytest.mark.parametrize(
    "name,bound,size",
    [("J", 9, 11), ("J", 10, 11), ("L", 9, 4), ("U_n5", 7, 6), ("H6", 8, 7), ("heis3", 8, 4)],
)
def test_cut_coproducts_are_the_machine_tuples_filtered_to_v(name, bound, size):
    state = _assert_cut_matches_machine(builtin(name), bound)
    assert len(state.v) == size


def test_chain_and_check_share_the_machine_class_but_not_its_store():
    # the chain builds its cut coproducts through a hopf._Machine of its
    # own, kept = V, and builds no whole coproduct in check's machine
    from hopfkit import hopf
    from hopfkit.subspace import _CoradicalState

    J = builtin("J")
    assert coradical_levels(J, 9).dims[-1] == len(J.enumerate_basis(9))
    assert hopf._machine(J)._deltas == {0: (0, 0, -1)}
    state = _cut_state(J, 9)
    assert type(state.machine) is hopf._Machine and state.machine.kept == state.v
    assert state.machine is not hopf._machine(J)
    assert not hasattr(_CoradicalState, "_build_delta") and not hasattr(hopf, "_build_delta")


def test_v_of_j_holds_the_words_in_a_and_c_below_degree_four():
    # b a = a b - c sends the letters a and c onto the pivots a, c and c^3
    J = builtin("J")
    state = _cut_state(J, 9)
    assert sorted(J.render_mono(J._monos[i]) for i in state.v) == [
        "1", "a", "a^2", "a^2c", "a^3", "ac", "ac^2", "b", "c", "c^2", "c^3"]


@pytest.mark.parametrize("bound", [8, 9, 10])
def test_cut_coproducts_match_the_machine_on_l_heavy(bound):
    _assert_cut_matches_machine(load_presentation(PRESENTATIONS / "L_heavy.hopf"), bound)


@pytest.mark.parametrize("text,bound", [(J_SCALED_D, 7), (NESTED, 7)], ids=["J_scaled_d", "nested"])
def test_cut_coproducts_match_the_machine_with_fractions_and_nested_pivots(text, bound):
    # J_scaled_d clears by the factors 5 and 25; NESTED has the pivot a^2
    _assert_cut_matches_machine(parse_presentation(text), bound)


def test_cut_coproducts_match_the_machine_on_enveloping_algebras():
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(derandomize=True, max_examples=40, deadline=None)
    @hypothesis.given(nilpotent_lie_algebras())
    def check(algebra):
        p, degrees = algebra
        _assert_cut_matches_machine(p, max(degrees) + 2)

    check()


@pytest.mark.parametrize(
    "make,bound",
    [(lambda: builtin("J"), 7), (lambda: builtin("L"), 8), (lambda: builtin("U_n5"), 4),
     (lambda: builtin("H6"), 6), (lambda: builtin("heis3"), 7),
     (lambda: load_presentation(PRESENTATIONS / "L_heavy.hopf"), 8),
     (lambda: parse_presentation(J_SCALED_D), 6), (lambda: parse_presentation(NESTED), 7)],
    ids=["J", "L", "U_n5", "H6", "heis3", "L_heavy", "J_scaled_d", "nested"],
)
def test_v_is_closed_under_every_left_leg(make, bound):
    p = make()
    _assert_v_closed(p, bound, _cut_state(p, bound))


# two Weyl pairs: each constant tail takes 1, and with it every x whose
# product with a letter straightens to a constant, into V; not a Hopf
# algebra (a constant tail breaks the counit), but the chain is defined
# by its coproduct formula and must still equal the reference
WEYL_PAIRS = """name: weyl_pairs
generators: x:1 y:1 u:1 v:1
rel: y x = x y + 1
rel: v u = u v + 1
"""


@pytest.mark.parametrize("bound,size", [(4, 22), (6, 51)])
def test_chain_with_a_constant_tail_matches_the_reference(bound, size):
    from hopfkit.subspace import _coradical_chain

    p = parse_presentation(WEYL_PAIRS)
    assert p.confluence().ok
    state = _assert_cut_matches_machine(p, bound)
    assert len(state.v) == size
    _assert_v_closed(p, bound, state)
    chain, reference = _coradical_chain(p, bound), _reference_chain(p, bound)
    assert [s.dim for s in chain] == [s.dim for s in reference]
    for level, ref in zip(chain, reference):
        assert [b.terms for b in level.basis()] == [b.terms for b in ref.basis()]


# ----- coproducts that are no primitive generators plus a correction ---------


def _zhuang_a(l1, l2, alpha):
    """Zhuang's A(l1, l2, alpha) of GK dimension 3 (J. London Math. Soc. 87,
    2013): x and y primitive and commuting, [z, x] = l1 x,
    [z, y] = l2 y + alpha x and Delta(z) = z (x) 1 + 1 (x) z + x (x) y.
    Names look like L, so A(1, -1, 0) is named A_1_m1_0."""
    def tail(*terms):
        return "".join(f" + {c} {g}" if c > 0 else f" - {-c} {g}" for c, g in terms if c)

    name = "A_" + "_".join(str(v).replace("-", "m") for v in (l1, l2, alpha))
    return (f"name: {name}\ngenerators: x:1 y:1 z:2\n"
            f"rel: z x = x z{tail((l1, 'x'))}\n"
            f"rel: z y = y z{tail((l2, 'y'), (alpha, 'x'))}\n"
            "delta: z = z (x) 1 + 1 (x) z + x (x) y\n")


ZHUANG_A = ((1, 2, 1), (0, 0, 0), (0, 0, 1), (1, 1, 1), (1, -1, 0), (2, 3, 5))


@pytest.mark.parametrize(
    "source", [*ZHUANG_A, "b0"], ids=[*(f"A{member}" for member in ZHUANG_A), "b0"]
)
def test_chain_matches_the_reference_on_a_correction_of_x_by_y(source):
    # z is no primitive: its correction x (x) y (in b0, h (x) e - e (x) h)
    # puts terms with a left leg at a pivot of S_1 into every coproduct
    # with z in it; the chain must equal the two-sided reference level for
    # level, basis for basis, with dimensions 1, 3, 7, ..., 95 at window 8,
    # and the signature, whose new rows are then no weight block, its
    # reference
    if source == "b0":
        p = load_presentation(B0)
    else:
        p = parse_presentation(_zhuang_a(*source))
        assert p.name == "A_" + "_".join(str(v).replace("-", "m") for v in source)
    _assert_matches_references(p, 8)
    assert coradical_levels(p, 8).dims == (1, 3, 7, 13, 22, 34, 50, 70, 95)


# ----- level 1's echelon is the one the later levels update ------------------


def _image_pass_rows(state):
    """The rows, in dict order, of the echelon of images as the chain once
    built it after level 1, from scratch: a fresh elimination fed the
    coproducts of S_1's non-pivots in window order, under the final left
    and V, with no kernel."""
    from hopfkit.freealg import term_budget

    pivots, elim = state.chain[0]._elim.rows, _Echelon()
    state._images(elim, (state._coproduct(pos) for pos in range(1, len(state.index))
                         if pos not in pivots), term_budget())
    assert not elim.kernel
    return list(elim.rows.items())


def _assert_level_one_keeps_the_image_pass(p, bound):
    from hopfkit.subspace import _CoradicalState

    state = _CoradicalState(p, bound)
    state.next_level()
    assert list(state.echelon.rows.items()) == _image_pass_rows(state), (p.name, bound)
    return state


@pytest.mark.parametrize(
    "make,bound",
    [(lambda: builtin("J"), 9), (lambda: builtin("J"), 11), (lambda: builtin("L"), 9),
     (lambda: builtin("H6"), 8), (lambda: builtin("U_n5"), 7),
     (lambda: parse_presentation(NESTED), 3), (lambda: parse_presentation(NESTED), 6),
     (lambda: load_presentation(B0), 8), (lambda: load_presentation(PRESENTATIONS / "r2k3.hopf"), 8),
     (lambda: load_presentation(PRESENTATIONS / "L_heavy.hopf"), 10),
     *((lambda member=member: parse_presentation(_zhuang_a(*member)), 8) for member in ZHUANG_A[:3])],
    ids=["J 9", "J 11", "L 9", "H6 8", "U_n5 7", "NESTED 3", "NESTED 6", "b0 8", "r2k3 8",
         "L_heavy 10", *(f"A{member} 8" for member in ZHUANG_A[:3])],
)
def test_level_one_ends_with_the_echelon_of_images(make, bound):
    # level 1's elimination after its last restart is the echelon the
    # later levels update, row for row and in the same order
    _assert_level_one_keeps_the_image_pass(make(), bound)


def test_level_one_ends_with_the_echelon_of_images_on_enveloping_algebras():
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(derandomize=True, max_examples=20, deadline=None)
    @hypothesis.given(nilpotent_lie_algebras())
    def check(algebra):
        p, degrees = algebra
        _assert_level_one_keeps_the_image_pass(p, max(degrees) + 2)

    check()


# ----- a stored row is never edited, so echelons share rows ------------------


def _snapshot(elim):
    """Each stored row with a copy of its entries, by pivot."""
    return {pivot: (row, dict(row)) for pivot, row in elim.rows.items()}


def _assert_unchanged(elim, snapshot):
    assert elim.rows.keys() == snapshot.keys()
    for pivot, (row, entries) in snapshot.items():
        assert elim.rows[pivot] is row and row == entries, pivot


def test_back_substitute_leaves_a_shared_row_as_it_was():
    # the second echelon shares the first's rows; the vector's pivot, 1,
    # lies inside the support of the shared row at 0, which
    # back-substitution must change in the second echelon alone
    first = _Echelon()
    for vec in ({0: 1, 1: 2, 3: 1}, {2: 1, 3: -1}, {4: 3, 5: 1}):
        first.insert({c: Fraction(v) for c, v in vec.items()})
    before = _snapshot(first)
    second, deep = _Echelon(), _Echelon()
    second.rows = dict(first.rows)
    deep.rows = {pivot: dict(row) for pivot, row in first.rows.items()}
    for elim in (second, deep):
        assert elim.insert({1: Fraction(1), 5: Fraction(2)}) == 1
        elim.back_substitute()
    _assert_unchanged(first, before)
    assert second.rows == deep.rows
    assert second.rows[0] == {0: 1, 3: 1, 5: -4} and second.rows[0] is not first.rows[0]
    assert all(second.rows[pivot] is first.rows[pivot] for pivot in (2, 4))  # unchanged, kept


def test_back_substitute_leaves_shared_rows_of_random_systems_as_they_were():
    rng = random.Random(20160126)
    for _ in range(40):
        n_cols = rng.randint(2, 12)
        rows = random_sparse_rows(rng, rng.randint(2, 10), n_cols)
        split = rng.randint(1, len(rows) - 1)
        first = _Echelon()
        for row in rows[:split]:
            first.insert(row)
        before = _snapshot(first)
        second, deep = _Echelon(), _Echelon()
        second.rows = dict(first.rows)
        deep.rows = {pivot: dict(row) for pivot, row in first.rows.items()}
        for elim in (second, deep):
            for row in rows[split:]:
                elim.insert(row)
            elim.back_substitute()
        _assert_unchanged(first, before)
        assert second.rows == deep.rows
        first.back_substitute()  # the first's own replacements leave the second as it is
        assert second.rows == deep.rows


@pytest.mark.parametrize(
    "make,bound,top", [(lambda: builtin("J"), 9, 944), (lambda: load_presentation(B0), 8, 94)],
    ids=["J 9", "b0 8"],
)
def test_chain_levels_share_their_rows(make, bound, top):
    # level n holds level n-1's row objects at level n-1's pivots, so the
    # chain stores one row per dimension of its top level, and
    # back-substituting the top level edits no lower level's rows
    from hopfkit.subspace import _coradical_chain

    p = make()
    chain = _coradical_chain(p, bound)
    for lower, level in zip(chain, chain[1:]):
        assert all(level._elim.rows[pivot] is row for pivot, row in lower._elim.rows.items())
    assert len({id(row) for level in chain for row in level._elim.rows.values()}) == chain[-1].dim == top
    lowers = [_snapshot(level._elim) for level in chain[:-1]]
    chain[-1].basis()
    for level, snapshot in zip(chain, lowers):
        _assert_unchanged(level._elim, snapshot)
    reference = _reference_chain(p, bound)
    assert [s.dim for s in chain] == [s.dim for s in reference]
    for level, ref in zip(chain, reference):
        assert level.pivots() == ref.pivots()
        assert [b.terms for b in level.basis()] == [b.terms for b in ref.basis()]
