"""Exact linear algebra over monomial windows: spans, filtrations, quotients."""

import random
from fractions import Fraction
from math import gcd

import pytest

from hopfkit import (
    MonomialIndex,
    builtin,
    coradical_levels,
    member,
    parse_presentation,
    power_ideal_span,
    primitive_space,
    signature,
    span,
    truncation_algebra,
)
from hopfkit.errors import WindowTooSmall
from hopfkit.freealg import _acc


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


def test_coradical_nesting():
    J = builtin("J")
    dims = coradical_levels(J, 5).dims
    assert all(a < b for a, b in zip(dims, dims[1:]))


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
    from hopfkit.subspace import _Echelon

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

    def tag_fractions(elim, pivot):
        tag, den = elim.tags[pivot]
        lead = elim.rows[pivot][pivot]
        return {k: Fraction(v, den * lead) for k, v in tag.items()}

    def agree(elim, ref, probes):
        assert sorted(elim.rows) == sorted(ref.rows)
        for pivot, row in elim.rows.items():
            assert all(type(v) is int for v in row.values())
            assert row[pivot] > 0 and gcd(*row.values()) == 1
            assert min(row) == pivot
            assert elim.row(pivot) == ref.rows[pivot]
            if ref.tags:
                tag, den = elim.tags[pivot]
                assert den > 0 and gcd(den, *tag.values()) == 1
                assert tag_fractions(elim, pivot) == ref.tags[pivot]
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
    """Each level's kernel tags equal, as exact Fractions, the ones the
    Fraction engine gets from Fraction images built the way it did."""
    from hopfkit import hopf
    from hopfkit.subspace import _CoradicalState

    p = make()
    state = _CoradicalState(p, bound)
    index, mach = state.index, hopf._machine(p)
    previous = _FractionEchelon()  # the scalars: no augmentation part
    while not state.stable:
        kappa = {
            m: previous.reduce({index.index(m): Fraction(1)}) for m in index.monomials
        }
        ref = _FractionEchelon()
        for m in state.aug:
            image = {}
            for (u, v), c in mach.reduced_mono(m).items():
                for col, cv in kappa[u].items():
                    _acc(image, (0, col, index.index(v)), c * cv)
                for col, cv in kappa[v].items():
                    _acc(image, (1, index.index(u), col), c * cv)
            ref.insert(image, {index.index(m): Fraction(1)})
        assert ref.kernel
        assert state.kernel() == ref.kernel
        previous = _FractionEchelon()
        for tag in ref.kernel:
            previous.insert(tag)
        state.next_level()
        if not state.stable:
            assert state.chain[-1].dim == len(previous.rows)


def test_rescaled_j_keeps_the_invariants_of_j():
    from hopfkit import hopf

    p = parse_presentation(J_SCALED_D)
    assert hopf.check_relation_compatibility(p).ok
    assert coradical_levels(p, 8).dims == coradical_levels(builtin("J"), 8).dims
    assert [str(b) for b in primitive_space(p, 8).basis()] == ["a", "b", "c", "c^3 - 5/2 d"]
