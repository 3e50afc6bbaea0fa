"""Exact linear algebra over monomial windows: spans, filtrations, quotients."""

import random
from fractions import Fraction

import pytest

from hopfkit import (
    MonomialIndex,
    builtin,
    coradical_levels,
    member,
    power_ideal_span,
    primitive_space,
    signature,
    span,
    truncation_algebra,
)
from hopfkit.errors import WindowTooSmall


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
        assert [[elim.rows[p].get(c, 0) for c in range(n_cols)] for p in pivots] == [
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
