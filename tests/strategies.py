"""Shared hypothesis strategies: random presentations with closed-form oracles.

Each strategy is a function that returns a hypothesis strategy and skips
the calling test when hypothesis is not installed.  Tests that draw from
them run with derandomize=True, so every run sees the same examples.
"""

from fractions import Fraction

import pytest

from hopfkit.freealg import _acc
from hopfkit.pbw import Presentation


def _row_reduce(rows, vec):
    """(remainder, combination): vec is the remainder plus the combination
    of the labels of the rows added by _add_row.

    rows is a list of (pivot, row, combination) triples, each row 1 at
    its pivot and combination its value in the labels; vectors are
    {key: Fraction} maps.
    """
    vec, combo = dict(vec), {}
    for pivot, row, comb in rows:
        a = vec.get(pivot, 0)
        if a:
            for k, v in row.items():
                _acc(vec, k, -a * v)
            for k, v in comb.items():
                _acc(combo, k, a * v)
    return vec, combo


def _add_row(rows, vec, label):
    """Append vec, labelled, if it is independent; True when it was."""
    rem, combo = _row_reduce(rows, vec)
    if not rem:
        return False
    pivot = min(rem)
    inv = 1 / rem[pivot]
    comb = {k: -v * inv for k, v in combo.items()}
    comb[label] = inv
    rows.append((pivot, {k: v * inv for k, v in rem.items()}, comb))
    return True


def _bracket(x, y):
    """xy - yx for sparse matrices {(i, j): Fraction}."""
    out = {}
    for (i, j), u in x.items():
        for (k, l), v in y.items():
            if j == k:
                _acc(out, (i, l), u * v)
            if l == i:
                _acc(out, (k, j), -u * v)
    return out


def nilpotent_lie_algebras():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @st.composite
    def algebras(draw):
        """U(g) with primitive generators, for a random graded nilpotent g.

        g is the Lie algebra generated by a few random strictly upper
        triangular matrices, each on one superdiagonal d, which is its
        degree, cut above a random top degree: the part of higher degree
        is an ideal, so the quotient is again a graded nilpotent Lie
        algebra, and the Jacobi identity holds because brackets are
        matrix commutators.  Its basis, by degree, becomes the generators
        x0, x1, ... with weight the degree, and [x_i, x_j] = sum_k c_k x_k
        with k > j (every k has degree deg i + deg j > deg j) becomes
        x_j x_i = x_i x_j - sum_k c_k x_k.  Returns (presentation, degrees).
        """
        size = draw(st.integers(4, 5))
        top = draw(st.integers(2, size - 1))
        seeds = []
        for _ in range(draw(st.integers(2, 3))):
            d = draw(st.sampled_from((1, 1, 2)))
            values = draw(st.lists(st.integers(-2, 2), min_size=size - d, max_size=size - d))
            matrix = {(i, i + d): Fraction(v) for i, v in enumerate(values) if v}
            if matrix:
                seeds.append((d, matrix))
        hypothesis.assume(seeds)
        basis = []  # (degree, matrix), degree by degree
        for degree in range(1, top + 1):
            rows = []
            candidates = [m for d, m in seeds if d == degree]
            candidates += [
                _bracket(m, x) for d, m in seeds for e, x in basis if d + e == degree
            ]
            for matrix in candidates:
                if _add_row(rows, matrix, len(basis)):
                    basis.append((degree, matrix))
        hypothesis.assume(len(basis) <= 7)
        degrees = [d for d, _ in basis]
        relations = {}
        for j, (dj, xj) in enumerate(basis):
            for i in range(j):
                di, xi = basis[i]
                if di + dj > top:
                    continue  # the bracket lies in the ideal cut off
                rows = []
                for k, (dk, xk) in enumerate(basis):
                    if dk == di + dj:
                        _add_row(rows, xk, k)
                rem, combo = _row_reduce(rows, _bracket(xi, xj))
                assert not rem, "g is closed under brackets"
                assert all(k > j for k in combo)
                if combo:
                    relations[(j, i)] = (1, {(k,): -c for k, c in combo.items()})
        gens = [(f"x{i}", d) for i, d in enumerate(degrees)]
        return Presentation(gens, relations, coproduct={}, name="U(g)"), degrees

    return algebras()
