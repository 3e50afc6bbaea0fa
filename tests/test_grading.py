"""Hilbert series, factorization, growth, obstructions, associated graded."""

from pathlib import Path

import pytest

from hopfkit import (
    associated_graded,
    builtin,
    factor_series,
    gk_dimension,
    hilbert_series,
    hopf_obstruction,
    is_commutative,
    load_presentation,
)
from hopfkit.errors import NotHopfAdmissible
from hopfkit.grading import PowerSeries, series_settles

from strategies import nilpotent_lie_algebras

PRESENTATIONS = Path(__file__).resolve().parent.parent / "presentations"
BUILTIN_CASES = ("H6", "J", "L", "U_n5", "heis3", "poly(3)", "qplane(1)", "qplane(-3/2)")


def test_series_values():
    assert hilbert_series(builtin("L"), 10).coeffs == (
        1, 2, 4, 8, 13, 20, 31, 44, 61, 84, 111,
    )
    assert hilbert_series(builtin("heis3"), 8).coeffs == (
        1, 2, 4, 6, 9, 12, 16, 20, 25,
    )
    assert hilbert_series(builtin("poly(3)"), 4).coeffs == (1, 3, 6, 10, 15)
    # U_n5 has five weight-one generators, so this is the binomial column
    assert hilbert_series(builtin("U_n5"), 5).coeffs == (1, 5, 15, 35, 70, 126)


def test_series_rendering():
    s = hilbert_series(builtin("L"), 4)
    assert str(s) == "1 + 2t + 4t^2 + 8t^3 + 13t^4 + ..."


@pytest.mark.parametrize(
    "coeffs, text",
    [
        ([0], "0 + ..."),
        ([-1], "-1 + ..."),
        ([0, -1], "-t + ..."),
        ([-1, 0, 1, -1, 2, -3], "-1 + t^2 - t^3 + 2t^4 - 3t^5 + ..."),
        ([0, 0, 0, 5], "5t^3 + ..."),
    ],
)
def test_series_rendering_of_signs_and_gaps(coeffs, text):
    assert str(PowerSeries(coeffs)) == text


def test_series_matches_enumeration():
    for name in ("H6", "J", "L", "U_n5", "heis3", "poly(2)", "qplane(3)"):
        p = builtin(name)
        assert p.basis_counts(8) == hilbert_series(p, 8).coeffs, name

    # and on random graded nilpotent Lie algebras, whose generators have
    # weights up to the top degree
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(derandomize=True, max_examples=40, deadline=None)
    @hypothesis.given(nilpotent_lie_algebras())
    def check(algebra):
        p = algebra[0]
        assert p.basis_counts(8) == hilbert_series(p, 8).coeffs

    check()


def test_factorization_values():
    eL = factor_series(hilbert_series(builtin("L"), 10))
    assert eL.entries[:4] == (2, 1, 2, 0)
    assert set(eL.entries[4:]) == {0}
    assert eL.degrees() == (1, 1, 2, 3, 3)
    assert eL.product_form() == "1/((1-t)^2 (1-t^2) (1-t^3)^2)"
    assert eL.total() == 5
    assert gk_dimension(eL) == 5

    eJ = factor_series(hilbert_series(builtin("J"), 10))
    assert eJ.entries[:4] == (3, 2, 1, 0)
    assert gk_dimension(eJ) == 6

    for d in (1, 2, 5):
        ed = factor_series(hilbert_series(builtin(f"poly({d})"), 8))
        assert ed.n(1) == d
        assert ed.total() == d
        assert gk_dimension(ed) == d


def test_factorization_of_heis3():
    e = factor_series(hilbert_series(builtin("heis3"), 8))
    assert e.degrees() == (1, 1, 2)
    assert e.product_form() == "1/((1-t)^2 (1-t^2))"


def test_factorization_rejects_non_product():
    bad = PowerSeries((1, 1, 2, 2, 2, 2, 2, 2))
    with pytest.raises(NotHopfAdmissible) as info:
        factor_series(bad)
    assert info.value.degree == 4


def test_gk_dimension_needs_clean_boundary():
    # at degree 3 the trailing exponent is still nonzero, so the truncated
    # factorization cannot promise the sequence has terminated
    short = factor_series(hilbert_series(builtin("J"), 3))
    assert gk_dimension(short) is None
    assert gk_dimension(factor_series(hilbert_series(builtin("J"), 10))) == 6


def test_obstruction_q_skew():
    report = hopf_obstruction(builtin("qplane(2)"))
    assert report.obstructed
    assert report.code == "q-skew-pair"
    assert "q-commuting" in report.message
    assert hopf_obstruction(builtin("qplane(-1)")).code == "q-skew-pair"
    # q = 1 is the commutative plane, no obstruction
    assert not hopf_obstruction(builtin("qplane(1)")).obstructed


def test_obstruction_polynomial_series():
    jordan = load_presentation(PRESENTATIONS / "jordan.hopf")
    report = hopf_obstruction(jordan)
    assert report.obstructed
    assert report.code == "polynomial-series"
    assert "noncommutative" in report.message


def test_obstruction_none_for_hopf_builtins():
    for name in ("J", "L", "heis3", "U_n5", "poly(2)"):
        report = hopf_obstruction(builtin(name))
        assert not report.obstructed, name
        assert report.code == "none"


@pytest.mark.parametrize("name", BUILTIN_CASES)
def test_obstruction_degree_defaults_to_the_default_window(name):
    p = builtin(name)
    assert hopf_obstruction(p) == hopf_obstruction(p, 2 * p.max_weight + 2)


def test_series_below_the_heaviest_generator_settles_nothing():
    heis3, L = builtin("heis3"), builtin("L")
    assert not series_settles(heis3, 1) and series_settles(heis3, 2)
    # (1-t)^-2 at degree 1 is not the polynomial-series certificate
    assert hopf_obstruction(heis3, 1).code == "none"
    assert hopf_obstruction(L, 0).code == "none"
    assert hopf_obstruction(load_presentation(PRESENTATIONS / "jordan.hopf"), 1).obstructed
    with pytest.raises(ValueError):
        hilbert_series(L, -1)


def test_is_commutative():
    assert is_commutative(builtin("poly(3)"))
    assert not is_commutative(builtin("L"))
    assert not is_commutative(builtin("qplane(2)"))


def test_associated_graded_identity_on_graded():
    L = builtin("L")
    assert associated_graded(L) is L


def test_associated_graded_drops_light_tails():
    heavy = load_presentation(PRESENTATIONS / "L_heavy.hopf")
    assert not heavy.is_graded
    g = associated_graded(heavy)
    assert g.is_graded
    assert g.name == "gr(L_heavy)"
    # the a,b tail survives (equal weight) but the z,w correction is gone
    ia, ib = g.alphabet.index_of("a"), g.alphabet.index_of("b")
    iz, iw = g.alphabet.index_of("z"), g.alphabet.index_of("w")
    ic = g.alphabet.index_of("c")
    assert g.relations[(ib, ia)].tail == {(ic,): -1}
    assert g.relations[(iw, iz)].tail == {}
    # the graded quotient never keeps a coproduct
    assert not g.has_coproduct


def test_associated_graded_of_filtered_builtin_is_commutative():
    J = builtin("J")
    g = associated_graded(J)
    assert g is not J
    assert g.is_graded
    assert is_commutative(g)
    assert not is_commutative(J)
    # passing to the graded algebra preserves the series
    assert hilbert_series(g, 10).coeffs == hilbert_series(J, 10).coeffs


def test_series_of_graded_quotient_of_heavy():
    heavy = load_presentation(PRESENTATIONS / "L_heavy.hopf")
    g = associated_graded(heavy)
    assert hilbert_series(g, 10).coeffs == hilbert_series(heavy, 10).coeffs
