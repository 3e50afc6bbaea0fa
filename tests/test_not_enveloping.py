"""L is no enveloping algebra: the 5-dimensional candidates, as files.

presentations/L5_1.hopf to L5_9.hopf are the enveloping algebras of
de Graaf's nilpotent Lie algebras L5,1 to L5,9 (J. Algebra 309, 2007),
and presentations/r2k3.hopf that of r2 + k^3, every generator of weight
1 and primitive.  If L were U(g), g would have dimension 5 and a
1-dimensional derived algebra (see README), so g would be h3 + k^2
(L5,2), h5 (L5,4) or r2 + k^3; dim Z(H/I^k), I the augmentation ideal,
is an isomorphism invariant, and at k = 7 it separates L from each.

Why those three.  Let [g,g] = k z, so [x,y] = f(x,y) z for an
alternating form f.  If z is central, choose a basis of a complement of
the radical of f in which f is symplectic: g is h_(2m+1) plus the
radical's abelian rest, and in dimension 5 that is h3 + k^2 or h5.
Otherwise some x has [x,z] = z.  Every y has [y,z] = l(y) z, and
y - l(y) x commutes with z; adding a multiple of z then makes it commute
with x too.  Those elements form a complement K of span(x, z), and for
y, w in K, [y,w] = c z with [x,[y,w]] = [[x,y],w] + [y,[x,w]] = 0, so
c z = 0 and K is abelian: g = r2 + k^(n-2).
"""

from pathlib import Path

import pytest

from hopfkit import builtin, cli, load_presentation, truncation_algebra

PRESENTATIONS = Path(__file__).resolve().parent.parent / "presentations"

# dim Z(H/I^7) at window 6, which holds every monomial of fewer than 7 letters
CENTERS = {
    "L5_1": 461, "L5_2": 163, "L5_3": 74, "L5_4": 132, "L5_5": 68,
    "L5_6": 28, "L5_7": 28, "L5_8": 88, "L5_9": 34, "r2k3": 209,
}


@pytest.mark.parametrize("name", sorted(CENTERS))
def test_each_candidate_passes_check(name, capsys):
    code = cli.main(["check", "--file", str(PRESENTATIONS / f"{name}.hopf")])
    out = capsys.readouterr().out
    assert code == 0 and "check.ok=true" in out.splitlines(), out


def test_truncated_centers_at_power_seven_separate_l_from_every_candidate():
    centers = {name: truncation_algebra(load_presentation(PRESENTATIONS / f"{name}.hopf"), 7, 6).center().dim
               for name in CENTERS}
    assert centers == CENTERS
    # L's classes of fewer than 7 letters reach weight 3 * 6 = 18
    ell = truncation_algebra(builtin("L"), 7, 18).center().dim
    assert ell == 161
    assert ell not in centers.values()
