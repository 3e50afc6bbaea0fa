"""CLI outputs replayed against recorded goldens.

`golden/manifest.json` lists each invocation with its exit code and
stderr; `golden/<name>.out` holds its stdout byte for byte.  Each file
was recorded once from the code as it stood before a refactor (the
`check` to `compare-centers` cases before the elimination engines,
tensor classes and accumulation loops were merged; the `nf`, `hilbert`,
`gr`, `obstruct`, `dump-builtin` and `check --file` cases before the psi
search became an exact LP; the `coradical`, `primitives` and `truncate`
cases at larger windows, and `coradical --file`, before the echelon
engine moved from Fraction to integer rows; `signature` on L 9, J 7 and
heis3 10, `primitives J --weight-bound 10`, `coradical J --weight-bound 9`
and `coradical U_n5 --weight-bound 7` before the signature and the
coradical chain stopped early and the coproducts moved to integers;
`truncate` on U_n5 at power 6 window 8 and power 4 window 4, on heis3
at power 5 window 10, and `compare-centers L U_n5` at power 3 before
the powers of the augmentation ideal were built in H/D_k; `antipode` on
J and L at window 9 and `check J --weight-bound 10` before the antipode
axiom was verified in integers, one product per distinct leg;
`check L --weight-bound 10`, `antipode heis3 --weight-bound 12` and
`antipode --file presentations/L_heavy.hopf --weight-bound 10` before
tailed products were built from a (monomial x generator) table;
`signature` on H6 9, J 9 and L 11 and `signature --file
presentations/L_heavy.hopf --weight-bound 10`, windows whose products
leave the window, and the failing `check J --corrupt
drop-dd-correction` and `check --file
tests/presentations/noncoassociative.hopf`, before the signature
stopped listing the doubled window; `primitives --file
presentations/L_heavy.hopf --weight-bound 10`, `primitives --builtin H6
--weight-bound 9` and `primitives --builtin J --weight-bound 11` before
level 1 of the coradical chain read only the left legs at the pivots of
lighter primitives; `coradical`, `primitives` and `signature` on
tests/presentations/not_an_algebra_map.hopf at window 4, and
`coradical --file tests/presentations/noncoassociative.hopf`, once the
chain commands refused a coproduct that breaks a relation or is not
coassociative, where the first printed levels that decide nothing) and
is never regenerated: a mismatch means a change altered an answer.  `check --file
tests/presentations/nonconfluent.hopf` was recorded once its
confluence verdict named the overlap as space-joined letters, as
`require_confluent` does, instead of a Python tuple.
One file was re-recorded because its answer was wrong: the
seven-presentation `compare-centers` at power 3 said the centers
separate the presentations although H6 and J both have center
dimension 12; it now says they do not and names that shared dimension.
Two more were re-recorded when the `name:` grammar came to accept one
integer or rational in parentheses: `dump-builtin` of poly(3) and of
qplane(2) each gained only the first line `name: poly(3)` or
`name: qplane(2)`, so the dump parses back under the builtin's name.
The `antipode`, `coradical` and `signature` goldens of
tests/presentations/b0.hopf at window 6 were recorded before the
antipode table came to be seeded by monomial id and `check`'s counit
and S^2 stages came to read the id tables; its `check` golden was
recorded once `check` stopped failing on S^2 != Id, which is no Hopf
axiom, and so exits 0 with `involutive.ok=false`.
The `compare-centers` of L, U_n5, presentations/L5_2.hopf and
presentations/r2k3.hopf at power 7 was recorded when those files were
added, the step of the README's argument that L is no enveloping
algebra that separates it from h3 + k^2, h5 and r2 + k^3.
`--file` paths are relative to the repository root.
"""

import json
from pathlib import Path

import pytest

from hopfkit import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
CASES = json.loads((GOLDEN / "manifest.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES, ids=[case["name"] for case in CASES])
def test_golden_output(case, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    code = cli.main(case["argv"])
    captured = capsys.readouterr()
    assert code == case["exit"]
    assert captured.err == case["stderr"]
    assert captured.out == (GOLDEN / f"{case['name']}.out").read_text(encoding="utf-8")
