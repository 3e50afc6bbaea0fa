"""Command line interface: outputs, key=value blocks, exit codes."""

from pathlib import Path

import pytest

from hopfkit import builtin, cli, dump_presentation, freealg

PRESENTATIONS = Path(__file__).resolve().parent.parent / "presentations"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def keyvalues(out):
    pairs = {}
    for line in out.splitlines():
        if "=" in line and " " not in line.split("=", 1)[0]:
            key, value = line.split("=", 1)
            pairs[key] = value
    return pairs


def test_check_passes_for_j(capsys):
    code, out, err = run(capsys, "check", "--builtin", "J", "--weight-bound", "6")
    assert code == 0
    assert err == ""
    kv = keyvalues(out)
    assert kv["check.classification"] == "filtered"
    assert kv["check.triples"] == "20"
    assert kv["compat.relations"] == "15"
    assert kv["compat.ok"] == "true"
    assert kv["coassoc.generators"] == "6"
    assert kv["counit.ok"] == "true"
    assert kv["antipode.ok"] == "true"
    assert kv["antipode.checked"] == "217"
    assert kv["involutive.ok"] == "true"
    assert kv["check.ok"] == "true"


def test_main_builds_one_parser_and_each_call_sees_only_its_sources(capsys):
    # every call parses with the same parser; a --builtin or --file that
    # one call appends must not reach the next
    assert cli.build_parser() is cli.build_parser()
    for flag, source, name in [("--builtin", "J", "J"), ("--file", str(PRESENTATIONS / "L5_2.hopf"), "L5_2"),
                               ("--builtin", "L", "L")]:
        code, out, err = run(capsys, "primitives", flag, source, "--weight-bound", "2")
        assert (code, err) == (0, ""), (flag, err)
        assert out.startswith(f"primitives of {name} up to weight 2: "), out
    assert cli.build_parser().parse_args(["nf", "--expr", "a"]).sources == []


def test_check_reports_dropped_correction(capsys):
    code, out, err = run(
        capsys, "check", "--builtin", "J", "--corrupt", "drop-dd-correction",
        "--weight-bound", "6",
    )
    assert code == 1
    assert "checking J with delta(d) dropped" in out
    assert "coproduct compatibility: FAIL" in out
    assert "[z,w] - d: residual -c (x) c^2 - c^2 (x) c" in out
    kv = keyvalues(out)
    assert kv["compat.ok"] == "false"
    assert kv["check.ok"] == "false"
    # the pipeline stops at the first failing stage
    assert "coassoc.ok" not in kv
    assert "antipode.ok" not in kv


def test_check_passes_a_hopf_algebra_whose_antipode_squares_to_no_identity(capsys):
    # B(0) satisfies every Hopf axiom but has S(S(z)) = z - 2e: S^2 = Id is
    # no axiom, so check passes and reports the failing monomial apart
    witness = Path(__file__).resolve().parent / "presentations" / "b0.hopf"
    code, out, err = run(capsys, "check", "--file", str(witness))
    assert code == 0
    assert err == ""
    kv = keyvalues(out)
    assert kv["antipode.ok"] == "true"
    assert kv["involutive.ok"] == "false"
    assert kv["check.ok"] == "true"
    assert "antipode square: S(S(z)) = -2e + z, not the identity" in out
    assert "no grading makes this algebra\n  connected graded" in out


def test_check_without_coproduct_runs_algebra_stages_only(capsys):
    code, out, err = run(capsys, "check", "--builtin", "qplane(2)")
    assert code == 0
    kv = keyvalues(out)
    assert kv["check.coproduct"] == "none"
    assert kv["check.ok"] == "true"
    assert "compat.ok" not in kv


def test_nf(capsys):
    code, out, err = run(capsys, "nf", "--builtin", "L", "--expr", "b a b a")
    assert code == 0
    kv = keyvalues(out)
    assert kv["nf.result"] == "a^2b^2 - 3abc + c^2"
    assert kv["nf.terms"] == "3"
    assert kv["nf.weight"] == "4"


def test_nf_of_zero(capsys):
    code, out, err = run(capsys, "nf", "--builtin", "L", "--expr", "a b - a b")
    assert code == 0
    kv = keyvalues(out)
    assert kv["nf.result"] == "0"
    assert kv["nf.terms"] == "0"


def test_hilbert(capsys):
    code, out, err = run(capsys, "hilbert", "--builtin", "L")
    assert code == 0
    assert "1/((1-t)^2 (1-t^2) (1-t^3)^2)" in out
    kv = keyvalues(out)
    assert kv["hilbert.series"] == "1,2,4,8,13,20,31,44,61,84,111"
    assert kv["hilbert.exponents"] == "2,1,2,0,0,0,0,0,0,0"
    assert kv["hilbert.gk"] == "5"


def test_hilbert_degree_flag(capsys):
    code, out, err = run(capsys, "hilbert", "--builtin", "poly(2)", "--degree", "4")
    assert code == 0
    kv = keyvalues(out)
    assert kv["hilbert.series"] == "1,2,3,4,5"
    assert kv["hilbert.gk"] == "2"


def test_truncate(capsys):
    code, out, err = run(
        capsys, "truncate", "--builtin", "L", "--power", "3", "--weight-bound", "8",
    )
    assert code == 0
    kv = keyvalues(out)
    assert kv["truncation.dim"] == "15"
    assert kv["center.dim"] == "13"
    assert kv["truncation.basis"].split(",") == [
        "a", "b", "a^2", "ab", "b^2", "c", "z", "w",
        "az", "aw", "bz", "bw", "z^2", "zw", "w^2",
    ]


@pytest.mark.parametrize("power,bound", [("1", "1"), ("1", "0"), ("0", "0")])
def test_truncate_at_power_at_most_one_needs_no_window(capsys, power, bound):
    # every generator lies in I, so H/I^k is 0 for k <= 1 at any window,
    # including windows lighter than some generator (heis3's z has weight 2)
    expected = run(capsys, "truncate", "--builtin", "heis3", "--power", power, "--weight-bound", "2")
    code, out, err = run(capsys, "truncate", "--builtin", "heis3", "--power", power, "--weight-bound", bound)
    assert (code, err) == (0, "")
    assert out == expected[1].replace("window 2:", f"window {bound}:")
    kv = keyvalues(out)
    assert (kv["truncation.dim"], kv["truncation.basis"], kv["center.dim"]) == ("0", "", "0")


def test_antipode(capsys):
    code, out, err = run(capsys, "antipode", "--builtin", "L", "--weight-bound", "6")
    assert code == 0
    kv = keyvalues(out)
    for g in ("a", "b", "c", "z", "w"):
        assert kv[f"antipode.{g}"] == f"-{g}"


def test_primitives(capsys):
    code, out, err = run(capsys, "primitives", "--builtin", "J", "--weight-bound", "6")
    assert code == 0
    kv = keyvalues(out)
    assert kv["primitives.dim"] == "4"
    assert kv["primitives.basis"] == "a,b,c,c^3 - 3d"


def test_coradical(capsys):
    code, out, err = run(capsys, "coradical", "--builtin", "J", "--weight-bound", "6")
    assert code == 0
    assert "1 < 5 < 17 < 41 < 87 < 137 < 217" in out
    kv = keyvalues(out)
    assert kv["coradical.dims"] == "1,5,17,41,87,137,217"
    assert kv["coradical.levels"] == "6"


def test_coradical_of_an_empty_augmentation_window(capsys):
    # window 0 holds the scalars alone: no level grows, so none is shown
    code, out, err = run(capsys, "coradical", "--builtin", "L", "--weight-bound", "0")
    assert code == 0
    assert "up to weight 0: 1\n" in out
    kv = keyvalues(out)
    assert kv["coradical.dims"] == "1"
    assert kv["coradical.levels"] == "0"


def test_signature(capsys):
    code, out, err = run(capsys, "signature", "--builtin", "L", "--weight-bound", "6")
    assert code == 0
    assert "(1, 1, 1, 2, 2)" in out
    kv = keyvalues(out)
    assert kv["signature.entries"] == "1,1,1,2,2"
    assert kv["signature.complete"] == "true"
    assert kv["signature.gk"] == "5"


def test_signature_incomplete_window_still_succeeds(capsys):
    code, out, err = run(capsys, "signature", "--builtin", "L", "--weight-bound", "2")
    assert code == 0
    kv = keyvalues(out)
    assert kv["signature.entries"] == "1,1,1"
    assert kv["signature.complete"] == "false"


def test_gr_changed(capsys):
    code, out, err = run(capsys, "gr", "--builtin", "J")
    assert code == 0
    kv = keyvalues(out)
    assert kv["gr.changed"] == "true"
    assert kv["gr.classification"] == "weight-graded"


def test_gr_unchanged(capsys):
    code, out, err = run(capsys, "gr", "--builtin", "L")
    assert code == 0
    assert "already weight-graded" in out
    kv = keyvalues(out)
    assert kv["gr.changed"] == "false"


def test_obstruct_exit_codes(capsys):
    code, out, err = run(capsys, "obstruct", "--builtin", "qplane(2)")
    assert code == 1
    assert keyvalues(out)["obstruct.code"] == "q-skew-pair"

    code, out, err = run(capsys, "obstruct", "--file", str(PRESENTATIONS / "jordan.hopf"))
    assert code == 1
    assert keyvalues(out)["obstruct.code"] == "polynomial-series"

    code, out, err = run(capsys, "obstruct", "--builtin", "L")
    assert code == 0
    assert keyvalues(out)["obstruct.obstructed"] == "false"


@pytest.mark.parametrize(
    "name", ["H6", "J", "L", "U_n5", "heis3", "poly(3)", "qplane(1)", "qplane(-3/2)"]
)
def test_obstruct_degree_defaults_to_the_default_window(capsys, name):
    window = str(2 * builtin(name).max_weight + 2)
    assert run(capsys, "obstruct", "--builtin", name) == run(
        capsys, "obstruct", "--builtin", name, "--degree", window
    )


def test_short_truncations_settle_nothing(tmp_path, capsys):
    # heis3 = U(heis) is Hopf; its weight-2 generator is outside degree 1
    code, out, err = run(capsys, "obstruct", "--builtin", "heis3", "--degree", "1")
    assert code == 0
    assert keyvalues(out)["obstruct.code"] == "none"

    # degree 0 holds no factor at all (this raised IndexError before)
    code, out, err = run(capsys, "obstruct", "--builtin", "L", "--degree", "0")
    assert code == 0
    assert keyvalues(out)["obstruct.code"] == "none"

    code, out, err = run(capsys, "hilbert", "--builtin", "L", "--degree", "0")
    assert code == 0
    assert keyvalues(out)["hilbert.gk"] == "unknown"

    heavy = tmp_path / "heavy.hopf"
    heavy.write_text("generators: a:1 b:3\n")
    code, out, err = run(capsys, "hilbert", "--file", str(heavy), "--degree", "2")
    assert code == 0
    assert keyvalues(out)["hilbert.gk"] == "unknown"
    code, out, err = run(capsys, "hilbert", "--file", str(heavy), "--degree", "4")
    assert keyvalues(out)["hilbert.gk"] == "2"

    # signature reads its series at degree max(10, 2 * window)
    heavy.write_text("generators: a:1 b:11\n")
    code, out, err = run(capsys, "signature", "--file", str(heavy), "--weight-bound", "2")
    assert code == 0
    kv = keyvalues(out)
    assert kv["signature.gk"] == "unknown"
    assert kv["signature.complete"] == "false"


def test_compare_centers(capsys):
    code, out, err = run(
        capsys, "compare-centers", "--builtin", "L", "--builtin", "U_n5",
        "--power", "3", "--weight-bound", "8", "--weight-bound", "3",
    )
    assert code == 0
    kv = keyvalues(out)
    assert kv["center.L"] == "13"
    assert kv["center.U_n5"] == "11"
    assert kv["compare.separated"] == "true"
    assert "separate these presentations" in out


def test_compare_centers_pairs_the_bounds_in_command_line_order(capsys):
    # a --file before a --builtin keeps its place, and its --weight-bound
    code, out, err = run(
        capsys, "compare-centers", "--file", str(PRESENTATIONS / "L5_2.hopf"), "--builtin", "L",
        "--power", "7", "--weight-bound", "6", "--weight-bound", "18",
    )
    assert (code, err) == (0, "")
    assert out.splitlines()[:2] == [
        "L5_2: center dimension 163 (truncation dimension 295, power 7, window 6)",
        "L: center dimension 161 (truncation dimension 295, power 7, window 18)",
    ]
    assert keyvalues(out)["compare.separated"] == "true"


def test_dump_builtin_is_raw_format(capsys):
    code, out, err = run(capsys, "dump-builtin", "--builtin", "L")
    assert code == 0
    assert out == dump_presentation(builtin("L"))
    assert "=" not in out.splitlines()[0]


def test_dump_round_trips_through_file(tmp_path, capsys):
    code, out, err = run(capsys, "dump-builtin", "--builtin", "J")
    assert code == 0
    target = tmp_path / "j.hopf"
    target.write_text(out)
    code2, out2, err2 = run(capsys, "check", "--file", str(target), "--weight-bound", "5")
    assert code2 == 0
    assert keyvalues(out2)["check.ok"] == "true"


def test_unknown_builtin_is_usage_error(capsys):
    code, out, err = run(capsys, "nf", "--builtin", "nosuch", "--expr", "a")
    assert code == 2
    assert "unknown builtin" in err


def test_bad_expression_is_usage_error(capsys):
    code, out, err = run(capsys, "nf", "--builtin", "L", "--expr", "q q")
    assert code == 2
    assert "unknown generator" in err


def test_missing_file_is_usage_error(capsys):
    code, out, err = run(capsys, "hilbert", "--file", "/nonexistent.hopf")
    assert code == 2
    assert "No such file" in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("truncate", "--builtin", "L", "--power", "-1"), "--power"),
        (("compare-centers", "--builtin", "L", "--builtin", "J", "--power", "-1"), "--power"),
        (("hilbert", "--builtin", "L", "--degree", "-1"), "--degree"),
        (("obstruct", "--builtin", "L", "--degree", "-1"), "--degree"),
        (("truncate", "--builtin", "L", "--power", "0", "--weight-bound", "-1"), "--weight-bound"),
        (("compare-centers", "--builtin", "L", "--builtin", "U_n5", "--power", "0",
          "--weight-bound", "-1"), "--weight-bound"),
        (("compare-centers", "--builtin", "L", "--builtin", "U_n5", "--power", "0",
          "--weight-bound", "3", "--weight-bound", "-1"), "--weight-bound"),
    ],
)
def test_negative_flag_is_usage_error(capsys, argv, flag):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err == f"error: {flag} must be nonnegative\n"
    assert out == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        (("nf", "--expr", "a"), "give a presentation with --builtin or --file"),
        (("coradical", "--builtin", "J", "--builtin", "L"),
         "this command takes exactly one presentation"),
        (("dump-builtin", "--builtin", "J", "--builtin", "L"),
         "dump-builtin takes exactly one --builtin"),
        # checked before any presentation is loaded, so the missing file is never read
        (("dump-builtin", "--file", "/nonexistent", "--builtin", "J"),
         "dump-builtin takes exactly one --builtin"),
        (("compare-centers", "--builtin", "J", "--power", "2"),
         "compare-centers needs at least two presentations"),
        (("compare-centers", "--builtin", "L", "--builtin", "U_n5", "--power", "0",
          "--weight-bound", "3", "--weight-bound", "4", "--weight-bound", "5"),
         "give one --weight-bound, or exactly one per presentation"),
    ],
)
def test_usage_errors(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err == f"error: {message}\n"
    assert out == ""


def test_compare_centers_names_the_dimensions_it_cannot_separate(capsys):
    # H6 and J share center dimension 12 at power 3, window 8; L has 13
    code, out, err = run(
        capsys, "compare-centers", "--builtin", "H6", "--builtin", "L", "--builtin", "J",
        "--power", "3", "--weight-bound", "8",
    )
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[3:5] == [
        "the truncated centers do not separate these presentations",
        "  same center dimension 12: H6, J",
    ]
    kv = keyvalues(out)
    assert (kv["center.H6"], kv["center.L"], kv["center.J"]) == ("12", "13", "12")
    assert kv["compare.separated"] == "false"

    code, out, err = run(
        capsys, "compare-centers", "--builtin", "H6", "--builtin", "L", "--builtin", "U_n5",
        "--power", "3", "--weight-bound", "8", "--weight-bound", "8", "--weight-bound", "4",
    )
    assert code == 0
    assert "the truncated centers separate these presentations\n\n" in out
    assert "same center dimension" not in out
    assert keyvalues(out)["compare.separated"] == "true"


def test_zero_denominator_is_usage_error(tmp_path, capsys):
    code, out, err = run(capsys, "nf", "--builtin", "L", "--expr", "2/0 a")
    assert code == 2
    assert err == "error: zero denominator in '2/0'\n"

    bad = tmp_path / "bad.hopf"
    bad.write_text("generators: a:1 b:1 c:2\nrel: b a = a b + 1/0 c\n")
    code, out, err = run(capsys, "check", "--file", str(bad))
    assert code == 2
    assert err == "error: line 2: zero denominator in '1/0'\n"

    bad.write_text("generators: a:1 b:1 c:2\ndelta: c = c (x) 1 + 1 (x) c + 3/0 a (x) b\n")
    code, out, err = run(capsys, "check", "--file", str(bad))
    assert code == 2
    assert err == "error: line 2: zero denominator in '3/0'\n"


def test_invalid_coproduct_file_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.hopf"
    bad.write_text("generators: a:1 b:1 z:3\ndelta: z = z (x) 1 + 1 (x) z + b a (x) a\n")
    code, out, err = run(capsys, "check", "--file", str(bad))
    assert code == 2
    assert out == ""
    assert err == "error: delta(z) left factor ba is not an ordered monomial\n"


@pytest.mark.parametrize("value", ["abc", "0"])
def test_malformed_term_budget_is_usage_error(capsys, monkeypatch, value):
    monkeypatch.setenv("HOPFKIT_MAX_TERMS", value)
    code, out, err = run(capsys, "nf", "--builtin", "L", "--expr", "b a")
    assert code == 2
    assert out == ""
    assert err == f"error: HOPFKIT_MAX_TERMS must be an integer >= 1, got {value!r}\n"


def test_truncate_heis3_fits_a_budget_of_two_terms(capsys, monkeypatch):
    # a tailed product entry is a running sum over reads of smaller entries,
    # and none of its sums holds more than 2 terms here
    argv = ("truncate", "--builtin", "heis3", "--power", "4", "--weight-bound", "6")
    expected = run(capsys, *argv)
    assert expected[0] == 0 and "center dimension: 7\n" in expected[1]
    monkeypatch.setenv("HOPFKIT_MAX_TERMS", "2")
    assert run(capsys, *argv) == expected
    monkeypatch.setenv("HOPFKIT_MAX_TERMS", "1")
    failure = "failure: intermediate expression has 2 terms, budget is 1"
    assert run(capsys, *argv) == (1, "", failure + " (raise HOPFKIT_MAX_TERMS to override)\n")


BUDGETS = (1, 2, 3, 4, 8, 16, 64)

# per command, the term count each budget of BUDGETS fails at, None where
# the command succeeds with its unbudgeted output; the same whether each
# build reads HOPFKIT_MAX_TERMS or the command reads it once
FAILURE_POINTS = {
    ("check", "--builtin", "J", "--weight-bound", "6"): (2, 6, 6, 6, 20, 20, None),
    ("coradical", "--builtin", "J", "--weight-bound", "6"): (2, 6, 6, 6, 20, 20, None),
    ("signature", "--builtin", "L", "--weight-bound", "6"): (2, 6, 6, 6, 20, 20, None),
    ("truncate", "--builtin", "heis3", "--power", "4", "--weight-bound", "6"):
        (2, None, None, None, None, None, None),
}


@pytest.mark.parametrize("argv", FAILURE_POINTS)
def test_a_command_reads_the_term_budget_once(capsys, monkeypatch, argv):
    reads = []
    read = freealg._read_budget
    monkeypatch.setattr(freealg, "_read_budget", lambda: reads.append(1) or read())
    assert run(capsys, *argv)[0] == 0
    assert reads == [1]


@pytest.mark.parametrize("argv, counts", FAILURE_POINTS.items())
def test_the_term_budget_fails_at_the_pinned_points(capsys, monkeypatch, argv, counts):
    expected = run(capsys, *argv)
    assert expected[0] == 0 and expected[2] == ""
    for budget, count in zip(BUDGETS, counts):
        monkeypatch.setenv("HOPFKIT_MAX_TERMS", str(budget))
        if count is None:
            assert run(capsys, *argv) == expected, budget
        else:
            failure = f"failure: intermediate expression has {count} terms, budget is {budget}"
            assert run(capsys, *argv) == (1, "", failure + " (raise HOPFKIT_MAX_TERMS to override)\n")


def test_window_too_small_is_usage_error(capsys):
    code, out, err = run(
        capsys, "truncate", "--builtin", "L", "--power", "3", "--weight-bound", "5",
    )
    assert code == 2
    assert "window" in err


def test_output_is_deterministic(capsys):
    first = run(capsys, "check", "--builtin", "L", "--weight-bound", "6")
    second = run(capsys, "check", "--builtin", "L", "--weight-bound", "6")
    assert first == second
