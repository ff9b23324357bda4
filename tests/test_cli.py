import contextlib
import io
import json

from hypothesis import given, settings, strategies as st

from sieveforest.cli import FAMILY_NAMES, run
from sieveforest.csp import THEOREM_IDS


def capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestPoly:
    def test_tmn2(self, capsys):
        code, out, _ = capture(capsys, ["poly", "--theorem", "tmn", "--n", "2"])
        assert code == 0
        assert out.strip() == "1 + 2q^2 + q^3 + 2q^4 + q^5 + 2q^6 + q^8"

    def test_json_coeffs(self, capsys):
        code, out, _ = capture(capsys, ["poly", "--theorem", "ord", "--n", "3",
                                        "--format", "json"])
        assert code == 0
        assert json.loads(out)["coeffs"] == ["1", "0", "1", "1", "1", "0", "1"]


class TestCount:
    def test_tm_n(self, capsys):
        code, out, _ = capture(capsys, ["count", "--family", "tm_n", "--n", "2"])
        assert code == 0 and out.strip() == "10"

    def test_degrees_flag(self, capsys):
        code, out, _ = capture(capsys, ["count", "--family", "by_degrees",
                                        "--degrees", "2,2"])
        assert code == 0 and out.strip() == "3"


class TestEnumerate:
    def test_deterministic(self, capsys):
        code, first, _ = capture(capsys, ["enumerate", "--family", "all_trees",
                                          "--n", "4"])
        code2, second, _ = capture(capsys, ["enumerate", "--family", "all_trees",
                                            "--n", "4"])
        assert code == code2 == 0 and first == second
        assert len(first.splitlines()) == 14


class TestVerify:
    def test_ord3_pass(self, capsys):
        code, out, _ = capture(capsys, ["verify", "--theorem", "ord", "--n", "3",
                                        "--mode", "all"])
        assert code == 0
        assert "5,0,2,3,2,0" in out

    def test_json_report(self, capsys):
        code, out, _ = capture(capsys, ["verify", "--theorem", "ncm_rotation",
                                        "--j", "3", "--format", "json"])
        assert code == 0
        data = json.loads(out)
        assert data["overall"] is True and data["theorem"] == "ncm_rotation"

    def test_fixtable_csv(self, capsys):
        code, out, _ = capture(capsys, ["fixtable", "--theorem", "ord", "--n",
                                        "3", "--mode", "all", "--format", "csv"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "family,kind,e,d,brute,closed,poly,agree"
        assert len(lines) == 7

    def test_single_exponent(self, capsys):
        code, out, _ = capture(capsys, ["fixtable", "--theorem", "ord", "--n",
                                        "3", "--e", "3", "--format", "json"])
        assert code == 0
        rows = json.loads(out)["rows"]
        assert len(rows) == 1 and rows[0]["brute"] == 3

    def test_size_guard_flag(self, capsys):
        code, _, err = capture(capsys, ["verify", "--theorem", "ord", "--n", "11"])
        assert code == 2 and "guard" in err
        code, _, _ = capture(capsys, ["verify", "--theorem", "ord", "--n", "11",
                                      "--size-guard", "11"])
        assert code == 0

    def test_negative_size_guard_is_a_usage_error(self, capsys):
        for command in (["verify", "--theorem", "ord", "--n", "3"],
                        ["poly", "--theorem", "ord", "--n", "3"]):
            code, _, err = capture(capsys, command + ["--size-guard", "-1"])
            assert code == 2 and "--size-guard" in err
        code, _, err = capture(capsys, ["verify", "--theorem", "ord", "--n", "3",
                                        "--size-guard", "ten"])
        assert code == 2 and "--size-guard" in err

    def test_bad_size_guard_variable_is_a_usage_error(self, capsys, monkeypatch):
        for value in ("abc", "-3", "2.5"):
            monkeypatch.setenv("SIEVE_FOREST_SIZE_GUARD", value)
            code, _, err = capture(capsys, ["verify", "--theorem", "ord", "--n", "3"])
            assert code == 2 and "SIEVE_FOREST_SIZE_GUARD" in err, value
        monkeypatch.setenv("SIEVE_FOREST_SIZE_GUARD", "3")
        assert capture(capsys, ["verify", "--theorem", "ord", "--n", "3"])[0] == 0
        assert capture(capsys, ["verify", "--theorem", "ord", "--n", "4"])[0] == 2


class TestOrbitBiject:
    def test_orbit(self, capsys):
        code, out, _ = capture(capsys, ["orbit", "--word", "(())"])
        assert code == 0 and out.splitlines() == ["(())", "()()"]

    def test_biject_ncm(self, capsys):
        code, out, _ = capture(capsys, ["biject", "--to", "ncm",
                                        "--word", "(())"])
        assert code == 0 and json.loads(out) == [[0, 3], [1, 2]]

    def test_biject_cubic(self, capsys):
        code, out, _ = capture(capsys, ["biject", "--to", "cubic",
                                        "--walk", "ENSW"])
        assert code == 0
        assert json.loads(out) == {"n": 2, "inner": [[0, 3]],
                                   "outer": [[1, 2]], "root": 0}


class TestSumcheck:
    def test_pass(self, capsys):
        code, out, _ = capture(capsys, ["sumcheck", "--identity",
                                        "refined_leaves", "--n", "4"])
        assert code == 0 and out.strip() == "PASS"


class TestUsageErrors:
    def test_unknown_theorem(self, capsys):
        assert capture(capsys, ["verify", "--theorem", "nope", "--n", "3"])[0] == 2

    def test_missing_param(self, capsys):
        assert capture(capsys, ["verify", "--theorem", "ord"])[0] == 2

    def test_no_command(self, capsys):
        assert run([]) == 2

    def test_infeasible_params(self, capsys):
        code, _, err = capture(capsys, ["poly", "--theorem", "ord_leaves",
                                        "--n", "4", "--k", "1"])
        assert code == 2

    def test_negative_family_sizes_are_usage_errors(self, capsys):
        for argv, name in ((["count", "--family", "bt", "--b", "1", "--n", "-1"], "n"),
                           (["count", "--family", "tm_ij", "--i", "-1", "--j", "0"], "i"),
                           (["count", "--family", "tm_ij", "--i", "0", "--j", "-1"], "j"),
                           (["enumerate", "--family", "bt", "--b", "2", "--n", "-1"], "n")):
            code, out, err = capture(capsys, argv)
            assert code == 2 and out == "", argv
            assert f"{name} must be non-negative" in err and "Traceback" not in err

    def test_words_past_the_recursion_limit_are_usage_errors(self, capsys):
        # a raised guard admits these sizes, but one frame per letter of the
        # enumerating walks would overflow the interpreter's stack
        for argv in (["verify", "--theorem", "btij", "--b", "1000", "--n", "0",
                      "--size-guard", "600"],
                     ["verify", "--theorem", "ord", "--n", "600", "--size-guard", "600"],
                     ["enumerate", "--family", "tm_ij", "--i", "0", "--j", "700",
                      "--size-guard", "800"]):
            code, out, err = capture(capsys, argv)
            assert code == 2 and out == "", argv
            assert "at most 512" in err and "Traceback" not in err


INT_FLAGS = ("--n", "--k", "--delta", "--i", "--j", "--b")


def run_quietly(argv) -> None:
    """Run argv; it must exit 0 or 2 and print no traceback."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 2), argv
    assert "Traceback" not in err.getvalue()


# Every family and theorem ignores the flags it does not take, so each
# example passes all integer flags; a missing --degrees is a usage error like
# a missing flag, and an empty one is malformed.  No --size-guard is passed,
# so the default guard keeps every verify and fixtable small.
@settings(max_examples=300, deadline=None)
@given(command=st.sampled_from(("count", "enumerate", "verify", "fixtable", "poly")),
       family=st.sampled_from(FAMILY_NAMES),
       theorem=st.sampled_from(THEOREM_IDS),
       ints=st.tuples(*[st.integers(-3, 8)] * len(INT_FLAGS)),
       degrees=st.none() | st.lists(st.integers(-3, 8), max_size=4))
def test_fuzzed_count_and_enumerate_exit_0_or_2(command, family, theorem, ints, degrees):
    if command in ("count", "enumerate"):
        argv = [command, "--family", family]
    else:
        argv = [command, "--theorem", theorem]
    for flag, value in zip(INT_FLAGS, ints):
        argv += [flag, str(value)]
    if degrees is not None:
        argv += ["--degrees", ",".join(map(str, degrees))]
    run_quietly(argv)


@settings(max_examples=200, deadline=None)
@given(command=st.sampled_from(("orbit", "biject")),
       word=st.none() | st.text("()b", max_size=8),
       walk=st.none() | st.text("ENWS", max_size=8),
       kind=st.none() | st.sampled_from(("ordinary", "leaf", "internal", "degree")),
       delta=st.none() | st.integers(-3, 8),
       to=st.sampled_from(("ncm", "ncp", "dissection", "cubic", "decompose")))
def test_fuzzed_orbit_and_biject_exit_0_or_2(command, word, walk, kind, delta, to):
    argv = [command]
    for flag, value in (("--word", word), ("--walk", walk), ("--delta", delta),
                        ("--kind", kind if command == "orbit" else None),
                        ("--to", to if command == "biject" else None)):
        if value is not None:
            argv += [flag, str(value)]
    run_quietly(argv)


class TestBatch:
    def test_batch_aggregates(self, capsys, tmp_path):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps([
            ["count", "--family", "tm_n", "--n", "2"],
            ["verify", "--theorem", "ord", "--n", "3"],
        ]))
        assert capture(capsys, ["batch", str(manifest)])[0] == 0

    def test_empty_manifest(self, capsys, tmp_path):
        manifest = tmp_path / "m.json"
        manifest.write_text("[]")
        assert capture(capsys, ["batch", str(manifest)])[0] == 0

    def test_malformed_manifest(self, capsys, tmp_path):
        manifest = tmp_path / "m.json"
        manifest.write_text("{not json")
        assert capture(capsys, ["batch", str(manifest)])[0] == 2

    def test_failing_entry_propagates(self, capsys, tmp_path):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps([
            ["count", "--family", "tm_n", "--n", "2"],
            ["poly", "--theorem", "ord_leaves", "--n", "4", "--k", "1"],
        ]))
        assert capture(capsys, ["batch", str(manifest)])[0] == 1

    def test_manifest_running_batch_is_a_usage_error(self, capsys, tmp_path):
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps([
            ["count", "--family", "tm_n", "--n", "2"],
            ["batch", str(manifest)],
        ]))
        code, out, err = capture(capsys, ["batch", str(manifest)])
        assert code == 2 and "batch" in err and "Traceback" not in err
        assert out == ""
