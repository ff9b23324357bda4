import contextlib
import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from sieveforest import csp
from sieveforest.cli import FAMILY_NAMES, run
from sieveforest.csp import THEOREM_IDS, THEOREMS
from sieveforest.trees import FAMILIES, family_fields

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestPoly:
    def test_tmn2(self, capsys):
        code, out, _ = capture(capsys, ["poly", "--theorem", "tmn", "--n", "2"])
        assert code == 0
        assert out.strip() == "1 + 2q^2 + q^3 + 2q^4 + q^5 + 2q^6 + q^8"

    def test_degree_limit(self, capsys):
        # tmn at n = 300 has degree 180,000; refused before any expansion
        for argv in (["poly", "--theorem", "tmn", "--n", "300"],
                     ["sumcheck", "--identity", "chu_vandermonde_tm", "--n", "300"]):
            code, out, err = capture(capsys, argv)
            assert code == 2 and out == "", argv
            assert "MAX_POLY_DEGREE = 10000" in err
        code, out, _ = capture(capsys, ["poly", "--theorem", "tmn", "--n", "50",
                                        "--format", "json"])
        assert code == 0 and len(json.loads(out)["coeffs"]) == 5001

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

    def test_matchings_print_as_json_pairs(self, capsys):
        code, out, _ = capture(capsys, ["enumerate", "--family", "ncm", "--j", "2"])
        assert code == 0 and out == "[[0, 3], [1, 2]]\n[[0, 1], [2, 3]]\n"


class TestVerify:
    def test_ord3_pass(self, capsys):
        code, out, _ = capture(capsys, ["verify", "--theorem", "ord", "--n", "3",
                                        "--mode", "all"])
        assert code == 0
        assert "5,0,2,3,2,0" in out

    def test_single_member_family_with_unpaired_root_classes(self, capsys):
        # [200]_q! / ([200]_q! [1]_q): a root value that once expanded both
        # factorials in full
        code, out, _ = capture(capsys, ["verify", "--theorem", "btij", "--b", "200",
                                        "--n", "0", "--size-guard", "600"])
        assert code == 0 and out.startswith("PASS")

    def test_json_report(self, capsys):
        code, out, _ = capture(capsys, ["verify", "--theorem", "ncm_rotation",
                                        "--j", "3", "--format", "json"])
        assert code == 0
        data = json.loads(out)
        assert data["overall"] is True and data["theorem"] == "ncm_rotation"
        assert set(data) == {"theorem", "params", "rows", "overall", "seconds"}

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

    def test_guard_refuses_before_building_the_instance(self, capsys, monkeypatch):
        def refuse(theorem, **params):
            raise AssertionError(f"built {theorem} with {params}")
        monkeypatch.setattr(csp, "build_instance", refuse)
        for command in ("verify", "fixtable"):
            code, out, err = capture(capsys, [command, "--theorem", "ord",
                                              "--n", "11"])
            assert code == 2 and out == ""
            assert err == ("error: size 11 of AllTrees(n=11) exceeds guard 10; "
                           "raise with --size-guard\n")

    def test_negative_size_guard_is_a_usage_error(self, capsys):
        for command in (["verify", "--theorem", "ord", "--n", "3"],
                        ["poly", "--theorem", "ord", "--n", "3"]):
            code, _, err = capture(capsys, command + ["--size-guard", "-1"])
            assert code == 2 and "--size-guard" in err
        code, _, err = capture(capsys, ["verify", "--theorem", "ord", "--n", "3",
                                        "--size-guard", "ten"])
        assert code == 2 and "--size-guard" in err


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

    def test_orbit_and_biject_words_past_the_limit_are_usage_errors(self, capsys):
        # both grow as the square of the word length; 512 letters is the limit
        for word, walk in (("()" * 256, "EW" * 256), ("()" * 257, "ENWS" * 129)):
            for argv in (["orbit", "--word", word], ["orbit", "--walk", walk],
                         ["biject", "--to", "ncp", "--word", word],
                         ["biject", "--to", "decompose", "--walk", walk]):
                code, out, err = capture(capsys, argv)
                if len(argv[-1]) <= 512:
                    assert code == 0 and err == "", argv[:-1]
                else:
                    assert code == 2 and out == "", argv[:-1]
                    assert "MAX_WORD_LENGTH = 512" in err and "Traceback" not in err


class TestRefusedFlags:
    """Each subcommand takes only the flags it reads, and each family or
    theorem only its own parameters; the rest is a usage error."""

    @staticmethod
    def refused(capsys, argv) -> str:
        code, out, err = capture(capsys, argv)
        assert code == 2 and out == "", argv
        assert "Traceback" not in err
        return err

    def test_flag_the_subcommand_does_not_read(self, capsys):
        for argv in (["count", "--family", "tm_n", "--n", "2", "--size-guard", "1"],
                     ["count", "--family", "tm_n", "--n", "2", "--e", "4"],
                     ["count", "--family", "tm_n", "--n", "2", "--theorem", "ord"],
                     ["count", "--family", "tm_n", "--n", "2", "--format", "csv"],
                     ["enumerate", "--family", "tm_n", "--n", "1", "--mode", "all"],
                     ["poly", "--theorem", "ord", "--n", "3", "--format", "csv"],
                     ["verify", "--theorem", "ord", "--n", "3", "--family", "ncm"],
                     ["orbit", "--word", "(())", "--n", "2"],
                     ["orbit", "--word", "(())", "--format", "csv"],
                     ["biject", "--to", "ncm", "--word", "(())", "--format", "text"],
                     ["sumcheck", "--identity", "refined_leaves", "--n", "4",
                      "--k", "2"]):
            err = self.refused(capsys, argv)
            assert "unrecognized arguments" in err or "invalid choice" in err

    def test_parameter_the_family_or_theorem_does_not_take(self, capsys):
        for argv, flags in ((["verify", "--theorem", "ord", "--n", "3", "--k", "9"],
                             "--k"),
                            (["count", "--family", "tm_n", "--n", "2", "--b", "4",
                              "--degrees", "1"], "--degrees --b"),
                            (["poly", "--theorem", "tmij", "--i", "1", "--j", "1",
                              "--n", "2"], "--n")):
            assert f"not {flags}" in self.refused(capsys, argv)

    def test_word_with_walk(self, capsys):
        for argv in (["orbit", "--word", "(())", "--walk", "ENWS"],
                     ["biject", "--to", "ncm", "--word", "(())", "--walk", "ENWS"]):
            assert "not allowed with" in self.refused(capsys, argv)

    def test_e_with_mode(self, capsys):
        for command in ("verify", "fixtable"):
            argv = [command, "--theorem", "ord", "--n", "3", "--e", "4",
                    "--mode", "divisors"]
            assert "not allowed with" in self.refused(capsys, argv)

    def test_walk_with_kind_or_delta(self, capsys):
        for extra in (["--kind", "leaf"], ["--delta", "2"],
                      ["--kind", "degree", "--delta", "2"]):
            err = self.refused(capsys, ["orbit", "--walk", "ENWS", *extra])
            assert "--walk takes no --kind or --delta" in err

    def test_delta_without_kind_degree(self, capsys):
        for extra in (["--delta", "2"], ["--kind", "leaf", "--delta", "2"],
                      ["--kind", "degree"]):
            err = self.refused(capsys, ["orbit", "--word", "(()())", *extra])
            assert "--kind degree takes --delta" in err


def run_cli_process(argv, **popen):
    """The command line in a fresh interpreter, with this checkout's sources."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.Popen([sys.executable, "-m", "sieveforest.cli", *argv],
                            env=env, stderr=subprocess.PIPE, **popen)


class TestUnwritableOutput:
    def test_closed_pipe_ends_silently(self):
        # the listing is far larger than a pipe buffer, so the writer meets
        # the closed pipe while it is still writing
        proc = run_cli_process(["enumerate", "--family", "all_trees", "--n", "10"],
                               stdout=subprocess.PIPE)
        assert proc.stdout.readline() == b"(" * 10 + b")" * 10 + b"\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 2 and err == b""

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_device_is_one_error_line(self):
        with open("/dev/full", "w") as full:
            proc = run_cli_process(["count", "--family", "tm_n", "--n", "2"],
                                   stdout=full)
            err = proc.stderr.read().decode()
            assert proc.wait(timeout=60) == 2
        assert err.startswith("error: ") and err.count("\n") == 1, err

    def test_closed_stdout_is_one_error_line(self):
        # started with no stdout at all, print would drop the output silently
        proc = run_cli_process(["count", "--family", "tm_n", "--n", "2"],
                               preexec_fn=lambda: os.close(1))
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 2
        assert err.startswith("error: ") and err.count("\n") == 1, err


def test_count_prints_any_integer():
    # C_8000 has 4,811 digits, past CPython's default limit of 4,300 for
    # converting an int to a str
    proc = run_cli_process(["count", "--family", "all_trees", "--n", "8000"],
                           stdout=subprocess.PIPE)
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 0, err
    assert out.strip().isdigit() and len(out.strip()) == 4811


def test_poly_whose_factors_cancel_is_not_quadratic():
    # [b]_q! / [b]_q! at b = 100,000: every index cancels, leaving 1
    proc = run_cli_process(["poly", "--theorem", "btij", "--b", "100000", "--n", "0"],
                           stdout=subprocess.PIPE)
    out, err = proc.communicate(timeout=30)
    assert proc.returncode == 0, err
    assert out == b"1\n"


def _cap_address_space():
    import resource
    limit = 1_500_000 * 1024  # as `ulimit -v 1500000`
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


@pytest.mark.skipif(sys.platform != "linux", reason="caps RLIMIT_AS")
@pytest.mark.parametrize("argv", [
    ["poly", "--theorem", "ord", "--n", "300000000"],
    ["poly", "--theorem", "btij", "--b", "300000000", "--n", "0"],
    ["sumcheck", "--identity", "refined_leaves", "--n", "300000000"]])
def test_huge_qproduct_is_refused_before_it_is_built(argv):
    """Each q-product would list 10^8 indices or more: refused by its word
    length, a usage error, inside a capped address space."""
    proc = run_cli_process(argv, stdout=subprocess.PIPE,
                           preexec_fn=_cap_address_space)
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 2 and out == b"", err
    assert b"Traceback" not in err
    assert b"MAX_QPRODUCT_WORD_LENGTH = 100000" in err


INT_FLAGS = ("--n", "--k", "--delta", "--i", "--j", "--b")


def run_quietly(argv, codes=(0, 2)) -> None:
    """Run argv; it must exit with one of `codes` and print no traceback."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in codes, argv
    assert "Traceback" not in err.getvalue()


# Each example passes only the chosen family's or theorem's parameters, so
# that it fuzzes their values; a missing --degrees is a usage error like a
# missing flag, and an empty one is malformed.  No --size-guard is passed,
# so the default guard keeps every verify and fixtable small.
@settings(max_examples=300, deadline=None)
@given(command=st.sampled_from(("count", "enumerate", "verify", "fixtable", "poly")),
       family=st.sampled_from(FAMILY_NAMES),
       theorem=st.sampled_from(THEOREM_IDS),
       ints=st.tuples(*[st.integers(-3, 8)] * len(INT_FLAGS)),
       degrees=st.none() | st.lists(st.integers(-3, 8), max_size=4))
def test_fuzzed_count_and_enumerate_exit_0_or_2(command, family, theorem, ints, degrees):
    if command in ("count", "enumerate"):
        argv, cls = [command, "--family", family], FAMILIES[family]
    else:
        argv, cls = [command, "--theorem", theorem], THEOREMS[theorem].family
    values = dict(zip(INT_FLAGS, ints))
    if degrees is not None:
        values["--degrees"] = ",".join(map(str, degrees))
    for name in family_fields(cls):
        if f"--{name}" in values:
            argv += [f"--{name}", str(values[f"--{name}"])]
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
    for flag, value in (("--word", word), ("--walk", walk),
                        ("--delta", delta if command == "orbit" else None),
                        ("--kind", kind if command == "orbit" else None),
                        ("--to", to if command == "biject" else None)):
        if value is not None:
            argv += [flag, str(value)]
    run_quietly(argv)


# Free-form argv: tokens in any order and number.  The size guard is only
# ever lowered (at most 4), since a raised guard admits enumerations of
# millions of maps, which is what the guard is there to refuse.
FREE_TOKENS = st.sampled_from(
    ("enumerate", "count", "poly", "fixtable", "verify", "orbit", "biject",
     "sumcheck", "batch", "--theorem", "--family", "--n", "--k", "--degrees",
     "--delta", "--i", "--j", "--b", "--e", "--format", "--mode", "--word",
     "--walk", "--kind", "--to", "--identity", "--help", "--bogus", "--",
     *THEOREM_IDS, *FAMILY_NAMES, "json", "csv", "text", "all", "divisors",
     "ordinary", "leaf", "internal", "degree", "ncm", "ncp", "dissection",
     "cubic", "decompose", "refined_leaves", "chu_vandermonde_tm", "(()())",
     "ENSW", "", "x", "1,,2", *map(str, range(-3, 9)))).map(lambda t: [t])
SIZE_GUARDS = st.sampled_from(("", "x", "1,,2", *map(str, range(-3, 5)))).map(
    lambda v: ["--size-guard", v])


@settings(max_examples=400, deadline=None)
@given(tokens=st.lists(FREE_TOKENS | SIZE_GUARDS, max_size=12))
def test_fuzzed_free_form_argv_exit_0_1_or_2(tokens):
    run_quietly([t for token in tokens for t in token], codes=(0, 1, 2))


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


def test_readme_commands_exit_0(capsys, tmp_path):
    # the sh block under README's "Command line" heading, with its batch
    # manifest made of the block's other commands
    section = (ROOT / "README.md").read_text().split("\n## Command line\n")[1]
    block = section.split("```sh\n")[1].split("```")[0]
    commands = [shlex.split(line)[1:] for line in block.splitlines()
                if line.startswith("sieveforest ")]
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps([c for c in commands if c[0] != "batch"]))
    assert len(commands) >= 9
    for argv in commands:
        if argv[0] == "batch":
            argv = ["batch", str(manifest)]
        code, _, err = capture(capsys, argv)
        assert code == 0, (argv, err)
