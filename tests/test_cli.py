"""Tests for the command-line harness: exit codes, report schema,
manifest handling, determinism."""

import argparse
import ast
import gc
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import time
import weakref
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from locmodel import admissible, cli, latmod, linalg, weyl
from locmodel.cli import main, parse_manifest
from locmodel.errors import Budget, ManifestParseError
from locmodel.linalg import FieldMatrix
from locmodel.weyl import RootDatum

from reference import extended


def run(argv):
    buf = io.StringIO()
    code = main(argv, stream=buf)
    return code, buf.getvalue()


_EXACT_SPEND = [
    # the 3 ideal elements t_(1,0), t_(0,1) and tau
    (["adm", "--group", "gl", "--d", "2", "--mu", "1,0", "--iwahori"], 3),
    # 2 finite parts, each with the 2 hull points (1, 0) and (0, 1)
    (["perm", "--group", "gl", "--d", "2", "--mu", "1,0", "--iwahori"], 4),
    # the 3 ideal elements of adm and the 4 candidates of perm
    (["compare-adm-perm", "--group", "gl", "--d", "2", "--mu", "1,0", "--iwahori"], 7),
    # 105 ideal elements, then |W_I|^2 = 24^2 members per class
    (["count", "--group", "gl", "--d", "4", "--mu", "2,1,1,0", "--I", "0", "--p", "2"], 105 + 2 * 24**2),
    # the same 105 ideal elements, once more after count has stored them
    (["adm", "--group", "gl", "--d", "4", "--mu", "2,1,1,0", "--I", "0,2"], 105),
    # 5 ideal elements, 22 subspaces and 14 slot options visited (one
    # label, so every option); the stratum counts of its 2 classes spend
    # nothing
    (["verify", "strata", "--group", "gl", "--d", "2", "--e", "2", "--r", "1,1", "--I", "0", "--p", "2"], 41),
    # the N of the case above: its 13 stable and 9 flag-level subspaces,
    # spent again on a memo hit, 6 lines of F_2^2 for the two unramified
    # levels and 22 slot options visited
    (["verify", "torsor", "--group", "gl", "--d", "2", "--e", "2", "--r", "1,1", "--I", "0", "--p", "2"], 13 + 9 + 6 + 22),
    # 21 stable and 16 flag-level subspaces, 8 lines of F_3^2 for the two
    # unramified levels and 37 slot options visited
    (["verify", "torsor", "--group", "gsp", "--g", "1", "--e", "2", "--I", "0", "--p", "3"], 21 + 16 + 8 + 37),
    # 3 stable and 3 flag-level subspaces, 3 lines of F_2^2 for the level
    # with r_l = 1 and nothing for the zero subspace of the level with
    # r_l = 0, and 10 slot options visited
    (["verify", "torsor", "--group", "gl", "--d", "2", "--e", "2", "--r", "1,0", "--I", "0", "--p", "2"], 3 + 3 + 3 + 10),
    # N = 0: the 7 planes of F_2^3 at once, with no level of lines built
    # first, and each visited as the slot option
    (["enumerate", "naive", "--group", "gl", "--d", "3", "--e", "1", "--r", "2", "--I", "0", "--p", "2"], 7 + 7),
    # the N of the case above: 5 ideal elements, the same 21 + 16
    # subspaces and 26 slot options visited
    (["verify", "symplectic", "--g", "1", "--e", "2", "--I", "0", "--p", "3"], 5 + 21 + 16 + 26),
    # 3^15 symmetric matrices scanned, most of them rejected with a prefix of
    # their rows; the stratified count spends nothing
    (["verify", "matrix", "--n", "5", "--r", "2", "--s", "3", "--p", "3"], 3**15),
    # 5^(4 + 1) pairs (a, b) scanned directly, 5^4 matrices a solved for b
    (["verify", "matrix", "--g", "1", "--e", "2", "--p", "5"], 5**5 + 5**4),
]


class TestExitCodes:
    def test_pass_is_zero(self):
        code, _ = run(["adm", "--group", "gl", "--d", "2", "--mu", "1,0", "--iwahori"])
        assert code == 0

    def test_usage_error_is_two(self):
        code, _ = run(
            ["verify", "strata", "--group", "gl", "--d", "2", "--e", "2",
             "--r", "1,1", "--I", "0", "--p", "1"]
        )
        assert code == 2

    def test_count_over_a_prime_power_field(self):
        # P^1 over F_4: the point and the affine line
        code, out = run(["count", "--group", "gl", "--d", "2", "--mu", "1,0", "--I", "0", "--p", "4",
                         "--format", "json"])
        assert code == 0 and json.loads(out)["totals"] == {"predicted": 5, "observed": 5}

    def test_missing_flags_is_two(self):
        code, _ = run(["count", "--group", "gl", "--d", "2", "--mu", "1,0"])
        assert code == 2

    @pytest.mark.parametrize("flag", [["--group", "gl"], ["--d", "2"], ["--I", "0"], ["--iwahori"]], ids=str)
    def test_matrix_takes_no_group_or_level(self, flag):
        matrix = ["verify", "matrix", "--g", "1", "--e", "2", "--p", "3"]
        assert run(matrix + flag)[0] == 2
        code, out = run(matrix + ["--format", "json"])
        assert code == 0 and json.loads(out)["params"] == {"e": 2, "g": 1, "p": 3}

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["verify", "matrix", "--p", "3"], "verify matrix needs"),
            (["verify", "matrix", "--n", "3", "--r", "1", "--p", "3"], "verify matrix needs"),
            (["verify", "matrix", "--g", "1", "--p", "3"], "verify matrix needs"),
            (["enumerate", "unramified", "--group", "gl", "--d", "2", "--e", "2",
              "--r", "1,1", "--I", "0", "--p", "2"], "needs --l"),
            (["adm", "--mu", "1,0", "--iwahori"], "need --d"),
            (["verify", "symplectic", "--e", "2", "--I", "0", "--p", "3"], "need --g"),
            (["enumerate", "naive", "--group", "gl", "--d", "2", "--e", "2", "--p", "2"], "need --I"),
        ],
    )
    def test_missing_parameters_are_usage_errors(self, argv, message, capsys):
        code, out = run(argv)
        assert code == 2 and out == ""
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and message in err

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["count", "--group", "gl", "--d", "2", "--mu", "1,0", "--I", "0", "--p", "-3"], "got -3"),
            (["count", "--group", "gl", "--d", "2", "--mu", "1,0", "--I", "0", "--p", "0"], "got 0"),
            (["count", "--group", "gl", "--d", "2", "--mu", "1,0", "--I", "0", "--p", "6"], "prime power, got 6"),
            (["count", "--group", "gl", "--d", "2", "--mu", "1,0", "--I", "0", "--p", "12"], "prime power, got 12"),
            (["verify", "matrix", "--g", "0", "--e", "1", "--p", "2"], "need g >= 1 and e >= 1"),
            (["verify", "matrix", "--g", "1", "--e", "0", "--p", "2"], "need g >= 1 and e >= 1"),
            (["verify", "matrix", "--g", "1", "--e", "-2", "--p", "2"], "need g >= 1 and e >= 1"),
            (["verify", "symplectic", "--g", "1", "--e", "0", "--I", "0", "--p", "3"], "need e >= 1"),
            (["verify", "symplectic", "--g", "1", "--e", "-1", "--I", "0", "--p", "3"], "need e >= 1"),
            (["verify", "torsor", "--group", "gsp", "--g", "1", "--e", "-2", "--I", "0", "--p", "3"],
             "need e >= 1"),
            (["verify", "torsor", "--group", "gl", "--d", "2", "--e", "0", "--r", "1", "--I", "0",
              "--p", "3"], "need e >= 1"),
        ],
    )
    def test_out_of_range_values_are_usage_errors(self, argv, message, capsys):
        code, out = run(argv)
        assert code == 2 and out == ""
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and message in err

    def test_budget_exceeded_is_three(self):
        code, _ = run(
            ["enumerate", "naive", "--group", "gl", "--d", "2", "--e", "2",
             "--r", "1,1", "--I", "0", "--p", "2", "--budget", "3"]
        )
        assert code == 3

    def test_env_budget(self, monkeypatch):
        monkeypatch.setenv("LOCMODEL_BUDGET", "3")
        code, _ = run(
            ["enumerate", "naive", "--group", "gl", "--d", "2", "--e", "2",
             "--r", "1,1", "--I", "0", "--p", "2"]
        )
        assert code == 3
        monkeypatch.setenv("LOCMODEL_BUDGET", "nope")
        code, _ = run(["adm", "--group", "gl", "--d", "2", "--mu", "1,0", "--iwahori"])
        assert code == 2


    def test_budget_reaches_verify_matrix(self, capsys):
        code, out = run(["verify", "matrix", "--n", "4", "--r", "2", "--s", "2", "--p", "5",
                         "--budget", "1000"])
        assert code == 3 and out == ""
        assert capsys.readouterr().err.startswith("budget exceeded:")
        assert run(["verify", "matrix", "--g", "1", "--e", "2", "--p", "3", "--budget", "10"])[0] == 3
        assert run(["verify", "matrix", "--n", "2", "--r", "1", "--s", "1", "--p", "5",
                    "--budget", "1000"])[0] == 0

    def test_huge_matrix_scan_exceeds_the_budget_at_once(self, capsys):
        # p^(n(n+1)/2) has millions of digits: the spend is capped, so the
        # case neither forms that power nor fails to format it
        start = time.monotonic()
        code, out = run(["verify", "matrix", "--n", "5000", "--r", "1", "--s", "1", "--p", "3"])
        assert code == 3 and out == ""
        assert time.monotonic() - start < 1
        assert capsys.readouterr().err.startswith("budget exceeded:")

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_nonpositive_budget_is_usage_error(self, value, monkeypatch, capsys):
        adm = ["adm", "--group", "gl", "--d", "2", "--mu", "1,0", "--iwahori"]
        code, out = run(adm + ["--budget", value])
        assert code == 2 and out == ""
        assert capsys.readouterr().err.startswith("usage error: --budget must be a positive integer")
        monkeypatch.setenv("LOCMODEL_BUDGET", value)
        code, out = run(adm)
        assert code == 2 and out == ""
        assert capsys.readouterr().err.startswith("usage error: LOCMODEL_BUDGET must be a positive")
        # a valid --budget takes precedence over the environment
        assert run(adm + ["--budget", "5"])[0] == 0

    def test_budget_is_one_allowance_per_case(self):
        # adm spends one unit per ideal element: t_(1,0), t_(0,1) and tau
        adm = ["adm", "--group", "gl", "--d", "2", "--mu", "1,0", "--iwahori"]
        assert run(adm + ["--budget", "3"])[0] == 0
        assert run(adm + ["--budget", "2"])[0] == 3
        # verify matrix: the 5^10 scan, within the default 10^7
        budget = Budget()
        report = cli.run_verify_matrix({"n": 4, "r": 2, "s": 2, "p": 5}, budget)
        assert report["pass"] and budget.spent == 9_765_625 <= budget.limit
        matrix = ["verify", "matrix", "--n", "4", "--r", "2", "--s", "2", "--p", "5"]
        assert run(matrix + ["--budget", "9765625"])[0] == 0
        assert run(matrix + ["--budget", "9765624"])[0] == 3

    @pytest.mark.parametrize("argv,spent", _EXACT_SPEND, ids=lambda v: v[0] if isinstance(v, list) else str(v))
    def test_exact_spend(self, argv, spent):
        assert run(argv + ["--budget", str(spent)])[0] == 0
        assert run(argv + ["--budget", str(spent - 1)])[0] == 3

    @pytest.mark.parametrize("order", [1, -1], ids=["forward", "reversed"])
    def test_exact_spend_in_either_order(self, order, cold_memo):
        # the memo starts cold and is warm for every later case
        for argv, spent in _EXACT_SPEND[::order]:
            assert run(argv + ["--budget", str(spent - 1)])[0] == 3
            assert run(argv + ["--budget", str(spent)])[0] == 0

    @pytest.mark.parametrize(
        "argv,w0_fits",
        [
            # W_0 = S_9, 362,880 finite parts, for the table; adm forms only
            # the 9 points of the orbit, and its ideal passes the budget
            (["adm", "--group", "gl", "--d", "9", "--mu", "1,0,0,0,0,0,0,0,0", "--I", "0"], False),
            (["perm", "--group", "gl", "--d", "9", "--mu", "1,0,0,0,0,0,0,0,0", "--I", "0"], False),
            (["count", "--group", "gl", "--d", "9", "--mu", "1,0,0,0,0,0,0,0,0", "--I", "0", "--p", "2"], False),
            # 2^3 3! = 48 signed permutations
            (["compare-adm-perm", "--group", "gsp", "--g", "3", "--mu", "1,1,1,2", "--iwahori"], False),
            # W_0 fits, but the hull's box does not: 1,001 values of the first
            # coordinate, 2,001 of the GSp one
            (["perm", "--group", "gl", "--d", "2", "--mu", "1000,0", "--I", "0"], True),
            (["perm", "--group", "gsp", "--g", "1", "--mu", "1000,0", "--I", "0"], True),
        ],
        ids=lambda v: " ".join(v[:5]) if isinstance(v, list) else str(v),
    )
    def test_weyl_tables_fit_before_they_are_formed(self, argv, w0_fits, monkeypatch, cold_memo):
        # the budget of 10 has no room for the table, so it is not formed
        def formed(*args, **kwargs):
            raise AssertionError("formed a table the budget has no room for")

        if not w0_fits:
            monkeypatch.setattr(RootDatum, "finite_elements", formed)
        monkeypatch.setattr(admissible, "_with_sum", formed)
        monkeypatch.setattr(admissible, "itertools", SimpleNamespace(product=formed))
        assert run(argv + ["--budget", "10"])[0] == 3

    def test_orbit_fits_before_it_is_formed(self, monkeypatch, cold_memo):
        # 9! = 362,880 points in the orbit of a regular mu
        def formed(*args, **kwargs):
            raise AssertionError("formed an orbit the budget has no room for")

        monkeypatch.setattr(weyl, "_orderings", formed)
        assert run(["adm", "--group", "gl", "--d", "9", "--mu", "8,7,6,5,4,3,2,1,0", "--I", "0", "--budget", "10"])[0] == 3

    def test_central_mu_needs_room_for_its_orbit_only(self, cold_memo):
        # the orbit and the ideal of a central mu are t_mu alone, so one
        # unit is enough, where room for W_0 = S_3 was needed before
        for budget in ("1", "5"):
            assert run(["adm", "--group", "gl", "--d", "3", "--mu", "1,1,1", "--I", "0", "--budget", budget])[0] == 0

    def test_each_suite_block_gets_its_own_budget(self, tmp_path):
        block = "case=adm\ngroup=gl\nd=2\nmu=1,0\niwahori=true\n"
        manifest = tmp_path / "suite.txt"
        manifest.write_text(block + "\n" + block)
        assert run(["run-suite", str(manifest), "--budget", "3"])[0] == 0
        assert run(["run-suite", str(manifest), "--budget", "2"])[0] == 3

    @pytest.mark.parametrize(
        "argv",
        [
            ["enumerate", "naive", "--group", "gl", "--d", "2", "--e", "2", "--r", "1,1",
             "--I", "0", "--p", "2", "--jobs", "2"],
            ["run-suite", "suite.txt", "--jobs", "2"],
        ],
    )
    def test_jobs_is_usage_error(self, argv, capsys):
        code, out = run(argv)
        assert code == 2 and out == ""
        assert capsys.readouterr().err.startswith("usage error: unrecognized arguments: --jobs 2")

    @pytest.mark.parametrize(
        "argv,usage",
        [
            (["--help"], "usage: locmodel [-h]\n"),
            (["verify", "--help"], "usage: locmodel verify [-h] {strata,torsor,symplectic,matrix} ...\n"),
            (["adm", "--help"], "usage: locmodel adm [-h]"),
            (["verify", "strata", "--help"], "usage: locmodel verify strata [-h]"),
        ],
        ids=str,
    )
    def test_help_is_zero(self, argv, usage, capsys):
        # the one path on which the parser still exits
        assert run(argv) == (0, "") and capsys.readouterr().out.startswith(usage)

    @pytest.mark.parametrize(
        "argv,message",
        [
            ([], "the following arguments are required: command"),
            (["verify"], "the following arguments are required: verify_what"),
            (["verify", "foo"],
             "argument verify_what: invalid choice: 'foo' (choose from 'strata', 'torsor', 'symplectic', 'matrix')"),
            (["no-such-command"],
             "argument command: invalid choice: 'no-such-command' (choose from 'adm', 'perm', "
             "'compare-adm-perm', 'count', 'enumerate', 'verify', 'run-suite')"),
        ],
        ids=str,
    )
    def test_line_naming_no_command(self, argv, message, capsys):
        assert run(argv) == (2, "")
        assert capsys.readouterr().err == f"usage error: {message}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["adm", "--gr", "gl", "--d", "2", "--mu", "1,0", "--iwa", "--bud", "5"],
            ["adm", "--group", "gl", "--d", "2", "--mu", "1,0", "--iwahori", "--form", "json"],
            ["run-suite", "suite.txt", "--o", "reports"],
        ],
        ids=str,
    )
    def test_abbreviated_option_is_usage_error(self, argv, capsys):
        assert run(argv) == (2, "")
        assert capsys.readouterr().err.startswith("usage error: unrecognized arguments: --")

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["adm", "--group", "gl", "--d", "2", "--g", "5", "--mu", "1,0", "--iwahori"],
             "--group gl takes --d, not --g"),
            (["adm", "--group", "gsp", "--g", "1", "--d", "3", "--mu", "1,1", "--iwahori"],
             "--group gsp takes --g, not --d"),
            (["verify", "symplectic", "--d", "3", "--g", "1", "--e", "2", "--I", "0", "--p", "3"],
             "--group gsp takes --g, not --d"),
            (["verify", "symplectic", "--group", "gl", "--g", "1", "--e", "2", "--I", "0", "--p", "3"],
             "argument --group: invalid choice: 'gl' (choose from 'gsp')"),
        ],
        ids=str,
    )
    def test_other_groups_option_is_usage_error(self, argv, message, capsys):
        assert run(argv) == (2, "")
        assert capsys.readouterr().err == f"usage error: {message}\n"

    def test_symplectic_takes_its_own_group(self):
        argv = ["verify", "symplectic", "--g", "1", "--e", "2", "--I", "0", "--p", "3", "--format", "json"]
        code, out = run(argv)
        assert code == 0 and json.loads(out)["params"]["group"] == "gsp"
        code, named = run(argv[:2] + ["--group", "gsp"] + argv[2:])
        assert code == 0 and json.loads(named)["params"] == json.loads(out)["params"]

    def test_unexpected_exception_is_four(self, monkeypatch, capsys):
        def broken(params, budget=None):
            raise RuntimeError("boom\nsecond line")

        monkeypatch.setitem(cli._RUNNERS, "adm", broken)
        code, out = run(["adm", "--group", "gl", "--d", "2", "--mu", "1,0", "--iwahori"])
        assert code == 4 and out == ""
        assert capsys.readouterr().err == "internal error: RuntimeError: boom\n"


_GROUP = ("--group", "--d", "--g", "--I", "--iwahori")
_MODEL = _GROUP + ("--e", "--r", "--p")
_FLAGS = {
    ("adm",): _GROUP + ("--mu",),
    ("perm",): _GROUP + ("--mu",),
    ("compare-adm-perm",): _GROUP + ("--mu",),
    ("count",): _GROUP + ("--mu", "--p"),
    **{("enumerate", w): _MODEL + ("--l",)
       for w in ("naive", "splitting", "canonical", "unramified")},
    **{("verify", w): _MODEL for w in ("strata", "torsor", "symplectic")},
    ("verify", "matrix"): ("--n", "--r", "--s", "--g", "--e", "--p"),
}
# values that the CLI must reject, one list per flag
_BAD = {
    "--group": ["gu"],
    "--d": ["0", "-1"],
    "--g": ["0"],
    "--I": ["x", "5"],
    "--iwahori": [None],  # takes no value
    "--mu": ["a", "1"],
    "--e": ["0"],
    "--r": ["3,3", "x"],
    "--p": ["1", "4"],
    "--l": ["0", "9"],
    "--n": ["0"],
    "--s": ["-1"],
}


def _csv(values):
    return ",".join(str(v) for v in values)


@st.composite
def command_lines(draw):
    """A random small command line under a small --budget.  The values
    mostly fit together; about one flag in twelve that its subcommand
    takes is left out, and as many get a value from _BAD.  The other
    group's size flag is given only with a value from _BAD."""
    command = draw(st.sampled_from(sorted(_FLAGS)))
    gsp = draw(st.booleans()) or command == ("verify", "symplectic")
    n = draw(st.integers(1, 2 if gsp else 3))
    e = draw(st.integers(1, 3))
    labels = range(n + 1) if gsp else range(n)
    fitting = {
        "--group": "gsp" if gsp else "gl",
        "--d": str(n),
        "--g": str(n),
        "--I": _csv(draw(st.lists(st.sampled_from(labels), min_size=1, unique=True))),
        "--iwahori": None,
        "--mu": _csv(sorted(draw(st.lists(st.integers(0, 2), min_size=n + gsp, max_size=n + gsp)))[::-1]),
        "--e": str(e),
        "--r": _csv(draw(st.integers(0, n)) for _ in range(1 if command[-1] == "matrix" else e)),
        "--p": str(draw(st.sampled_from([2, 3, 5]))),
        "--l": str(draw(st.integers(1, e))),
        "--n": str(n),
        "--s": str(draw(st.integers(0, n))),
    }
    other = () if command[-1] == "matrix" else ("--d",) if gsp else ("--g",)
    argv = list(command)
    for flag in _FLAGS[command]:
        choice = draw(st.integers(0, 11))
        if choice == 0 or (flag in other and choice != 1):
            continue
        value = draw(st.sampled_from(_BAD[flag])) if choice == 1 else fitting[flag]
        argv += [flag] if value is None else [flag, value]
    return argv + ["--budget", str(draw(st.integers(1, 40)))]


_GL_MODEL = ["--group", "gl", "--d", "2", "--e", "2", "--r", "1,1", "--I", "0", "--p", "2"]
_GL_MU = ["--group", "gl", "--d", "2", "--mu", "1,0", "--iwahori"]


class TestExitCodeContract:
    @settings(max_examples=200, deadline=None)
    @given(command_lines())
    def test_exit_code_is_documented(self, argv):
        assert main(argv, stream=io.StringIO()) in (0, 1, 2, 3, 4)

    @pytest.mark.parametrize(
        "argv",
        [
            ["adm", *_GL_MU],
            ["perm", *_GL_MU],
            ["compare-adm-perm", *_GL_MU],
            ["count", *_GL_MU, "--p", "2"],
            ["enumerate", "naive", *_GL_MODEL],
            ["enumerate", "naive", "--group", "gsp", "--g", "1", "--e", "2", "--I", "0", "--p", "3"],
            ["enumerate", "splitting", *_GL_MODEL],
            ["enumerate", "unramified", *_GL_MODEL, "--l", "1"],
            ["verify", "strata", *_GL_MODEL],
            ["verify", "matrix", "--n", "2", "--r", "1", "--s", "1", "--p", "5"],
            ["verify", "matrix", "--g", "1", "--e", "2", "--p", "2"],
        ],
        ids=lambda argv: " ".join(argv[:4]),
    )
    def test_every_enumerator_honours_the_budget(self, argv):
        assert main(argv, stream=io.StringIO()) == 0
        assert main(argv + ["--budget", "1"], stream=io.StringIO()) == 3


class TestReports:
    def test_adm_json_schema(self):
        code, out = run(
            ["adm", "--group", "gl", "--d", "2", "--mu", "1,0", "--iwahori",
             "--format", "json"]
        )
        assert code == 0
        report = json.loads(out)
        assert set(report) == {"case", "params", "rows", "totals", "pass", "elapsed_ms"}
        assert report["totals"]["observed"] == 3
        for row in report["rows"]:
            assert set(row) >= {"w", "length", "predicted", "observed", "source"}
            assert set(row["w"]) == {"word", "omega", "translation", "finite"}

    def test_verify_strata_frozen(self):
        code, out = run(
            ["verify", "strata", "--group", "gl", "--d", "2", "--e", "2",
             "--r", "2,0", "--I", "0", "--p", "2", "--format", "json"]
        )
        assert code == 0
        report = json.loads(out)
        assert report["pass"]
        assert report["totals"]["naive"] == 7
        assert report["totals"]["canonical"] == 1

    def test_verify_torsor(self):
        code, out = run(
            ["verify", "torsor", "--group", "gl", "--d", "2", "--e", "2",
             "--r", "1,1", "--I", "0", "--p", "2", "--format", "json"]
        )
        assert code == 0
        report = json.loads(out)
        assert report["totals"] == {"predicted": 9, "observed": 9}

    def test_verify_matrix_unitary(self):
        code, out = run(
            ["verify", "matrix", "--n", "2", "--r", "1", "--s", "1", "--p", "5",
             "--format", "json"]
        )
        assert code == 0
        assert json.loads(out)["totals"] == {"predicted": 9, "observed": 9}

    def test_verify_matrix_rank_bounds_above_n(self):
        # no isotropic line in F_3^2, so only the zero matrix; the stratified
        # count stops at k = n = 2 instead of asking for 3-dim subspaces
        code, out = run(
            ["verify", "matrix", "--n", "2", "--r", "3", "--s", "3", "--p", "3",
             "--format", "json"]
        )
        assert code == 0
        assert json.loads(out)["totals"] == {"predicted": 1, "observed": 1}

    def test_count_matches_adm_total(self):
        code, out = run(
            ["count", "--group", "gl", "--d", "2", "--mu", "2,0", "--I", "0",
             "--p", "2", "--format", "json"]
        )
        assert code == 0
        assert json.loads(out)["totals"]["observed"] == 7

    def test_compare_adm_perm(self):
        code, out = run(
            ["compare-adm-perm", "--group", "gsp", "--g", "1", "--mu", "1,1",
             "--iwahori", "--format", "json"]
        )
        assert code == 0
        assert json.loads(out)["pass"]

    def test_csv_format(self):
        code, out = run(
            ["count", "--group", "gl", "--d", "2", "--mu", "1,0", "--iwahori",
             "--p", "3", "--format", "csv"]
        )
        assert code == 0
        assert out.splitlines()[0] == "word,omega,translation,finite,length,predicted,observed,source"
        assert out.splitlines()[-1].endswith("PASS")

    def test_deterministic_output(self):
        argv = ["enumerate", "canonical", "--group", "gl", "--d", "2", "--e", "2",
                "--r", "1,1", "--I", "0", "--p", "3", "--format", "json"]
        reports = []
        for _ in range(2):
            code, out = run(argv)
            assert code == 0
            rep = json.loads(out)
            del rep["elapsed_ms"]
            reports.append(rep)
        assert reports[0] == reports[1]


# sha256 of the JSON report (indent 2) without elapsed_ms, recorded
# before the report rows were built from the windows
_REPORT_DIGESTS = [
    ("compare-adm-perm --group gsp --g 3 --mu 1,1,1,1 --iwahori",
     "eb8f2fe41b15b7525b945440627ce951ab1f1189ce950f0c8fbc65f42bf0fd5c"),
    ("compare-adm-perm --group gl --d 4 --mu 2,1,1,0 --I 0,2",
     "d4975aa2d8fff1ee8061b4057cdceea0fcee664239ae240dc8a08d0698346769"),
    ("adm --group gl --d 3 --mu 2,1,0 --iwahori",
     "7d1318d48f469785bf29cb6c03ba52faf42f5b45c03141b94b4898f2a2c69a45"),
    ("count --group gl --d 4 --mu 2,1,1,0 --I 0 --p 2",
     "c8306f1e98abb1a0fabc5a695fa578028650f7d9335ee421da1af33be9335538"),
    ("verify strata --group gl --d 3 --e 2 --r 1,1 --I 0,1 --p 2",
     "62e8eee0efaf2019a6a0e89165fa99c00037934f2ae66af5f7f332ab3ef961ea"),
]


def _group_argv(kind, n):
    return ["--group", "gl", "--d", str(n)] if kind == "GL" else ["--group", "gsp", "--g", str(n)]


_SETS = [
    (cmd, kind, n, ["--mu", mu] + (["--p", "2"] if cmd == "count" else []))
    for cmd in ("adm", "perm", "count", "compare-adm-perm")
    for kind, n, mu in (
        ("GL", 2, "2,0"), ("GL", 3, "2,1,0"), ("GL", 4, "2,1,1,0"), ("GSp", 1, "2,2"), ("GSp", 2, "2,1,2")
    )
]
_MODELS = [
    ("verify strata", "GL", 2, ["--e", "2", "--r", "1,1", "--p", "2"]),
    ("verify strata", "GL", 3, ["--e", "2", "--r", "1,1", "--p", "2"]),
    ("verify strata", "GL", 3, ["--e", "2", "--r", "2,1", "--p", "2"]),
    ("verify symplectic", "GSp", 1, ["--e", "2", "--p", "3"]),
]


class TestOmegaRelabelling:
    """A report at I and one at Omega(I) agree once I is relabelled:
    I -> I + 1 mod d for GL(d), I -> g - I for GSp(g), as conjugation by
    the length-zero generator moves the affine simple reflections.  The
    relabelling is written here, so these tests run no Omega code of the
    library and check the whole pipeline: the sorted (length, predicted,
    observed) rows and the totals, at every proper I."""

    @staticmethod
    def summary(argv, I):
        code, out = run(argv + ["--I", ",".join(map(str, I)), "--format", "json"])
        report = json.loads(out)
        rows = sorted((row["length"], row["predicted"], row["observed"]) for row in report["rows"])
        return code, report["pass"], rows, report["totals"]

    @pytest.mark.parametrize(
        "cmd,kind,n,extra", _SETS + _MODELS, ids=[f"{c} {k}{n} {' '.join(e)}" for c, k, n, e in _SETS + _MODELS]
    )
    def test_reports_agree_at_relabelled_I(self, cmd, kind, n, extra):
        argv = cmd.split() + _group_argv(kind, n) + extra
        labels = range(n) if kind == "GL" else range(n + 1)
        for k in range(1, len(labels)):
            for I in itertools.combinations(labels, k):
                moved = sorted((i + 1) % n if kind == "GL" else n - i for i in I)
                assert self.summary(argv, I) == self.summary(argv, moved), (argv, I)


class TestReportDigests:
    @pytest.mark.parametrize("line,digest", _REPORT_DIGESTS, ids=[line for line, _ in _REPORT_DIGESTS])
    def test_report_unchanged(self, line, digest):
        code, out = run(line.split() + ["--format", "json"])
        report = json.loads(out)
        del report["elapsed_ms"]
        assert code == 0
        assert hashlib.sha256(json.dumps(report, indent=2).encode()).hexdigest() == digest

    def test_count_disagreement_fails(self, monkeypatch):
        # observed comes from the Poincare quotient, so a wrong one fails
        monkeypatch.setattr(cli, "poincare_quotient", lambda c, q, budget: cli.stratum_count(c, q) + 1)
        code, out = run(["count", "--group", "gl", "--d", "2", "--mu", "2,0", "--I", "0",
                         "--p", "2", "--format", "json"])
        report = json.loads(out)
        assert code == 1 and not report["pass"]
        assert report["totals"] == {"predicted": 7, "observed": 9}
        assert all(row["observed"] == row["predicted"] + 1 for row in report["rows"])

    def test_count_remainder_fails(self, monkeypatch):
        monkeypatch.setattr(cli, "poincare_quotient", lambda c, q, budget: None)
        code, out = run(["count", "--group", "gl", "--d", "2", "--mu", "1,0", "--I", "0",
                         "--p", "3", "--format", "json"])
        assert code == 1 and json.loads(out)["rows"][0]["observed"] is None

    @extended("GL(6) Iwahori adm JSON report (about 3 s): set LOCMODEL_EXTENDED=1")
    def test_gl6_iwahori_adm_words(self):
        code, out = run(["adm", "--group", "gl", "--d", "6", "--mu", "3,2,1,0,0,0", "--iwahori",
                         "--format", "json"])
        rows = json.loads(out)["rows"]
        assert code == 0 and len(rows) == 53665
        assert all(len(row["w"]["word"]) == row["length"] for row in rows)


class TestEmittedBytes:
    """Each report kind's stdout is exactly json.dumps(report, indent=2)
    and a newline, whitespace included."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["adm", "--group", "gl", "--d", "3", "--mu", "2,1,0", "--iwahori"],
            ["perm", "--group", "gsp", "--g", "2", "--mu", "1,1,1", "--I", "0,2"],
            ["compare-adm-perm", "--group", "gl", "--d", "4", "--mu", "2,1,1,0", "--I", "0,2"],
            ["count", "--group", "gl", "--d", "3", "--mu", "2,1,0", "--I", "0", "--p", "3"],
            ["enumerate", "splitting", *_GL_MODEL],
            ["verify", "strata", *_GL_MODEL],
            ["verify", "torsor", *_GL_MODEL],
            ["verify", "symplectic", "--g", "1", "--e", "2", "--I", "0,1", "--p", "3"],
            ["verify", "matrix", "--n", "3", "--r", "1", "--s", "2", "--p", "3"],
        ],
        ids=lambda argv: " ".join(argv[:2]),
    )
    def test_report_bytes(self, argv):
        code, out = run(argv + ["--format", "json"])
        assert code == 0 and out == json.dumps(json.loads(out), indent=2) + "\n"

    def test_suite_aggregate_bytes(self, tmp_path):
        mf = tmp_path / "suite.txt"
        mf.write_text("case=adm\nd=2\nmu=1,0\niwahori=1\n\ncase=verify-matrix\ng=1\ne=2\np=2\n")
        code, out = run(["run-suite", str(mf)])
        assert code == 0 and out == json.dumps(json.loads(out), indent=2) + "\n"
        assert len(json.loads(out)["cases"]) == 2

    _values = st.recursive(
        st.none() | st.booleans() | st.integers(min_value=-(2**80), max_value=2**80) | st.text(),
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
        max_leaves=20,
    )

    @settings(max_examples=300, deadline=None)
    @given(_values)
    def test_writer_equals_json_dumps(self, value):
        # st.text() draws non-ASCII, control and quote characters alike
        assert cli._to_json(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("value", [[], {}, [[]], {"": {}}, [True, 1, -1], ["\u00e9\n\"\\"], {"a": [0, -(2**70)]}])
    def test_writer_edge_cases(self, value):
        assert cli._to_json(value) == json.dumps(value, indent=2)

    @pytest.mark.parametrize("value", [1.5, (1, 2), {1: "a"}, {"a": object()}])
    def test_writer_rejects_other_values(self, value):
        with pytest.raises(TypeError):
            cli._to_json(value)


class TestModelLifetime:
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "strata", "--group", "gl", "--d", "3", "--e", "2", "--I", "0,1,2", "--p", "2", "--r", "1,1"],
            ["verify", "symplectic", "--g", "1", "--e", "2", "--I", "0,1", "--p", "3"],
        ],
        ids=["gl-strata", "gsp-symplectic"],
    )
    def test_case_frees_its_model(self, argv, monkeypatch):
        # the model, its memo and its maps' images are freed by reference
        # counting when the case returns, not at a later cyclic collection
        refs = []
        build = latmod.build_model

        def traced(*args):
            model = build(*args)
            refs.append(weakref.ref(model))
            return model

        monkeypatch.setattr(latmod, "build_model", traced)
        enabled = gc.isenabled()
        gc.disable()
        try:
            assert run(argv)[0] == 0
            assert len(refs) == 1 and refs[0]() is None
        finally:
            if enabled:
                gc.enable()

    def test_case_frees_its_containment_tables(self, monkeypatch):
        # a containment table lives for one call of the point enumeration
        class Table(dict):
            pass

        refs = []
        build = latmod._containment_table

        def traced(*args):
            table = Table(build(*args))
            refs.append(weakref.ref(table))
            return table

        monkeypatch.setattr(latmod, "_containment_table", traced)
        enabled = gc.isenabled()
        gc.disable()
        try:
            argv = ["verify", "torsor", "--group", "gl", "--d", "3", "--e", "2", "--I", "0,1,2", "--p", "2", "--r", "1,1"]
            assert run(argv)[0] == 0
            # one for the naive points and one per unramified level
            assert len(refs) == 3 and all(ref() is None for ref in refs)
        finally:
            if enabled:
                gc.enable()


# The twelve cases of the lattice-strata benchmark workload.
_LATTICE_STRATA = [
    ["verify", "strata", "--group", "gl", "--d", "4", "--e", "2", "--I", "0", "--p", "2", "--r", "1,1"],
    ["verify", "strata", "--group", "gl", "--d", "3", "--e", "2", "--I", "0,1,2", "--p", "2", "--r", "1,1"],
    ["verify", "strata", "--group", "gl", "--d", "2", "--e", "3", "--I", "0,1", "--p", "3", "--r", "1,1,0"],
    ["verify", "strata", "--group", "gl", "--d", "3", "--e", "2", "--I", "0,1", "--p", "2", "--r", "1,1"],
    ["verify", "strata", "--group", "gl", "--d", "2", "--e", "2", "--I", "0", "--p", "5", "--r", "1,1"],
    ["verify", "torsor", "--group", "gl", "--d", "3", "--e", "2", "--I", "0,1,2", "--p", "2", "--r", "1,1"],
    ["verify", "torsor", "--group", "gl", "--d", "3", "--e", "2", "--I", "0", "--p", "2", "--r", "2,1"],
    ["verify", "torsor", "--group", "gsp", "--g", "1", "--e", "2", "--I", "0", "--p", "5"],
    *(["verify", "symplectic", "--group", "gsp", "--g", "1", "--e", "2", "--I", "0", "--p", p] for p in "357"),
    ["verify", "symplectic", "--group", "gsp", "--g", "1", "--e", "2", "--I", "0,1", "--p", "3"],
]


class TestMemoHistory:
    """The package memo outlives cases, so that cases with one N share
    its stable subspaces and flag levels; nothing a case reports may
    depend on what ran before it."""

    @staticmethod
    def report(argv):
        code, out = run(argv + ["--format", "json"])
        return code, "".join(line for line in out.splitlines(True) if '"elapsed_ms"' not in line)

    def test_reports_equal_cold_warm_and_reversed(self, cold_memo):
        cold = {}
        for argv in _LATTICE_STRATA:
            cold_memo.clear()
            cold[tuple(argv)] = self.report(argv)
        cold_memo.clear()
        warm = {tuple(argv): self.report(argv) for argv in _LATTICE_STRATA}
        reversed_ = {tuple(argv): self.report(argv) for argv in _LATTICE_STRATA[::-1]}
        assert warm == reversed_ == cold
        assert all(code == 0 for code, _ in cold.values())

    def test_memo_holds_no_matrix_or_model(self, cold_memo):
        # a case frees its model and maps only if the memo keeps neither
        for argv in _LATTICE_STRATA:
            run(argv)
        kinds = {key[0] for key in cold_memo}
        assert {linalg._stable, latmod._levels, linalg._invertible, admissible._ideal} <= kinds
        seen, todo = set(), list(cold_memo.items())
        while todo:
            obj = todo.pop()
            if id(obj) in seen or isinstance(obj, (int, str, bytes, type(None))) or callable(obj):
                continue
            seen.add(id(obj))
            assert not isinstance(obj, (FieldMatrix, latmod.ChainModel, latmod.ChainPoint)), type(obj)
            if isinstance(obj, dict):
                todo += obj.items()
            elif isinstance(obj, (tuple, list, set, frozenset)):
                todo += obj
            else:
                todo += [getattr(obj, name) for name in getattr(obj, "__slots__", ()) if hasattr(obj, name)]
                todo += getattr(obj, "__dict__", {}).values()


class TestSymplecticLevels:
    def test_iwahori_passes_with_two_maximal_classes(self):
        # At Iwahori level the orbit of t_mu gives two maximal classes;
        # only a special maximal parahoric has a single one.
        code, out = run(
            ["verify", "symplectic", "--g", "1", "--e", "2", "--I", "0,1",
             "--p", "3", "--format", "json"]
        )
        report = json.loads(out)
        assert code == 0 and report["pass"]
        assert report["totals"]["predicted"] == report["totals"]["observed"] == 25
        assert report["totals"]["maximal_classes"] == 2

    def test_special_level_has_one_maximal_class(self):
        code, out = run(
            ["verify", "symplectic", "--g", "1", "--e", "2", "--I", "0",
             "--p", "3", "--format", "json"]
        )
        assert code == 0
        assert json.loads(out)["totals"]["maximal_classes"] == 1


class TestParserReuse:
    ADM = ["adm", "--group", "gl", "--d", "3", "--mu", "1,1,0", "--I", "0", "--format", "json"]
    MATRIX = ["verify", "matrix", "--n", "2", "--r", "1", "--s", "1", "--p", "3", "--format", "json"]

    def reports(self, argv):
        code, out = run(argv)
        report = json.loads(out)
        del report["elapsed_ms"]
        return code, report

    def test_successive_calls_are_independent(self):
        first = [self.reports(self.ADM), self.reports(self.MATRIX)]
        second = [self.reports(self.ADM), self.reports(self.MATRIX)]
        assert first == second
        assert first[0][1]["case"] == "adm" and first[1][1]["case"] == "verify-matrix-unitary"
        assert first[0][1]["params"] == {"I": "0", "d": 3, "group": "gl", "iwahori": False, "mu": "1,1,0"}
        # the kept parser of each command reads argv exactly as a freshly built one
        for words, rest in ((("adm",), self.ADM[1:]), (("verify", "matrix"), self.MATRIX[2:])):
            kept = cli._command_parser(words)
            fresh = cli._command_parser.__wrapped__(words)
            assert kept is cli._command_parser(words) and fresh is not kept
            assert vars(kept.parse_args(rest)) == vars(fresh.parse_args(rest))

    def test_each_command_builds_its_own_parser_once(self, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(parser, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        cli._command_parser.cache_clear()
        strata = ["verify", "strata", *_GL_MODEL]
        assert run(self.MATRIX)[0] == 0 and built == ["locmodel verify matrix"]
        assert run(self.MATRIX)[0] == 0 and built == ["locmodel verify matrix"]
        assert run(strata)[0] == 0 and built == ["locmodel verify matrix", "locmodel verify strata"]

    def test_usage_error_after_reuse(self):
        assert run(self.ADM)[0] == 0
        assert run(["adm", "--group", "gl", "--d", "3"])[0] == 2
        assert run(["no-such-command"])[0] == 2
        assert run(self.ADM)[0] == 0

    def test_signature_collision_exits_one(self, monkeypatch, capsys):
        # two standard points with one signature fail the verification
        from locmodel import latmod

        monkeypatch.setattr(latmod, "signature", lambda pt: ())
        code, out = run(["verify", "strata", "--group", "gl", "--d", "2", "--e", "2",
                         "--r", "1,1", "--I", "0", "--p", "2"])
        assert code == 1 and out == ""
        assert capsys.readouterr().err.startswith("verification failed: standard points of")


# one case of each runner, as a manifest block and as its command line
_BLOCK_AND_ARGV = [
    ("case=adm\ngroup=gl\nd=2\nmu=1,0\niwahori=yes", ["adm", *_GL_MU]),
    ("case=perm\ngroup=gsp\ng=1\nmu=1,1\nI=0", ["perm", "--group", "gsp", "--g", "1", "--mu", "1,1", "--I", "0"]),
    ("case=compare-adm-perm\ngroup=gl\nd=3\nmu=2,1,0\nI=0,2",
     ["compare-adm-perm", "--group", "gl", "--d", "3", "--mu", "2,1,0", "--I", "0,2"]),
    ("case=count\nd=2\nmu=2,0\nI=0\np=2", ["count", "--d", "2", "--mu", "2,0", "--I", "0", "--p", "2"]),
    ("case=enumerate\ngroup=gl\nd=2\ne=2\nr=1,1\nI=0\np=2", ["enumerate", "naive", *_GL_MODEL]),
    ("case=verify-strata\ngroup=gl\nd=2\ne=2\nr=1,1\nI=0\np=2", ["verify", "strata", *_GL_MODEL]),
    ("case=verify-torsor\ngroup=gsp\ng=1\ne=2\nI=0\np=3",
     ["verify", "torsor", "--group", "gsp", "--g", "1", "--e", "2", "--I", "0", "--p", "3"]),
    ("case=verify-symplectic\ng=1\ne=2\nI=0\np=3", ["verify", "symplectic", "--g", "1", "--e", "2", "--I", "0", "--p", "3"]),
    ("case=verify-matrix\nn=2\nr=1\ns=1\np=5", ["verify", "matrix", "--n", "2", "--r", "1", "--s", "1", "--p", "5"]),
    ("case=verify-matrix\ng=1\ne=2\np=3", ["verify", "matrix", "--g", "1", "--e", "2", "--p", "3"]),
    # a negative list needs the = form on the command line
    ("case=adm\ngroup=gl\nd=2\nmu=-1,0\nI=0", ["adm", "--group", "gl", "--d", "2", "--mu=-1,0", "--I", "0"]),
]


class TestManifest:
    def test_blocks_report_as_their_command_lines(self, tmp_path):
        # params included: a block is parsed as its command line
        mf = tmp_path / "suite.txt"
        mf.write_text("\n\n".join(block for block, _ in _BLOCK_AND_ARGV) + "\n")
        code, out = run(["run-suite", str(mf)])
        suite = json.loads(out)["cases"]
        assert code == 0 and len(suite) == len(_BLOCK_AND_ARGV)
        for (block, argv), report in zip(_BLOCK_AND_ARGV, suite):
            code, out = run(argv + ["--format", "json"])
            fresh = json.loads(out)
            assert code == 0
            report.pop("elapsed_ms"), fresh.pop("elapsed_ms")
            assert report == fresh, block

    def test_negative_list_needs_the_equals_form(self, capsys):
        code, _ = run(["adm", "--group", "gl", "--d", "2", "--mu", "-1,0", "--I", "0"])
        assert code == 2 and "argument --mu: expected one argument" in capsys.readouterr().err

    def test_parse_blocks(self):
        cases = parse_manifest("case=adm\nd=2\n\n# comment\ncase=count\np=3\n")
        assert [c["case"] for c in cases] == ["adm", "count"]
        assert cases[0]["d"] == "2"

    def test_parse_errors(self):
        with pytest.raises(ManifestParseError):
            parse_manifest("not a pair\n")
        with pytest.raises(ManifestParseError):
            parse_manifest("d=2\n")
        with pytest.raises(ManifestParseError):
            parse_manifest("case=unknown-thing\n")

    def test_empty_manifest(self, tmp_path):
        mf = tmp_path / "empty.txt"
        mf.write_text("")
        code, out = run(["run-suite", str(mf)])
        assert code == 0
        assert json.loads(out) == {"cases": [], "pass": True}

    def test_suite_reports_equal_fresh_calls(self, tmp_path, cold_memo):
        # one mu at several I: later blocks find the ideal stored
        cases = [("compare-adm-perm", "0"), ("adm", "0,1"), ("count", "1,2"), ("perm", "0,1,2")]
        mf = tmp_path / "suite.txt"
        mf.write_text("\n".join(
            f"case={case}\ngroup=gl\nd=3\nmu=2,1,0\nI={I}\n" + ("p=2\n" if case == "count" else "")
            for case, I in cases
        ))
        code, out = run(["run-suite", str(mf), "--budget", "100000"])
        suite = json.loads(out)["cases"]
        assert code == 0 and len(suite) == len(cases)
        for (case, I), report in zip(cases, suite):
            cold_memo.clear()
            argv = [case, "--group", "gl", "--d", "3", "--mu", "2,1,0", "--I", I, "--format", "json"]
            code, out = run(argv + (["--p", "2"] if case == "count" else []) + ["--budget", "100000"])
            fresh = json.loads(out)
            assert code == 0
            report.pop("elapsed_ms"), fresh.pop("elapsed_ms")
            assert report == fresh, (case, I)

    def test_suite_pass_and_csv(self, tmp_path):
        mf = tmp_path / "suite.txt"
        mf.write_text(
            "case=verify-strata\ngroup=gl\nd=2\ne=2\nr=1,1\nI=0\np=2\n"
            "expect_naive=7\nexpect_canonical=7\n"
        )
        out_dir = tmp_path / "reports"
        code, out = run(["run-suite", str(mf), "--out", str(out_dir)])
        assert code == 0
        assert (out_dir / "case_000.csv").exists()

    def test_failing_golden_value(self, tmp_path):
        mf = tmp_path / "suite.txt"
        mf.write_text("case=verify-strata\ngroup=gl\nd=2\ne=2\nr=1,1\nI=0\np=2\nexpect_naive=8\n")
        code, out = run(["run-suite", str(mf)])
        assert code == 1
        agg = json.loads(out)
        assert not agg["pass"]
        assert agg["cases"][0]["totals"]["expected_naive"] == 8

    @pytest.mark.parametrize(
        "block,message",
        [
            ("case=verify-strata\ngroup=gl\nd=2\ne=2\nr=1,1\nI=0\n",
             "block 2 (verify-strata): the following arguments are required: --p"),
            ("case=count\nd=2\nI=0\n",
             "block 2 (count): the following arguments are required: --mu, --p"),
            ("case=adm\nmu=1,0\niwahori=1\n", "block 2 (adm): need --d for this group"),
            ("case=verify-symplectic\ne=2\nI=0\np=3\n",
             "block 2 (verify-symplectic): need --g for this group"),
            ("case=adm\nd=2\nmu=1,0\niwahori=false\n", "block 2 (adm): need --I or --iwahori"),
            ("case=verify-matrix\nn=2\nr=1\np=5\n",
             "block 2 (verify-matrix): verify matrix needs --n, --r and --s, or --g and --e"),
            ("case=enumerate\npoints=unramified\nd=2\ne=2\nr=1,1\nI=0\np=2\n",
             "block 2 (enumerate): enumerate unramified needs --l"),
        ],
    )
    def test_missing_parameter_rejected_before_any_case(self, tmp_path, monkeypatch, capsys, block, message):
        # the CLI's own message, naming the block, before the first case runs
        ran = []
        monkeypatch.setitem(cli._RUNNERS, "adm", lambda params, budget=None: ran.append(params))
        mf = tmp_path / "suite.txt"
        mf.write_text("case=adm\nd=2\nmu=1,0\niwahori=1\n\n" + block)
        code, out = run(["run-suite", str(mf)])
        assert code == 2 and out == "" and ran == []
        assert capsys.readouterr().err == f"manifest error: {message}\n"

    @pytest.mark.parametrize(
        "block,message",
        [
            ("case=adm\nd=abc\nmu=1,0\niwahori=1\n", "block 2 (adm): argument --d: invalid int value: 'abc'"),
            ("case=adm\nd=2\nmu=1,0\niwahori=1\nfoo=bar\n", "block 2 (adm): unrecognized arguments: --foo=bar"),
            ("case=adm\nd=2\nmu=1,0\niwahori=1\np=2\n", "block 2 (adm): unrecognized arguments: --p=2"),
            ("case=adm\ngroup=GL\nd=2\nmu=1,0\niwahori=1\n", "block 2 (adm): argument --group: invalid choice: 'GL'"),
            ("case=enumerate\npoints=all\nd=2\ne=2\nr=1,1\nI=0\np=2\n",
             "block 2 (enumerate): argument points: invalid choice: 'all'"),
            ("case=verify-matrix\ng=1\ne=2\np=3\niwahori=0\n", "block 2 (verify-matrix): the case takes no iwahori"),
            ("case=adm\ngr=gl\nd=2\nmu=1,0\niwahori=1\n", "block 2 (adm): unrecognized arguments: --gr=gl"),
            ("case=adm\ngroup=gl\nd=2\ng=5\nmu=1,0\niwahori=1\n", "block 2 (adm): --group gl takes --d, not --g"),
            # parsed, but no runner parameter: an option of the command line
            ("case=adm\nd=2\nmu=1,0\niwahori=1\nbudget=5\n", "block 2 (adm): the case takes no budget"),
        ],
    )
    def test_rejected_key_before_any_case(self, tmp_path, monkeypatch, capsys, block, message):
        ran = []
        monkeypatch.setitem(cli._RUNNERS, "adm", lambda params, budget=None: ran.append(params))
        mf = tmp_path / "suite.txt"
        mf.write_text("case=adm\nd=2\nmu=1,0\niwahori=1\n\n" + block)
        code, out = run(["run-suite", str(mf)])
        assert code == 2 and out == "" and ran == []
        assert capsys.readouterr().err.startswith(f"manifest error: {message}")

    def test_non_integer_expectation_rejected_before_any_case(self, tmp_path, monkeypatch, capsys):
        ran = []
        monkeypatch.setitem(cli._RUNNERS, "adm", lambda params, budget=None: ran.append(params))
        mf = tmp_path / "suite.txt"
        mf.write_text("case=adm\nd=2\nmu=1,0\niwahori=1\n\ncase=adm\nd=2\nmu=1,0\niwahori=1\nexpect_observed=abc\n")
        code, out = run(["run-suite", str(mf)])
        assert code == 2 and out == "" and ran == []
        assert capsys.readouterr().err == (
            "manifest error: block 2 (adm): expect_observed must be an integer, got 'abc'\n"
        )

    def test_count_block_below_field_size(self, tmp_path, capsys):
        mf = tmp_path / "suite.txt"
        mf.write_text("case=count\ngroup=gl\nd=2\nmu=1,0\nI=0\np=2\n\ncase=count\ngroup=gl\nd=2\nmu=1,0\nI=0\np=-3\n")
        code, out = run(["run-suite", str(mf)])
        assert code == 2 and out == ""
        assert "got -3" in capsys.readouterr().err

    def test_missing_manifest_file(self):
        code, _ = run(["run-suite", "/nonexistent/manifest.txt"])
        assert code == 2

    def test_manifest_path_is_a_directory(self, tmp_path, capsys):
        code, out = run(["run-suite", str(tmp_path)])
        assert code == 2 and out == ""
        assert capsys.readouterr().err.startswith("usage error:")

    def test_out_path_is_a_file(self, tmp_path, capsys):
        mf = tmp_path / "suite.txt"
        mf.write_text("case=adm\ngroup=gl\nd=2\nmu=1,0\niwahori=1\n")
        taken = tmp_path / "taken"
        taken.write_text("")
        code, out = run(["run-suite", str(mf), "--out", str(taken)])
        assert code == 2 and out == ""
        assert capsys.readouterr().err.startswith("usage error:")


_SRC = Path(__file__).resolve().parent.parent / "src"

# Runs each argv of the JSON list in argv[1] through cli.main and prints
# [exit code, report without elapsed_ms] per case.
_RUN_CASES = """
import io, json, sys
from locmodel import cli
out = []
for argv in json.loads(sys.argv[1]):
    buf = io.StringIO()
    code = cli.main(argv + ["--format", "json"], stream=buf)
    report = json.loads(buf.getvalue() or "null")
    if report:
        report.pop("elapsed_ms")
    out.append([code, report])
print(json.dumps(out))
"""


class TestNoAssertInvariants:
    """No invariant of the library rests on assert: python -O, which
    strips assert statements, gives the same exit codes and reports."""

    CASES = [
        ["compare-adm-perm", "--group", "gsp", "--g", "2", "--mu", "2,1,2", "--iwahori"],
        ["count", "--group", "gl", "--d", "3", "--mu", "2,1,0", "--I", "0", "--p", "3"],
        ["count", "--group", "gl", "--d", "2", "--mu", "1,0", "--I", "0", "--p", "-3"],
        ["verify", "strata", *_GL_MODEL],
        ["verify", "matrix", "--n", "2", "--r", "1", "--s", "1", "--p", "5"],
        ["verify", "matrix", "--g", "0", "--e", "1", "--p", "2"],
    ]

    def run_cases(self, *flags):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(_SRC), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, *flags, "-c", _RUN_CASES, json.dumps(self.CASES)],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        return json.loads(proc.stdout)

    def test_optimized_interpreter_agrees(self):
        plain, optimized = self.run_cases(), self.run_cases("-O")
        assert [code for code, _ in plain] == [0, 0, 2, 0, 0, 2]
        assert optimized == plain

    def test_source_holds_no_assert(self):
        for path in sorted((_SRC / "locmodel").glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                assert not isinstance(node, ast.Assert), f"{path.name}:{node.lineno}"
                if isinstance(node, ast.Raise) and node.exc is not None:
                    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                    assert getattr(exc, "id", None) != "AssertionError", f"{path.name}:{node.lineno}"
