import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import k3latt
from k3latt.catalog import CatalogError
from k3latt.cli import BOUND_HELP, build_parser, command_table, main
from k3latt.ternary import DEFAULT_BOUND, MAX_BOUND

SRC = os.path.dirname(os.path.dirname(k3latt.__file__))
NS0_GRAM = "[-4 -1 0; -1 -4 0; 0 0 2]"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def subprocess_env() -> dict:
    return dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))


def run_subprocess(*argv, timeout=10):
    """The CLI in a fresh interpreter, so that a hang fails the test instead of the suite."""
    return subprocess.run([sys.executable, "-m", "k3latt.cli", *argv], env=subprocess_env(),
                          capture_output=True, text=True, timeout=timeout)


def assert_usage_error(res, prefix="error: "):
    assert res.returncode == 2, res.stderr
    assert "Traceback" not in res.stderr
    lines = res.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(prefix), res.stderr


class TestEnumerate:
    def test_d15(self, capsys):
        code, out, _ = run(capsys, "enumerate", "15")
        assert code == 0
        assert out.splitlines() == ["[2 1; 1 8]", "[4 1; 1 4]"]

    def test_json_roundtrip(self, capsys):
        code, out, _ = run(capsys, "enumerate", "60", "--json")
        assert code == 0
        records = json.loads(out)["forms"]
        assert len(records) == 4
        # re-feed each matrix through reduce: identical record comes back
        for rec in records:
            mat = rec["matrix"]
            arg = f"[{mat[0][0]} {mat[0][1]}; {mat[1][0]} {mat[1][1]}]"
            code2, out2, _ = run(capsys, "reduce", arg, "--json")
            assert code2 == 0
            assert json.loads(out2)["reduced"] == rec

    def test_bad_parity_is_math_failure(self, capsys):
        code, _, err = run(capsys, "enumerate", "5")
        assert code == 1
        assert "error" in err


class TestQueries:
    def test_small(self, capsys):
        assert run(capsys, "small", "--", "-30")[1].strip() == "small: true"
        assert run(capsys, "small", "--", "-32")[1].strip() == "small: false"

    def test_classnum(self, capsys):
        assert run(capsys, "classnum", "84")[1].strip() == "4"
        assert run(capsys, "classnum", "5")[1].strip() == "0"

    def test_discform(self, capsys):
        code, out, _ = run(capsys, "discform", "[4 1; 1 4]")
        assert code == 0 and out.strip() == "Z15(4/15)"

    def test_discform_file(self, capsys, tmp_path):
        p = tmp_path / "t0.gram"
        p.write_text("3\n4 1 0\n1 4 0\n0 0 -2\n")
        code, out, _ = run(capsys, "discform", str(p))
        assert code == 0 and out.strip() == "Z30(53/30)"

    def test_match(self, capsys):
        code, out, _ = run(capsys, "match", "15", "Z15(4/15)")
        assert code == 0 and out.strip() == "[4 1; 1 4]"

    def test_match_failure_exit(self, capsys):
        code, out, _ = run(capsys, "match", "15", "Z15(26/15)")
        assert code == 1 and out.strip() == "no match"

    def test_match_past_search_bound(self, capsys):
        # |G| = 200003 is odd: decided by Jordan invariants, no search bound
        code, out, err = run(capsys, "match", "200003", "Z200003(2/200003)")
        assert code in (0, 1) and "bound" not in err

    def test_match_large_two_part(self, capsys):
        # the 2-part Z2 + Z65536 is decided by its 2-adic symbol
        code, out, _ = run(capsys, "match", "131072", "Z2(1/2)+Z65536(1/65536)")
        assert code == 0 and "[2 0; 0 65536]" in out.splitlines()

    def test_match_with_a_61_bit_prime_exponent(self, capsys):
        # factoring the exponent 2^61 - 1 by trial division ran for minutes
        p = 2 ** 61 - 1
        argv = ("match", "60", f"Z{p}(2/{p})")
        assert run_subprocess(*argv).returncode == 1
        t0 = time.process_time()
        code, out, _ = run(capsys, *argv)
        assert time.process_time() - t0 < 1.0
        assert code == 1 and out.strip() == "no match"

    def test_unproven_prime_exponent_is_a_declared_limit(self):
        p = 2 ** 89 - 1  # prime, but past the range Miller-Rabin proves
        res = run_subprocess("match", "60", f"Z{p}(2/{p})")
        assert_usage_error(res, prefix=f"error: cannot factor {p}")

    def test_equivalent(self, capsys):
        code, out, _ = run(capsys, "equivalent", "[4 2; 2 16]", "[4 -2; -2 16]")
        assert code == 0 and "equivalent via" in out
        code, out, _ = run(capsys, "equivalent", "[2 1; 1 8]", "[4 1; 1 4]")
        assert code == 1 and out.strip() == "not equivalent"

    def test_hessian(self, capsys):
        assert run(capsys, "hessian", "[4 1; 1 4]")[1].strip() == "embeddable: true"

    def test_cm_moduli(self, capsys):
        code, out, _ = run(capsys, "cm-moduli", "[2 1; 1 8]", "--json")
        data = json.loads(out)
        assert data["tau1"] == {"p": -1, "q": 1, "r": 2, "d": 15}
        assert data["tau2"] == {"p": 1, "q": 1, "r": 2, "d": 15}


class TestIsotropyCommands:
    def test_isotropy_obstruction(self, capsys):
        code, out, _ = run(capsys, "isotropy", "[-4 -1 0; -1 -4 0; 0 0 2]", "--json")
        assert code == 0
        assert json.loads(out) == {"kind": "obstruction", "prime": 5, "precision": 4}

    def test_isotropy_witness(self, capsys):
        code, out, _ = run(capsys, "isotropy", "[1 0 0; 0 1 0; 0 0 -2]")
        assert code == 0 and "witness" in out

    def test_simple(self, capsys):
        code, out, _ = run(capsys, "simple", "[4 1 0; 1 4 0; 0 0 -2]")
        assert code == 0 and out.strip() == "simple: true"
        code, out, _ = run(capsys, "simple", "[0 1 0; 1 0 0; 0 0 2]")
        assert code == 0 and out.strip() == "simple: false"

    @pytest.mark.parametrize("primes", ["0", "1", "-1", "25"])
    def test_primes_must_be_primes(self, primes):
        # at p = 1 and p = -1 the valuation used to loop forever, at p = 0 it divided by zero
        assert_usage_error(run_subprocess("isotropy", NS0_GRAM, f"--primes={primes}"))

    def test_huge_det_with_default_primes(self):
        # the default primes used to trial-divide 2*|det| all the way
        p = 2 ** 61 - 1
        res = run_subprocess("isotropy", f"[-1 0 0; 0 -1 0; 0 0 -{p}]")
        assert_usage_error(res)
        assert f"factor {p}," in res.stderr

    def test_bound_is_capped(self):
        # the witness scan is quadratic in the bound; 10^5 used to run for minutes
        assert_usage_error(run_subprocess("isotropy", NS0_GRAM, "--bound", "100000"))
        assert f"at most {MAX_BOUND} (default: {DEFAULT_BOUND})" in BOUND_HELP

    def test_primes_flag(self, capsys):
        code, out, _ = run(capsys, "isotropy", "[-4 -1 0; -1 -4 0; 0 0 2]",
                           "--primes", "3", "--json")
        assert code == 0
        assert json.loads(out)["prime"] == 3


class TestNsCheck:
    def test_config_file(self, capsys, tmp_path):
        p = tmp_path / "cfg.txt"
        p.write_text("M1 M2 M3\n-2 0 0\n0 -2 0\n0 0 -2\n1 1 1 / 2\n")
        code, out, _ = run(capsys, "ns-check", str(p), "--rational-curves")
        assert code == 0
        assert "q = 1/2 mod 2Z, order 2" in out

    def test_not_in_dual_exit(self, capsys, tmp_path):
        p = tmp_path / "cfg.txt"
        p.write_text("M1\n-2\n1 / 3\n")
        code, out, _ = run(capsys, "ns-check", str(p))
        assert code == 1 and "NOT in dual" in out


class TestRepro:
    @pytest.mark.parametrize("target", ["table1", "section4", "section5"])
    def test_targets_pass(self, capsys, target):
        code, out, _ = run(capsys, "repro", target)
        assert code == 0
        assert "all rows pass" in out
        assert "FAIL" not in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "repro", "table1", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["passed"] is True
        assert all(r["ok"] for r in data["rows"])

    def test_row_without_d_is_usage_error(self, capsys, tmp_path):
        row = {"case": "1", "matrix": [[2, 1], [1, 2]]}
        p = tmp_path / "cat.json"
        p.write_text(json.dumps({"families": [{"name": "F", "singular": [row]}]}))
        code, _, err = run(capsys, "repro", "table1", "--data", str(p))
        assert code == 2
        assert err.startswith("error: ") and "F" in err and "'d'" in err
        assert issubclass(CatalogError, ValueError)

    @pytest.mark.parametrize("matrix, d, problem", [
        ([[3, 1], [1, 8]], 23, "matrix not even"),
        ([[-2, 1], [1, 8]], -17, "matrix not positive definite"),
    ])
    def test_bad_rank2_row_is_a_failed_row(self, capsys, tmp_path, matrix, d, problem):
        data = json.loads((Path(SRC) / "k3latt" / "data" / "families.json").read_text())
        case = data["families"][0]["singular"][0]
        assert (data["families"][0]["name"], case["case"]) == ("G6", "1")
        case.update(matrix=matrix, d=d)
        p = tmp_path / "cat.json"
        p.write_text(json.dumps(data))
        code, out, err = run(capsys, "repro", "table1", "--data", str(p), "--json")
        assert (code, err) == (1, "")
        failed = [r for r in json.loads(out)["rows"] if not r["ok"]]
        assert [(r["family"], r["case"], r["detail"]) for r in failed] == [("G6", "1", problem)]

    @pytest.mark.parametrize("matrix, problem", [
        ([[3, 1], [1, 8]], "matrix must be even"),
        ([[-2, 1], [1, 8]], "(-1,4,1) is not positive definite"),
    ])
    def test_bad_rank2_row_fails_section5(self, capsys, tmp_path, matrix, problem):
        data = json.loads((Path(SRC) / "k3latt" / "data" / "families.json").read_text())
        data["families"][0]["singular"][0].update(matrix=matrix)
        p = tmp_path / "cat.json"
        p.write_text(json.dumps(data))
        code, out, err = run(capsys, "repro", "section5", "--data", str(p), "--json")
        assert (code, err) == (1, "")
        rows = json.loads(out)["rows"]
        assert len(rows) == 26
        failed = [r for r in rows if not r["ok"]]
        assert [(r["family"], r["case"], r["detail"]) for r in failed] == [("G6", "1", problem)]

    @pytest.mark.parametrize("data", [
        {"families": [{"name": "F", "singular": [{"case": "1", "matrix": 5, "d": 3}]}]},
        {"families": [{"name": "F", "singular": [
            {"case": "1", "matrix": [[2, 1], [1, 2]], "d": None}]}]},
        {"families": 5},
        [{"name": "F", "singular": []}],
        {"families": [{"name": "F", "singular": [
            {"case": "1", "matrix": [[2, 1], [1, 2]], "d": 3, "ns_form": [1]}]}]},
        {"families": [{"name": "F", "singular": [5]}]},
    ], ids=["matrix-int", "d-null", "families-int", "top-level-list", "ns-form-list",
            "case-not-dict"])
    def test_malformed_catalog_is_usage_error(self, tmp_path, data):
        p = tmp_path / "cat.json"
        p.write_text(json.dumps(data))
        assert_usage_error(run_subprocess("repro", "table1", "--data", str(p)),
                           prefix="error: catalog ")


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_bad_matrix(self, capsys):
        code, _, err = run(capsys, "discform", "[1 2; 3]")
        assert code == 2 and "error" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "discform", "/nonexistent/path.gram")
        assert code == 2

    def test_zero_denominator_literal(self):
        assert_usage_error(run_subprocess("match", "60", "Z2(1/0)"))


def _parse(parser, argv):
    """(exit code or None, stdout, stderr) of parse_args."""
    out, err = io.StringIO(), io.StringIO()
    code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            parser.parse_args(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _subparser(parser, name):
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices[name]


class TestParser:
    @pytest.mark.parametrize("name", list(command_table()))
    def test_one_subparser_prints_what_the_full_parser_prints(self, name):
        full, one = build_parser(), build_parser(name)
        assert one.format_usage() == full.format_usage()
        for attr in ("format_help", "format_usage"):
            assert getattr(_subparser(one, name), attr)() == getattr(_subparser(full, name), attr)()
        for argv in ([name, "--help"], [name], [name, "--json", "1", "2", "3", "4"],
                     [name, "--bogus"]):
            assert _parse(one, argv) == _parse(full, argv), argv

    def test_help_and_unknown_command_list_every_command(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        code, _, err = run(capsys, "nosuch")
        assert code == 2
        code, _, missing = run(capsys)
        assert code == 2 and "required: command" in missing
        for name in command_table():
            assert f"\n    {name} " in out and f"'{name}'" in err
        assert len(command_table()) == 13


def test_import_does_not_load_numpy():
    env = subprocess_env()
    code = "import sys, k3latt; sys.exit('numpy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_file_commands_close_their_files(tmp_path):
    # -X dev reports a file left for the garbage collector as a ResourceWarning
    gram = tmp_path / "t0.gram"
    gram.write_text("3\n4 1 0\n1 4 0\n0 0 -2\n")
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("M1 M2 M3\n-2 0 0\n0 -2 0\n0 0 -2\n1 1 1 / 2\n")
    env = subprocess_env()
    for argv in (["discform", str(gram)], ["ns-check", str(cfg), "--rational-curves"]):
        res = subprocess.run([sys.executable, "-X", "dev", "-m", "k3latt.cli", *argv],
                             env=env, capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        assert "ResourceWarning" not in res.stderr
