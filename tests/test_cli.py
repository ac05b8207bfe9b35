import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from magnitudes.cli import (
    EXIT_DOMAIN,
    EXIT_OK,
    EXIT_UNDECIDED,
    EXIT_USAGE,
    main,
)
from magnitudes.ratio import RatioRel


def run_cli(*argv, env_precision=None, monkeypatch=None):
    out, err = io.StringIO(), io.StringIO()
    if env_precision is not None:
        monkeypatch.setenv("MAGNITUDES_PRECISION", env_precision)
    code = main(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


GOLDEN = [
    (("ratio", "cmp", "--model", "rat", "3/2", "4/3"), EXIT_OK, "greater (witness m=3 n=4)\n"),
    (("ratio", "cmp", "--model", "rat", "1/2", "2/4"), EXIT_OK, "equal\n"),
    (("ratio", "cmp", "--model", "nat", "2", "3", "4", "6"), EXIT_OK, "equal\n"),
    (("pow", "2", "1/2", "-p", "40"), EXIT_OK, "1.414213562373 ± 2^-40\n"),
    (("pow", "2", "3", "-p", "10"), EXIT_OK, "8.000 ± 2^-10\n"),
    (("mul", "--model", "rat", "3/2", "4/3"), EXIT_OK, "2/1\n"),
    (("quot", "--model", "rat", "3/2", "1/2"), EXIT_OK, "3/1\n"),
    (("multiple", "--model", "rat", "5", "3/4"), EXIT_OK, "15/4\n"),
    (("multiple", "--model", "nat", "13", "7"), EXIT_OK, "91\n"),
    (("fourth", "--model", "rat", "2", "3", "1", "-p", "10"), EXIT_OK, "1.500 ± 2^-10\n"),
    # 3/5 reached by a sum, a product and a fourth proportional of exact
    # points is the exact point, and prints as one
    (("multiple", "--model", "real", "3", "1/5"), EXIT_OK, "0.600000000 ± 2^-30\n"),
    (("mul", "--model", "real", "3", "1/5"), EXIT_OK, "0.600000000 ± 2^-30\n"),
    (("fourth", "--model", "rat", "5", "3", "1"), EXIT_OK, "0.600000000 ± 2^-30\n"),
]


class TestGoldenOutputs:
    @pytest.mark.parametrize("argv,code,expected", GOLDEN)
    def test_fixed_text(self, argv, code, expected):
        got_code, got_out, _ = run_cli(*argv)
        assert got_code == code
        assert got_out == expected


class TestExitCodes:
    def test_domain_error_not_symmetric(self):
        code, out, err = run_cli("quot", "--model", "nat", "6", "4")
        assert code == EXIT_DOMAIN
        assert "domain error" in err and not out

    def test_domain_error_not_above_one(self):
        code, _, err = run_cli("pow", "1", "1/2")
        assert code == EXIT_DOMAIN
        assert "domain error" in err

    def test_pow_of_base_near_one(self):
        # 1 + 2^-300 and its cube root are above one by closure, though no
        # rung up to 256 separates the root from 1
        base = f"{(1 << 300) + 1}/{1 << 300}"
        assert run_cli("pow", base, "1/3", "-p", "10")[:2] == (EXIT_OK, "1.000 ± 2^-10\n")

    def test_unknown_verdict_maps_to_two(self, monkeypatch):
        # CLI reals are exact points, so a CLI ratio always decides
        code, out, _ = run_cli(
            "ratio", "cmp", "--model", "rat", "--model2", "real",
            "1000/1", "1000/1", "--fuel", "8",
        )
        assert (code, out) == (EXIT_OK, "equal\n")
        # an engine Unknown maps to the undecided exit code
        monkeypatch.setattr("magnitudes.ratio.ratio_compare", lambda *args, **kwargs: RatioRel.unknown(8, 32))
        code, out, _ = run_cli(
            "ratio", "cmp", "--model", "rat", "--model2", "real",
            "1000/1", "1000/1", "--fuel", "8",
        )
        assert code == EXIT_UNDECIDED
        assert out.startswith("unknown (fuel spent 8)")

    def test_exact_real_points_decide_equal(self):
        code, out, _ = run_cli(
            "ratio", "cmp", "--model", "rat", "--model2", "real",
            "2/3", "2/3", "--fuel", "8",
        )
        assert (code, out) == (EXIT_OK, "equal\n")

    def test_pow_large_denominator_at_300_bits(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workprec(400):
            man, exp = mpmath.power(2, mpmath.mpf(1) / 2049).man_exp
        want = man * Fraction(2) ** exp
        code, out, _ = run_cli("pow", "2", "1/2049", "-p", "300")
        assert code == EXIT_OK
        # the midpoint is printed truncated to 90 digits, which adds < 10^-90
        # to the half-width 2^-301 of the interval
        mid = Fraction(out.split(" ± ")[0])
        assert abs(mid - want) < Fraction(1, 2**301) + Fraction(1, 10**90)
        code, out, _ = run_cli("pow", "2", "1/2049", "-p", "300", "--format", "json")
        payload = json.loads(out)["result"]
        lo, hi = Fraction(payload["lo"]), Fraction(payload["hi"])
        assert lo <= want <= hi and hi - lo <= Fraction(1, 2**300)

    def test_pow_result_size_cap(self):
        # 3^(2000001/2) needs about 2,000,002 bits, over the 2^20-bit cap of a
        # power's result: a typed error at once; 3^(200001/2) still prints
        start = time.perf_counter()
        code, out, err = run_cli("pow", "3", "2000001/2", "-p", "30")
        assert time.perf_counter() - start < 1
        assert code == EXIT_DOMAIN and not out and "over the cap" in err
        code, out, _ = run_cold(["pow", "3", "200001/2", "-p", "30"])
        assert code == EXIT_OK and out.endswith(" ± 2^-30\n")

    def test_usage_error(self):
        code, _, err = run_cli("ratio", "cmp", "--model", "rat", "3/2")
        assert code == EXIT_USAGE
        assert "usage error" in err

    def test_unparseable_operand_is_domain_error(self):
        code, _, err = run_cli("mul", "--model", "rat", "x", "1/2")
        assert code == EXIT_DOMAIN
        assert "domain error" in err

    @pytest.mark.parametrize("model,operand", [("rat", "abc"), ("rat", "²"), ("rat", "3/²"), ("nat", "²")])
    def test_malformed_operand_is_one_domain_error(self, model, operand):
        # a digit int() refuses ("²") is malformed like any other text
        code, out, err = run_cli("multiple", "--model", model, "2", operand)
        assert code == EXIT_DOMAIN and not out
        assert err.startswith("domain error")

    def test_unknown_subcommand_is_usage(self):
        code, _, _ = run_cli("frobnicate")
        assert code == EXIT_USAGE

    def test_ratio_literal_without_slash_is_usage(self):
        code, out, err = run_cli("ratio", "cmp", "--model", "rat", "3", "4/3")
        assert code == EXIT_USAGE and not out
        assert "needs a slash" in err


class TestJsonMode:
    def test_ratio_json(self):
        code, out, _ = run_cli(
            "ratio", "cmp", "--model", "rat", "3/2", "4/3", "--format", "json"
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["verdict"] == "greater"
        assert payload["witness"] == {"m": "3", "n": "4"}

    def test_real_json_has_exact_endpoints(self):
        code, out, _ = run_cli("pow", "2", "1/2", "-p", "20", "--format", "json")
        payload = json.loads(out)["result"]
        assert payload["precision"] == 20
        assert "/" in payload["lo"] and "/" in payload["hi"]
        assert payload["mid"].endswith("2^-20")

    def test_fourth_of_exact_points_has_point_endpoints(self):
        code, out, _ = run_cli("fourth", "--model", "rat", "3", "1", "1", "--format", "json")
        payload = json.loads(out)["result"]
        assert code == EXIT_OK and payload["lo"] == payload["hi"] == "1/3"

    def test_exact_result_json(self):
        code, out, _ = run_cli("multiple", "--model", "rat", "5", "3/4", "--format", "json")
        assert (code, out) == (EXIT_OK, '{"result": "15/4"}\n')

    def test_unknown_json_has_precision_cap(self, monkeypatch):
        monkeypatch.setattr("magnitudes.ratio.ratio_compare", lambda *args, **kwargs: RatioRel.unknown(8, 32))
        code, out, _ = run_cli(
            "ratio", "cmp", "--model", "rat", "--model2", "real",
            "1000/1", "1000/1", "--fuel", "8", "--format", "json",
        )
        assert code == EXIT_UNDECIDED
        assert json.loads(out) == {"verdict": "unknown", "fuelSpent": 8, "precisionCap": 32}

    def test_json_round_trip_idempotent(self):
        code, out, _ = run_cli("pow", "2", "1/2", "-p", "20", "--format", "json")
        once = json.dumps(json.loads(out), sort_keys=True)
        twice = json.dumps(json.loads(once), sort_keys=True)
        assert once == twice


class TestEmbedCheck:
    def test_valid_embedding_passes(self):
        tree = json.dumps({"kind": "unit-multiple", "codomain": "rat", "image": "2/5"})
        code, out, _ = run_cli("embed-check", tree)
        assert code == EXIT_OK
        assert out.startswith("pass")

    def test_json_mode_round_trips(self):
        tree = {"kind": "unit-multiple", "codomain": "rat", "image": "2/5"}
        code, out, _ = run_cli("embed-check", json.dumps(tree), "--format", "json")
        payload = json.loads(out)
        assert payload["passed"] is True
        assert payload["embedding"] == tree

    def test_malformed_json_is_usage(self):
        code, _, err = run_cli("embed-check", "{not json")
        assert code == EXIT_USAGE


class TestLawsCommand:
    def test_run_core_axioms(self):
        code, out, _ = run_cli(
            "laws", "run", "core_axioms", "--model", "nat", "--trials", "25"
        )
        assert code == EXIT_OK
        lines = [line for line in out.splitlines() if line]
        assert len(lines) == 6
        assert all(line.startswith("PASS") for line in lines)

    def test_run_json(self):
        code, out, _ = run_cli(
            "laws", "run", "core_axioms", "--model", "rat", "--trials", "10",
            "--format", "json",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert all(entry["failures"] == [] for entry in payload)

    def test_unknown_set_is_usage(self):
        code, _, err = run_cli("laws", "run", "bogus_set")
        assert code == EXIT_USAGE

    def test_list(self):
        code, out, _ = run_cli("laws", "list")
        assert code == EXIT_OK
        assert "V.16-alternation" in out


class TestPrecisionEnv:
    def test_env_override(self, monkeypatch):
        code, out, _ = run_cli(
            "fourth", "--model", "rat", "2", "3", "1",
            monkeypatch=monkeypatch, env_precision="10",
        )
        assert code == EXIT_OK
        assert out.endswith("2^-10\n")

    def test_bad_env_is_usage(self, monkeypatch):
        code, _, err = run_cli(
            "mul", "--model", "rat", "1/2", "1/2",
            monkeypatch=monkeypatch, env_precision="many",
        )
        assert code == EXIT_USAGE

    def test_negative_env_is_usage(self, monkeypatch):
        code, out, err = run_cli(
            "mul", "--model", "rat", "1/2", "1/2",
            monkeypatch=monkeypatch, env_precision="-1",
        )
        assert code == EXIT_USAGE and not out
        assert "MAGNITUDES_PRECISION must be >= 0" in err


SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cold(argv, precision=None):
    """One CLI call in its own interpreter: (exit code, stdout, stderr)."""
    env = dict(os.environ, PYTHONIOENCODING="utf-8")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    env.pop("MAGNITUDES_PRECISION", None)
    if precision is not None:
        env["MAGNITUDES_PRECISION"] = precision
    proc = subprocess.run(
        [sys.executable, "-m", "magnitudes.cli", *argv],
        capture_output=True, env=env, timeout=120,
    )
    return proc.returncode, proc.stdout.decode("utf-8"), proc.stderr.decode("utf-8")


class TestParserReuse:
    SEQUENCE = [
        (("mul", "--model", "rat", "3/2", "4/3"), None),
        (("ratio", "cmp", "--model", "rat", "3/2", "4/3", "--format", "json"), None),
        (("ratio", "cmp", "--model", "rat", "3/2", "4/3"), None),
        (("multiple", "--model", "nat", "13"), None),
        (("fourth", "--model", "rat", "2", "3", "1"), "12"),
        (("fourth", "--model", "rat", "2", "3", "1"), None),
        (("laws", "run", "core_axioms", "--model", "nat", "--trials", "3"), None),
        (("pow", "2", "1/2", "--format", "json"), "20"),
        (("quot", "--model", "rat", "3/2", "1/2"), None),
    ]

    def test_calls_in_one_process_match_calls_alone(self, monkeypatch):
        for argv, precision in self.SEQUENCE:
            if precision is None:
                monkeypatch.delenv("MAGNITUDES_PRECISION", raising=False)
            else:
                monkeypatch.setenv("MAGNITUDES_PRECISION", precision)
            alone = run_cold(argv, precision)
            assert run_cli(*argv) == alone, argv


class TestConsoleIntegers:
    # integers of any length are read and printed, past Python's default
    # 4,300-digit int/str limit, by the console script and by main() alike
    def test_exact_product_of_4000_digit_naturals(self):
        nines = "9" * 4000
        code, out, _ = run_cold(["mul", nines, nines, "--model", "nat"])
        assert code == EXIT_OK
        assert out.strip() == "9" * 3999 + "8" + "0" * 3999 + "1"

    def test_huge_exact_power(self):
        code, out, _ = run_cold(["pow", "3", "100000", "-p", "30"])
        assert code == EXIT_OK
        assert len(out.split(".")[0]) == 47713  # 3^100000 has 47,713 digits

    @pytest.mark.parametrize(
        "argv",
        [
            ["pow", "2", "1/2", "-p", "20000"],
            ["pow", "2", "1/2", "-p", "20000", "--format", "json"],
            ["multiple", "--model", "nat", "7" * 5000, "2"],
            ["multiple", "--model", "nat", "7" * 5000, "2", "--format", "json"],
        ],
    )
    def test_in_process_main_prints_what_the_console_prints(self, argv):
        code, out, err = run_cli(*argv)
        assert (code, err) == (EXIT_OK, "")
        assert (code, out) == run_cold(argv)[:2]
        assert len(out) > 5000
