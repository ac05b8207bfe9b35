import hashlib
import io
import json
from pathlib import Path

import pytest

from magnitudes import cli, core, laws, ratio
from magnitudes.errors import NotAboveOneError, NotGreaterError, UndecidedError
from magnitudes.models import REAL, PosRat, model_of


class TestRegistry:
    def test_twenty_four_classical_laws(self):
        v_laws = [e for e in laws.list_laws() if e["lawId"].startswith("V.")]
        assert len(v_laws) == 24

    def test_required_ids_present(self):
        ids = {e["lawId"] for e in laws.list_laws()}
        assert "V.16-alternation" in ids
        assert "V.12-sum-of-proportionals" in ids
        assert "V.17-separation" in ids

    def test_every_law_names_a_set_and_models(self):
        for entry in laws.list_laws():
            assert entry["set"] in laws.law_sets()
            assert entry["models"]
            assert entry["statement"]

    def test_unknown_set_rejected(self):
        with pytest.raises(ValueError):
            laws.run_suite("rat", "no_such_set", trials=1)

    def test_unknown_model_rejected(self):
        from magnitudes.errors import ModelMismatchError

        with pytest.raises(ModelMismatchError):
            laws.run_suite("complex", "core_axioms", trials=1)


class TestCoverage:
    def test_every_law_executes_somewhere(self):
        # CI gate: each registered law must actually run in at least one
        # (set, model) combination
        executed = set()
        for law_set in laws.law_sets():
            for model_id in ("nat", "rat", "real"):
                tolerance = None if model_id != "real" else 24
                reports = laws.run_suite(
                    model_id, law_set, trials=2, seed=0, tolerance=tolerance
                )
                executed.update(r.law_id for r in reports)
                assert all(r.passed for r in reports), [
                    (r.law_id, r.failures) for r in reports if not r.passed
                ]
        registered = {e["lawId"] for e in laws.list_laws()}
        assert executed == registered


class TestDeterminism:
    def test_reports_reproducible_byte_for_byte(self):
        first = laws.reports_to_json(laws.run_suite("rat", "euclid_v", trials=25, seed=11))
        second = laws.reports_to_json(laws.run_suite("rat", "euclid_v", trials=25, seed=11))
        assert first == second

    def test_seed_changes_stream(self):
        # different seeds must draw different inputs somewhere; compare a
        # failing mutant's counterexamples to observe the stream
        one = laws.run_suite("rat", "core_axioms", trials=5, seed=1)
        two = laws.run_suite("rat", "core_axioms", trials=5, seed=2)
        assert [r.law_id for r in one] == [r.law_id for r in two]

    def test_report_schema(self):
        report = laws.run_suite("nat", "core_axioms", trials=3, seed=0)[0]
        blob = report.as_json()
        assert set(blob) == {"lawId", "model", "trials", "seed", "tolerance", "failures"}
        assert blob["tolerance"] == "exact"


class TestMutationDetection:
    def test_broken_subtract_fails_separation(self, monkeypatch):
        original = core.subtract

        def doubled(b, a, model=None):
            d = original(b, a, model)
            m = model if model is not None else model_of(b)
            return m.combine(d, d)

        monkeypatch.setattr(core, "subtract", doubled)
        reports = laws.run_suite("rat", "euclid_v", trials=50, seed=3)
        failed = {r.law_id: r for r in reports if not r.passed}
        assert "V.17-separation" in failed
        counterexample = failed["V.17-separation"].failures[0]
        assert counterexample["inputs"] and counterexample["observed"]

    def test_broken_subtract_fails_core(self, monkeypatch):
        def minuend(b, a, model=None):
            return b

        monkeypatch.setattr(core, "subtract", minuend)
        reports = laws.run_suite("rat", "core_axioms", trials=50, seed=3)
        assert any(not r.passed for r in reports)

    def test_broken_verifier_accepting_everything(self, monkeypatch):
        monkeypatch.setattr(ratio, "verify_witness", lambda *a, **k: True)
        reports = laws.run_suite("rat", "ratio_engine", trials=50, seed=3)
        failed = {r.law_id for r in reports if not r.passed}
        assert "engine-rejects-bogus-witness" in failed

    def test_broken_verifier_rejecting_everything(self, monkeypatch):
        monkeypatch.setattr(ratio, "verify_witness", lambda *a, **k: False)
        reports = laws.run_suite("rat", "ratio_engine", trials=50, seed=3)
        failed = {r.law_id for r in reports if not r.passed}
        assert "engine-witness-soundness" in failed


def _doubled_subtract(b, a, model=None, _original=core.subtract):
    d = _original(b, a, model)
    return (model if model is not None else model_of(b)).combine(d, d)


# (law set, mutant, patched module and attribute, a law that must fail)
MUTANTS = {
    "subtract-doubled": ("euclid_v", (core, "subtract"), _doubled_subtract, "V.17-separation"),
    "subtract-minuend": ("core_axioms", (core, "subtract"), lambda b, a, model=None: b, None),
    "verifier-accepts": (
        "ratio_engine",
        (ratio, "verify_witness"),
        lambda *a, **k: True,
        "engine-rejects-bogus-witness",
    ),
    "verifier-rejects": (
        "ratio_engine",
        (ratio, "verify_witness"),
        lambda *a, **k: False,
        "engine-witness-soundness",
    ),
}


class TestMutationDetectionAcrossSeeds:
    """The mutants of TestMutationDetection are caught at every seed 1-5."""

    @pytest.mark.parametrize("seed", range(1, 6))
    @pytest.mark.parametrize("mutant", sorted(MUTANTS))
    def test_mutant_caught(self, monkeypatch, mutant, seed):
        law_set, (module, name), fake, must_fail = MUTANTS[mutant]
        monkeypatch.setattr(module, name, fake)
        reports = laws.run_suite("rat", law_set, trials=50, seed=seed)
        failed = {r.law_id: r for r in reports if not r.passed}
        assert failed if must_fail is None else must_fail in failed
        for report in failed.values():
            assert report.failures[0]["observed"]


class TestShrinking:
    def test_counterexamples_are_locally_minimal(self, monkeypatch):
        def minuend(b, a, model=None):
            return b

        monkeypatch.setattr(core, "subtract", minuend)
        reports = laws.run_suite("rat", "core_axioms", trials=20, seed=5)
        failing = [r for r in reports if not r.passed]
        assert failing
        for report in failing:
            inputs = report.failures[0]["inputs"]
            # shrinking drives toward unit-like values
            assert all(len(text) <= 12 for text in inputs.values()), inputs


def _throwaway_law(monkeypatch, check, law_set="throwaway_set"):
    """Register a one-off law, first in the registry, for one test only."""
    spec = laws.LawSpec(
        "throwaway", "test-only law", law_set, ("nat",), lambda model, rng: {"n": 1000}, check
    )
    monkeypatch.setattr(laws, "_REGISTRY", [spec] + laws._REGISTRY)


class TestRunnerRobustness:
    def test_domain_error_recorded_with_type(self, monkeypatch):
        def check(model, v, tol):
            raise NotAboveOneError("refused")

        _throwaway_law(monkeypatch, check)
        (report,) = laws.run_suite("nat", "throwaway_set", trials=3)
        assert report.failures == [
            {"inputs": {"n": "1"}, "observed": "NotAboveOneError: refused", "expected": "no domain error"}
        ]

    def test_domain_error_does_not_abort_the_set(self, monkeypatch):
        def check(model, v, tol):
            raise UndecidedError("stalled")

        _throwaway_law(monkeypatch, check, law_set="core_axioms")
        reports = laws.run_suite("nat", "core_axioms", trials=2)
        assert reports[0].law_id == "throwaway" and not reports[0].passed
        assert len(reports) > 1 and all(r.passed for r in reports[1:])

    def test_shrink_keeps_the_failure_kind(self, monkeypatch):
        # n >= 100 breaks the law; n = 1 raises a domain error instead, which
        # must not count as the same failure while shrinking
        def check(model, v, tol):
            if v["n"] == 1:
                raise UndecidedError("different fault")
            if v["n"] >= 100:
                laws._fail(v["n"], "n < 100")

        _throwaway_law(monkeypatch, check)
        (report,) = laws.run_suite("nat", "throwaway_set", trials=1)
        assert report.failures == [{"inputs": {"n": "100"}, "observed": "100", "expected": "n < 100"}]


class TestRealCounterexamples:
    """A failing law on real reports and shrinks its exact points as it does on rat."""

    @staticmethod
    def _register(monkeypatch, check):
        gen = laws._elems("a", "b")
        spec = laws.LawSpec("throwaway", "test-only law", "throwaway_set", ("rat", "real"), gen, check)
        monkeypatch.setattr(laws, "_REGISTRY", [spec] + laws._REGISTRY)

    def test_always_failing_law_reports_ones(self, monkeypatch):
        self._register(monkeypatch, lambda model, v, tol: laws._fail("always", "never"))
        for model in ("rat", "real"):
            (report,) = laws.run_suite(model, "throwaway_set", trials=1, seed=4)
            want = {"inputs": {"a": "1/1", "b": "1/1"}, "observed": "always", "expected": "never"}
            assert report.failures == [want]

    def test_real_inputs_shrink_to_a_local_minimum(self, monkeypatch):
        def above_one(x):
            q = x.exact if model_of(x) is REAL else x
            return q > PosRat(1, 1)

        def check(model, v, tol):
            if above_one(v["a"]):
                laws._fail(v["a"], "a <= 1")

        self._register(monkeypatch, check)
        for seed in range(1, 6):
            (report,) = laws.run_suite("real", "throwaway_set", trials=20, seed=seed)
            if report.passed:
                continue
            shrunk = PosRat.from_text(report.failures[0]["inputs"]["a"])
            assert shrunk > PosRat(1, 1) and report.failures[0]["inputs"]["b"] == "1/1"
            assert not any(c > PosRat(1, 1) for c in laws._shrink_candidates(shrunk))


# Law-report digests recorded by the benchmark: one (set, model) pair per
# test, over every seed of the pool, with the benchmark's argv.
DIGESTS = json.loads((Path(__file__).resolve().parent.parent / "perfbench/data/laws_digests.json").read_text())


@pytest.mark.parametrize("law_set, model", DIGESTS["pairs"], ids=["/".join(p) for p in DIGESTS["pairs"]])
def test_reports_match_recorded_digests(law_set, model):
    seeds = sorted(int(key.rsplit("/", 1)[1]) for key in DIGESTS["digests"] if key.startswith(f"{law_set}/{model}/"))
    assert len(seeds) == 16
    for seed in seeds:
        argv = ["laws", "run", law_set, "--model", model, "--format", "json", "--seed", str(seed)]
        out, err = io.StringIO(), io.StringIO()
        assert cli.main(argv, out=out, err=err) == 0
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        assert digest == DIGESTS["digests"][f"{law_set}/{model}/{seed}"], f"seed {seed}"
