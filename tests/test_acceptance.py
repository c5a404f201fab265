"""Acceptance gate: every criterion at its stated tolerance, one line each.

``suite_bytes.json`` pins the sha256 of the ``canonical_json`` suite report
for four configs, recorded from the one-matrix-at-a-time suite before its
criteria ran on stacks; a faster suite must reproduce every byte.
"""

import hashlib
import json
import os
import pathlib
import signal
import sys
import time

import pytest

from psdmask import suite
from psdmask.suite import _criterion_dominance_necessity, run_theorem_suite
from psdmask.verify import VerifyConfig, canonical_json

SUITE_BYTES = json.loads((pathlib.Path(__file__).parent / "suite_bytes.json").read_text())


@pytest.fixture(scope="module")
def report():
    return run_theorem_suite(VerifyConfig())


def _check(report, crit_id):
    crit = next(c for c in report["criteria"] if c["id"] == crit_id)
    status = "PASS" if crit["passed"] else "FAIL"
    print(f"[{status}] criterion {crit_id:2d}: {crit['name']}  {crit['measured']}")
    assert crit["passed"], crit
    return crit


def test_criterion_01_schur_product_closure(report):
    crit = _check(report, 1)
    assert crit["measured"]["worst_min_eig"] >= -1e-8


def test_criterion_02_star_all_ones_eigenvalue_law(report):
    crit = _check(report, 2)
    assert crit["measured"]["max_eigenvalue_deviation"] <= 1e-10
    assert crit["measured"]["interval_mismatches"] == 0


def test_criterion_03_partition_scalar_interval(report):
    crit = _check(report, 3)
    assert crit["measured"]["sufficiency_worst_min_eig"] >= -1e-8
    assert crit["measured"]["necessity_eigenvalue_deviation"] <= 1e-10


def test_criterion_04_chain_determinant_identity(report):
    crit = _check(report, 4)
    assert crit["measured"]["max_relative_gap"] <= 1e-10


def test_criterion_05_split_pair_schur_determinant(report):
    crit = _check(report, 5)
    assert crit["measured"]["max_relative_gap"] <= 1e-10
    assert crit["measured"]["max_abs_det_for_scalar_multiple"] <= 1e-10


def test_criterion_06_decomposition_identities(report):
    crit = _check(report, 6)
    assert crit["measured"]["max_split_gap"] <= 1e-14
    assert crit["measured"]["max_tensor_gap"] <= 1e-14


def test_criterion_07_mask_factorization(report):
    crit = _check(report, 7)
    assert crit["measured"]["max_entrywise_gap"] <= 1e-14


def test_criterion_08_positive_corner_extension(report):
    _check(report, 8)


def test_criterion_09_correlation_spectral_bound(report):
    crit = _check(report, 9)
    assert crit["measured"]["worst_min_eig"] >= -1e-8


def test_criterion_10_builtin_rule_regimes(report):
    crit = _check(report, 10)
    regimes = [row["regime"] for row in crit["measured"]["rows"]]
    assert regimes == [
        "R1-Empty",
        "R2-Singletons",
        "R3b-Subpartition-Other",
        "R3a-PartitionAll-FiniteK",
        "R3b-Subpartition-Other",
        "R4-Overlapping",
    ]


def test_criterion_11_dominance_necessity(report):
    crit = _check(report, 11)
    assert crit["measured"]["witness_determinant"] == pytest.approx(-2.0, abs=1e-12)


def test_criterion_12_induction_step_algebra(report):
    crit = _check(report, 12)
    assert ["-1/3", "-1/2"] in crit["measured"]["endpoint_maps"]


def test_criterion_13_determinism(report):
    _check(report, 13)


def test_seed_robustness():
    """Changing the seed changes the samples, not the pass/fail outcomes."""
    other = run_theorem_suite(VerifyConfig(seed=20240817))
    assert other["all_passed"]


def test_rerun_reproduces_report_bytes():
    a = run_theorem_suite(VerifyConfig(seed=3))
    b = run_theorem_suite(VerifyConfig(seed=3))
    assert canonical_json(a) == canonical_json(b)


def _sha256(report):
    return hashlib.sha256(canonical_json(report).encode()).hexdigest()


def test_suite_body_bytes_seed_0(report):
    assert SUITE_BYTES["seed_0"]["config"] == {}
    assert _sha256(report) == SUITE_BYTES["seed_0"]["sha256"]


@pytest.mark.parametrize("name", ["seed_7919", "tol_0", "max_n_3"])
def test_suite_body_bytes(name):
    pin = SUITE_BYTES[name]
    assert _sha256(run_theorem_suite(VerifyConfig(**pin["config"]))) == pin["sha256"]


def test_dominance_necessity_keeps_its_2x2_witness_at_max_n_1():
    passed, _ = _criterion_dominance_necessity(VerifyConfig(max_n=1))
    assert passed


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_no_child_left_after_suite(report):
    _assert_no_child_left()


linux_only = pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="the rerun forks on Linux only")


@pytest.fixture
def forking(monkeypatch):
    """Fork the rerun whatever the CPU count; return a setter for a one-criterion body."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})

    def body(measure):
        def criterion(cfg):
            return True, measure()

        monkeypatch.setattr(suite, "_CRITERIA", (("probe", criterion),))

    return body


@linux_only
class TestConcurrentRerun:
    """Criterion 13's rerun runs in a forked child beside the first body."""

    def test_agreeing_rerun_passes(self, forking):
        forking(lambda: {"value": 1})
        out = run_theorem_suite(VerifyConfig(max_n=3))
        assert [c["passed"] for c in out["criteria"]] == [True, True] and out["all_passed"]
        _assert_no_child_left()

    def test_rerun_that_differs_fails_criterion_13(self, forking):
        forking(lambda: {"pid": os.getpid()})
        out = run_theorem_suite(VerifyConfig(max_n=3))
        assert out["criteria"][-1] == {
            "id": 13,
            "name": "determinism",
            "passed": False,
            "measured": {"reruns": 2, "identical_canonical_json": False},
        }
        assert out["all_passed"] is False
        _assert_no_child_left()

    @pytest.mark.parametrize("fail", ["raise", "exit", "signal"])
    def test_rerun_failing_in_the_child_raises(self, forking, fail):
        caller = os.getpid()

        def measure():
            if os.getpid() != caller:
                if fail == "raise":
                    raise ValueError("child only")
                if fail == "exit":
                    sys.exit(0)
                os.kill(os.getpid(), signal.SIGKILL)
            return {}

        forking(measure)
        match = {"raise": "status 1: ValueError: child only", "exit": "status 1: $", "signal": "status -9"}[fail]
        with pytest.raises(RuntimeError, match=match):
            run_theorem_suite(VerifyConfig(max_n=3))
        _assert_no_child_left()

    def test_first_body_raising_kills_and_reaps_the_child(self, forking):
        caller = os.getpid()

        def measure():
            if os.getpid() == caller:
                raise ValueError("parent only")
            time.sleep(30)  # a child left to finish would hold the call this long
            return {}

        forking(measure)
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="parent only"):
            run_theorem_suite(VerifyConfig(max_n=3))
        assert time.perf_counter() - t0 < 10
        _assert_no_child_left()


def _no_fork():
    raise AssertionError("the serial path forked")


@pytest.mark.parametrize("affinity", ["one_cpu", "absent"])
def test_serial_path_reproduces_pinned_bytes(monkeypatch, affinity):
    if affinity == "one_cpu":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    else:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "fork", _no_fork, raising=False)
    assert _sha256(run_theorem_suite(VerifyConfig())) == SUITE_BYTES["seed_0"]["sha256"]
