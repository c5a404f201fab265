"""Acceptance gate: every criterion at its stated tolerance, one line each.

``suite_bytes.json`` pins the sha256 of the ``canonical_json`` suite report
for four configs, recorded from the one-matrix-at-a-time suite before its
criteria ran on stacks; a faster suite must reproduce every byte.
"""

import hashlib
import json
import pathlib

import pytest

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
    assert _criterion_dominance_necessity(VerifyConfig(max_n=1))["passed"]
