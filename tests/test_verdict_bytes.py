"""Verdict bytes for a fixed set of (rule, f, domain, seed) cases.

``verdict_bytes.json`` holds the sorted-key, whitespace-free JSON of each
verdict (the ``canonical_json`` form, with NaN written as ``NaN`` so that
the z^400 overflow case can be recorded), or the type and message of the
error the call raises.  A change to the check kernel must reproduce every
entry byte for byte.  Regenerate the file only from a commit whose verdicts
are known good:

    PYTHONPATH=src python tests/test_verdict_bytes.py
"""

import json
import math
import pathlib

import numpy as np
import pytest

from psdmask.errors import PsdMaskError
from psdmask.functions import (
    Custom,
    Domain,
    HerzMonomial,
    HerzSeries,
    Identity,
    scaled_identity,
)
from psdmask.patterns import (
    all_singletons_rule,
    contiguous_partition_rule,
    empty_rule,
    overlapping_chain_rule,
    proper_subpartition_rule,
    single_block_rule,
)
from psdmask.verify import VerifyConfig, verify_preservation

EXPECTED = pathlib.Path(__file__).with_name("verdict_bytes.json")



def _bump(z: complex) -> complex:
    """1.5 z on the ring |z| = (0.3 +- 0.02) 1e300, 0.5 z elsewhere."""
    return 1.5 * z if abs(abs(z) / 1e300 - 0.3) <= 0.02 else 0.5 * z


CASES = {
    # one preserved case per domain kind; 100 and 130 samples leave partial chunks
    "preserved_disc_partition3_boundary": lambda: verify_preservation(
        Identity(), scaled_identity(-0.5), contiguous_partition_rule(3), Domain.disc(1.0),
        VerifyConfig(seed=0)),
    "preserved_disc_inf_series": lambda: verify_preservation(
        Identity(), HerzSeries({(0, 0): 0.2, (1, 1): 0.3, (2, 0): 0.1}), empty_rule(),
        Domain.disc(), VerifyConfig(max_n=6, samples_per_n=100, seed=2)),
    "preserved_open_sym_singletons": lambda: verify_preservation(
        Identity(), HerzSeries({(1, 0): 0.5, (3, 0): 0.2}), all_singletons_rule(),
        Domain.open_sym(1.0), VerifyConfig(max_n=6, samples_per_n=100, seed=5)),
    "preserved_half_open_subpartition": lambda: verify_preservation(
        Identity(), scaled_identity(0.5), proper_subpartition_rule(2),
        Domain.half_open_nonneg(1.0), VerifyConfig(max_n=7, samples_per_n=130, seed=11)),
    "preserved_open_pos_single_block": lambda: verify_preservation(
        Identity(), scaled_identity(0.3), single_block_rule({0, 1}), Domain.open_pos(1.0),
        VerifyConfig(max_n=5, samples_per_n=70, seed=13)),
    "preserved_disc_chain_rank_one": lambda: verify_preservation(
        Identity(), Identity(), overlapping_chain_rule(), Domain.disc(2.0),
        VerifyConfig(max_n=6, samples_per_n=65, seed=17, rank_one_only=True)),
    # the first failure comes from the deterministic battery
    "battery_refuted_partition3": lambda: verify_preservation(
        Identity(), scaled_identity(-0.75), contiguous_partition_rule(3), Domain.disc(1.0),
        VerifyConfig(seed=7)),
    # the first failure comes from random_gram sample 3 at n = 4
    "random_refuted_abs": lambda: verify_preservation(
        Identity(), Custom(lambda z: complex(abs(z))),
        empty_rule(), Domain.disc(1.0), VerifyConfig(seed=3)),
    # on real domains, past the first chunk and at rank 2: random_gram samples 123 and 219 at n = 2
    "random_refuted_open_sym_band": lambda: verify_preservation(
        Identity(), Custom(lambda z: 0.2 * z if 0.61 <= z.real <= 0.62 else z),
        empty_rule(), Domain.open_sym(1.0), VerifyConfig(seed=1, max_n=4)),
    "random_refuted_half_open_band": lambda: verify_preservation(
        Identity(), Custom(lambda z: 0.2 * z if 0.66 <= z.real <= 0.67 else z),
        empty_rule(), Domain.half_open_nonneg(1.0), VerifyConfig(seed=1, max_n=4)),
    # the first failure is the 5th witness of a duplicated_pair_gram run at n = 4
    "pair_refuted_conj_subpartition": lambda: verify_preservation(
        Identity(), HerzMonomial(1, 0, 1), proper_subpartition_rule(2), Domain.disc(1.0),
        VerifyConfig(seed=0)),
    # the first failure is a duplicated_pair_gram grown to n = 4 by corner extension
    "pair_refuted_open_pos_corner": lambda: verify_preservation(
        Identity(), HerzMonomial(1, 2, 0), proper_subpartition_rule(2), Domain.open_pos(0.3),
        VerifyConfig(samples_per_n=10)),
    # the pair witness with z = 0 refutes before its run's next witness (z = 0.5 w)
    # overflows: a witness that cannot be built must not pre-empt an earlier refutation
    "pair_refuted_before_overflow": lambda: verify_preservation(
        Identity(), Custom(_bump), single_block_rule({0, 1}),
        Domain.disc(1e300), VerifyConfig(samples_per_n=0)),
    # overflow gives a NaN min_eig: a known false refutation, recorded as it stands
    "overflow_z400_disc_inf": lambda: verify_preservation(
        Identity(), HerzMonomial(1, 400, 0), empty_rule(), Domain.disc(math.inf)),
    "raises_fold_non_equivariant": lambda: verify_preservation(
        Identity(), Custom(lambda z: complex(z.real, abs(z.imag)), name="fold"),
        empty_rule(), Domain.disc(1.0), VerifyConfig(seed=1)),
}


def verdict_bytes(case: str) -> str:
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            verdict = CASES[case]()
    except PsdMaskError as exc:
        return json.dumps({"raises": type(exc).__name__, "message": str(exc)}, sort_keys=True)
    return json.dumps(verdict.to_json(), sort_keys=True, separators=(",", ":"))


@pytest.mark.parametrize("case", sorted(CASES))
def test_verdict_bytes_unchanged(case):
    expected = json.loads(EXPECTED.read_text())
    assert verdict_bytes(case) == expected[case]


def test_cases_cover_the_stages():
    expected = {k: json.loads(v) for k, v in json.loads(EXPECTED.read_text()).items()}
    assert set(expected) == set(CASES)
    random = expected["random_refuted_abs"]
    assert random["outcome"] == "Refuted"
    assert random["counterexample"]["provenance"] == "random_gram"
    assert random["counterexample"]["params"]["sample_index"] == 3
    assert random["stats"]["checked"] == 1557
    for case, sample, checked in (("random_refuted_open_sym_band", 123, 649),
                                  ("random_refuted_half_open_band", 219, 745)):
        ce = expected[case]["counterexample"]
        assert (ce["provenance"], ce["n"]) == ("random_gram", 2)
        assert ce["params"] == {"sample_index": sample, "rank": 2}
        assert expected[case]["stats"]["checked"] == checked
    assert expected["battery_refuted_partition3"]["counterexample"]["provenance"] != "random_gram"
    assert expected["raises_fold_non_equivariant"]["raises"] == "NonHermitianOutputError"
    assert math.isnan(expected["overflow_z400_disc_inf"]["counterexample"]["min_eig"])
    for case, n, checked in (("pair_refuted_conj_subpartition", 4, 53),
                              ("pair_refuted_open_pos_corner", 4, 41),
                              ("pair_refuted_before_overflow", 3, 49)):
        ce = expected[case]["counterexample"]
        assert (ce["provenance"], ce["n"]) == ("duplicated_pair_gram", n)
        assert expected[case]["stats"]["checked"] == checked
    assert expected["pair_refuted_before_overflow"]["counterexample"]["params"]["z"] == 0.0


if __name__ == "__main__":
    EXPECTED.write_text(json.dumps({k: verdict_bytes(k) for k in sorted(CASES)}, indent=1) + "\n")
