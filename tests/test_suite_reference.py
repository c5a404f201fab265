"""The stacked acceptance criteria against copies of their one-matrix-at-a-time form.

Each ``_reference_*`` function below is the criterion as it ran before its
cases were stacked per n: every case goes through the public ``apply``,
``decompose``, ``mask_factorization`` and ``schur_complement`` (and
``correlation_bound_check`` per sample) on its own matrix.  The stacked
criterion must give the same record, compared as ``canonical_json`` bytes, at
more seeds than ``suite_bytes.json`` pins.
"""

import math

import numpy as np
import pytest

from psdmask import suite
from psdmask.functions import Domain, HerzMonomial, Identity, ScalarMultiple, scaled_identity
from psdmask.linalg import eig_extremes, identity, kron, schur_complement
from psdmask.operators import OperatorSpec, apply, decompose, mask_factorization, star_pattern
from psdmask.patterns import normalize
from psdmask.suite import _random_builtin, _random_pattern, _rng
from psdmask.verify import (
    VerifyConfig,
    canonical_json,
    correlation_bound_check,
    sample_correlation,
    sample_psd,
)
from psdmask.witnesses import duplicated_pair_gram, overlap_probe

SEEDS = [0, 1, 2, 3, 7919]


def _reference_chain_determinant(cfg):
    rng = _rng(cfg, 104)
    dom = Domain.disc(1.0)
    pattern = normalize([{0, 1}, {1, 2}], 3)
    max_rel = 0.0
    max_imag = 0.0
    for _ in range(200):
        g = HerzMonomial(0.5 + 1.5 * rng.random(), int(rng.integers(0, 3)), int(rng.integers(0, 3)))
        f = _random_builtin(rng, g)
        r = 0.2 + 0.7 * rng.random()
        z = r * rng.random() * np.exp(2j * math.pi * rng.random())
        B = overlap_probe(r, complex(z), dom)
        img = apply(OperatorSpec(f=f, pattern=pattern, domain=dom, g=g), B.matrix)
        det = complex(np.linalg.det(img))
        law = -(g(r).real) * abs(f(complex(z)) - g(complex(z))) ** 2
        max_rel = max(max_rel, abs(det.real - law) / max(1.0, abs(law)))
        max_imag = max(max_imag, abs(det.imag))
    return {
        "id": 4,
        "name": "chain-determinant-identity",
        "passed": bool(max_rel <= 1e-10 and max_imag <= 1e-10),
        "measured": {"cases": 200, "max_relative_gap": max_rel, "max_imag": max_imag},
    }


def _reference_split_pair_complement(cfg):
    rng = _rng(cfg, 105)
    dom = Domain.disc(1.0)
    pattern = normalize([{0, 1}, {2}], 3)
    max_rel = 0.0
    max_scaled_zero = 0.0
    for _ in range(200):
        g = HerzMonomial(0.5 + 1.5 * rng.random(), int(rng.integers(0, 2)), int(rng.integers(0, 2)))
        w = (0.4 + 0.5 * rng.random()) * np.exp(2j * math.pi * rng.random())
        z = abs(w) * rng.random() * np.exp(2j * math.pi * rng.random())
        c = -1.0 + 2.0 * rng.random()
        for f, want_zero in ((_random_builtin(rng, g), False), (ScalarMultiple(c, g), True)):
            wit = duplicated_pair_gram(complex(w), complex(z), dom)
            img = apply(OperatorSpec(f=f, pattern=pattern, domain=dom, g=g), wit.matrix)
            comp = schur_complement(img, {2})
            det = complex(comp[0, 0] * comp[1, 1] - comp[0, 1] * comp[1, 0])
            aw = abs(w)
            z1 = complex(z) * np.conj(w) / aw
            gw = g(aw).real
            law = -abs(f(aw) * g(z1) - gw * f(z1)) ** 2 / gw ** 2
            max_rel = max(max_rel, abs(det.real - law) / max(1.0, abs(law)))
            if want_zero:
                max_scaled_zero = max(max_scaled_zero, abs(det))
    return {
        "id": 5,
        "name": "split-pair-schur-determinant",
        "passed": bool(max_rel <= 1e-10 and max_scaled_zero <= 1e-10),
        "measured": {
            "cases": 200,
            "max_relative_gap": max_rel,
            "max_abs_det_for_scalar_multiple": max_scaled_zero,
        },
    }


def _reference_decomposition(cfg):
    rng = _rng(cfg, 106)
    dom = Domain.disc(1.0)
    max_gap = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 9))
        pattern = _random_pattern(rng, n)
        g = _random_builtin(rng, Identity())
        f = _random_builtin(rng, Identity())
        A = sample_psd(rng, n, dom)
        spec = OperatorSpec(f=f, pattern=pattern, domain=dom, g=g)
        out = apply(spec, A)
        p1, p2 = decompose(spec, A)
        gap = float(np.abs(p1 + p2 - out).max()) / max(1.0, float(np.abs(out).max()))
        max_gap = max(max_gap, gap)
    max_tensor_gap = 0.0
    for m in (2, 3, 4):
        for _ in range(10):
            A0 = sample_psd(rng, 2, dom)
            g = _random_builtin(rng, Identity())
            f = _random_builtin(rng, Identity())
            big = kron(np.ones((m, m)), A0)
            lhs = apply(OperatorSpec(f=f, pattern=star_pattern(2 * m), domain=dom, g=g), big)
            f_img, diag_term = decompose(OperatorSpec(f=f, pattern=star_pattern(2), domain=dom, g=g), A0)
            rhs = kron(np.ones((m, m)), f_img) + kron(np.eye(m), diag_term)
            gap = float(np.abs(lhs - rhs).max()) / max(1.0, float(np.abs(lhs).max()))
            max_tensor_gap = max(max_tensor_gap, gap)
    return {
        "id": 6,
        "name": "decomposition-identities",
        "passed": bool(max_gap <= 1e-14 and max_tensor_gap <= 1e-14),
        "measured": {"max_split_gap": max_gap, "max_tensor_gap": max_tensor_gap},
    }


def _reference_mask_factorization(cfg):
    rng = _rng(cfg, 107)
    dom = Domain.disc(1.0)
    max_gap = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 9))
        pattern = _random_pattern(rng, n)
        c = -1.0 + 2.0 * rng.random()
        A = sample_psd(rng, n, dom)
        spec = OperatorSpec(f=scaled_identity(c), pattern=pattern, domain=dom)
        lhs = mask_factorization(spec, A)
        rhs = apply(spec, A)
        gap = float(np.abs(lhs - rhs).max()) / max(1.0, float(np.abs(rhs).max()))
        max_gap = max(max_gap, gap)
    return {
        "id": 7,
        "name": "mask-factorization",
        "passed": bool(max_gap <= 1e-14),
        "measured": {"cases": 200, "max_entrywise_gap": max_gap},
    }


def _reference_correlation_bound(cfg):
    rng = _rng(cfg, 109)
    ok = True
    worst = math.inf
    for _ in range(200):
        n = int(rng.integers(2, 9))
        C = sample_correlation(rng, n)
        ok = ok and correlation_bound_check(n, [C], tol=1e-8)
        worst = min(worst, eig_extremes(n * identity(n) - C)[0])
    return {
        "id": 9,
        "name": "correlation-spectral-bound",
        "passed": bool(ok),
        "measured": {"samples": 200, "worst_min_eig": float(worst)},
    }


PAIRS = {
    4: (_reference_chain_determinant, suite._criterion_chain_determinant),
    5: (_reference_split_pair_complement, suite._criterion_split_pair_complement),
    6: (_reference_decomposition, suite._criterion_decomposition),
    7: (_reference_mask_factorization, suite._criterion_mask_factorization),
    9: (_reference_correlation_bound, suite._criterion_correlation_bound),
}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("crit", sorted(PAIRS))
def test_stacked_criterion_matches_one_matrix_at_a_time(crit, seed):
    reference, stacked = PAIRS[crit]
    cfg = VerifyConfig(seed=seed)
    want = reference(cfg)
    assert want["passed"]
    assert canonical_json(stacked(cfg)) == canonical_json(want)
