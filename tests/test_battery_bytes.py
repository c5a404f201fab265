"""Witness bytes of the deterministic battery on the positive domain.

On (0, rho) every witness of size below n is grown by corner extensions, so
these hashes pin each corner-extended witness bit for bit; the verdict-bytes
cases pin only the open_pos witnesses up to their first refutation.  The
hashes were generated before the corner-extension eps became closed-form,
and before the battery became stacks grown once per call.  The reference
embedding below is the per-witness ``embed_at`` those stacks replaced.
"""

import hashlib

import numpy as np
import pytest

from psdmask.functions import Domain
from psdmask.linalg import permute_conjugate
from psdmask.patterns import (
    contiguous_partition_rule,
    overlapping_chain_rule,
    proper_subpartition_rule,
    single_block_rule,
)
from psdmask.verify import _deterministic_battery
from psdmask.witnesses import (
    corner_extend_auto,
    duplicated_pair_gram,
    overlap_probe,
    pad_embed,
    tail_gram,
)

MAX_N = 8

RULES = {
    "contiguous_partition_3": lambda: contiguous_partition_rule(3),
    "proper_subpartition_2": lambda: proper_subpartition_rule(2),
    "overlapping_chain": overlapping_chain_rule,
    "single_block_01": lambda: single_block_rule({0, 1}),
}

# (rule, rho) -> (matrices in the battery stream, sha256 of "n:family:" + matrix bytes per matrix)
EXPECTED = {
    ("contiguous_partition_3", 1.0): (405, "ffe2231bb724585ce3b0029422ccbaf38227de55941f66244a741fb13ffbbeca"),
    ("contiguous_partition_3", 0.3): (405, "2ced53eccf4571e4e56724568d0beb25199b8dac49e2c3947e397ea6a326a812"),
    ("proper_subpartition_2", 1.0): (315, "ff2ade9a3a0e3358e972edaca4b672eaf50eb9700ecff2483a2d91a77ddedfa1"),
    ("proper_subpartition_2", 0.3): (315, "a734191aa41ed2d4f0d4916d8a53fa9d7fb744ed741bccafbe770150bf51e371"),
    ("overlapping_chain", 1.0): (411, "7aa611d8abb85bbc51563f3336b3437ceb2e26aca6995d906091820c2df0393d"),
    ("overlapping_chain", 0.3): (411, "effc9c0afaff087e8023bf312d1d1cd929c9d7f3f8ead3444b5c1cc9cd4ef55a"),
    ("single_block_01", 1.0): (135, "97146315418922c8d34d0d73ccbc40cf865b41df681f30edab437d821f109c89"),
    ("single_block_01", 0.3): (135, "82809c30e1113fde0a7b889ecff29d6265846f5c2c60abccc6f058fe73e7e2fe"),
}


@pytest.mark.parametrize("rule_name,rho", sorted(EXPECTED))
def test_battery_witness_bytes(rule_name, rho):
    rule = RULES[rule_name]()
    patterns = {n: rule.pattern(n) for n in range(1, MAX_N + 1)}
    digest = hashlib.sha256()
    count = 0
    for stack, n, families, _params in _deterministic_battery(Domain.open_pos(rho), patterns, MAX_N):
        for W, family in zip(stack, families):
            digest.update(f"{n}:{family}:".encode())
            digest.update(np.ascontiguousarray(W, dtype=np.complex128).tobytes())
            count += 1
    assert (count, digest.hexdigest()) == EXPECTED[(rule_name, rho)]


def reference_embed_at(W, n, coords, domain):
    """The per-witness embedding the stacked battery replaced, kept as a reference.

    Grows W from its own size to n (zero-padding, or a fresh chain of corner
    extensions), then conjugates by the permutation that puts W on coords.
    """
    W = np.asarray(W, dtype=np.complex128)
    d = W.shape[0]
    if domain.has_zero:
        big = pad_embed(W, n, domain=domain)
    else:
        big = W
        while big.shape[0] < n:
            big, _ = corner_extend_auto(big, domain)
    sigma = [-1] * n
    for p, c in enumerate(coords):
        sigma[c] = p
    spare = iter(range(d, n))
    for q in range(n):
        if sigma[q] < 0:
            sigma[q] = next(spare)
    return permute_conjugate(big, sigma)


BUILD = {
    "duplicated_pair_gram": lambda p, dom: duplicated_pair_gram(p["w"], p["z"], dom),
    "tail_gram": lambda p, dom: tail_gram(p["w"], p["t"], dom),
    "overlap_probe": lambda p, dom: overlap_probe(p["r"], p["z"], dom),
}


@pytest.mark.parametrize("rule_name", sorted(RULES))
@pytest.mark.parametrize("domain", [Domain.open_pos(0.3), Domain.open_pos(1e4), Domain.disc(1.0),
                                    Domain.half_open_nonneg(1.0)], ids=lambda d: f"{d.kind}-{d.rho:g}")
def test_stacked_embedding_matches_reference(rule_name, domain):
    rule = RULES[rule_name]()
    patterns = {n: rule.pattern(n) for n in range(1, MAX_N + 1)}
    placed = 0
    for stack, n, families, params in _deterministic_battery(domain, patterns, MAX_N):
        for W, family, p in zip(stack, families, params):
            if family not in BUILD:
                continue
            expected = reference_embed_at(BUILD[family](p, domain).matrix, n, p["coords"], domain)
            assert W.tobytes() == expected.tobytes()
            placed += 1
    assert placed > 0
