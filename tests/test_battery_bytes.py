"""Witness bytes of the deterministic battery.

On (0, rho) every witness of size below n is grown by corner extensions, so
these hashes pin each corner-extended witness bit for bit; the verdict-bytes
cases pin only the open_pos witnesses up to their first refutation.  The
hashes were generated before the corner-extension eps became closed-form,
and before the battery became stacks grown once per call.  The reference
embedding below is the per-witness ``embed_at`` those stacks replaced.  The
whole-stream hashes, which also pin every matrix's params on every domain
kind, were generated before the battery became one read-only table per
section, and before each section kept the plans it fires; each digest is
taken twice in one process, from cold plans and from kept ones.
"""

import hashlib
from itertools import chain

import numpy as np
import pytest

from conftest import permute_conjugate
from psdmask import verify
from psdmask.functions import Domain
from psdmask.patterns import (
    contiguous_partition_rule,
    overlapping_chain_rule,
    proper_subpartition_rule,
    single_block_rule,
)
from psdmask.verify import _battery_sections, canonical_json
from psdmask.witnesses import (
    Witness,
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


def witness_digest(rule, rho):
    patterns = {n: rule.pattern(n) for n in range(1, MAX_N + 1)}
    digest = hashlib.sha256()
    count = 0
    for stack, n, families, _params in chain.from_iterable(_battery_sections(Domain.open_pos(rho), patterns, MAX_N)):
        for W, family in zip(stack, families):
            digest.update(f"{n}:{family}:".encode())
            digest.update(np.ascontiguousarray(W, dtype=np.complex128).tobytes())
            count += 1
    return count, digest.hexdigest()


@pytest.mark.parametrize("rule_name,rho", sorted(EXPECTED))
def test_battery_witness_bytes(rule_name, rho):
    verify._section.cache_clear()  # the first digest comes from cold sections and plans, the second from kept ones
    for _ in range(2):
        assert witness_digest(RULES[rule_name](), rho) == EXPECTED[(rule_name, rho)]


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
    for stack, n, families, params in chain.from_iterable(_battery_sections(domain, patterns, MAX_N)):
        for W, family, p in zip(stack, families, map(params, range(len(stack)))):
            if family not in BUILD:
                continue
            expected = reference_embed_at(BUILD[family](p, domain).matrix, n, p["coords"], domain)
            assert W.tobytes() == expected.tobytes()
            placed += 1
    assert placed > 0


STREAM_DOMAINS = {
    "disc_1": Domain.disc(1.0),
    "disc_inf": Domain.disc(),
    "open_sym_1": Domain.open_sym(1.0),
    "half_open_nonneg_1": Domain.half_open_nonneg(1.0),
    "open_pos_0.3": Domain.open_pos(0.3),
}

# (domain, rule, max_n) -> (matrices in the battery stream, sha256 over every matrix of
# "n:family:" + its params as the counterexample JSON writes them + ":" + its bytes)
STREAM = {
    ("disc_1", "contiguous_partition_3", 8): (701, "debc673b91587b120ce27c7ba383dc2a841c9a628d484cb19368098ac67edf75"),
    ("disc_1", "contiguous_partition_3", 5): (193, "46982f145314dd7b385fb542af875873b7c1edd4855305790413c703d57de6a0"),
    ("disc_1", "overlapping_chain", 8): (755, "8ef3c5a601916a34a9f87c4e009bedd009fabe65ab756c20c14b240f69895dac"),
    ("disc_1", "overlapping_chain", 5): (355, "809b5c2525abc1a7a30e37d7442d8ecd97cefb0a5632236ae3082f156a813642"),
    ("disc_1", "proper_subpartition_2", 8): (539, "7b4e3a30fface3f1c5fd2eec35140691a5612c1e9f1c45ee5dab91d5c51d8f1b"),
    ("disc_1", "proper_subpartition_2", 5): (193, "46982f145314dd7b385fb542af875873b7c1edd4855305790413c703d57de6a0"),
    ("disc_1", "single_block_01", 8): (215, "4a8d1957e089e362052f54ecac8ae728db686035595c21c0b1262e9fdf9e4916"),
    ("disc_1", "single_block_01", 5): (112, "48d34d38f9236ae5d12dc8df2896e150f99821abd2dc753f5ef559720691df73"),
    ("disc_inf", "contiguous_partition_3", 8): (717, "fc0969c28bbf08ff5e774daa10fbb052413a49f2efcc1901a66014af62e91797"),
    ("disc_inf", "contiguous_partition_3", 5): (203, "0a87ce42545b0841fc6c3fac8fc9c6dd6e243f95a7a354b5e71a62da44d20f0e"),
    ("disc_inf", "overlapping_chain", 8): (771, "6d5da8ec64b044665a0a85b232b432b1f4749c97acb0f8a60211d0fede020cf2"),
    ("disc_inf", "overlapping_chain", 5): (365, "dd3c8d4f5c2b05dc6c80b3af0603fee678a19d531aa0ddf3f1b02a42df1c2cdb"),
    ("disc_inf", "proper_subpartition_2", 8): (555, "19ddc648857351cb7be9986ac1254c106f897519a7e3133b1f7137bf427dd601"),
    ("disc_inf", "proper_subpartition_2", 5): (203, "0a87ce42545b0841fc6c3fac8fc9c6dd6e243f95a7a354b5e71a62da44d20f0e"),
    ("disc_inf", "single_block_01", 8): (231, "87cf6e3ca206c7e0c35a45ded12837852ef668acb86a231f1eb706ec9e36154a"),
    ("disc_inf", "single_block_01", 5): (122, "619d19232334dbbd3e7fa3cefc2ce20fd945dc88ca2c245400ca06bbb2f56570"),
    ("open_sym_1", "contiguous_partition_3", 8): (629, "09cbfdc2617c6a906934eafe0a6a5f2dfe9743df3d76939981bec7eb0fee9f84"),
    ("open_sym_1", "contiguous_partition_3", 5): (175, "31fd5b65c004d667b6479c0a176c4f569cc7b4ed410a14f9cfd6c9ec9117f459"),
    ("open_sym_1", "overlapping_chain", 8): (671, "1803606016fc81af6fa45d8abd626d6b6299197826427ee895a6ab7a6f989c16"),
    ("open_sym_1", "overlapping_chain", 5): (316, "1969902296eb461e6a92a5507e2fe1b2f72c72e60eb206fad10f0026ebeff1b4"),
    ("open_sym_1", "proper_subpartition_2", 8): (485, "bee06a8939902e3d9cd4f3edf8e64a6f51935ea6a05629db953fd09dd6176415"),
    ("open_sym_1", "proper_subpartition_2", 5): (175, "31fd5b65c004d667b6479c0a176c4f569cc7b4ed410a14f9cfd6c9ec9117f459"),
    ("open_sym_1", "single_block_01", 8): (197, "ee91bc274db6c1c881fda49a8ffa3005979d732b511ca17f4937ce371261c595"),
    ("open_sym_1", "single_block_01", 5): (103, "2882091083f493f925f7d2a18bdf0b1814bb650659687be5f24884e11e23aa1b"),
    ("half_open_nonneg_1", "contiguous_partition_3", 8): (485, "9a9301dcc2601fbc7bc44475820544633492ffd95efddaa0c4f0dbab3d1a4940"),
    ("half_open_nonneg_1", "contiguous_partition_3", 5): (139, "972882e49127e1bbe8dfa787d18e3b3dd727aac48ded49eb75273e888c135454"),
    ("half_open_nonneg_1", "overlapping_chain", 8): (503, "b7cc2a3f26d67e03c76ef6a70967a63515064627e6376498162405f00031829e"),
    ("half_open_nonneg_1", "overlapping_chain", 5): (238, "92bb5c52230c448e5e0cb906cac04b25be7c50f783037a74e7e93b93c6470bfb"),
    ("half_open_nonneg_1", "proper_subpartition_2", 8): (377, "d7a0be90ac3deef24afa23c72202c788590428556a3cf584932d4e691ebc51dd"),
    ("half_open_nonneg_1", "proper_subpartition_2", 5): (139, "972882e49127e1bbe8dfa787d18e3b3dd727aac48ded49eb75273e888c135454"),
    ("half_open_nonneg_1", "single_block_01", 8): (161, "6c2c8a5332f3526ff2e76ea99fa0319c431de28382479fc0544e9e04d7b092da"),
    ("half_open_nonneg_1", "single_block_01", 5): (85, "206ed54c486e9972d00ac52b3299138677a1b64302bcbbe84a1b44a8ea904470"),
    ("open_pos_0.3", "contiguous_partition_3", 8): (405, "956e6de098448270631ca80c4d9ecb09b8e68b625f3dbe9201c817a4608fdb23"),
    ("open_pos_0.3", "contiguous_partition_3", 5): (116, "9d7b9973fd2eaabdaf68c3408ffdf1662fb4f26f193b0fc0df4147eb0371e6d0"),
    ("open_pos_0.3", "overlapping_chain", 8): (411, "a63bf1d4d7c986df06f3af3183b5d181613db81bb400cbba7b9d0d04874095eb"),
    ("open_pos_0.3", "overlapping_chain", 5): (194, "32d6b60964635894de45eb230c7ba73c790d7c7ba5626f0ffe3292c41366873d"),
    ("open_pos_0.3", "proper_subpartition_2", 8): (315, "c143f64a163fcc9bc31153b8bf4834d9398f3647e9bf2d38e998fbd79fef61b8"),
    ("open_pos_0.3", "proper_subpartition_2", 5): (116, "9d7b9973fd2eaabdaf68c3408ffdf1662fb4f26f193b0fc0df4147eb0371e6d0"),
    ("open_pos_0.3", "single_block_01", 8): (135, "4e69b3d7c24318619eef5131722240955ee118726aff4ff0a3d4c77f6588901c"),
    ("open_pos_0.3", "single_block_01", 5): (71, "ca5f74a2db6d738fa818bf5c50fb798c1f2cd944aacc158b73a2d6ae52a8883a"),
}


def stream_digest(domain, rule, max_n):
    patterns = {n: rule.pattern(n) for n in range(1, max_n + 1)}
    digest = hashlib.sha256()
    count = 0
    # every stack is drawn before any params are built: each stack's params(j) must stay its own
    for stack, n, families, params in list(chain.from_iterable(_battery_sections(domain, patterns, max_n))):
        for W, family, p in zip(stack, families, map(params, range(len(stack)))):
            digest.update(f"{n}:{family}:{canonical_json(Witness(W, family, p).to_json()['params'])}:".encode())
            digest.update(np.ascontiguousarray(W, dtype=np.complex128).tobytes())
            count += 1
    return count, digest.hexdigest()


@pytest.mark.parametrize("domain_name,rule_name,max_n", sorted(STREAM))
def test_whole_stream_bytes(domain_name, rule_name, max_n):
    """Every matrix the deterministic battery yields, with its family and params, on every domain
    kind: once from cold sections and plans, once from kept ones."""
    verify._section.cache_clear()
    for _ in range(2):
        got = stream_digest(STREAM_DOMAINS[domain_name], RULES[rule_name](), max_n)
        assert got == STREAM[(domain_name, rule_name, max_n)]
