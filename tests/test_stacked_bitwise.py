"""Stacked primitives against the same primitives one matrix at a time.

``verify_preservation`` checks matrices in stacks ``(k, n, n)`` and promises
verdicts byte-identical to a per-matrix check, so every comparison here is
bitwise (``tobytes``, NaN components aside, see ``_bits``), never to a
tolerance.  A failure means this platform's
numpy or LAPACK treats a matrix differently inside a stack than alone; report
it rather than loosening the test.
"""

import itertools
import json
import math

import numpy as np
import pytest

from conftest import random_psd
from psdmask import verify
from psdmask.errors import EigFailure, SingularBlockError
from psdmask.functions import Domain, HerzMonomial, HerzSeries, Identity, Zero, scaled_identity
from psdmask.linalg import eig_extremes, exact_hermitian, identity, psd_holds, schur_complement
from psdmask.operators import (
    OperatorSpec,
    _decomposition,
    _factorization,
    apply,
    decompose,
    mask_factorization,
)
from psdmask.patterns import (
    contiguous_partition_rule,
    empty_rule,
    normalize,
    overlapping_chain_rule,
)
from psdmask.suite import _partition_labels, _random_pattern, _Stream
from psdmask.verify import (
    VerifyConfig,
    _draw,
    _grams,
    _into_domain,
    _random_battery,
    _stack_rows,
    sample_psd,
)
from test_verdict_bytes import CASES as VERDICT_CASES
from test_verdict_bytes import EXPECTED as VERDICT_PINS
from test_verdict_bytes import verdict_bytes

SIZES = range(1, 9)
NAN_AT = 4


def _stream(seed, n):
    """The random stage's stream for n, split from the master seed as [seed, 6, n]."""
    return np.random.default_rng([seed, 6, n])


def _exact_hermitian_reference(H):
    """The per-matrix definition: mirror the upper triangle, zero the diagonal's imaginary part."""
    H = np.array(H, dtype=np.complex128)
    lower = np.tril_indices(H.shape[0], -1)
    H[lower] = np.conj(H.T[lower])
    np.fill_diagonal(H, H.diagonal().real)
    return H


def _bits(a):
    """The bytes of a, with every NaN component set to the same quiet NaN.

    IEEE 754 leaves the sign and payload of a NaN result open, and numpy's
    vector and scalar loops pass on different ones: a 1 x 1 image of NaNs
    carries another NaN sign bit alone than inside a stack.  No verdict can
    see that; every other bit must match.
    """
    parts = np.array(a, dtype=a.dtype, ndmin=1).view(np.float64)  # a complex scalar keeps both parts
    return np.where(np.isnan(parts), np.nan, parts).tobytes()


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and _bits(a) == _bits(b)


def _psd_stack(rng, n, real, nan=True, k=9, peak=0.9):
    """k PSD matrices scaled to the given peak modulus; matrix NAN_AT may carry a NaN pair."""
    stack = []
    for _ in range(k):
        M = exact_hermitian(random_psd(rng, n, complex_entries=not real))
        stack.append(M * (peak / np.abs(M).max()))
    S = np.array(stack)
    if nan:
        S[NAN_AT, 0, n - 1] = S[NAN_AT, n - 1, 0] = np.nan
    return S


@pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
@pytest.mark.parametrize("n", SIZES)
def test_exact_hermitian_stack_matches_each(rng, n, real):
    raw = rng.standard_normal((9, n, n))
    if not real:
        raw = raw + 1j * rng.standard_normal((9, n, n))
    raw[NAN_AT, n - 1, 0] = np.nan
    stacked = exact_hermitian(raw)
    for j, M in enumerate(raw):
        assert _same_bits(stacked[j], exact_hermitian(M)), f"n={n} matrix {j}"
        assert _same_bits(stacked[j], _exact_hermitian_reference(M)), f"n={n} matrix {j}"


@pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
@pytest.mark.parametrize("n", SIZES)
def test_eig_extremes_stack_matches_each(rng, n, real):
    S = _psd_stack(rng, n, real)
    alone = {}
    for j, M in enumerate(S):
        try:
            alone[j] = eig_extremes(M)
        except EigFailure:  # LAPACK may give up on the NaN-bearing matrix
            assert j == NAN_AT
    if len(alone) < len(S):
        with pytest.raises(EigFailure):
            eig_extremes(S)
    keep = sorted(alone)
    lo, hi = eig_extremes(S[keep])
    assert lo.shape == hi.shape == (len(keep),)
    for i, j in enumerate(keep):
        lo_j, hi_j = alone[j]
        assert isinstance(lo_j, float) and isinstance(hi_j, float)
        assert _same_bits(lo[i], np.float64(lo_j)), f"n={n} matrix {j}"
        assert _same_bits(hi[i], np.float64(hi_j)), f"n={n} matrix {j}"
        assert bool(psd_holds(lo, hi, 1e-8)[i]) == bool(psd_holds(lo_j, hi_j, 1e-8))
        if j == NAN_AT:
            assert not psd_holds(lo_j, hi_j, 1e-8)


def test_eig_extremes_stack_raises_where_one_matrix_does():
    bad = np.eye(3, dtype=np.complex128)
    bad[0, 1] = bad[1, 0] = np.inf
    with pytest.raises(EigFailure):
        eig_extremes(bad)
    with pytest.raises(EigFailure):
        eig_extremes(np.array([np.eye(3), bad, np.eye(3)]))


def test_psd_holds_keeps_scalar_nan_semantics():
    nan = float("nan")
    assert psd_holds(-1e-12, nan, 1e-9) == (-1e-12 >= -1e-9 * max(1.0, nan))
    assert not psd_holds(nan, 1.0, 1e-9)
    assert list(psd_holds(np.array([nan, 0.0, -0.5]), np.array([1.0, nan, 2.0]), 1e-9)) \
        == [False, True, False]


_SPECS = {
    "partition_negative_scalar": lambda n, dom: OperatorSpec(
        f=scaled_identity(-0.4), pattern=contiguous_partition_rule(3).pattern(n), domain=dom),
    "chain_series": lambda n, dom: OperatorSpec(
        f=HerzSeries({(0, 0): 0.1, (1, 0): 0.5, (2, 1): 0.3}),
        pattern=overlapping_chain_rule().pattern(n), domain=dom, g=HerzMonomial(1.5, 2, 0)),
}


@pytest.mark.parametrize("spec", sorted(_SPECS))
@pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
@pytest.mark.parametrize("n", SIZES)
def test_apply_stack_matches_each(rng, n, real, spec):
    dom = Domain.open_sym(1.0) if real else Domain.disc(1.0)
    op = _SPECS[spec](n, dom)
    S = _psd_stack(rng, n, real, nan=False)  # apply rejects NaN inputs
    stacked = apply(op, S)
    for j, M in enumerate(S):
        assert _same_bits(stacked[j], apply(op, M)), f"n={n} matrix {j}"


@pytest.mark.parametrize("n", SIZES)
def test_apply_stack_with_overflowing_image_matches_each(rng, n):
    op = OperatorSpec(f=HerzMonomial(1, 400, 0), pattern=empty_rule().pattern(n),
                      domain=Domain.disc(math.inf))
    S = _psd_stack(rng, n, real=False, nan=False)
    S[NAN_AT] *= 8.0  # 8^400 overflows: the image holds inf and NaN entries
    with np.errstate(over="ignore", invalid="ignore"):
        stacked = apply(op, S)
        each = [apply(op, M) for M in S]
    assert np.isnan(stacked[NAN_AT]).any()
    for j, M in enumerate(each):
        assert _same_bits(stacked[j], M), f"n={n} matrix {j}"


def _exact_form(W, dom):
    """A random stack as verify judges it when its screen does not clear it.  The stack is float64 on
    a real domain and complex128 on the disc, and a real one is judged as its exact complex form."""
    assert W.dtype == (np.complex128 if dom.kind == "disc" else np.float64)
    return W if dom.kind == "disc" else exact_hermitian(W)


def _stack_count(cfg):
    """The random stacks of a run: each n's samples in stacks of ``_stack_rows(n)``."""
    return sum(math.ceil(cfg.samples_per_n / _stack_rows(n)) for n in range(1, cfg.max_n + 1))


# the stream's edge cases, in both rank modes: no samples (and no stream made), no drawn rank (1), one drawn
# rank whose word's kept half goes unused (2, 3), a last drawn rank with no sample after it (2, 4) and a partial
# last stack (171 = 163 + 8 at n = 5; 151 fits one stack at every n).  Up to 163 samples at max_n 5 the real
# domains form each batch's n's as one zero-padded stack; so do 10 and 64 samples at max_n 8, 65 does not
_STREAM_CONFIGS = {"samples150": VerifyConfig(max_n=5, samples_per_n=150, seed=4),
                   **{f"samples{k}{'_rank_one_only' if one else ''}":
                      VerifyConfig(max_n=5, samples_per_n=k, seed=4 + k, rank_one_only=one)
                      for k in (0, 1, 2, 3, 4, 151, 171) for one in (False, True)},
                   **{f"max_n8_samples{k}{'_rank_one_only' if one else ''}":
                      VerifyConfig(max_n=8, samples_per_n=k, seed=8 + k, rank_one_only=one)
                      for k in (10, 64, 65) for one in (False, True)}}


@pytest.mark.parametrize("cfg", _STREAM_CONFIGS.values(), ids=_STREAM_CONFIGS)
@pytest.mark.parametrize("dom", [Domain.disc(1.0), Domain.disc(), Domain.open_sym(2.0),
                                 Domain.half_open_nonneg(1.0), Domain.open_pos(1.0),
                                 *(make(rho) for make in (Domain.open_sym, Domain.half_open_nonneg, Domain.open_pos)
                                   for rho in (1e-300, math.inf))],
                         ids=["disc", "disc_inf", "open_sym", "half_open_nonneg", "open_pos",
                              *(f"{kind}_{rho}" for kind in ("open_sym", "half_open_nonneg", "open_pos")
                                for rho in ("tiny", "inf"))])
def test_random_battery_matches_sample_psd_one_at_a_time(monkeypatch, dom, cfg):
    with monkeypatch.context() as spied:
        if cfg.samples_per_n == 0:
            spied.setattr(verify.np.random, "default_rng", lambda *args: pytest.fail(f"stream {args} made"))
        stacks = list(_random_battery(dom, cfg))
    assert len(stacks) == _stack_count(cfg)
    for n in range(1, cfg.max_n + 1):
        rng = _stream(cfg.seed, n)
        s = 0
        for W, n_w, family, params in stacks:
            if n_w != n:
                continue
            assert family == ["random_gram"] * len(W) and len(W) <= _stack_rows(n)
            for j, M in enumerate(_exact_form(W, dom)):
                rank = 1 if cfg.rank_one_only or s % 2 == 0 else int(rng.integers(1, n + 1))
                assert params(j) == {"sample_index": s, "rank": rank}
                assert _same_bits(M, sample_psd(rng, n, dom, rank)), f"n={n} sample {s}"
                s += 1
        assert s == cfg.samples_per_n


_DOMAIN_KINDS = {"disc": Domain.disc, "open_sym": Domain.open_sym,
                 "half_open_nonneg": Domain.half_open_nonneg, "open_pos": Domain.open_pos}


@pytest.mark.parametrize("rho", [1.0, math.inf], ids=["rho1", "rho_inf"])
@pytest.mark.parametrize("kind", sorted(_DOMAIN_KINDS))
def test_draws_settled_per_n_match_sample_psd_one_at_a_time(kind, rho):
    """The suite's draw order: factors drawn in one stream with mixed n, each n formed and settled as one stack."""
    dom = _DOMAIN_KINDS[kind](rho)
    ns = np.random.default_rng(11).integers(1, 9, size=200).tolist()
    drawing, sampling = np.random.default_rng(5), np.random.default_rng(5)
    draws = [_draw(drawing, n, dom) for n in ns]
    alone = [sample_psd(sampling, n, dom) for n in ns]
    assert drawing.random() == sampling.random()  # both streams consumed the same draws
    for n in SIZES:
        at = [i for i, m in enumerate(ns) if m == n]
        stacked = _exact_form(_into_domain(_grams([draws[i] for i in at], dom), dom), dom)
        for j, i in enumerate(at):
            assert _same_bits(stacked[j], alone[i]), f"n={n} draw {i}"


def _gram_reference(rng, n, domain, rank=None):
    """The one-sample-at-a-time Gram draw the factor-draw kernel replaced."""
    if rank is None:
        rank = int(rng.integers(1, n + 1))
    if domain.kind == "disc":
        B = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    elif domain.kind == "open_sym":
        B = rng.standard_normal((n, rank))
    else:
        B = np.abs(rng.standard_normal((n, rank)))
        if domain.kind == "open_pos":
            B = B + 0.01
    return B @ B.conj().T


def _random_battery_reference(domain, cfg):
    """The random stage as it was: each Gram drawn and formed alone, then settled per stack."""
    for n in range(1, cfg.max_n + 1):
        rng = _stream(cfg.seed, n)
        for start in range(0, cfg.samples_per_n, _stack_rows(n)):
            stop = min(start + _stack_rows(n), cfg.samples_per_n)
            params = []
            grams = np.empty((stop - start, n, n), dtype=np.complex128)
            for s in range(start, stop):
                rank = 1 if (cfg.rank_one_only or s % 2 == 0) else int(rng.integers(1, n + 1))
                params.append({"sample_index": s, "rank": rank})
                grams[s - start] = _gram_reference(rng, n, domain, rank)
            yield _into_domain(grams, domain), n, ["random_gram"] * len(params), params


@pytest.mark.parametrize("given_rank", [False, True], ids=["rank_drawn", "rank_given"])
@pytest.mark.parametrize("rho", [1.0, math.inf], ids=["rho1", "rho_inf"])
@pytest.mark.parametrize("kind", sorted(_DOMAIN_KINDS))
def test_grams_match_gram_reference_on_one_stream(kind, rho, given_rank):
    """Mixed n on one stream: the kernel's Grams per (n, rank) stack against the old draws, by bytes."""
    dom = _DOMAIN_KINDS[kind](rho)
    picks = np.random.default_rng(13)
    ns = picks.integers(1, 9, size=300).tolist()
    ranks = [int(picks.integers(1, n + 1)) if given_rank else None for n in ns]
    drawing, reference = np.random.default_rng(8), np.random.default_rng(8)
    draws = [_draw(drawing, n, dom, r) for n, r in zip(ns, ranks)]
    old = [_gram_reference(reference, n, dom, r) for n, r in zip(ns, ranks)]
    assert drawing.bit_generator.state == reference.bit_generator.state
    for n in SIZES:
        at = [i for i, m in enumerate(ns) if m == n]
        stacked = _grams([draws[i] for i in at], dom)
        assert stacked.shape == (len(at), n, n)
        for j, i in enumerate(at):
            assert _same_bits(stacked[j], old[i]), f"n={n} draw {i}"


@pytest.mark.parametrize("factor", ["gaussian", "abs_plus_0.01"])
def test_padded_real_gram_blocks_match_per_rank_products(rng, factor):
    """The fact a small real random stage's padded route rests on: factors (k, n, rank) zero-padded into
    (k, size, size), their real P P^T holds in each leading n x n block the bits of the per-rank product
    B B^T that ``_formed`` makes, for every n <= size <= 8 and rank <= n."""
    for size in SIZES:
        for n in range(1, size + 1):
            for rank in range(1, n + 1):
                B = rng.standard_normal((40, n, rank))
                if factor != "gaussian":
                    B = np.abs(B) + 0.01
                P = np.zeros((len(B), size, size))
                P[:, :n, :rank] = B
                padded = (P @ np.swapaxes(P, -1, -2))[:, :n, :n]
                assert _same_bits(padded, B @ np.swapaxes(B.conj(), -1, -2)), f"size={size} n={n} rank={rank}"


def test_padded_complex_gram_blocks_do_not_match_so_the_disc_forms_each_n_alone(rng):
    """The same padding in complex128 moves bits of the per-rank products: at size 8 some n's blocks
    differ (n in {2, 3, 5, 6, 7} with numpy 2.4 on OpenBLAS 0.3.31), so the disc keeps ``_formed``."""
    differs = set()
    for n in SIZES:
        for rank in range(1, n + 1):
            B = rng.standard_normal((40, n, rank)) + 1j * rng.standard_normal((40, n, rank))
            P = np.zeros((len(B), 8, 8), dtype=complex)
            P[:, :n, :rank] = B
            padded = (P @ np.swapaxes(P.conj(), -1, -2))[:, :n, :n]
            if not _same_bits(padded, B @ np.swapaxes(B.conj(), -1, -2)):
                differs.add(n)
    assert differs, "complex padded blocks keep the per-rank bits on this build; the disc's exclusion is then unneeded"


# partial, single, exactly full and one-past-full stacks (256 and 257 at n = 4, 64 and 65 at n = 8; 63-65 stay,
# one stack at n <= 4), no samples at all, n = 1 alone and a small max_n 8 stage (10), in both rank modes
_EDGE_CONFIGS = {f"max_n{m}_samples{k}{'_rank_one_only' if one else ''}":
                 VerifyConfig(max_n=m, samples_per_n=k, seed=29 + k, rank_one_only=one)
                 for m, ks in ((4, (0, 1, 2, 63, 64, 65, 255, 256, 257)), (8, (10, 64, 65)), (1, (131,)))
                 for k in ks for one in (False, True)}


@pytest.mark.parametrize("cfg", [VerifyConfig(max_n=8, samples_per_n=40, seed=3, rank_one_only=True),
                                 VerifyConfig(max_n=8, samples_per_n=131, seed=7919), *_EDGE_CONFIGS.values()],
                         ids=["rank_one_only", "samples_131", *_EDGE_CONFIGS])
@pytest.mark.parametrize("rho", [1.0, math.inf], ids=["rho1", "rho_inf"])
@pytest.mark.parametrize("kind", sorted(_DOMAIN_KINDS))
def test_random_battery_matches_reference_generator(kind, rho, cfg):
    dom = _DOMAIN_KINDS[kind](rho)
    got = list(_random_battery(dom, cfg))
    want = list(_random_battery_reference(dom, cfg))
    assert len(got) == len(want) == _stack_count(cfg)
    for (W, n, family, params), (V, n_v, family_v, params_v) in zip(got, want):
        assert (n, family, [params(j) for j in range(len(W))]) == (n_v, family_v, params_v)
        assert _same_bits(_exact_form(W, dom), V), f"n={n}"


@pytest.mark.parametrize("entries", [1, 500 * 64 ** 2], ids=["eight_rows", "one_stack_per_n"])
@pytest.mark.parametrize("case", sorted(VERDICT_CASES))
def test_verdict_bytes_do_not_depend_on_stack_size(monkeypatch, case, entries):
    """Every pinned verdict, from stacks of 8 (the floor) or from one stack per n of every n's samples and
    every witness section: random_refuted_abs refutes at sample 3 of n = 4, overflow_z400_disc_inf at
    sample 25 of n = 1.  It rests on batched cholesky and eigvalsh judging each matrix as they would alone."""
    monkeypatch.setattr(verify, "STACK_ENTRIES", entries)
    rows = [verify._stack_rows(n) for n in range(1, 9)]
    assert (rows == [8] * 8) if entries == 1 else (min(rows) >= 500)
    assert verdict_bytes(case) == json.loads(VERDICT_PINS.read_text())[case]


def _into_domain_reference(grams, domain):
    """The scaling as it was: the matrices of nonzero peak gathered, scaled, settled again, scattered back."""
    M = exact_hermitian(grams)
    if math.isfinite(domain.rho):
        peak = np.abs(M).max(axis=(1, 2))
        hit = peak > 0.0
        M[hit] = exact_hermitian(M[hit] * (0.95 * domain.rho / peak[hit])[:, None, None])
    return M


@pytest.mark.parametrize("rho", [1.0, math.inf], ids=["rho1", "rho_inf"])
@pytest.mark.parametrize("n", SIZES)
def test_into_domain_scales_in_place_as_the_reference(rng, n, rho):
    """Grams, and a signed-zero, a NaN and an inf matrix, which the scaling leaves or turns to NaN as before."""
    G = np.array([random_psd(rng, n, complex_entries=j % 2 == 0) for j in range(9)])
    G[1] = -0.0 - 0.0j
    G[2, 0, n - 1] = np.nan
    G[3, n - 1, 0] = np.inf
    with np.errstate(invalid="ignore"):
        got, want = _into_domain(G, Domain.disc(rho)), _into_domain_reference(G, Domain.disc(rho))
    assert _same_bits(got, want)


_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645
_U64, _U128 = 2**64 - 1, 2**128


def _generator_reading(word, before):
    """A PCG64 generator whose next 64-bit word after its first ``before`` is ``word``.

    PCG64 steps its 128-bit LCG state, then outputs the XOR of the state's
    halves rotated right by its top 6 bits.  A state with that output is set
    up and stepped back ``before + 1`` times through the LCG's inverse multiplier.
    """
    bits = np.random.PCG64(0)
    inc = bits.state["state"]["inc"]
    high = 0x9E3779B97F4A7C15  # any high half; its top 6 bits are the rotation
    rot = high >> 58
    state = high << 64 | high ^ ((word << rot | word >> (64 - rot)) & _U64)
    back = pow(_PCG64_MULTIPLIER, -1, _U128)
    for _ in range(before + 1):
        state = (state - inc) * back % _U128
    bits.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0, "uinteger": 0}
    return np.random.Generator(bits)


# the word the first drawn rank reads: a zero low half, which Lemire rejects for n in 3, 5, 6, 7 (the rank
# then takes the kept high half), a zero high half, which the next drawn rank rejects, and both at once
_FORCED_WORDS = {"low_zero": 0x8BADF00D << 32, "high_zero": 0x8BADF00D, "both_zero": 0}


@pytest.mark.parametrize("word", sorted(_FORCED_WORDS))
@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("dom", [Domain.disc(1.0), Domain.open_sym(1.0)], ids=["disc", "open_sym"])
def test_random_grams_decode_ranks_as_integers_draws_them(monkeypatch, dom, n, word):
    """The ranks read off raw words against ``rng.integers`` one at a time, where Lemire rejects a half."""
    cfg, forced = VerifyConfig(max_n=n, samples_per_n=9, seed=0), _FORCED_WORDS[word]
    step = (2 if dom.kind == "disc" else 1) * n
    for before in itertools.count(step):  # sample 0's fill reads one word per value, bar a ziggurat retry
        probe = _generator_reading(forced, before)
        probe.standard_normal(step)
        if probe.bit_generator.random_raw() == forced:
            break
    decoded, reference = _generator_reading(forced, before), _generator_reading(forced, before)
    monkeypatch.setattr(verify.np.random, "default_rng",
                        lambda entropy: decoded if entropy == [0, 6, n] else pytest.fail(f"stream {entropy}"))
    flat, ranks = verify._random_draws(n, dom, cfg)
    grams = verify._formed(flat, ranks, n, dom)
    want = []
    for s in range(cfg.samples_per_n):  # in stream order: the rank, then the factor
        want.append(1 if s % 2 == 0 else int(reference.integers(1, n + 1)))
        assert _same_bits(grams[s], _gram_reference(reference, n, dom, want[s])), f"sample {s}"
    assert ranks == want
    assert decoded.bit_generator.state["state"] == reference.bit_generator.state["state"]  # the same words read
    if word == "low_zero" and (2**32 - n) % n:  # rejected: sample 1's rank came from the high half
        assert ranks[1] == ((forced >> 32) * n >> 32) + 1
    if n == 1:  # no rank draw reads a word: the stream is one normal fill
        alone = _generator_reading(forced, before)
        alone.standard_normal(step * cfg.samples_per_n)
        assert decoded.bit_generator.state["state"] == alone.bit_generator.state["state"]


def _same_mask(a, b):
    return a.dtype == b.dtype == bool and a.shape == b.shape and a.tobytes() == b.tobytes()


def _random_partition_reference(rng, n, k):
    """The partition pattern drawn one at a time, as the suite drew it before its masks were label-built."""
    perm = rng.permutation(n)
    assign = np.empty(n, dtype=int)
    assign[perm[:k]] = np.arange(k)
    if n > k:
        assign[perm[k:]] = rng.integers(0, k, size=n - k)
    return normalize([np.where(assign == j)[0].tolist() for j in range(k)], n)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_label_masks_match_partition_pattern_masks(k):
    labelling, partitioning = np.random.default_rng(k), np.random.default_rng(k)
    for _ in range(50):
        for n in range(k, 9):
            assign = _partition_labels(labelling, n, k)
            want = _random_partition_reference(partitioning, n, k).mask
            assert _same_mask(assign[:, None] == assign[None, :], want), f"n={n}"
    assert labelling.random() == partitioning.random()


@pytest.mark.parametrize("k", [2, 3, 4])
def test_stream_label_masks_match_partition_pattern_masks(k):
    """The labels as the suite draws them, through its raw-word reader of the same stream."""
    labelling, partitioning = _Stream(k), np.random.default_rng(k)
    for _ in range(50):
        for n in range(k, 9):
            assign = _partition_labels(labelling, n, k)
            want = _random_partition_reference(partitioning, n, k).mask
            assert _same_mask(assign[:, None] == assign[None, :], want), f"n={n}"
    assert labelling.random() == partitioning.random()


def _mask_reference(pattern):
    mask = np.zeros((pattern.n, pattern.n), dtype=bool)
    for b in pattern.blocks:
        idx = sorted(b)
        mask[np.ix_(idx, idx)] = True
    return mask


@pytest.mark.parametrize("blocks,n", [([], 3), ([{0, 1}, {2}], 3), ([{0, 1}, {1, 2}], 3),
                                      ([{0, 2, 5}, {1, 3}], 7), ([{j} for j in range(8)], 8)])
def test_mask_matrix_is_built_once_and_read_only(blocks, n):
    pattern = normalize(blocks, n)
    mask = pattern.mask
    assert _same_mask(mask, _mask_reference(pattern))
    assert pattern.mask is mask
    with pytest.raises(ValueError):
        mask[0, 0] = not mask[0, 0]
    assert _same_mask(pattern.mask, _mask_reference(pattern))


def _pivoted_stack(rng, n, k=9):
    """k positive definite matrices, peak modulus 0.9, so every principal block is invertible."""
    return np.array([M + 0.1 * identity(n) for M in _psd_stack(rng, n, real=False, nan=False, k=k)])


@pytest.mark.parametrize("n", SIZES[1:])
def test_schur_complement_stack_matches_each(rng, n):
    S = _pivoted_stack(rng, n)
    for block in ({n - 1}, {0}, set(range(n // 2))):
        stacked = schur_complement(S, block)
        for j, M in enumerate(S):
            assert _same_bits(stacked[j], schur_complement(M, block)), f"n={n} block={block} matrix {j}"


def test_schur_complement_stack_names_first_singular_matrix(rng):
    S = _pivoted_stack(rng, 3)
    S[[3, 6], 2, :] = S[[3, 6], :, 2] = 0.0  # a zero pivot, and a zero row with it
    with pytest.raises(SingularBlockError) as alone:
        schur_complement(S[3], {2})
    with pytest.raises(SingularBlockError, match="^matrix 3: ") as stacked:
        schur_complement(S, {2})
    assert str(stacked.value) == f"matrix 3: {alone.value}"
    assert _same_bits(schur_complement(S[:3], {2})[2], schur_complement(S[2], {2}))


@pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
@pytest.mark.parametrize("n", SIZES)
def test_det_stack_matches_each(rng, n, real):
    S = _psd_stack(rng, n, real, nan=False) - 0.2 * identity(n)  # determinants of either sign
    stacked = np.linalg.det(S)
    for j, M in enumerate(S):
        assert _same_bits(stacked[j], np.linalg.det(M)), f"n={n} matrix {j}"


def _mixed_patterns(n, k=9):
    """k random patterns on range(n) (a stack of their masks), drawn as the suite draws them."""
    rng = np.random.default_rng(n)
    return [_random_pattern(rng, n) for _ in range(k)]


@pytest.mark.parametrize("n", SIZES)
def test_mask_factorization_kernel_with_per_matrix_c_matches_each(rng, n):
    S = _psd_stack(rng, n, real=False, nan=False)
    patterns = _mixed_patterns(n)
    cs = np.linspace(-1.0, 1.0, len(S))
    specs = [OperatorSpec(f=scaled_identity(c), pattern=p, domain=Domain.disc(1.0))
             for c, p in zip(cs, patterns)]
    image = np.array([apply(spec, M) for spec, M in zip(specs, S)])
    masks = np.array([p.mask for p in patterns])
    stacked = _factorization(masks, cs[:, None, None], S, image)
    for j, (spec, M) in enumerate(zip(specs, S)):
        assert _same_bits(stacked[j], mask_factorization(spec, M)), f"n={n} matrix {j}"
    image[[2, 5], 0, 0] += 1e-6
    with pytest.raises(ArithmeticError, match="^matrix 2: mask factorization mismatch"):
        _factorization(masks, cs[:, None, None], S, image)


_FUNCTIONS = [Identity(), Zero(), HerzMonomial(0.7, 2, 1), scaled_identity(-0.3),
              HerzSeries({(0, 0): 0.2, (1, 1): 0.5, (3, 0): 0.1})]


@pytest.mark.parametrize("n", SIZES)
def test_decomposition_kernel_matches_each(rng, n):
    S = _psd_stack(rng, n, real=False, nan=False)
    patterns = _mixed_patterns(n)
    gs = [_FUNCTIONS[j % len(_FUNCTIONS)] for j in range(len(S))]
    fs = [_FUNCTIONS[(j + 2) % len(_FUNCTIONS)] for j in range(len(S))]
    out, part1, part2 = _decomposition(
        np.array([p.mask for p in patterns]),
        np.array([g.evaluate_array(M) for g, M in zip(gs, S)]),
        np.array([f.evaluate_array(M) for f, M in zip(fs, S)]),
    )
    for j, M in enumerate(S):
        spec = OperatorSpec(f=fs[j], pattern=patterns[j], domain=Domain.disc(1.0), g=gs[j])
        p1, p2 = decompose(spec, M)
        assert _same_bits(out[j], apply(spec, M)), f"n={n} matrix {j}"
        assert _same_bits(part1[j], p1) and _same_bits(part2[j], p2), f"n={n} matrix {j}"
