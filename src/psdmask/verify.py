"""Desk-scale preservation verification.

``verify_preservation`` fires a deterministic witness battery (scaled
all-ones matrices, the 3x3 rank-one constructions embedded at every
size->=2-block and overlap position of the materialized patterns, tensor
blowups), then a seeded random one, as one stream of stacks in refutation
priority order, so the reported counterexample is reproducible.  The
stream's four sections (all ones, anchored, blowups, random) are built
inside the domain, checked nowhere again, and judged by ``_section_hits``
alone; ``eigvalsh`` gives every ``min_eig`` and every Refuted verdict.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import Counter
from dataclasses import asdict, dataclass, fields
from fractions import Fraction
from functools import lru_cache, partial
from typing import NamedTuple

import numpy as np

from .errors import CNotOutsideError, NonHermitianOutputError, RegimeMismatchError
from .functions import (DISC, OPEN_POS, OPEN_SYM, Domain, PreserverFunction, _equivariant_by_construction,
                        admissible_family, conjugate_equivariance_check, scaled_identity)
from .linalg import (EIG_DIM_CAP, _cleared, _mirror, _screen_floor, _within_cap, eig_extremes, exact_hermitian,
                     is_psd, psd_holds)
from .operators import _image, _settle_hermitian
from .patterns import (R3A_PARTITION_ALL, R3B_SUBPARTITION_OTHER, R4_OVERLAPPING, BlockPattern, PatternRule,
                       _integer, _real, validate_rule)
from .witnesses import (WITNESS_PSD_TOL, Witness, all_ones_witness, corner_extend_auto, duplicated_pair_gram,
                        overlap_probe, pad_embed, tail_gram, tensor_blowup)

OUTCOME_PRESERVED = "PreservedWithinBudget"
OUTCOME_REFUTED = "Refuted"

# Each n's random samples come from their own stream, default_rng([seed, 6, n]), so no stage depends on
# the order in which the others ran.
_RANDOM_GRAM_STREAM = 6

# The entries of one stack: n x n matrices are settled, applied and screened
# ``_stack_rows(n)`` at a time, 64 kB of float64 (128 kB of complex128 on the
# disc) per temporary, 16 random stacks a default verify call.  Chosen end to
# end: perfbench's preserved_full read a median wall_s of 0.1474 reference s
# at 4096 entries, 0.1398 at 6144, 0.1361 at 8192, 0.1384 at 12288 and 0.1380
# at 16384 (4 s runs at seed 0, 5 interleaved rounds, 2-vCPU x86-64 VM); its
# peak_rss_mb grew 0.5 MB at 12288 and 1.1 MB at 16384, and the other
# workloads did not move beyond noise.  Below 8192 each stack's fixed numpy
# cost, the screen's included, is paid more often: 30 random stacks a call
# at 4096.
STACK_ENTRIES = 8192

# The battery sections of this many (domain, max_n) pairs are kept per
# process, least recently used dropped first: at most 60 kB a pair at max_n 8,
# growing as max_n ** 2 to 3.5 MB at EIG_DIM_CAP.  Each section keeps the
# plans of this many anchor sets per n the same way, in one lru_cache per n:
# 30-70 bytes a row (traced by tracemalloc), 1-22 kB a plan for the built-in
# rules at n <= 8, 0.25-0.43 MB for T_8 = all 28 pairs of range(8), whose plan
# has 3,528-7,560 rows.
BATTERY_CACHE_SIZE = 16


def _stack_rows(n: int) -> int:
    """The matrices in one n x n stack: ``STACK_ENTRIES`` entries, and at least 8."""
    return max(8, STACK_ENTRIES // (n * n))


@dataclass(frozen=True)
class VerifyConfig:
    max_n: int = 8
    samples_per_n: int = 500
    seed: int = 0
    tol: float = 1e-8
    rank_one_only: bool = False

    def __post_init__(self):
        """Each member is checked, not coerced: a bool, a float count or seed,
        or a tol that is negative or not finite is a ValueError.  A numpy
        number is kept as the Python number it holds, so that it serializes."""
        if _integer(self.max_n, "max_n", 1) > EIG_DIM_CAP:
            raise ValueError(f"max_n must be in 1..{EIG_DIM_CAP}, the eigensolver cap")
        _integer(self.samples_per_n, "samples_per_n")
        _integer(self.seed, "seed")
        if not 0 <= _real(self.tol, "tol") < math.inf:
            raise ValueError(f"tol must be a finite number >= 0, got {self.tol!r}")
        if not isinstance(self.rank_one_only, bool):
            raise ValueError(f"rank_one_only must be true or false, got {self.rank_one_only!r}")
        for member in fields(self):
            value = getattr(self, member.name)
            if isinstance(value, (np.integer, np.floating)):
                object.__setattr__(self, member.name, value.item())

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True, eq=False)
class CounterExample:
    family: str
    params: dict
    n: int
    matrix: np.ndarray
    min_eig: float

    def to_json(self) -> dict:
        return {**Witness(self.matrix, self.family, self.params).to_json(), "n": self.n, "min_eig": self.min_eig}


@dataclass(frozen=True, eq=False)
class Verdict:
    outcome: str
    counterexample: CounterExample | None
    stats: dict

    @property
    def refuted(self) -> bool:
        return self.outcome == OUTCOME_REFUTED

    def to_json(self) -> dict:
        return {
            "outcome": self.outcome,
            "counterexample": None if self.counterexample is None else self.counterexample.to_json(),
            "stats": self.stats,
        }


def _draw(rng: np.random.Generator, n: int, domain: Domain, rank: int | None = None) -> np.ndarray:
    """The Gaussian draws of one sample's n x rank factor, in one fill of shape
    (parts, n, rank): real then imaginary part over the disc, one part elsewhere.
    Without a rank, the rank is drawn first, in 1..n."""
    if rank is None:
        rank = int(rng.integers(1, n + 1))
    return rng.standard_normal((2 if domain.kind == DISC else 1, n, rank))


def _real_factor(X: np.ndarray, domain: Domain) -> np.ndarray:
    """A real domain's factor entries from their Gaussian draws X: as drawn over (-rho, rho), their
    absolute values over [0, rho), shifted by 0.01 over (0, rho)."""
    if domain.kind == OPEN_SYM:
        return X
    B = np.abs(X)
    if domain.kind == OPEN_POS:
        B += 0.01
    return B


def _formed(flat: np.ndarray, ranks: list, n: int, domain: Domain) -> np.ndarray:
    """The unsettled Grams (k, n, n), one gather and one matmul per rank, of k samples whose
    factor draws lie end to end in flat, each (parts, n, rank) as ``_draw`` fills it; complex
    over the disc and real elsewhere.  A small real random stage is formed as one zero-padded
    product per screening batch instead (``_random_battery``), whose leading blocks float64 matmul
    gives the bits of these per-rank products; complex128 matmul does not."""
    parts = 2 if domain.kind == DISC else 1
    by_sample = np.array(ranks, dtype=np.intp)
    offsets = parts * n * (by_sample.cumsum() - by_sample)
    grams = np.empty((len(ranks), n, n), dtype=complex if domain.kind == DISC else float)
    for rank in set(ranks):
        at = np.flatnonzero(by_sample == rank)
        X = flat[offsets[at, None] + np.arange(parts * n * rank)].reshape(len(at), parts, n, rank)
        B = X[:, 0] + 1j * X[:, 1] if domain.kind == DISC else _real_factor(X[:, 0], domain)
        grams[at] = B @ np.swapaxes(B.conj(), -1, -2)
    return grams


def _grams(draws: list, domain: Domain) -> np.ndarray:
    """The unsettled Grams of same-n draws as a (k, n, n) stack, by ``_formed``."""
    flat = np.concatenate([d.ravel() for d in draws])
    return _formed(flat, [d.shape[-1] for d in draws], draws[0].shape[1], domain)


def _into_domain(grams: np.ndarray, domain: Domain) -> np.ndarray:
    """Settle a stack of Grams in its dtype, its ``exact_hermitian`` bit for bit the complex one's; for
    finite rho scale each to peak modulus 0.95 rho, in place and then mirrored once.  A matrix of peak
    0 or NaN is left as settled.  Where the factor 0.95 rho / peak overflows (a small peak at a large
    rho), the matrix is divided by its peak first and then multiplied by 0.95 rho."""
    M = _mirror(np.array(grams))
    if math.isfinite(domain.rho):
        peak = np.abs(M).max(axis=(1, 2))
        hit = peak > 0.0
        with np.errstate(over="ignore"):
            factor = np.divide(0.95 * domain.rho, peak, out=np.ones_like(peak), where=hit)
        over = np.isinf(factor)
        if over.any():
            M[over] /= peak[over, None, None]
            factor[over] = 0.95 * domain.rho
        _mirror(np.multiply(M, factor[:, None, None], out=M, where=hit[:, None, None]))
    return M


def sample_psd(rng: np.random.Generator, n: int, domain: Domain, rank: int | None = None) -> np.ndarray:
    """A seeded PSD sample with entries inside the domain.

    Gram of an n x rank factor: complex Gaussian over the disc, real Gaussian
    over (-rho, rho), absolute values (shifted strictly positive for (0, rho))
    otherwise; scaled to 0.95 rho for finite rho.  n and a given rank are
    integers >= 1 (ValueError otherwise); without a rank, it is drawn in 1..n.
    """
    n = _integer(n, "n", 1)
    rank = None if rank is None else _integer(rank, "rank", 1)
    return exact_hermitian(_into_domain(_grams([_draw(rng, n, domain, rank)], domain), domain)[0])


def _random_draws(n: int, domain: Domain, cfg: VerifyConfig) -> tuple[np.ndarray, list]:
    """The factor draws of n's random samples, end to end as ``_formed`` reads them, and their ranks.

    Sample s is rank one when s is even or ``rank_one_only`` holds; otherwise
    its rank is drawn in 1..n just before its factor, as ``rng.integers(1,
    n + 1)`` draws it.  That call reads one 32-bit half u: the low half of a
    new 64-bit word, whose high half PCG64 keeps for the next call, or that
    kept half.  The rank is Lemire's ``(u n >> 32) + 1``, read again while
    ``(u n) mod 2**32 < (2**32 - n) mod n``; for n = 1 nothing is read.
    Normal fills read whole words and leave the kept half alone.  So the
    stream is read in order into one buffer, one raw word wherever a rank
    needs a new low half and one normal fill for the factors between two
    such words; a fill of a + b values equals a fill of a then one of b, so
    every value is the one ``sample_psd`` draws.  The stream is private to
    this function; a caller's generator (``sample_psd``) keeps
    ``rng.integers``, so that its kept half stays numpy's own.  The suite's
    streams are private too, and ``suite._Stream`` reads them the same way.
    """
    rng = np.random.default_rng([int(cfg.seed), _RANDOM_GRAM_STREAM, int(n)])
    parts, count = (2 if domain.kind == DISC else 1), cfg.samples_per_n
    step, ranks = parts * n, [1] * count
    flat = np.empty(step * (count + count // 2 * (n - 1)))  # room for rank n at every odd s
    raw, fill, threshold = rng.bit_generator.random_raw, rng.standard_normal, (2**32 - n) % n
    drawn = n > 1 and not cfg.rank_one_only
    end = size = step * (min(count, 1) if drawn else count)  # size: the values not yet filled
    kept = None  # the high half of the last raw word, until a rank takes it
    for s in range(1, count if drawn else 0, 2):
        while True:
            if kept is None:
                fill(out=flat[end - size:end])
                word, size = raw(), 0
                u, kept = word & 0xFFFFFFFF, word >> 32
            else:
                u, kept = kept, None
            if u * n & 0xFFFFFFFF >= threshold:
                break
        ranks[s] = rank = (u * n >> 32) + 1
        grow = step * (rank + (s + 1 < count))  # the factors of s and s + 1
        size, end = size + grow, end + grow
    fill(out=flat[end - size:end])
    return flat[:end], ranks


def _sample_params(ranks: list, start: int, j: int) -> dict:
    return {"sample_index": start + j, "rank": ranks[start + j]}


def _random_families(k: int) -> _Families:
    return _Families(itertools.repeat("random_gram", k), {"random_gram": k})


def _random_battery(domain: Domain, cfg: VerifyConfig):
    """Yield (stack, n, family per matrix, params), ``_stack_rows(n)`` samples a stack, each n's
    samples drawn at once by ``_random_draws``; nothing, and no stream, at 0 samples per n.

    Where two n's stacks fit one ``_section_hits`` batch (2 samples_per_n max_n^2 <= ``STACK_ENTRIES``)
    on a real domain, the n of each batch are formed at once: their factors scattered in stream order
    into one zero-padded (k, max_n, max_n) stack P, whose Grams P P^T are settled at once, each n's
    stack the [rows, :n, :n] view.  The padding adds exact zeros to each entry's sum, and float64
    matmul then gives each leading block the bits of ``_formed``'s per-rank products
    (``test_padded_real_gram_blocks_match_per_rank_products``); complex128 matmul does not, so the
    disc, like every larger budget, forms each n by ``_formed`` and settles each stack on its own.
    Each route is the faster at its own budget: one padded product per n took a real domain's default
    random stage about 7 ms, the per-rank products about 5 (median of 40 passes, 2-vCPU x86-64 VM)."""
    k, N = cfg.samples_per_n, cfg.max_n
    if k == 0:
        return
    per = STACK_ENTRIES // (k * N * N)  # the n whose stacks fill one batch
    if domain.kind == DISC or per < 2:
        for n in range(1, N + 1):
            flat, ranks = _random_draws(n, domain, cfg)
            grams, rows = _formed(flat, ranks, n, domain), _stack_rows(n)
            del flat  # the draws are not held while the stacks are judged (288 kB at n = 8 on the disc)
            for start in range(0, k, rows):
                W = _into_domain(grams[start:start + rows], domain)
                yield W, n, _random_families(len(W)), partial(_sample_params, ranks, start)
            del grams  # the next n's Grams are formed without this n's held (392 kB at n = 7 on the disc)
        return
    index = np.arange(N)
    for first in range(1, N + 1, per):
        ns = range(first, min(first + per, N + 1))
        draws = [_random_draws(n, domain, cfg) for n in ns]
        sizes, ranks = np.repeat(ns, k)[:, None, None], np.ravel([r for _, r in draws])[:, None, None]
        P = np.zeros((len(ns) * k, N, N))
        P[(index[:, None] < sizes) & (index < ranks)] = _real_factor(np.concatenate([f for f, _ in draws]), domain)
        M = _into_domain(P @ np.swapaxes(P, -1, -2), domain)
        for j, (n, (_, drawn)) in enumerate(zip(ns, draws)):
            yield M[j * k:(j + 1) * k, :n, :n], n, _random_families(k), partial(_sample_params, drawn, 0)


# -- deterministic parameter grids ----------------------------------------------


def _positive_grid(domain: Domain) -> list[float]:
    r0 = domain.reference_radius()
    vals = [f * r0 for f in (0.1, 0.25, 0.5, 0.75, 0.9)]
    if math.isinf(domain.rho):
        vals += [1.5, 3.0]
    return vals


def _all_ones_grid(domain: Domain) -> list[float]:
    return ([0.0] if domain.has_zero else []) + _positive_grid(domain)


def _pair_zs(w: float, domain: Domain) -> list[complex]:
    """Values z with |z| <= w whose witness entries stay inside the domain."""
    if domain.kind == DISC:
        return [0.0, 0.5 * w, -0.5 * w, w, 0.5j * w, 0.9 * w * complex(0.6, 0.8)]
    if domain.kind == OPEN_SYM:
        return [0.0, 0.5 * w, -0.5 * w, w, -w]
    if domain.kind == OPEN_POS:
        return [0.5 * w, w]
    return [0.0, 0.5 * w, w]


class _Section(NamedTuple):
    """A battery section, row i witness i: L[i] holds it grown as far as it went
    (zeros beyond, read-only), reach[i] that size, errors[i] what stopped it.
    runs[r] is run r's (size, rows) in battery order, and plans[n] the
    lru_cache of ``_plan_of`` at n, which keeps its key's ``_Plan``."""
    L: np.ndarray
    families: tuple
    params: tuple
    reach: tuple
    errors: tuple
    runs: tuple
    plans: tuple


class _Families(list):
    """One stack's family per matrix, with ``counts``, their tally (a battery stack's kept in its plan)."""

    def __init__(self, families, counts=None):
        super().__init__(families)
        self.counts = Counter(self) if counts is None else counts


class _Plan(NamedTuple):
    """How a section fires one order at one n.  Row p of index is the order's
    p-th matrix: its section row, then (for an order with coords) where each of
    its n indices comes from.  Stack s is index[cuts[s]:cuts[s + 1]], of
    families[s]; error, if any, is raised after the last stack."""
    index: np.ndarray
    cuts: tuple
    families: tuple
    error: Exception | None


def _runs(domain: Domain, max_n: int, name: str) -> list:
    """The runs (family, size, [(params, constructor)]) of one battery section, in battery order."""
    r0 = domain.reference_radius()
    if name == "all_ones":
        return [("all_ones", max_n, [({"x": x}, partial(all_ones_witness, x, max_n, domain))
                                     for x in _all_ones_grid(domain)])]
    runs = []
    if name == "anchored" and max_n < 3:  # its witnesses are 3 x 3, so it has no run below n = 3
        return runs
    if name == "anchored":
        w_grid = [f * r0 for f in (0.3, 0.6, 0.9)]
        t_top = 0.95 * r0
        for w in w_grid:
            runs.append(("duplicated_pair_gram", max_n, [({"w": w, "z": z},
                                                          partial(duplicated_pair_gram, w, z, domain))
                                                         for z in _pair_zs(w, domain)]))
            runs.append(("tail_gram", max_n, [({"w": w, "t": t}, partial(tail_gram, w, t, domain))
                                              for t in sorted({w, (w + t_top) / 2.0, t_top})]))
        runs.append(("overlap_probe", max_n, [({"r": r, "z": z}, partial(overlap_probe, r, z, domain))
                                              for r in w_grid for z in _pair_zs(r, domain)]))
        return runs
    for base_n in [b for b in (2, 3) if 2 * b <= max_n]:  # the blowups, each run at its own size
        seeds = [all_ones_witness(0.5 * r0, base_n, domain).matrix]
        if base_n == 3:
            seeds.append(duplicated_pair_gram(0.6 * r0, 0.3 * r0, domain).matrix)
        for m in range(2, min(4, max_n // base_n) + 1):
            runs.append(("tensor_blowup", m * base_n, [({"m": m, "base_n": base_n, "seed_index": idx},
                                                        partial(tensor_blowup, m, A0))
                                                       for idx, A0 in enumerate(seeds)]))
    return runs


@lru_cache(maxsize=3 * BATTERY_CACHE_SIZE)
def _section(domain: Domain, max_n: int, name: str) -> _Section:
    """The battery section name ("all_ones", "anchored" or "blowups") on (domain, max_n).

    Each witness of each run is built and grown to the run's size.  One that
    cannot be built reaches 0 and ends its run; one whose growth fails keeps
    the size it reached.  Either keeps its error for ``_stacks`` to raise where
    the battery first needs the row.  Each run's (size, rows) is recorded as it
    grows, and the plans are kept in the section, so they go when it does.
    """
    runs = []  # (size, rows) per run
    grown = []  # (family, params, the witness as far as it grew, the error that stopped it or None)
    for family, size, items in _runs(domain, max_n, name):
        start = len(grown)
        for params, make in items:
            M = error = None
            try:
                M = make().matrix
                M = pad_embed(M, size, domain) if domain.has_zero else M
                while len(M) < size:
                    M, _ = corner_extend_auto(M, domain)
            except Exception as exc:  # raised where the battery first needs the row
                error = exc
            grown.append((family, params, np.zeros((0, 0)) if M is None else M, error))
            if M is None:
                break
        runs.append((size, range(start, len(grown))))
    families, params, mats, errors = zip(*grown) if grown else [()] * 4
    width = max((size for size, _ in runs), default=0)
    L = np.zeros((len(mats), width, width), dtype=np.complex128)
    for out, M in zip(L, mats):
        out[:len(M), :len(M)] = M
    L.setflags(write=False)
    reach, runs = tuple(map(len, mats)), tuple(runs)
    plans = tuple(lru_cache(maxsize=BATTERY_CACHE_SIZE)(partial(_plan_of, families, reach, errors, runs, n))
                  for n in range(max_n + 1))
    return _Section(L, families, params, reach, errors, runs, plans)


def _plan_of(families: tuple, reach: tuple, errors: tuple, runs: tuple, n: int, key) -> _Plan:
    """The plan of key at n, built by walking its order a row at a time.

    key is a run's rows, fired in order on their leading n x n blocks, or
    T_n's anchors, each (i, j, l) of which places every row of its span (the
    pair runs for pairs, the overlap run for overlaps) with its leading block on
    (i, j, l) and the rest of its growth, in order, on the other indices.  The
    rows come in stacks of 8, 16, 32, ... up to ``_stack_rows(n)``, and stop at
    the first that does not reach n, whose error the plan keeps."""
    if isinstance(key, range):
        order = zip(key, itertools.repeat(()))
    else:
        overlaps = runs[-1][1]  # the overlap run comes last, after the pair runs
        spans = (range(overlaps.start), overlaps)
        order = ((row, at) for span, ats in zip(spans, key) for at in ats for row in span)
    index, places, error = [], {}, None
    for row, at in order:
        if reach[row] < n:
            error = errors[row]
            break
        if at and at not in places:  # at's indices first, then the others in order: W's index q is L's places[at][q]
            places[at] = tuple(np.argsort([*at, *(q for q in range(n) if q not in at)]).tolist())
        index.append((row, *places.get(at, ())))
    cuts, size = [0], 8
    while cuts[-1] < len(index):
        cuts.append(min(cuts[-1] + size, len(index)))
        size = min(2 * size, _stack_rows(n))
    # a section has at most 45 rows and n is at most EIG_DIM_CAP (64), so every entry fits a byte
    index = np.array(index, dtype=np.uint8).reshape(len(index), -1 if index else 1)
    stacks = [_Families(families[row] for row in index[a:b, 0].tolist()) for a, b in zip(cuts, cuts[1:])]
    return _Plan(index, tuple(cuts), tuple(stacks), error)


def _stack_params(params: tuple, index: np.ndarray, extra: dict, start: int, j: int) -> dict:
    """The params of plan row start + j: its witness's, extra's, and its coords if it has them."""
    p = start + j
    coords = {"coords": tuple(index[p, 1:].argsort()[:3].tolist())} if index.shape[1] > 1 else {}
    return {**params[index[p, 0]], **extra, **coords}


def _stacks(section: _Section, n: int, key, extra: dict):
    """Yield the stacks of key's plan at n (see ``_plan_of``), each one gather
    when it is needed; extra joins every row's params.  After the last stack
    the error of the row that ended the order, if one did, is raised."""
    index, cuts, stacks, error = section.plans[n](key)
    for a, b, families in zip(cuts, cuts[1:], stacks):
        if isinstance(key, range):  # contiguous rows: one slice
            W = section.L[key.start + a:key.start + b, :n, :n].copy()
        else:
            at = index[a:b]
            P = at[:, 1:]
            W = section.L[at[:, :1, None], P[:, :, None], P[:, None, :]]
        yield W, n, families, partial(_stack_params, section.params, index, extra, a)
    if error is not None:
        raise error.with_traceback(None)  # the plan is kept: raise it without its last traceback


def _battery_sections(domain: Domain, patterns: dict[int, BlockPattern], max_n: int) -> tuple:
    """The battery's sections (all ones, anchored, blowups) in refutation priority order, each
    an iterator of its stacks (stack (k, n, n), n, family per matrix, params), params(j) building
    matrix j's params, that builds its section when its first stack is needed.  Growth keeps every
    smaller growth as its leading block, so one row serves every (n, coords)."""
    def ones():
        section = _section(domain, max_n, "all_ones")
        for n in range(1, max_n + 1):
            for _, rows in section.runs:
                yield from _stacks(section, n, rows, {"n": n})

    def anchored():
        section = None
        for n in range(3, max_n + 1):
            anchors = patterns[n].anchors
            if any(anchors):
                if section is None:
                    section = _section(domain, max_n, "anchored")
                yield from _stacks(section, n, anchors, {})

    def blowups():
        section = _section(domain, max_n, "blowups")
        for size, rows in section.runs:
            yield from _stacks(section, size, rows, {})

    return ones(), anchored(), blowups()


def _raw_image(g: PreserverFunction, f: PreserverFunction, mask: np.ndarray, W: np.ndarray) -> np.ndarray:
    """The image of the stack W, g where the mask holds and f elsewhere, unsettled and in W's dtype."""
    return np.where(mask, g._stack_values(W), f._stack_values(W))


def _complex_form(W: np.ndarray) -> np.ndarray:
    """The stack W as it is judged: a float64 one's ``exact_hermitian``, a complex one itself."""
    return exact_hermitian(W) if W.dtype.kind == "f" else W


def _first_failure(g: PreserverFunction, f: PreserverFunction, mask: np.ndarray, W: np.ndarray,
                   tol: float, screened: bool = False, H: np.ndarray | None = None,
                   real: bool = False) -> tuple[int, float] | None:
    """Index and min eigenvalue of the first matrix of the stack W whose image (g where the mask
    holds, f elsewhere) fails the PSD test, or None; each matrix is judged bit for bit as alone.

    A screened stack passes when ``linalg._cleared`` clears its image, H if given.  With real (a
    real domain, g and f exact built-ins, whose float64 image settles to the complex one's entries,
    signs of zero aside) it is screened on ``_raw_image`` of W's real part, and evaluated again on
    its complex form (``_complex_form``) where the screen does not clear it; any other stack is
    evaluated once, on its complex form.  A stack not cleared is settled and decided by
    ``eig_extremes`` on that complex image; ``eigvalsh`` reads its signs of zero.  If a stack
    raises, its matrices are checked again one at a time, so an error surfaces at its own matrix
    and only when no earlier matrix refutes.
    """
    screened = screened and tol >= _screen_floor(W.shape[-1])
    real = screened and real  # an unscreened stack is evaluated once, on its complex form
    try:
        if H is None:
            H = _raw_image(g, f, mask, W.real if real else _complex_form(W))
        if screened and _cleared(H, tol):
            return None
        if real:
            H = _raw_image(g, f, mask, _complex_form(W))
        lo, hi = eig_extremes(_settle_hermitian(H))
    except Exception:  # g and f may raise anything; the rerun raises it in battery order
        if len(W) == 1:
            raise
        for j in range(len(W)):
            hit = _first_failure(g, f, mask, W[j:j + 1], tol, screened, real=real)
            if hit is not None:
                return j, hit[1]
        return None
    holds = psd_holds(lo, hi, tol)
    if holds.all():
        return None
    j = int(np.flatnonzero(~holds)[0])
    return j, float(lo[j])


def _padded(images, size: int, rows: int, dtype) -> np.ndarray:
    """The stacks of images, each (k, n, n) with n <= size, as one (rows, size, size) stack of dtype:
    each matrix in the leading n x n block of its slot, whose rest is zero.  Each image is written
    into its slot as it is drawn, so an iterator of them holds one at a time."""
    P = np.zeros((rows, size, size), dtype=dtype)
    at = 0
    for H in images:
        P[at:at + len(H), :H.shape[-1], :H.shape[-1]] = H
        at += len(H)
    return P


def _section_hits(g: PreserverFunction, f: PreserverFunction, patterns: dict, stacks, tol: float, max_n: int,
                  probe: bool = True, real: bool = False):
    """Yield each stack of one section with its ``_first_failure``, None where it passes.

    In a section with a probe, each 1 x 1 stack before its first stack at an n >= 2, the probe,
    is screened alone, and the probe is solved unscreened.  Every other stack joins a batch of at
    most ``STACK_ENTRIES`` entries padded to max_n x max_n, judged when the next stack does not
    fit, or when full, before the next stack is drawn.  One ``_cleared`` call may clear a batch of
    several stacks, its images written into the padded batch one stack at a time; any other batch
    goes to ``_first_failure`` stack by stack, each image a view of the padded batch.  Each image is
    the one ``_first_failure`` would screen: with real, of the stack's real part in a float64 batch;
    otherwise of its complex form in a complex128 batch, which is then the image judged.  Below
    ``_screen_floor(max_n)`` each batch is one stack.  An error that ends the section is raised
    once the stacks before it are judged.
    """
    def judged(batch):
        P = None
        if len(batch) > 1:
            images = (_raw_image(g, f, patterns[n].mask, W.real if real else _complex_form(W))
                      for W, n, _, _ in batch)
            try:
                P = _padded(images, max_n, sum(len(W) for W, *_ in batch), np.float64 if real else np.complex128)
            except Exception:  # g and f may raise anything; each stack's own judge raises it in battery order
                pass
        if P is not None and _cleared(P, tol):
            yield from zip(batch, itertools.repeat(None))
            return
        at = 0
        for stack in batch:
            W, n = stack[0], stack[1]
            H = None if P is None else P[at:at + len(W), :n, :n]
            at += len(W)
            yield stack, _first_failure(g, f, patterns[n].mask, W, tol, True, H, real)

    cap = STACK_ENTRIES if tol >= _screen_floor(max_n) else 0
    batch, entries = [], 0
    stacks = iter(stacks)
    while True:
        try:
            stack = next(stacks)
        except StopIteration:
            break
        except Exception:  # a witness that did not grow to this n: the stacks before it come first
            yield from judged(batch)
            raise
        W, n = stack[0], stack[1]
        if probe:  # a 1 x 1 stack before the probe is screened alone, and the probe is solved unscreened
            probe = n == 1
            yield stack, _first_failure(g, f, patterns[n].mask, W, tol, screened=probe, real=real)
            continue
        size = len(W) * max_n ** 2
        if entries + size > cap:
            yield from judged(batch)
            batch, entries = [], 0
        batch.append(stack)
        entries += size
        if entries >= cap:  # no stack fits a full batch, so it is judged before the next stack is drawn
            yield from judged(batch)
            batch, entries = [], 0
    yield from judged(batch)


def verify_preservation(g: PreserverFunction, f: PreserverFunction, rule: PatternRule,
                        domain: Domain, cfg: VerifyConfig | None = None) -> Verdict:
    """Decide, within budget, whether (g, f) preserves PSD under the rule.

    Deterministic battery first, then ``samples_per_n`` seeded random PSD
    samples per dimension (rank-one weighted 50%).  The first failing output
    is reported; otherwise the verdict is PreservedWithinBudget.

    Each of g and f that is not an exact built-in (a Custom, a subclass of a
    built-in, or a ScalarMultiple of either) must first pass
    ``conjugate_equivariance_check`` on the domain's probe points, or
    NonHermitianOutputError is raised; an exact built-in passes it by
    construction (``functions._equivariant_by_construction``).
    """
    cfg = cfg or VerifyConfig()
    built_in = [_equivariant_by_construction(fn) for fn in (g, f)]
    for fn, tag, exact in zip((g, f), "gf", built_in):
        if not exact and not conjugate_equivariance_check(fn, domain.probe_points()):
            raise NonHermitianOutputError(
                f"{tag} fails conjugate equivariance on the domain probe set; "
                "its entrywise images cannot stay Hermitian"
            )
    regime = validate_rule(rule)
    if regime in (R3A_PARTITION_ALL, R3B_SUBPARTITION_OTHER, R4_OVERLAPPING) and cfg.max_n < 3:
        raise ValueError("max_n must be >= 3 for rules with blocks of size >= 2")
    patterns = {n: rule.pattern(n) for n in range(1, cfg.max_n + 1)}
    stats: dict = {
        "families": {},
        "checked": 0,
        "truncated_at_n": cfg.max_n,
        "samples_per_n": cfg.samples_per_n,
        "seed": cfg.seed,
    }

    randoms = _random_battery(domain, cfg)  # the last section, with no probe
    real = domain.kind != DISC and all(built_in)
    hits = itertools.chain.from_iterable(
        _section_hits(g, f, patterns, stacks, cfg.tol, cfg.max_n, probe=stacks is not randoms, real=real)
        for stacks in (*_battery_sections(domain, patterns, cfg.max_n), randoms))
    # each stack's matrix j has provenance families[j], params(j), built only for the refuting j
    for (W, n, families, params), hit in hits:
        checked = len(W) if hit is None else hit[0] + 1
        counts = families.counts if hit is None else Counter(families[:checked])
        for family, count in counts.items():
            fam = stats["families"].setdefault(family, {})
            fam[str(n)] = fam.get(str(n), 0) + count
        stats["checked"] += checked
        if hit is not None:
            j, min_eig = hit
            A = _complex_form(W[j])  # a real sample as it was judged
            # witnesses are PSD by construction and never eigen-checked; a refuting input is, once
            if not is_psd(A, WITNESS_PSD_TOL).is_psd:
                raise ArithmeticError(f"battery produced a non-PSD input in family {families[j]}")
            ce = CounterExample(family=families[j], params=params(j), n=n, matrix=A, min_eig=min_eig)
            return Verdict(OUTCOME_REFUTED, ce, stats)
    return Verdict(OUTCOME_PRESERVED, None, stats)


def _as_fraction(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    return Fraction(float(c))


def refute_scalar_outside_interval(rule: PatternRule, K, c, domain: Domain,
                                   x: float | None = None) -> Verdict:
    """Refute f(z) = c z for a partition-of-all rule when c leaves [-1/(K-1), 1].

    K must be an integer >= 2 (ValueError otherwise, never truncated) and the
    rule's declared max block count; a K above ``EIG_DIM_CAP`` is an
    EigFailure, raised before the rule is validated or T_K built.

    Uses the scaled all-ones witness x J (x > 0; ValueError otherwise) at
    n = K: an R3a rule is the split (K, 0), whose T_K is K singletons.  The
    reported eigenvalue is the negative one of the K x K image, i.e.
    (1 + (K-1)c) x or (1 - c) x.
    """
    K = _within_cap(_integer(K, "K", 2))  # checked first: the K x K eigen-solve below would refuse it
    regime = validate_rule(rule)
    if regime != R3A_PARTITION_ALL:
        raise RegimeMismatchError(f"rule is in regime {regime}, not a partition-of-all sequence")
    if int(rule.flags.max_block_count) != K:  # R3a holds only for a finite declared count
        raise RegimeMismatchError(
            f"K={K} differs from the rule's declared max block count {rule.flags.max_block_count}"
        )
    c_frac = _as_fraction(c)
    lo, hi = admissible_family(R3A_PARTITION_ALL, K).c_interval
    if lo <= c_frac <= hi:
        raise CNotOutsideError(f"c={c_frac} lies inside [{lo}, {hi}]")
    if x is None:
        x = 0.5 * domain.reference_radius()
    elif not x > 0:
        raise ValueError(f"x={x} must be > 0")
    A = all_ones_witness(x, K, domain).matrix
    min_eig, _ = eig_extremes(_image(rule.pattern(K).mask, A, scaled_identity(float(c_frac)).evaluate_array(A)))
    ce = CounterExample(
        family="all_ones",
        params={"x": x, "n": K, "c": str(c_frac), "representative_indices": list(range(K))},
        n=K,
        matrix=A,
        min_eig=min_eig,
    )
    stats = {"families": {"all_ones": {str(K): 1}}, "checked": 1, "K": K}
    return Verdict(OUTCOME_REFUTED, ce, stats)


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, no whitespace, NaN/Inf rejected."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)
