"""Forbidden-block patterns and pattern-sequence rules.

A ``BlockPattern`` is a normalized family of pairwise-incomparable subsets of
range(n): the positions where the diagonal-block function g acts instead of
the everywhere function f.  A ``PatternRule`` generates one pattern per
dimension together with declared global flags; the flags carry the properties
of the whole sequence that no finite probe can decide (max block count,
"partition of range(n) for every n", ...), and are validated against the
materialized patterns wherever possible.

Indices are 0-based in Python; the JSON wire format is 1-based.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import (
    BlockOutOfRangeError,
    FlagMismatchError,
    RejectedFullBlockError,
)

# Pattern kinds (single pattern).
EMPTY = "Empty"
SINGLETONS_ONLY = "SingletonsOnly"
SUBPARTITION_WITH_BIG_BLOCK = "SubpartitionWithBigBlock"
PARTITION_OF_ALL = "PartitionOfAll"
OVERLAPPING = "Overlapping"

# Sequence regimes (whole rule).
R1_EMPTY = "R1-Empty"
R2_SINGLETONS = "R2-Singletons"
R3A_PARTITION_ALL = "R3a-PartitionAll-FiniteK"
R3B_SUBPARTITION_OTHER = "R3b-Subpartition-Other"
R4_OVERLAPPING = "R4-Overlapping"

DEFAULT_PROBE_N = 12


@dataclass(frozen=True)
class BlockPattern:
    """Normalized block pattern on range(n); build with ``normalize``."""

    n: int
    blocks: tuple[frozenset[int], ...]

    def covered(self) -> frozenset[int]:
        out: set[int] = set()
        for b in self.blocks:
            out |= b
        return frozenset(out)

    def max_block_size(self) -> int:
        return max((len(b) for b in self.blocks), default=0)

    def is_full_block(self) -> bool:
        return len(self.blocks) == 1 and self.blocks[0] == frozenset(range(self.n))

    def is_partition_of_all(self) -> bool:
        total = sum(len(b) for b in self.blocks)
        return total == self.n and self.covered() == frozenset(range(self.n))

    def has_overlap(self) -> bool:
        # an index held by two blocks counts twice in their sizes but once in their union
        return sum(len(b) for b in self.blocks) > len(self.covered())

    @cached_property
    def mask(self) -> np.ndarray:
        """Read-only boolean grid: True where some block contains both indices
        (g-territory).  Built on first use and kept as long as the pattern, so
        as long as the rule that built it (``PatternRule.pattern``)."""
        member = np.zeros((len(self.blocks), self.n), dtype=bool)  # member[j, i]: block j holds i
        for row, b in zip(member, self.blocks):
            row[list(b)] = True
        mask = member.T @ member
        mask.flags.writeable = False
        return mask


def normalize(blocks, n: int) -> BlockPattern:
    """Drop empty sets, drop subsets contained in another block, order canonically."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    sets = set()
    for b in blocks:
        fs = frozenset(int(i) for i in b)
        if any(i < 0 or i >= n for i in fs):
            raise BlockOutOfRangeError(f"block {sorted(fs)} not inside range({n})")
        if fs:
            sets.add(fs)
    # a block lies inside another only if that one holds each of its elements,
    # so only the blocks holding its least-held element need a check
    holding: dict[int, list[frozenset[int]]] = {}
    for v in sets:
        for i in v:
            holding.setdefault(i, []).append(v)
    kept = [u for u in sets if not any(u < v for v in min((holding[i] for i in u), key=len))]
    kept.sort(key=lambda u: (min(u), len(u), sorted(u)))
    return BlockPattern(n=n, blocks=tuple(kept))


@dataclass(frozen=True)
class PatternClass:
    kind: str
    block_count: int
    covers_all: bool
    max_block_size: int


def classify_pattern(pattern: BlockPattern) -> PatternClass:
    """Assign exactly one kind to a normalized pattern.

    Precedence: Empty, SingletonsOnly, Overlapping, PartitionOfAll,
    SubpartitionWithBigBlock (disjoint blocks, at least one of size >= 2,
    union possibly proper).
    """
    covers = pattern.covered() == frozenset(range(pattern.n))
    count = len(pattern.blocks)
    size = pattern.max_block_size()
    if count == 0:
        kind = EMPTY
    elif size == 1:
        kind = SINGLETONS_ONLY
    elif pattern.has_overlap():
        kind = OVERLAPPING
    elif covers:
        kind = PARTITION_OF_ALL
    else:
        kind = SUBPARTITION_WITH_BIG_BLOCK
    return PatternClass(kind=kind, block_count=count, covers_all=covers, max_block_size=size)


# -- rule sequences -----------------------------------------------------------


@dataclass(frozen=True)
class RuleFlags:
    """Declared global properties of a pattern sequence.

    ``max_block_count`` is max over n of the number of blocks in T_n
    (``math.inf`` when unbounded).  ``has_block_ge2_at``/``overlap_at`` name a
    dimension witnessing a size->=2 block / an overlapping pair, so the
    classifier does not depend on the probe depth reaching them.
    """

    eventually_nonempty: bool
    all_singletons: bool
    covers_all_n: bool
    max_block_count: int | float
    has_block_ge2_at: int | None = None
    overlap_at: int | None = None


@dataclass(frozen=True)
class PatternRule:
    name: str
    generator: Callable[[int], BlockPattern]
    flags: RuleFlags
    _patterns: dict[int, BlockPattern] = field(default_factory=dict, init=False, repr=False, compare=False)

    def pattern(self, n: int) -> BlockPattern:
        """T_n, built on first use and kept, with its mask, as long as the rule.
        A full block at n >= 2 raises on every call and is never kept."""
        if n not in self._patterns:
            p = self.generator(n)
            if n >= 2 and p.is_full_block():
                raise RejectedFullBlockError(f"rule {self.name!r} materializes the full block at n={n}")
            self._patterns[n] = p
        return self._patterns[n]


def _contiguous_split(count: int, parts: int) -> list[list[int]]:
    """Split range(count) into ``parts`` contiguous runs with balanced sizes."""
    parts = min(parts, count)
    if parts <= 0:
        return []
    base, extra = divmod(count, parts)
    runs, start = [], 0
    for i in range(parts):
        size = base + (1 if i < extra else 0)
        runs.append(list(range(start, start + size)))
        start += size
    return runs


def empty_rule() -> PatternRule:
    return PatternRule(
        name="empty",
        generator=lambda n: normalize([], n),
        flags=RuleFlags(
            eventually_nonempty=False,
            all_singletons=True,
            covers_all_n=False,
            max_block_count=0,
        ),
    )


def all_singletons_rule() -> PatternRule:
    return PatternRule(
        name="all_singletons",
        generator=lambda n: normalize([{j} for j in range(n)], n),
        flags=RuleFlags(
            eventually_nonempty=True,
            all_singletons=True,
            covers_all_n=True,
            max_block_count=math.inf,
        ),
    )


def single_block_rule(block) -> PatternRule:
    """T_n = { block } wherever block fits in range(n) without being all of it."""
    blk = frozenset(int(i) for i in block)
    if not blk or any(i < 0 for i in blk):
        raise ValueError("block must be a nonempty set of indices >= 0")

    def gen(n: int) -> BlockPattern:
        if blk <= frozenset(range(n)) and not (n >= 2 and blk == frozenset(range(n))):
            return normalize([blk], n)
        return normalize([], n)

    first_n = max(blk) + 1
    if blk == frozenset(range(first_n)) and first_n >= 2:
        first_n += 1
    return PatternRule(
        name="single_block",
        generator=gen,
        flags=RuleFlags(
            eventually_nonempty=True,
            all_singletons=len(blk) == 1,
            covers_all_n=False,
            max_block_count=1,
            has_block_ge2_at=first_n if len(blk) >= 2 else None,
        ),
    )


def contiguous_partition_rule(k: int) -> PatternRule:
    """Partition of range(n) into min(n, k) contiguous blocks, for every n."""
    if k < 2:
        raise ValueError("k must be >= 2 (k = 1 would be the rejected full block)")
    return PatternRule(
        name="contiguous_partition",
        generator=lambda n: normalize(_contiguous_split(n, k), n),
        flags=RuleFlags(
            eventually_nonempty=True,
            all_singletons=False,
            covers_all_n=True,
            max_block_count=k,
            has_block_ge2_at=k + 1,
        ),
    )


def proper_subpartition_rule(k: int) -> PatternRule:
    """Partition of range(n-1) into min(n-1, k) contiguous blocks; index n-1 stays free."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return PatternRule(
        name="proper_subpartition",
        generator=lambda n: normalize(_contiguous_split(n - 1, k), n),
        flags=RuleFlags(
            eventually_nonempty=True,
            all_singletons=False,
            covers_all_n=False,
            max_block_count=k,
            has_block_ge2_at=k + 2,
        ),
    )


def overlapping_chain_rule() -> PatternRule:
    """T_n = {{0,1},{1,2}} for n >= 3 (two blocks sharing index 1), empty below."""
    return PatternRule(
        name="overlapping_chain",
        generator=lambda n: normalize([{0, 1}, {1, 2}] if n >= 3 else [], n),
        flags=RuleFlags(
            eventually_nonempty=True,
            all_singletons=False,
            covers_all_n=False,
            max_block_count=2,
            has_block_ge2_at=3,
            overlap_at=3,
        ),
    )


def explicit_rule(patterns: dict[int, BlockPattern], flags: RuleFlags, name: str = "explicit") -> PatternRule:
    """Rule from explicitly listed patterns.

    Each listed pattern is normalized once, on range of its own n, when the
    rule is built.  For an unlisted dimension the pattern of the largest
    listed n' <= n is reused with n in place of n' (its blocks still fit in
    range(n), and normalizing them on range(n) gives the same blocks in the
    same order); below the smallest listed n the pattern is empty.
    """
    if not patterns:
        raise ValueError("at least one pattern must be listed")
    listed = {m: normalize(p.blocks, m) for m, p in patterns.items()}

    def gen(n: int) -> BlockPattern:
        best = max((m for m in listed if m <= n), default=None)
        if best is None:
            return normalize([], n)
        return replace(listed[best], n=n)

    return PatternRule(
        name=name,
        generator=gen,
        flags=flags,
    )


def validate_rule(rule: PatternRule, probe_N: int = DEFAULT_PROBE_N) -> str:
    """Check declared flags against T_1..T_probe_N and the flags' witness
    dimensions; return the sequence regime.  The patterns it reads are the
    rule's own (``PatternRule.pattern``), so a later call builds none again.

    Regime precedence: overlap anywhere -> R4; else any block of size >= 2 ->
    R3a (partition of range(n) for all n with finite max block count) or R3b
    (proper subpartition somewhere, or unbounded block count); else nonempty
    -> R2; else R1.  Raises FlagMismatchError on any contradiction and
    RejectedFullBlockError if the rule materializes the full block at some
    n >= 2.
    """
    if probe_N < 3:
        raise ValueError("probe_N must be >= 3")
    flags = rule.flags
    probed_nonempty = False
    probed_big = False
    probed_overlap = False
    for n in range(1, probe_N + 1):
        p = rule.pattern(n)
        cls = classify_pattern(p)
        if n >= 2 and cls.block_count > 0:
            probed_nonempty = True
        if cls.max_block_size >= 2:
            probed_big = True
        if cls.kind == OVERLAPPING:
            probed_overlap = True
        if flags.all_singletons and cls.max_block_size >= 2:
            raise FlagMismatchError(f"all_singletons declared but T_{n} has a block of size >= 2")
        if not flags.eventually_nonempty and n >= 2 and cls.block_count > 0:
            raise FlagMismatchError(f"eventually_nonempty=False but T_{n} is nonempty")
        if flags.covers_all_n and not p.is_partition_of_all():
            raise FlagMismatchError(f"covers_all_n declared but T_{n} is not a partition of range({n})")
        if math.isfinite(flags.max_block_count) and cls.block_count > flags.max_block_count:
            raise FlagMismatchError(
                f"T_{n} has {cls.block_count} blocks, above the declared maximum {flags.max_block_count}"
            )
    if flags.has_block_ge2_at is not None and rule.pattern(flags.has_block_ge2_at).max_block_size() < 2:
        raise FlagMismatchError(
            f"has_block_ge2_at={flags.has_block_ge2_at} but that pattern has no block of size >= 2"
        )
    if flags.overlap_at is not None and not rule.pattern(flags.overlap_at).has_overlap():
        raise FlagMismatchError(f"overlap_at={flags.overlap_at} but that pattern has no overlap")
    declared_big = flags.has_block_ge2_at is not None or flags.overlap_at is not None
    if not flags.all_singletons and not probed_big and not declared_big:
        raise FlagMismatchError(
            "all_singletons=False requires a probed block of size >= 2 or a declared location"
        )
    if probed_overlap or flags.overlap_at is not None:
        return R4_OVERLAPPING
    if probed_big or flags.has_block_ge2_at is not None:
        # T_2 is a partition of range(2) with at most K blocks, and not the full block: so K >= 2
        if flags.covers_all_n and math.isfinite(flags.max_block_count):
            return R3A_PARTITION_ALL
        return R3B_SUBPARTITION_OTHER
    if probed_nonempty or flags.eventually_nonempty:
        return R2_SINGLETONS
    return R1_EMPTY


def classify_sequence(rule: PatternRule, probe_N: int = DEFAULT_PROBE_N) -> str:
    """The sequence regime ``validate_rule`` decides."""
    return validate_rule(rule, probe_N)


# -- JSON wire format ----------------------------------------------------------
#
# Pattern: {"n": int, "blocks": [[int, ...], ...]} with 1-based indices.
# Rule:    {"kind": str, "params": {...}, "flags": {...}} where flags use
#          "inf" for an unbounded max_block_count.


def _integer(value, what: str, least: int = 0) -> int:
    """value if it is an integer >= least; a bool, a float such as 2.7 or a
    string is a ValueError, not coerced."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{what} must be an integer >= {least}, got {value!r}")
    return int(value)


def _real(value, what: str) -> float:
    """value as a float if it is an integer or a float; a bool, a string or
    null is a ValueError, not coerced."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{what} must be a number, got {value!r}")
    return float(value)


def pattern_from_json(data: dict) -> BlockPattern:
    blocks = [[_integer(i, "block index", 1) - 1 for i in b] for b in data.get("blocks", [])]
    return normalize(blocks, _integer(data["n"], "n", 1))


def flags_from_json(data: dict) -> RuleFlags:
    """Read a flags object: the three booleans are true or false, and the
    counts integers or null; a member of another type is a ValueError."""
    for name in ("eventually_nonempty", "all_singletons", "covers_all_n"):
        if not isinstance(data[name], bool):
            raise ValueError(f"flag {name} must be true or false, got {data[name]!r}")
    K, big_at, overlap_at = data["max_block_count"], data.get("has_block_ge2_at"), data.get("overlap_at")
    return RuleFlags(
        eventually_nonempty=data["eventually_nonempty"],
        all_singletons=data["all_singletons"],
        covers_all_n=data["covers_all_n"],
        max_block_count=math.inf if K in ("inf", None) else _integer(K, "max_block_count"),
        has_block_ge2_at=None if big_at is None else _integer(big_at, "has_block_ge2_at", 1),
        overlap_at=None if overlap_at is None else _integer(overlap_at, "overlap_at", 1),
    )


_BUILTIN_RULES = {
    "empty": lambda params: empty_rule(),
    "all_singletons": lambda params: all_singletons_rule(),
    "single_block": lambda params: single_block_rule([_integer(i, "block index", 1) - 1
                                                      for i in params["block"]]),
    "contiguous_partition": lambda params: contiguous_partition_rule(_integer(params["k"], "k")),
    "proper_subpartition": lambda params: proper_subpartition_rule(_integer(params["k"], "k")),
    "overlapping_chain": lambda params: overlapping_chain_rule(),
}


def rule_from_json(data: dict) -> PatternRule:
    """Read a rule document.  A built-in kind's flags are its own: a document
    may restate them, and flags that say otherwise are a ValueError."""
    kind = data["kind"]
    params = data.get("params", {})
    if kind in _BUILTIN_RULES:
        rule = _BUILTIN_RULES[kind](params)
        if "flags" in data:
            try:
                ok = isinstance(data["flags"], dict) and flags_from_json(data["flags"]) == rule.flags
            except (KeyError, TypeError, ValueError):
                ok = False
            if not ok:
                raise ValueError(f"flags {data['flags']!r} contradict the {kind!r} rule's own flags {rule.flags}")
        return rule
    if kind == "explicit":
        pats = {}
        for entry in params["patterns"]:
            p = pattern_from_json(entry)
            if p.n in pats:  # a dict would keep the last pattern without a word
                raise ValueError(f"explicit rule lists two patterns at n={p.n}")
            pats[p.n] = p
        return explicit_rule(pats, flags_from_json(data["flags"]))
    raise ValueError(f"unknown rule kind {kind!r}")
