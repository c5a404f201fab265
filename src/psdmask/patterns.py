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
class PatternClass:
    kind: str
    block_count: int
    covers_all: bool
    max_block_size: int


@dataclass(frozen=True)
class BlockPattern:
    """Normalized block pattern on range(n); build with ``normalize``, which keeps
    every block inside range(n).  So n distinct indices of the blocks are all of
    range(n), and each fact of ``cls`` is read off block sizes, never off range(n)."""

    n: int
    blocks: tuple[frozenset[int], ...]

    def covered(self) -> frozenset[int]:
        out: set[int] = set()
        for b in self.blocks:
            out |= b
        return frozenset(out)

    @cached_property
    def cls(self) -> PatternClass:
        """The pattern's one kind, with the facts it is read off.  Built on first
        use and kept as long as the pattern, like ``mask``.

        Precedence: Empty, SingletonsOnly, Overlapping, PartitionOfAll,
        SubpartitionWithBigBlock (disjoint blocks, at least one of size >= 2,
        union possibly proper).
        """
        sizes = [len(b) for b in self.blocks]
        union = len(self.covered())
        size = max(sizes, default=0)
        if not sizes:
            kind = EMPTY
        elif size == 1:
            kind = SINGLETONS_ONLY
        elif sum(sizes) > union:  # an index held by two blocks counts twice in their sizes but once in their union
            kind = OVERLAPPING
        elif union == self.n:
            kind = PARTITION_OF_ALL
        else:
            kind = SUBPARTITION_WITH_BIG_BLOCK
        return PatternClass(kind=kind, block_count=len(sizes), covers_all=union == self.n, max_block_size=size)

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
    _listed: tuple[int, ...] = field(default=(), repr=False, compare=False)  # set by explicit_rule alone
    _patterns: dict[int, BlockPattern] = field(default_factory=dict, init=False, repr=False, compare=False)

    def pattern(self, n: int) -> BlockPattern:
        """T_n, built on first use and kept, with its class and mask, as long as the rule.
        A full block at n >= 2 raises on every call and is never kept."""
        if n not in self._patterns:
            p = self.generator(n)
            if p.cls.kind == PARTITION_OF_ALL and p.cls.block_count == 1:  # size >= 2, so n >= 2
                raise RejectedFullBlockError(f"rule {self.name!r} materializes the full block at n={n}")
            self._patterns[n] = p
        return self._patterns[n]


def _contiguous_split(count: int, parts: int | float) -> list[list[int]]:
    """Split range(count) into min(parts, count) contiguous runs with balanced sizes."""
    parts = min(parts, count)
    if parts <= 0:
        return []
    base, extra = divmod(count, parts)  # the first ``extra`` runs are one longer
    starts = [i * base + min(i, extra) for i in range(parts + 1)]
    return [list(range(a, b)) for a, b in zip(starts, starts[1:])]


def _split_rule(name: str, k: int | float, free: int) -> PatternRule:
    """T_n splits range(n - free) into at most k contiguous runs; the last
    ``free`` indices lie in no block.  Each flag follows from (k, free): a run
    of size >= 2 first appears at n = k + free + 1, never when k is infinite."""
    return PatternRule(
        name=name,
        generator=lambda n: normalize(_contiguous_split(n - free, k), n),
        flags=RuleFlags(
            eventually_nonempty=True,
            all_singletons=k == math.inf,
            covers_all_n=free == 0,
            max_block_count=k,
            has_block_ge2_at=None if k == math.inf else k + free + 1,
        ),
    )


def _listing(name: str, n: int, blocks) -> PatternRule:
    """The explicit rule listing one pattern at n, its flags read off that
    pattern's class; past n its blocks never cover range(n)."""
    pattern = normalize(blocks, n)
    cls = pattern.cls
    big = cls.max_block_size >= 2
    return explicit_rule(
        {n: pattern},
        RuleFlags(
            eventually_nonempty=cls.block_count > 0,
            all_singletons=not big,
            covers_all_n=False,
            max_block_count=cls.block_count,
            has_block_ge2_at=n if big else None,
            overlap_at=n if cls.kind == OVERLAPPING else None,
        ),
        name=name,
    )


def empty_rule() -> PatternRule:
    return _listing("empty", 1, [])


def all_singletons_rule() -> PatternRule:
    return _split_rule("all_singletons", math.inf, 0)


def single_block_rule(block) -> PatternRule:
    """T_n = { block } wherever block fits in range(n) without being all of it."""
    blk = frozenset(int(i) for i in block)
    if not blk or any(i < 0 for i in blk):
        raise ValueError("block must be a nonempty set of indices >= 0")
    top = max(blk)
    first_n = top + 2 if len(blk) == top + 1 >= 2 else top + 1  # past range(top + 1) when blk is all of it
    return _listing("single_block", first_n, [blk])


def contiguous_partition_rule(k: int) -> PatternRule:
    """Partition of range(n) into min(n, k) contiguous blocks, for every n."""
    if k < 2:
        raise ValueError("k must be >= 2 (k = 1 would be the rejected full block)")
    return _split_rule("contiguous_partition", k, 0)


def proper_subpartition_rule(k: int) -> PatternRule:
    """Partition of range(n-1) into min(n-1, k) contiguous blocks; index n-1 stays free."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return _split_rule("proper_subpartition", k, 1)


def overlapping_chain_rule() -> PatternRule:
    """T_n = {{0,1},{1,2}} for n >= 3 (two blocks sharing index 1), empty below."""
    return _listing("overlapping_chain", 3, [{0, 1}, {1, 2}])


def explicit_rule(patterns: dict[int, BlockPattern], flags: RuleFlags, name: str = "explicit") -> PatternRule:
    """Rule from explicitly listed patterns.

    Each listed pattern is normalized once, on range of its own n, when the
    rule is built.  For an unlisted dimension the pattern of the largest
    listed n' <= n is reused with n in place of n' (its blocks still fit in
    range(n), and normalizing them on range(n) gives the same blocks in the
    same order); below the smallest listed n the pattern is empty.  The rule
    keeps its listed n's: ``validate_rule`` reads each and the n after it.
    """
    if not patterns:
        raise ValueError("at least one pattern must be listed")
    listed = {m: normalize(p.blocks, m) for m, p in patterns.items()}

    def gen(n: int) -> BlockPattern:
        best = max((m for m in listed if m <= n), default=None)
        if best is None:
            return normalize([], n)
        return replace(listed[best], n=n)

    return PatternRule(name=name, generator=gen, flags=flags, _listed=tuple(listed))


def validate_rule(rule: PatternRule, probe_N: int = DEFAULT_PROBE_N) -> str:
    """Check declared flags against T_n at each n of 1..probe_N, at the flags'
    witness dimensions, and at each listed n of an explicit rule and the n
    after it, past which its T_n keeps its blocks: so an explicit rule is
    decided whatever probe_N is, and is never R3a.  Return the regime, read
    off the rule's own kept classes (``PatternRule.pattern``), never rebuilt.

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
    dims = {*range(1, probe_N + 1), *rule._listed, *(m + 1 for m in rule._listed)}
    dims.update(n for n in (flags.has_block_ge2_at, flags.overlap_at) if n is not None)
    classes = {}
    for n in sorted(dims):
        cls = classes[n] = rule.pattern(n).cls
        if flags.all_singletons and cls.max_block_size >= 2:
            raise FlagMismatchError(f"all_singletons declared but T_{n} has a block of size >= 2")
        if not flags.eventually_nonempty and n >= 2 and cls.block_count > 0:
            raise FlagMismatchError(f"eventually_nonempty=False but T_{n} is nonempty")
        if flags.covers_all_n and not (cls.covers_all and cls.kind != OVERLAPPING):
            raise FlagMismatchError(f"covers_all_n declared but T_{n} is not a partition of range({n})")
        if cls.block_count > flags.max_block_count:
            raise FlagMismatchError(
                f"T_{n} has {cls.block_count} blocks, above the declared maximum {flags.max_block_count}"
            )
    if flags.has_block_ge2_at is not None and classes[flags.has_block_ge2_at].max_block_size < 2:
        raise FlagMismatchError(
            f"has_block_ge2_at={flags.has_block_ge2_at} but that pattern has no block of size >= 2"
        )
    if flags.overlap_at is not None and classes[flags.overlap_at].kind != OVERLAPPING:
        raise FlagMismatchError(f"overlap_at={flags.overlap_at} but that pattern has no overlap")
    big = any(c.max_block_size >= 2 for c in classes.values())
    if not (flags.all_singletons or big):
        raise FlagMismatchError(
            "all_singletons=False requires a probed block of size >= 2 or a declared location"
        )
    if any(c.kind == OVERLAPPING for c in classes.values()):
        return R4_OVERLAPPING
    if big:
        # T_2 is a partition of range(2) with at most K blocks, and not the full block: so K >= 2
        if flags.covers_all_n and math.isfinite(flags.max_block_count):
            return R3A_PARTITION_ALL
        return R3B_SUBPARTITION_OTHER
    # a nonempty T_n at n >= 2 without eventually_nonempty has raised above
    return R2_SINGLETONS if flags.eventually_nonempty else R1_EMPTY


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


def _members(data, what: str, required: tuple[str, ...], optional: tuple[str, ...] = ()) -> dict:
    """data if it is a JSON object holding every required member and no member
    besides them and the optional ones; otherwise a ValueError naming the
    member and the document, ``what``."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object, got {data!r}")
    for name in required:
        if name not in data:
            raise ValueError(f"{what} lacks the member {name!r}")
    for name in data:
        if name not in required and name not in optional:
            raise ValueError(f"{what} has an unknown member {name!r}")
    return data


def _block(value) -> list[int]:
    """A JSON block of 1-based indices as 0-based ones."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"a block must be a list of indices >= 1, got {value!r}")
    return [_integer(i, "block index", 1) - 1 for i in value]


def _listed_from_json(data: dict) -> BlockPattern:
    """A pattern document's n and 0-based blocks as listed, not yet normalized."""
    _members(data, "pattern", ("n",), ("blocks",))
    blocks = tuple(_block(b) for b in data.get("blocks", []))
    return BlockPattern(_integer(data["n"], "n", 1), blocks)


def flags_from_json(data: dict) -> RuleFlags:
    """Read a flags object: the three booleans are true or false, and the
    counts integers or null; a member of another type is a ValueError."""
    bools = ("eventually_nonempty", "all_singletons", "covers_all_n")
    _members(data, "flags", (*bools, "max_block_count"), ("has_block_ge2_at", "overlap_at"))
    for name in bools:
        if not isinstance(data[name], bool):
            raise ValueError(f"flag {name} must be true or false, got {data[name]!r}")
    K, big_at, overlap_at = data["max_block_count"], data.get("has_block_ge2_at"), data.get("overlap_at")
    return RuleFlags(
        **{name: data[name] for name in bools},
        max_block_count=math.inf if K in ("inf", None) else _integer(K, "max_block_count"),
        has_block_ge2_at=None if big_at is None else _integer(big_at, "has_block_ge2_at", 1),
        overlap_at=None if overlap_at is None else _integer(overlap_at, "overlap_at", 1),
    )


_BUILTIN_RULES = {  # kind: (the params it takes, its builder)
    "empty": ((), lambda params: empty_rule()),
    "all_singletons": ((), lambda params: all_singletons_rule()),
    "single_block": (("block",), lambda params: single_block_rule(_block(params["block"]))),
    "contiguous_partition": (("k",), lambda params: contiguous_partition_rule(_integer(params["k"], "k"))),
    "proper_subpartition": (("k",), lambda params: proper_subpartition_rule(_integer(params["k"], "k"))),
    "overlapping_chain": ((), lambda params: overlapping_chain_rule()),
}


def rule_from_json(data: dict) -> PatternRule:
    """Read a rule document.  A built-in kind's flags are its own: a document
    may restate them, and flags that say otherwise are a ValueError."""
    kind = _members(data, "rule", ("kind",), ("params", "flags"))["kind"]
    if kind in _BUILTIN_RULES:
        needs, build = _BUILTIN_RULES[kind]
        rule = build(_members(data.get("params", {}), f"{kind!r} rule params", needs))
        if "flags" in data:
            try:
                ok = flags_from_json(data["flags"]) == rule.flags
            except ValueError:
                ok = False
            if not ok:
                raise ValueError(f"flags {data['flags']!r} contradict the {kind!r} rule's own flags {rule.flags}")
        return rule
    if kind == "explicit":
        _members(data, "explicit rule", ("kind", "params", "flags"))
        pats = {}
        for entry in _members(data["params"], "explicit rule params", ("patterns",))["patterns"]:
            p = _listed_from_json(entry)  # explicit_rule normalizes it
            if p.n in pats:  # a dict would keep the last pattern without a word
                raise ValueError(f"explicit rule lists two patterns at n={p.n}")
            pats[p.n] = p
        return explicit_rule(pats, flags_from_json(data["flags"]))
    raise ValueError(f"unknown rule kind {kind!r}")
