"""Forbidden-block patterns and pattern-sequence rules.

A ``BlockPattern`` is a normalized family of pairwise-incomparable subsets of
range(n): the positions where the diagonal-block function g acts instead of
the everywhere function f.  A ``PatternRule`` is a shape, a listing of
patterns or a contiguous split, with declared global flags: the properties of
the whole sequence (max block count, "partition of range(n) for every n",
...), which ``validate_rule`` decides from the shape.

Indices are 0-based in Python; the JSON wire format is 1-based.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

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

    @cached_property
    def anchors(self) -> tuple[tuple, tuple]:
        """Where the 3x3 witnesses go, as (pairs, overlaps) of sorted index triples
        (i, j, l): a size->=2 block's two least indices with a third from another
        block or the least uncovered index, and two overlapping blocks' least
        private indices around their least shared one.  Kept like ``mask``, and
        compared by value, so equal patterns share the plans ``verify`` keeps."""
        covered = self.covered()
        free = next((i for i in range(self.n) if i not in covered), None)
        pairs = set()
        for u in self.blocks:
            if len(u) < 2:
                continue
            i, j = sorted(u)[:2]
            thirds = {free} if free is not None else set()
            thirds.update(min(v - {i, j}) for v in self.blocks if v is not u and v - {i, j})
            pairs.update((i, j, l) for l in thirds if l not in (i, j))
        overlaps = set()
        for a, u in enumerate(self.blocks):
            for v in self.blocks[a + 1:]:
                if u & v and u - v and v - u:
                    overlaps.add((min(u - v), min(u & v), min(v - u)))
        return tuple(sorted(pairs)), tuple(sorted(overlaps))


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
    dimension witnessing a size->=2 block / an overlapping pair; a listing's
    validation reads T_n there too.
    """

    eventually_nonempty: bool
    all_singletons: bool
    covers_all_n: bool
    max_block_count: int | float
    has_block_ge2_at: int | None = None
    overlap_at: int | None = None


@dataclass(frozen=True)
class Split:
    """The shape of a rule whose T_n splits range(n - free) into at most k
    contiguous runs with balanced sizes; the last ``free`` indices lie in no
    block.  free is an integer >= 0, and k ``math.inf`` or an integer >= 1,
    >= 2 when free = 0 (k = 1 would be the rejected full block)."""

    k: int | float
    free: int

    def __post_init__(self):
        if self.k != math.inf:
            _integer(self.k, "k", 2 if self.free == 0 else 1)
        _integer(self.free, "free", 0)

    @property
    def flags(self) -> RuleFlags:
        """The flags (k, free) give: a run of size >= 2 first appears at n = k + free + 1."""
        return RuleFlags(
            eventually_nonempty=True,
            all_singletons=self.k == math.inf,
            covers_all_n=self.free == 0,
            max_block_count=self.k,
            has_block_ge2_at=None if self.k == math.inf else self.k + self.free + 1,
        )

    def rule(self, name: str) -> PatternRule:
        """The rule of this shape with the flags it gives."""
        return PatternRule(name, self, self.flags)

    def build(self, n: int) -> BlockPattern:
        """T_n, built afresh: range(n - free) in min(k, n - free) runs, the longer ones first."""
        count = n - self.free
        parts = min(self.k, count)
        if parts <= 0:
            return normalize([], n)
        base, extra = divmod(count, parts)
        starts = [i * base + min(i, extra) for i in range(parts + 1)]
        return normalize([range(a, b) for a, b in zip(starts, starts[1:])], n)


@dataclass(frozen=True)
class PatternRule:
    """A pattern sequence: its shape, a ``Split`` or a listing of normalized
    patterns in increasing n (``explicit_rule``), and its declared flags."""

    name: str
    shape: tuple[BlockPattern, ...] | Split
    flags: RuleFlags
    _patterns: dict[int, BlockPattern] = field(default_factory=dict, init=False, repr=False, compare=False)

    def pattern(self, n: int) -> BlockPattern:
        """T_n, built on first use and kept, with its class and mask, as long as the rule.
        A full block at n >= 2 raises on every call and is never kept."""
        if n not in self._patterns:
            p = self._build(n)
            if p.cls.kind == PARTITION_OF_ALL and p.cls.block_count == 1:  # size >= 2, so n >= 2
                raise RejectedFullBlockError(f"rule {self.name!r} materializes the full block at n={n}")
            self._patterns[n] = p
        return self._patterns[n]

    def _build(self, n: int) -> BlockPattern:
        """T_n from the shape, as ``Split`` and ``explicit_rule`` state it."""
        if isinstance(self.shape, Split):
            return self.shape.build(n)
        below = [p for p in self.shape if p.n <= n]
        return replace(below[-1], n=n) if below else normalize([], n)


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
    return Split(math.inf, 0).rule("all_singletons")


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
    return Split(k, 0).rule("contiguous_partition")


def proper_subpartition_rule(k: int) -> PatternRule:
    """Partition of range(n-1) into min(n-1, k) contiguous blocks; index n-1 stays free."""
    return Split(k, 1).rule("proper_subpartition")


def overlapping_chain_rule() -> PatternRule:
    """T_n = {{0,1},{1,2}} for n >= 3 (two blocks sharing index 1), empty below."""
    return _listing("overlapping_chain", 3, [{0, 1}, {1, 2}])


def explicit_rule(patterns: dict[int, BlockPattern], flags: RuleFlags, name: str = "explicit") -> PatternRule:
    """Rule listing the given patterns, each normalized once, on range of its
    own n, when the rule is built.  An unlisted dimension reuses the pattern
    of the largest listed n' <= n with n in place of n' (its blocks still fit
    in range(n), and normalizing them on range(n) gives the same blocks in the
    same order); below the smallest listed n the pattern is empty."""
    if not patterns:
        raise ValueError("at least one pattern must be listed")
    listed = sorted((normalize(p.blocks, m) for m, p in patterns.items()), key=lambda p: p.n)
    return PatternRule(name, tuple(listed), flags)


def validate_rule(rule: PatternRule) -> str:
    """Check the declared flags against the rule's shape and return its regime.

    A split is decided in closed form and builds no T_n: its flags must be
    those (k, free) give, and it is R2 when k is infinite, R3a when free = 0,
    R3b otherwise.  A listing's flags are checked against T_n at n = 1, at
    each listed n and the n after it, and at the flags' witness dimensions:
    between listed n's T_n keeps its blocks, so a check that fails anywhere
    first fails at one of these n.  Its regime is read off the rule's own kept
    classes of those T_n (``PatternRule.pattern``): overlap anywhere -> R4;
    else any block of size >= 2 -> R3b; else nonempty -> R2; else R1.

    Raises FlagMismatchError on any contradiction and RejectedFullBlockError
    if the rule materializes the full block at some n >= 2.
    """
    flags, shape = rule.flags, rule.shape
    if isinstance(shape, Split):
        if flags != shape.flags:
            raise FlagMismatchError(f"the split {shape} declares {flags}, not its own {shape.flags}")
        if shape.k == math.inf:
            return R2_SINGLETONS
        return R3A_PARTITION_ALL if shape.free == 0 else R3B_SUBPARTITION_OTHER
    dims = {1, *(p.n for p in shape), *(p.n + 1 for p in shape), flags.has_block_ge2_at, flags.overlap_at}
    classes = {}
    for n in sorted(dims - {None}):
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
        # never R3a: past its largest n a listing's blocks miss index n - 1, so covers_all_n has raised
        return R3B_SUBPARTITION_OTHER
    # a nonempty T_n at n >= 2 without eventually_nonempty has raised above
    if flags.eventually_nonempty and not any(c.block_count for n, c in classes.items() if n >= 2):
        raise FlagMismatchError("eventually_nonempty declared but every T_n read at n >= 2 is empty")
    return R2_SINGLETONS if flags.eventually_nonempty else R1_EMPTY


def classify_sequence(rule: PatternRule) -> str:
    """The sequence regime ``validate_rule`` decides."""
    return validate_rule(rule)


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


def _list(data: dict, name: str, what: str) -> list:
    """The member name of the JSON object data, ``what``, if it is a list (an
    absent one reads as empty); otherwise a ValueError naming the member and
    the document."""
    value = data.get(name, [])
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{what} member {name!r} must be a list, got {value!r}")
    return value


def _block(value) -> list[int]:
    """A JSON block of 1-based indices as 0-based ones."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"a block must be a list of indices >= 1, got {value!r}")
    return [_integer(i, "block index", 1) - 1 for i in value]


def _listed_from_json(data: dict) -> BlockPattern:
    """A pattern document's n and 0-based blocks as listed, not yet normalized."""
    _members(data, "pattern", ("n",), ("blocks",))
    blocks = tuple(_block(b) for b in _list(data, "blocks", "pattern"))
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
        params = _members(data["params"], "explicit rule params", ("patterns",))
        for entry in _list(params, "patterns", "explicit rule params"):
            p = _listed_from_json(entry)  # explicit_rule normalizes it
            if p.n in pats:  # a dict would keep the last pattern without a word
                raise ValueError(f"explicit rule lists two patterns at n={p.n}")
            pats[p.n] = p
        return explicit_rule(pats, flags_from_json(data["flags"]))
    raise ValueError(f"unknown rule kind {kind!r}")
