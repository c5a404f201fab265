import dataclasses
import itertools
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psdmask import patterns
from psdmask.errors import BlockOutOfRangeError, FlagMismatchError, RejectedFullBlockError
from psdmask.patterns import (
    EMPTY,
    OVERLAPPING,
    PARTITION_OF_ALL,
    R1_EMPTY,
    R2_SINGLETONS,
    R3A_PARTITION_ALL,
    R3B_SUBPARTITION_OTHER,
    R4_OVERLAPPING,
    SINGLETONS_ONLY,
    SUBPARTITION_WITH_BIG_BLOCK,
    BlockPattern,
    PatternClass,
    PatternRule,
    RuleFlags,
    all_singletons_rule,
    classify_sequence,
    contiguous_partition_rule,
    empty_rule,
    explicit_rule,
    flags_from_json,
    normalize,
    overlapping_chain_rule,
    proper_subpartition_rule,
    rule_from_json,
    single_block_rule,
    validate_rule,
)


def _normalize_reference(blocks) -> tuple[frozenset[int], ...]:
    """normalize's blocks by the definition: every nonempty block that no other
    block strictly contains, each once, in canonical order."""
    sets = {frozenset(b) for b in blocks if b}
    kept = [u for u in sets if not any(u < v for v in sets)]
    return tuple(sorted(kept, key=lambda u: (min(u), len(u), sorted(u))))


@st.composite
def block_families(draw):
    """(n, blocks): random blocks of range(n), with nested subsets of them,
    repeats and empty blocks, in a random order, each listed out of order."""
    n = draw(st.integers(1, 8))
    blocks = draw(st.lists(st.frozensets(st.integers(0, n - 1), max_size=n), max_size=8))
    for b in list(blocks):
        if b and draw(st.booleans()):
            blocks.append(frozenset(draw(st.sets(st.sampled_from(sorted(b))))))
    if blocks:
        blocks += draw(st.lists(st.sampled_from(blocks), max_size=3))
    return n, [sorted(b, reverse=True) for b in draw(st.permutations(blocks))]


@st.composite
def listings(draw):
    """An explicit rule's listing: up to three n in 1..16, each with a few blocks of range(n)."""
    return {m: normalize(draw(st.lists(st.sets(st.integers(0, m - 1), max_size=3), max_size=4)), m)
            for m in draw(st.sets(st.integers(1, 16), min_size=1, max_size=3))}


class TestNormalize:
    def test_contained_block_dropped(self):
        p = normalize([{0}, {0, 1}], 3)
        assert p.blocks == (frozenset({0, 1}),)

    def test_empty_set_dropped(self):
        assert normalize([set()], 3).blocks == ()

    def test_disjoint_singletons_kept(self):
        p = normalize([{1}, {2}], 3)
        assert p.blocks == (frozenset({1}), frozenset({2}))

    def test_out_of_range(self):
        with pytest.raises(BlockOutOfRangeError):
            normalize([{3}], 3)

    def test_canonical_order(self):
        p = normalize([{2, 3}, {0}, {1}], 4)
        assert [sorted(b) for b in p.blocks] == [[0], [1], [2, 3]]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_idempotent_and_order_insensitive(self, seed):
        g = np.random.default_rng(seed)
        n = int(g.integers(1, 7))
        blocks = [set(g.choice(n, size=g.integers(1, n + 1), replace=False).tolist())
                  for _ in range(int(g.integers(0, 5)))]
        p = normalize(blocks, n)
        assert normalize(p.blocks, n) == p
        assert normalize(reversed(blocks), n) == p

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_matches_all_pairs_scan(self, seed):
        # the element index finds the same maximal blocks, and the class the same
        # overlap verdict, as comparing every pair of blocks
        g = np.random.default_rng(seed)
        n = int(g.integers(1, 9))
        blocks = [frozenset(g.choice(n, size=g.integers(1, n + 1), replace=False).tolist())
                  for _ in range(int(g.integers(0, 7)))]
        sets = set(blocks)
        kept = sorted((u for u in sets if not any(u < v for v in sets)),
                      key=lambda u: (min(u), len(u), sorted(u)))
        p = normalize(blocks, n)
        assert p.blocks == tuple(kept)
        assert (p.cls.kind == OVERLAPPING) == any(u & v for i, u in enumerate(kept) for v in kept[i + 1:])

    @settings(max_examples=100, deadline=None)
    @given(block_families())
    def test_matches_brute_force_reference(self, family):
        # and the facts read off block sizes match their definitions on the sets
        n, blocks = family
        p = normalize(blocks, n)
        assert p.blocks == _normalize_reference(blocks)
        whole = frozenset(range(n))
        covers = frozenset().union(*p.blocks) == whole
        disjoint = all(not u & v for i, u in enumerate(p.blocks) for v in p.blocks[i + 1:])
        assert (p.cls.kind == PARTITION_OF_ALL and p.cls.block_count == 1) == (p.blocks == (whole,) and n >= 2)
        assert p.cls.covers_all == covers
        assert (p.cls.covers_all and p.cls.kind != OVERLAPPING) == (covers and disjoint)
        assert p.cls == _classify_reference(p)

    def test_twenty_thousand_blocks_sharing_one_index(self):
        # every block {0, i} holds 0, so a check against the blocks holding each
        # block's smallest element compares all 20,000 with one another
        p = normalize([{i, 0} for i in range(20000, 0, -1)], 20001)
        assert p.blocks == tuple(frozenset({0, i}) for i in range(1, 20001))
        assert p.cls.kind == OVERLAPPING

    def test_twenty_thousand_blocks(self):
        # T_{k+1} of contiguous_partition(k) has k blocks; an all-pairs scan of
        # them grows as k^2 and took 7 s at k = 10000
        p = contiguous_partition_rule(20000).pattern(20001)
        assert p.cls == PatternClass(PARTITION_OF_ALL, block_count=20000, covers_all=True, max_block_size=2)


class TestClassifyPattern:
    def test_partition_of_all(self):
        cls = normalize([{0, 1}, {2}], 3).cls
        assert cls.kind == PARTITION_OF_ALL
        assert cls.block_count == 2 and cls.max_block_size == 2 and cls.covers_all

    def test_overlapping(self):
        cls = normalize([{0, 1}, {1, 2}], 3).cls
        assert cls.kind == OVERLAPPING

    def test_subpartition_with_big_block(self):
        cls = normalize([{0, 1}], 3).cls
        assert cls.kind == SUBPARTITION_WITH_BIG_BLOCK
        assert not cls.covers_all

    def test_empty_and_singletons(self):
        assert normalize([], 3).cls.kind == EMPTY
        assert normalize([{0}, {2}], 3).cls.kind == SINGLETONS_ONLY

    def test_singletons_covering_all_stay_singletons(self):
        cls = normalize([{0}, {1}, {2}], 3).cls
        assert cls.kind == SINGLETONS_ONLY and cls.covers_all

    def test_partition_of_all_covers_each_index_once(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 8))
            blocks = [set(g.tolist()) for g in np.array_split(rng.permutation(n),
                                                              rng.integers(1, n + 1))
                      if g.size]
            p = normalize(blocks, n)
            if p.cls.kind == PARTITION_OF_ALL:
                counts = [sum(i in b for b in p.blocks) for i in range(n)]
                assert counts == [1] * n


class TestMaskMatrix:
    def test_empty_mask(self):
        assert not normalize([], 3).mask.any()

    def test_partition_mask(self):
        mask = normalize([{0, 1}, {2}], 3).mask
        expected = np.array(
            [[True, True, False], [True, True, False], [False, False, True]]
        )
        assert np.array_equal(mask, expected)

    def test_chain_mask(self):
        mask = normalize([{0, 1}, {1, 2}], 3).mask
        expected = np.ones((3, 3), dtype=bool)
        expected[0, 2] = expected[2, 0] = False
        assert np.array_equal(mask, expected)

    def test_symmetry(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 7))
            blocks = [set(rng.choice(n, size=rng.integers(1, n + 1), replace=False).tolist())
                      for _ in range(int(rng.integers(0, 4)))]
            mask = normalize(blocks, n).mask
            assert np.array_equal(mask, mask.T)


class TestBuiltinRules:
    def test_empty_rule(self):
        assert classify_sequence(empty_rule()) == R1_EMPTY

    def test_all_singletons_rule(self):
        rule = all_singletons_rule()
        assert classify_sequence(rule) == R2_SINGLETONS
        assert rule.pattern(4).blocks == tuple(frozenset({j}) for j in range(4))

    def test_single_block_rule_big(self):
        rule = single_block_rule({0, 1})
        assert rule.pattern(2).blocks == ()  # the full block is skipped, not rejected
        assert [sorted(b) for b in rule.pattern(3).blocks] == [[0, 1]]
        assert classify_sequence(rule) == R3B_SUBPARTITION_OTHER

    def test_single_block_rule_singleton(self):
        rule = single_block_rule({0})
        assert classify_sequence(rule) == R2_SINGLETONS
        assert [sorted(b) for b in rule.pattern(2).blocks] == [[0]]

    def test_contiguous_partition_rule(self):
        rule = contiguous_partition_rule(3)
        assert classify_sequence(rule) == R3A_PARTITION_ALL
        p5 = rule.pattern(5)
        assert p5.cls.kind == PARTITION_OF_ALL
        assert [sorted(b) for b in p5.blocks] == [[0, 1], [2, 3], [4]]
        assert rule.pattern(2).cls == PatternClass(SINGLETONS_ONLY, block_count=2, covers_all=True, max_block_size=1)

    def test_contiguous_partition_needs_k_at_least_two(self):
        with pytest.raises(ValueError):
            contiguous_partition_rule(1)

    def test_proper_subpartition_rule(self):
        rule = proper_subpartition_rule(2)
        assert classify_sequence(rule) == R3B_SUBPARTITION_OTHER
        p4 = rule.pattern(4)
        assert 3 not in p4.covered()
        assert [sorted(b) for b in p4.blocks] == [[0, 1], [2]]

    def test_overlapping_chain_rule(self):
        rule = overlapping_chain_rule()
        assert classify_sequence(rule) == R4_OVERLAPPING
        assert rule.pattern(2).blocks == ()
        assert [sorted(b) for b in rule.pattern(5).blocks] == [[0, 1], [1, 2]]

    def test_classification_stable_in_probe_depth(self):
        for rule in (empty_rule(), all_singletons_rule(), single_block_rule({0, 1}),
                     contiguous_partition_rule(3), proper_subpartition_rule(3),
                     overlapping_chain_rule()):
            results = {classify_sequence(rule, probe) for probe in (6, 12, 20)}
            assert len(results) == 1


# The six built-in constructions as they were written out by hand, each with its
# own generator or listing and literal flags: the reference for the two shared
# constructions (a one-pattern listing and a contiguous split) that replace them.

def _split_reference(count: int, parts: int) -> list[list[int]]:
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


def _empty_reference():
    return explicit_rule({1: normalize([], 1)}, RuleFlags(
        eventually_nonempty=False, all_singletons=True, covers_all_n=False, max_block_count=0), name="empty")


def _all_singletons_reference():
    return PatternRule("all_singletons", lambda n: normalize([{j} for j in range(n)], n), RuleFlags(
        eventually_nonempty=True, all_singletons=True, covers_all_n=True, max_block_count=math.inf))


def _single_block_reference(block):
    blk = frozenset(int(i) for i in block)
    top = max(blk)
    first_n = top + 2 if len(blk) == top + 1 >= 2 else top + 1
    return explicit_rule({first_n: normalize([blk], first_n)}, RuleFlags(
        eventually_nonempty=True, all_singletons=len(blk) == 1, covers_all_n=False, max_block_count=1,
        has_block_ge2_at=first_n if len(blk) >= 2 else None), name="single_block")


def _contiguous_partition_reference(k):
    return PatternRule("contiguous_partition", lambda n: normalize(_split_reference(n, k), n), RuleFlags(
        eventually_nonempty=True, all_singletons=False, covers_all_n=True, max_block_count=k,
        has_block_ge2_at=k + 1))


def _proper_subpartition_reference(k):
    return PatternRule("proper_subpartition", lambda n: normalize(_split_reference(n - 1, k), n), RuleFlags(
        eventually_nonempty=True, all_singletons=False, covers_all_n=False, max_block_count=k,
        has_block_ge2_at=k + 2))


def _overlapping_chain_reference():
    return explicit_rule({3: normalize([{0, 1}, {1, 2}], 3)}, RuleFlags(
        eventually_nonempty=True, all_singletons=False, covers_all_n=False, max_block_count=2,
        has_block_ge2_at=3, overlap_at=3), name="overlapping_chain")


def _builtin_cases():
    """(id, document, rule, its reference) for every built-in the comparison covers."""
    yield "empty", {"kind": "empty"}, empty_rule(), _empty_reference()
    yield "all_singletons", {"kind": "all_singletons"}, all_singletons_rule(), _all_singletons_reference()
    yield "overlapping_chain", {"kind": "overlapping_chain"}, overlapping_chain_rule(), _overlapping_chain_reference()
    for k in range(2, 21):
        yield (f"contiguous_partition_{k}", {"kind": "contiguous_partition", "params": {"k": k}},
               contiguous_partition_rule(k), _contiguous_partition_reference(k))
    for k in range(1, 21):
        yield (f"proper_subpartition_{k}", {"kind": "proper_subpartition", "params": {"k": k}},
               proper_subpartition_rule(k), _proper_subpartition_reference(k))
    for size in range(1, 5):
        for block in itertools.combinations(range(7), size):
            yield (f"single_block_{''.join(map(str, block))}",
                   {"kind": "single_block", "params": {"block": [i + 1 for i in block]}},
                   single_block_rule(block), _single_block_reference(block))


def _flags_doc(flags: RuleFlags) -> dict:
    doc = dataclasses.asdict(flags)
    return {**doc, "max_block_count": "inf" if flags.max_block_count == math.inf else flags.max_block_count}


class TestBuiltinsMatchTheirReference:
    @pytest.mark.parametrize("case", list(_builtin_cases()), ids=lambda case: case[0])
    def test_same_flags_patterns_listing_and_regime(self, case):
        _, doc, rule, reference = case
        assert rule.name == reference.name
        assert rule.flags == reference.flags
        assert rule._listed == reference._listed
        for n in range(1, 20):
            assert rule.pattern(n) == reference.pattern(n)
        for probe_N in (3, 12, 20):
            assert _outcome(validate_rule, rule, probe_N) == _outcome(validate_rule, reference, probe_N)
        # a document that restates the reference's literal flags reads as the rule
        assert rule_from_json({**doc, "flags": _flags_doc(reference.flags)}).flags == reference.flags


def _explicit_doc(listed: dict, **flags) -> dict:
    """An explicit rule document listing 1-based blocks at each n; the flags not given are those
    of a nonempty rule with at most two blocks, no singletons-only claim and no cover."""
    return {"kind": "explicit",
            "params": {"patterns": [{"n": m, "blocks": blocks} for m, blocks in listed.items()]},
            "flags": {"eventually_nonempty": True, "all_singletons": False, "covers_all_n": False,
                      "max_block_count": 2, **flags}}


# Explicit rules whose facts lie past T_probe_N: (document, probe_N, regime, FlagMismatchError message)
LISTED_PAST_THE_PROBE = {
    "true_flag_overlap_at_13": (_explicit_doc({13: [[1, 2], [2, 3]]}, has_block_ge2_at=13), 12,
                                R4_OVERLAPPING, None),
    "partitions_to_12": (_explicit_doc({m: [list(range(1, m)), [m]] if m > 1 else [[1]] for m in range(1, 13)},
                                       covers_all_n=True, has_block_ge2_at=3), 12,
                         None, "covers_all_n declared but T_13 is not a partition of range(13)"),
    "singleton_at_13": (_explicit_doc({13: [[1]]}, eventually_nonempty=False, all_singletons=True,
                                      max_block_count=1), 12,
                        None, "eventually_nonempty=False but T_13 is nonempty"),
    "singletons_with_overlap_at_10": (_explicit_doc({10: [[1, 2], [2, 3]]}, all_singletons=True, overlap_at=10), 5,
                                      None, "all_singletons declared but T_10 has a block of size >= 2"),
}


class TestRuleValidation:
    def test_flag_mismatch_all_singletons(self):
        bad = explicit_rule(
            {3: normalize([{0, 1}], 3)},
            RuleFlags(
                eventually_nonempty=True,
                all_singletons=True,
                covers_all_n=False,
                max_block_count=1,
            ),
        )
        with pytest.raises(FlagMismatchError):
            validate_rule(bad)

    def test_flag_mismatch_block_count(self):
        bad = explicit_rule(
            {3: normalize([{0}, {1}, {2}], 3)},
            RuleFlags(
                eventually_nonempty=True,
                all_singletons=True,
                covers_all_n=True,
                max_block_count=2,
            ),
        )
        with pytest.raises(FlagMismatchError):
            validate_rule(bad)

    def test_undeclared_big_block_location(self):
        # a generic rule: nothing but a declared location would take validation to T_20
        bad = PatternRule(
            "far_block",
            lambda n: normalize([{0, 1}] if n >= 20 else [], n),
            RuleFlags(
                eventually_nonempty=True,
                all_singletons=False,
                covers_all_n=False,
                max_block_count=1,
            ),
        )
        # a size->=2 block is claimed but neither probed nor located
        with pytest.raises(FlagMismatchError, match="all_singletons=False requires"):
            validate_rule(bad, probe_N=5)

    def test_undeclared_big_block_of_a_listing_is_read(self):
        # the same sequence listed: T_20 and T_21 are read whatever the probe depth
        rule = explicit_rule(
            {20: normalize([{0, 1}], 20)},
            RuleFlags(
                eventually_nonempty=True,
                all_singletons=False,
                covers_all_n=False,
                max_block_count=1,
            ),
        )
        assert validate_rule(rule, probe_N=5) == R3B_SUBPARTITION_OTHER

    @pytest.mark.parametrize("case", sorted(LISTED_PAST_THE_PROBE))
    def test_listing_read_at_each_listed_n_and_the_next(self, case):
        doc, probe_N, regime, error = LISTED_PAST_THE_PROBE[case]
        rule = rule_from_json(doc)
        if regime is not None:
            assert validate_rule(rule, probe_N) == regime
        else:
            with pytest.raises(FlagMismatchError, match=re.escape(error)):
                validate_rule(rule, probe_N)

    @settings(max_examples=150, deadline=None)
    @given(listings(), st.data())
    def test_listing_decided_whatever_the_probe_depth(self, listed, data):
        # a listing keeps its blocks past its largest n, so probing deeper reads nothing new
        flags = RuleFlags(
            eventually_nonempty=data.draw(st.booleans()),
            all_singletons=data.draw(st.booleans()),
            covers_all_n=data.draw(st.booleans()),
            max_block_count=data.draw(st.sampled_from([0, 1, 2, 3, math.inf])),
            has_block_ge2_at=data.draw(st.none() | st.integers(1, 20)),
            overlap_at=data.draw(st.none() | st.integers(1, 20)),
        )
        rule = explicit_rule(listed, flags)
        outcomes = [_outcome(validate_rule, rule, probe_N) for probe_N in (3, 12, 20)]
        assert outcomes[0] == outcomes[1] == outcomes[2]
        assert outcomes[0] != R3A_PARTITION_ALL

    def test_declared_location_beyond_probe_is_checked(self):
        ok = explicit_rule(
            {20: normalize([{0, 1}], 20)},
            RuleFlags(
                eventually_nonempty=True,
                all_singletons=False,
                covers_all_n=False,
                max_block_count=1,
                has_block_ge2_at=20,
            ),
        )
        assert classify_sequence(ok, probe_N=5) == R3B_SUBPARTITION_OTHER

    def test_rejected_full_block(self):
        bad = explicit_rule(
            {2: normalize([{0, 1}], 2)},
            RuleFlags(
                eventually_nonempty=True,
                all_singletons=False,
                covers_all_n=False,
                max_block_count=1,
                has_block_ge2_at=2,
            ),
        )
        with pytest.raises(RejectedFullBlockError):
            validate_rule(bad)


def _classify_reference(p: BlockPattern) -> PatternClass:
    """BlockPattern.cls with every fact read off its set definition."""
    covers = frozenset().union(*p.blocks) == frozenset(range(p.n))
    count, size = len(p.blocks), max((len(b) for b in p.blocks), default=0)
    if count == 0:
        kind = EMPTY
    elif size == 1:
        kind = SINGLETONS_ONLY
    elif any(u & v for i, u in enumerate(p.blocks) for v in p.blocks[i + 1:]):
        kind = OVERLAPPING
    elif covers:
        kind = PARTITION_OF_ALL
    else:
        kind = SUBPARTITION_WITH_BIG_BLOCK
    return PatternClass(kind=kind, block_count=count, covers_all=covers, max_block_size=size)


def _validate_rule_reference(rule, listed, probe_N: int) -> str:
    """validate_rule as it was written with a flag per probed property and a
    second, set-based partition check of each T_n, read at 1..probe_N, at the
    flags' witness dimensions and at each listed n and the n after it: the
    rewrite must give the same regime, or the same error, for every rule."""
    if probe_N < 3:
        raise ValueError("probe_N must be >= 3")
    flags = rule.flags
    witnesses = {n for n in (flags.has_block_ge2_at, flags.overlap_at) if n is not None}
    probed_nonempty = False
    probed_big = False
    probed_overlap = False
    classes = {}
    for n in sorted(set(range(1, probe_N + 1)) | witnesses | set(listed) | {m + 1 for m in listed}):
        p = rule.pattern(n)
        cls = classes[n] = _classify_reference(p)
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
        if flags.covers_all_n and not (sum(len(b) for b in p.blocks) == n and cls.covers_all):
            raise FlagMismatchError(f"covers_all_n declared but T_{n} is not a partition of range({n})")
        if math.isfinite(flags.max_block_count) and cls.block_count > flags.max_block_count:
            raise FlagMismatchError(
                f"T_{n} has {cls.block_count} blocks, above the declared maximum {flags.max_block_count}"
            )
    if flags.has_block_ge2_at is not None and classes[flags.has_block_ge2_at].max_block_size < 2:
        raise FlagMismatchError(
            f"has_block_ge2_at={flags.has_block_ge2_at} but that pattern has no block of size >= 2"
        )
    if flags.overlap_at is not None and classes[flags.overlap_at].kind != OVERLAPPING:
        raise FlagMismatchError(f"overlap_at={flags.overlap_at} but that pattern has no overlap")
    if not flags.all_singletons and not probed_big:
        raise FlagMismatchError(
            "all_singletons=False requires a probed block of size >= 2 or a declared location"
        )
    if probed_overlap:
        return R4_OVERLAPPING
    if probed_big:
        if flags.covers_all_n and math.isfinite(flags.max_block_count):
            return R3A_PARTITION_ALL
        return R3B_SUBPARTITION_OTHER
    if probed_nonempty or flags.eventually_nonempty:
        return R2_SINGLETONS
    return R1_EMPTY


_HORIZON = 14  # explicit rules list patterns up to here, past the deepest probe (12)


def _random_partition(g: np.random.Generator, m: int) -> list[set[int]]:
    """A partition of range(m), into at least two blocks when m >= 2."""
    labels = g.integers(0, int(g.integers(2, m + 1)) if m >= 2 else 1, size=m)
    labels[: min(m, 2)] = np.arange(min(m, 2))  # two labels at least, so never the full block
    return [set(np.flatnonzero(labels == c).tolist()) for c in np.unique(labels)]


def _random_rule(g: np.random.Generator):
    """A rule and its listed n's, its flags read off T_1..T_15 and then, four
    times in five, one field perturbed.  One rule in four is generic, with no
    listed n: it partitions range(n) at every n, now and then with a block
    {0, n-1} added that overlaps it.  The others are explicit and list a few
    empty, singleton or random patterns, among them, now and then, the full
    block."""
    if g.random() < 0.25:
        seed, listed = int(g.integers(2**32)), ()

        def generator(n):
            h = np.random.default_rng([seed, n])
            return normalize(_random_partition(h, n) + ([{0, n - 1}] if n >= 3 and h.random() < 0.1 else []), n)

        def make(flags):
            return PatternRule("partitions", generator, flags)
    else:
        blocks = {}
        for m in set(g.integers(1, _HORIZON + 1, size=int(g.integers(1, 4))).tolist()):
            kind = int(g.integers(0, 4))
            if kind == 0:
                blocks[m] = []
            elif kind == 1:
                blocks[m] = [{int(i)} for i in g.choice(m, size=int(g.integers(1, m + 1)), replace=False)]
            else:
                blocks[m] = [set(g.choice(m, size=int(g.integers(1, min(m, 4) + 1)), replace=False).tolist())
                             for _ in range(int(g.integers(1, 4)))]
        listed = tuple(blocks)

        def make(flags):
            return explicit_rule({m: normalize(b, m) for m, b in blocks.items()}, flags)
    probe = make(RuleFlags(eventually_nonempty=True, all_singletons=True, covers_all_n=False,
                           max_block_count=math.inf))
    pats = []
    for n in range(1, _HORIZON + 2):
        try:
            pats.append(probe.pattern(n))
        except RejectedFullBlockError:
            pass
    classes = {p.n: _classify_reference(p) for p in pats}
    big = [n for n, c in classes.items() if c.max_block_size >= 2]
    overlaps = [n for n, c in classes.items() if c.kind == OVERLAPPING]
    flags = {
        "eventually_nonempty": any(p.blocks for p in pats if p.n >= 2),
        "all_singletons": not big,
        "covers_all_n": all(c.covers_all and c.kind != OVERLAPPING for c in classes.values()),
        "max_block_count": math.inf if g.random() < 0.2 else max(len(p.blocks) for p in pats),
        "has_block_ge2_at": int(g.choice(big)) if big and g.random() < 0.7 else None,
        "overlap_at": int(g.choice(overlaps)) if overlaps and g.random() < 0.7 else None,
    }
    if g.random() < 0.8:
        name = list(flags)[int(g.integers(0, len(flags)))]
        value = flags[name]
        if isinstance(value, bool):
            flags[name] = not value
        elif name == "max_block_count":
            flags[name] = value - 1 if 0 < value < math.inf else [math.inf, 0, 1][int(g.integers(0, 3))]
        else:
            flags[name] = None if value is not None else int(g.integers(1, _HORIZON + 3))
    return make(RuleFlags(**flags)), listed


def _outcome(validate, rule, probe_N):
    try:
        return validate(rule, probe_N)
    except Exception as exc:  # the error's type and message are the outcome
        return type(exc).__name__, str(exc)


class TestValidateRuleAgainstReference:
    FLAG_MISMATCHES = {
        "all_singletons declared but T_# has a block of size >= #",
        "eventually_nonempty=False but T_# is nonempty",
        "covers_all_n declared but T_# is not a partition of range(#)",
        "T_# has # blocks, above the declared maximum #",
        "has_block_ge#_at=# but that pattern has no block of size >= #",
        "overlap_at=# but that pattern has no overlap",
        "all_singletons=False requires a probed block of size >= # or a declared location",
    }

    def test_same_regime_or_error_as_reference(self):
        g = np.random.default_rng(2022)
        regimes, mismatches, errors = set(), set(), set()
        for _ in range(1000):
            rule, listed = _random_rule(g)
            for probe_N in (3, 5, 12):
                got = _outcome(validate_rule, rule, probe_N)
                want = _outcome(lambda r, N: _validate_rule_reference(r, listed, N), rule, probe_N)
                assert got == want, (rule.flags, listed, probe_N)
                if isinstance(got, str):
                    regimes.add(got)
                else:
                    errors.add(got[0])
                    if got[0] == "FlagMismatchError":
                        mismatches.add(re.sub(r"\d+", "#", got[1]))
        assert regimes == {R1_EMPTY, R2_SINGLETONS, R3A_PARTITION_ALL, R3B_SUBPARTITION_OTHER, R4_OVERLAPPING}
        assert mismatches == self.FLAG_MISMATCHES
        assert errors == {"FlagMismatchError", "RejectedFullBlockError"}


# Rule files as the CLI reads them: 1-based indices, "inf" for an unbounded block count.
BUILTIN_DOCS = [
    ("""{"kind": "empty", "params": {},
         "flags": {"eventually_nonempty": false, "all_singletons": true, "covers_all_n": false,
                   "max_block_count": 0, "has_block_ge2_at": null, "overlap_at": null}}""",
     empty_rule()),
    ("""{"kind": "all_singletons", "params": {},
         "flags": {"eventually_nonempty": true, "all_singletons": true, "covers_all_n": true,
                   "max_block_count": "inf", "has_block_ge2_at": null, "overlap_at": null}}""",
     all_singletons_rule()),
    ("""{"kind": "single_block", "params": {"block": [1, 2]},
         "flags": {"eventually_nonempty": true, "all_singletons": false, "covers_all_n": false,
                   "max_block_count": 1, "has_block_ge2_at": 3, "overlap_at": null}}""",
     single_block_rule({0, 1})),
    ("""{"kind": "contiguous_partition", "params": {"k": 4},
         "flags": {"eventually_nonempty": true, "all_singletons": false, "covers_all_n": true,
                   "max_block_count": 4, "has_block_ge2_at": 5, "overlap_at": null}}""",
     contiguous_partition_rule(4)),
    ("""{"kind": "proper_subpartition", "params": {"k": 2},
         "flags": {"eventually_nonempty": true, "all_singletons": false, "covers_all_n": false,
                   "max_block_count": 2, "has_block_ge2_at": 4, "overlap_at": null}}""",
     proper_subpartition_rule(2)),
    ("""{"kind": "overlapping_chain", "params": {},
         "flags": {"eventually_nonempty": true, "all_singletons": false, "covers_all_n": false,
                   "max_block_count": 2, "has_block_ge2_at": 3, "overlap_at": 3}}""",
     overlapping_chain_rule()),
]

EXPLICIT_DOC = """{"kind": "explicit", "params": {"patterns": [{"n": 3, "blocks": [[1, 2], [2, 3]]}]},
                   "flags": {"eventually_nonempty": true, "all_singletons": false, "covers_all_n": false,
                             "max_block_count": "inf", "has_block_ge2_at": 3, "overlap_at": 3}}"""

FLAGS_DOC = """{"eventually_nonempty": true, "all_singletons": true, "covers_all_n": true,
                "max_block_count": "inf", "has_block_ge2_at": null, "overlap_at": null}"""


class TestJson:
    def test_pattern_round_trip_is_one_based(self):
        doc = json.loads('{"n": 3, "blocks": [[1, 2], [3]]}')
        listed = patterns._listed_from_json(doc)
        assert normalize(listed.blocks, listed.n) == normalize([{0, 1}, {2}], 3)
        explicit = json.loads(EXPLICIT_DOC)
        explicit["params"]["patterns"] = [doc]
        assert rule_from_json(explicit).pattern(3) == normalize([{0, 1}, {2}], 3)

    def test_rule_round_trip_builtins(self):
        for doc, rule in BUILTIN_DOCS:
            back = rule_from_json(json.loads(doc))
            assert back.name == rule.name
            assert back.flags == rule.flags
            for n in range(1, 9):
                assert back.pattern(n) == rule.pattern(n)

    def test_explicit_pattern_listed_twice_rejected(self):
        data = json.loads(EXPLICIT_DOC)
        data["params"]["patterns"].append({"n": 3, "blocks": [[1, 3]]})  # a dict would keep this one alone
        with pytest.raises(ValueError, match="two patterns at n=3"):
            rule_from_json(data)

    def test_explicit_rule_normalizes_each_listed_pattern_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(patterns, "normalize", lambda blocks, n: calls.append(n) or normalize(blocks, n))
        data = json.loads(EXPLICIT_DOC)
        data["params"]["patterns"] += [{"n": 5, "blocks": [[1, 2], [1], [4, 5]]}, {"n": 7, "blocks": []}]
        rule = rule_from_json(data)
        assert sorted(calls) == [3, 5, 7]
        assert rule.pattern(5) == normalize([{0, 1}, {3, 4}], 5)
        assert rule.pattern(7) == normalize([], 7)

    @pytest.mark.parametrize("blocks, error", [([[1, 4]], BlockOutOfRangeError), ([[1, 2.0]], ValueError),
                                               ([[0, 2]], ValueError)], ids=["out_of_range", "float", "zero"])
    def test_explicit_listed_pattern_errors(self, blocks, error):
        data = json.loads(EXPLICIT_DOC)
        data["params"]["patterns"][0]["blocks"] = blocks
        with pytest.raises(error):
            rule_from_json(data)

    def test_rule_round_trip_explicit(self):
        rule = explicit_rule(
            {3: normalize([{0, 1}, {1, 2}], 3)},
            RuleFlags(
                eventually_nonempty=True,
                all_singletons=False,
                covers_all_n=False,
                max_block_count=math.inf,
                has_block_ge2_at=3,
                overlap_at=3,
            ),
        )
        back = rule_from_json(json.loads(EXPLICIT_DOC))
        assert back.name == rule.name
        assert back.flags == rule.flags
        assert classify_sequence(back) == R4_OVERLAPPING
        for n in range(1, 9):
            assert back.pattern(n) == rule.pattern(n)

    @pytest.mark.parametrize("doc", [
        """{"kind": "contiguous_partition", "params": {"k": 3},
            "flags": {"eventually_nonempty": true, "all_singletons": false, "covers_all_n": true,
                      "max_block_count": 9, "has_block_ge2_at": 4, "overlap_at": null}}""",
        """{"kind": "single_block", "params": {"block": [1, 2]}, "flags": "garbage"}""",
        """{"kind": "empty", "params": {}, "flags": {"max_block_count": 0}}""",
        """{"kind": "overlapping_chain", "params": {}, "flags": null}""",
    ], ids=["max_block_count_9", "not_an_object", "missing_members", "null"])
    def test_builtin_flags_contradicting_kind_rejected(self, doc):
        data = json.loads(doc)
        with pytest.raises(ValueError, match=data["kind"]):
            rule_from_json(data)

    @pytest.mark.parametrize("member, value", [
        ("eventually_nonempty", "false"),
        ("all_singletons", 0),
        ("covers_all_n", "no"),
        ("covers_all_n", None),
        ("max_block_count", 2.7),
        ("max_block_count", 2.0),
        ("max_block_count", -1),
        ("max_block_count", "2"),
        ("max_block_count", True),
        ("has_block_ge2_at", 3.5),
        ("has_block_ge2_at", 0),
        ("has_block_ge2_at", "3"),
        ("overlap_at", True),
        ("overlap_at", [3]),
    ])
    def test_flags_of_the_wrong_type_rejected(self, member, value):
        data = {**json.loads(EXPLICIT_DOC), "flags": {**json.loads(EXPLICIT_DOC)["flags"], member: value}}
        with pytest.raises(ValueError, match=member):
            flags_from_json(data["flags"])
        with pytest.raises(ValueError, match=member):
            rule_from_json(data)

    def test_coercible_flags_document_rejected(self):
        data = json.loads("""{"eventually_nonempty": "false", "all_singletons": "false", "covers_all_n": "no",
                              "max_block_count": 2.7, "has_block_ge2_at": 3, "overlap_at": null}""")
        with pytest.raises(ValueError):
            flags_from_json(data)

    @pytest.mark.parametrize("doc", [
        '{"kind": "contiguous_partition", "params": {"k": 2.7}}',
        '{"kind": "contiguous_partition", "params": {"k": "3"}}',
        '{"kind": "contiguous_partition", "params": {"k": true}}',
        '{"kind": "proper_subpartition", "params": {"k": 1.5}}',
        '{"kind": "single_block", "params": {"block": [1, 2.5]}}',
        '{"kind": "single_block", "params": {"block": [true, 2]}}',
        '{"kind": "single_block", "params": {"block": [0, 2]}}',
    ], ids=["k_float", "k_string", "k_bool", "subpartition_k_float", "block_float", "block_bool",
            "block_zero"])
    def test_builtin_params_of_the_wrong_type_rejected(self, doc):
        with pytest.raises(ValueError, match="k|block index"):
            rule_from_json(json.loads(doc))

    @pytest.mark.parametrize("doc", ['{"n": 3.5, "blocks": [[1, 2]]}', '{"n": 3, "blocks": [[1, 2.0]]}',
                                     '{"n": true, "blocks": []}'], ids=["n_float", "index_float", "n_bool"])
    def test_pattern_of_the_wrong_type_rejected(self, doc):
        explicit = json.loads(EXPLICIT_DOC)
        explicit["params"]["patterns"] = [json.loads(doc)]
        with pytest.raises(ValueError):
            rule_from_json(explicit)

    def test_flags_inf_round_trip(self):
        back = flags_from_json(json.loads(FLAGS_DOC))
        assert back.max_block_count == math.inf
        assert back == all_singletons_rule().flags


def _builtin_rules():
    return [empty_rule(), all_singletons_rule(), single_block_rule({0, 2}),
            contiguous_partition_rule(3), proper_subpartition_rule(2), overlapping_chain_rule()]


class TestRuleOwnsPatterns:
    """A rule builds each T_n once and keeps it, with its mask, as long as it lives."""

    EXPLICIT = explicit_rule(
        {3: normalize([{0, 1}], 3)},
        RuleFlags(eventually_nonempty=True, all_singletons=False, covers_all_n=False, max_block_count=1),
    )

    @pytest.mark.parametrize("rule", _builtin_rules() + [EXPLICIT], ids=lambda r: r.name)
    def test_pattern_is_kept(self, rule):
        for n in range(1, 9):
            p = rule.pattern(n)
            assert rule.pattern(n) is p
            assert p.mask is rule.pattern(n).mask
        assert validate_rule(rule) == classify_sequence(rule)
        assert isinstance(validate_rule(rule), str)

    @pytest.mark.parametrize("rule", _builtin_rules() + [EXPLICIT], ids=lambda r: r.name)
    def test_pattern_is_classified_once(self, rule, monkeypatch):
        # a kept pattern keeps its class, so validating the rule again reads no block
        regime = validate_rule(rule)

        def unread(self):
            raise AssertionError(f"T_{self.n} was classified again")

        monkeypatch.setattr(BlockPattern, "covered", unread)
        assert validate_rule(rule) == regime

    @settings(max_examples=60, deadline=None)
    @given(st.lists(block_families(), min_size=1, max_size=3))
    def test_explicit_pattern_is_listed_blocks_normalized_at_n(self, families):
        # the listed blocks go in raw; T_n is those of the largest listed level <= n, normalized on range(n)
        listed = dict(families)
        rule = explicit_rule({m: BlockPattern(m, blocks) for m, blocks in listed.items()}, self.EXPLICIT.flags)
        for n in range(1, 13):
            expected = normalize(max(((m, b) for m, b in listed.items() if m <= n), default=(0, []))[1], n)
            if n >= 2 and expected.blocks == (frozenset(range(n)),):
                with pytest.raises(RejectedFullBlockError):
                    rule.pattern(n)
            else:
                assert rule.pattern(n) == expected

    def test_full_block_raises_on_every_call(self):
        calls = []
        rule = dataclasses.replace(
            all_singletons_rule(),
            generator=lambda n: calls.append(n) or normalize([range(n)] if n in (1, 3) else [], n),
        )
        for _ in range(3):
            with pytest.raises(RejectedFullBlockError):
                rule.pattern(3)
        assert calls == [3, 3, 3]
        assert rule.pattern(1) is rule.pattern(1)  # the full block {0} of range(1) is kept

    def test_flag_mismatch_raises_on_every_validation(self):
        bad = explicit_rule(
            {3: normalize([{0, 1}], 3)},
            RuleFlags(eventually_nonempty=True, all_singletons=True, covers_all_n=False, max_block_count=1),
        )
        for _ in range(3):
            with pytest.raises(FlagMismatchError):
                validate_rule(bad)

    @pytest.mark.parametrize("rule", _builtin_rules() + [EXPLICIT], ids=lambda r: r.name)
    def test_kept_patterns_outside_repr_and_equality(self, rule):
        fresh = dataclasses.replace(rule)
        text = repr(fresh)
        rule.pattern(5)
        assert repr(rule) == text and "_patterns" not in text and "_listed" not in text
        assert rule == fresh and hash(rule) == hash(fresh) and fresh._listed == rule._listed
        assert fresh.pattern(5) is not rule.pattern(5) and fresh.pattern(5) == rule.pattern(5)
