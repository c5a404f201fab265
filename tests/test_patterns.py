import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    RuleFlags,
    all_singletons_rule,
    classify_pattern,
    classify_sequence,
    contiguous_partition_rule,
    empty_rule,
    explicit_rule,
    flags_from_json,
    normalize,
    overlapping_chain_rule,
    pattern_from_json,
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
        # the element index finds the same maximal blocks, and has_overlap the same
        # verdict, as comparing every pair of blocks
        g = np.random.default_rng(seed)
        n = int(g.integers(1, 9))
        blocks = [frozenset(g.choice(n, size=g.integers(1, n + 1), replace=False).tolist())
                  for _ in range(int(g.integers(0, 7)))]
        sets = set(blocks)
        kept = sorted((u for u in sets if not any(u < v for v in sets)),
                      key=lambda u: (min(u), len(u), sorted(u)))
        p = normalize(blocks, n)
        assert p.blocks == tuple(kept)
        assert p.has_overlap() == any(u & v for i, u in enumerate(kept) for v in kept[i + 1:])

    @settings(max_examples=100, deadline=None)
    @given(block_families())
    def test_matches_brute_force_reference(self, family):
        n, blocks = family
        assert normalize(blocks, n).blocks == _normalize_reference(blocks)

    def test_twenty_thousand_blocks_sharing_one_index(self):
        # every block {0, i} holds 0, so a check against the blocks holding each
        # block's smallest element compares all 20,000 with one another
        p = normalize([{i, 0} for i in range(20000, 0, -1)], 20001)
        assert p.blocks == tuple(frozenset({0, i}) for i in range(1, 20001))
        assert p.has_overlap()

    def test_twenty_thousand_blocks(self):
        # T_{k+1} of contiguous_partition(k) has k blocks; an all-pairs scan of
        # them grows as k^2 and took 7 s at k = 10000
        p = contiguous_partition_rule(20000).pattern(20001)
        assert len(p.blocks) == 20000 and p.max_block_size() == 2 and not p.has_overlap()


class TestClassifyPattern:
    def test_partition_of_all(self):
        cls = classify_pattern(normalize([{0, 1}, {2}], 3))
        assert cls.kind == PARTITION_OF_ALL
        assert cls.block_count == 2 and cls.max_block_size == 2 and cls.covers_all

    def test_overlapping(self):
        cls = classify_pattern(normalize([{0, 1}, {1, 2}], 3))
        assert cls.kind == OVERLAPPING

    def test_subpartition_with_big_block(self):
        cls = classify_pattern(normalize([{0, 1}], 3))
        assert cls.kind == SUBPARTITION_WITH_BIG_BLOCK
        assert not cls.covers_all

    def test_empty_and_singletons(self):
        assert classify_pattern(normalize([], 3)).kind == EMPTY
        assert classify_pattern(normalize([{0}, {2}], 3)).kind == SINGLETONS_ONLY

    def test_singletons_covering_all_stay_singletons(self):
        cls = classify_pattern(normalize([{0}, {1}, {2}], 3))
        assert cls.kind == SINGLETONS_ONLY and cls.covers_all

    def test_partition_of_all_covers_each_index_once(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 8))
            blocks = [set(g.tolist()) for g in np.array_split(rng.permutation(n),
                                                              rng.integers(1, n + 1))
                      if g.size]
            p = normalize(blocks, n)
            if classify_pattern(p).kind == PARTITION_OF_ALL:
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
        assert p5.is_partition_of_all()
        assert [sorted(b) for b in p5.blocks] == [[0, 1], [2, 3], [4]]
        assert rule.pattern(2).is_partition_of_all()

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
        bad = explicit_rule(
            {20: normalize([{0, 1}], 20)},
            RuleFlags(
                eventually_nonempty=True,
                all_singletons=False,
                covers_all_n=False,
                max_block_count=1,
            ),
        )
        # a size->=2 block is claimed but neither probed nor located
        with pytest.raises(FlagMismatchError):
            validate_rule(bad, probe_N=5)

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
        p = pattern_from_json(json.loads('{"n": 3, "blocks": [[1, 2], [3]]}'))
        assert p == normalize([{0, 1}, {2}], 3)

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
        with pytest.raises(ValueError):
            pattern_from_json(json.loads(doc))

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

    @settings(max_examples=60, deadline=None)
    @given(st.lists(block_families(), min_size=1, max_size=3))
    def test_explicit_pattern_is_listed_blocks_normalized_at_n(self, families):
        # the listed blocks go in raw; T_n is those of the largest listed level <= n, normalized on range(n)
        listed = dict(families)
        rule = explicit_rule({m: BlockPattern(m, blocks) for m, blocks in listed.items()}, self.EXPLICIT.flags)
        for n in range(1, 13):
            expected = normalize(max(((m, b) for m, b in listed.items() if m <= n), default=(0, []))[1], n)
            if n >= 2 and expected.is_full_block():
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
        assert repr(rule) == text and "_patterns" not in text
        assert rule == fresh and hash(rule) == hash(fresh)
        assert fresh.pattern(5) is not rule.pattern(5) and fresh.pattern(5) == rule.pattern(5)
