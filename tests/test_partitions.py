import copy
import operator
import pickle
import random

import pytest

import laminal as L
from laminal.ancillary import _Lattice
from laminal.partitions import cached

from conftest import bp


def bell_numbers(upto: int) -> list[int]:
    # Bell triangle: each row starts with the previous row's last entry,
    # B(n) is the first entry of row n.
    bells = [1]
    row = [1]
    for _ in range(upto):
        new = [row[-1]]
        for v in row:
            new.append(new[-1] + v)
        row = new
        bells.append(row[0])
    return bells


def random_partition(rng: random.Random, n: int) -> L.Partition:
    a = [0]
    mx = 0
    for _ in range(n - 1):
        v = rng.randint(0, mx + 1)
        a.append(v)
        mx = max(mx, v)
    return L.Partition.from_assignment(a)


class TestConstruction:
    def test_canonical_ordering(self):
        p = L.Partition([[6], [4, 5], [3, 0, 1, 2]])
        assert p.blocks == ((0, 1, 2, 3), (4, 5), (6,))
        assert p == bp("1,2,3,4|5,6|7", 7)
        assert hash(p) == hash(bp("1,2,3,4|5,6|7", 7))

    def test_block_of(self):
        p = bp("1,2|3,4|5,6|7", 7)
        assert [p.block_of(i) for i in range(7)] == [0, 0, 1, 1, 2, 2, 3]

    @pytest.mark.parametrize("blocks", [
        [],                      # empty
        [[0, 1], [1, 2]],        # overlap
        [[0], [2]],              # gap
        [[0], []],               # empty block
    ])
    def test_invalid_blocks_rejected(self, blocks):
        with pytest.raises(ValueError):
            L.Partition(blocks, 3)

    def test_validating_constructor_still_checks(self):
        with pytest.raises(ValueError, match="nonempty"):
            L.Partition([[0, 1], []], 2)
        with pytest.raises(ValueError, match="exactly"):
            L.Partition([[0, 2], [3]], 4)
        with pytest.raises(ValueError, match="exactly"):
            L.Partition([[0], [0, 1]], 2)

    def test_restrict(self):
        c2 = bp("1,3,5,6|2,4|7", 7)
        assert c2.restrict((0, 1, 4, 5, 6)).blocks == ((0, 2, 3), (1,), (4,))
        assert c2.restrict((1, 3)).blocks == ((0, 1),)


class TestValueSemantics:
    # A partition is the tuple of its growth string, but it stays a value
    # of its own: equal only to partitions, ordered by sort_key.

    def test_tuple_items_are_the_growth_string(self):
        p = bp("1,2|3,4|5,6|7", 7)
        assert len(p) == p.n == 7
        assert tuple(p) == (0, 0, 1, 1, 2, 2, 3)
        assert [p[e] for e in range(7)] == [p.block_of(e) for e in range(7)]

    @pytest.mark.parametrize("copier", [
        lambda p: pickle.loads(pickle.dumps(p)),
        copy.copy,
        copy.deepcopy,
    ], ids=["pickle", "copy", "deepcopy"])
    def test_round_trips_keep_the_partition(self, copier):
        for p in (bp("1,3|2,4|5,6|7", 7), L.Partition._canonical((0, 1, 0)),
                  L.Partition.one_block(1)):
            q = copier(p)
            assert type(q) is L.Partition
            assert q == p and hash(q) == hash(p)
            assert q.blocks == p.blocks and q.n_blocks == p.n_blocks

    def test_never_equal_to_the_plain_tuple(self):
        p = bp("1,2|3", 3)
        s = (0, 0, 1)
        assert tuple(p) == s and hash(p) == hash(s)
        assert not p == s and not s == p
        assert p != s and s != p
        assert p != [0, 0, 1] and p != "0,0,1"
        assert len({p, s}) == 2

    def test_order_is_sort_key_not_tuple_order(self):
        # As tuples (0, 0, 1) < (0, 1, 1); by sort_key both have two blocks
        # and ((0,), (1, 2)) < ((0, 1), (2,)), so the order is reversed.
        a = L.Partition._canonical((0, 1, 1))
        b = L.Partition._canonical((0, 0, 1))
        assert tuple(b) < tuple(a) and a.sort_key() < b.sort_key()
        assert a < b and a <= b and not a > b and not a >= b
        assert b > a and b >= a and not b < a and not b <= a
        assert a <= a and a >= a and not a < a and not a > a
        assert sorted([b, a]) == [a, b]
        assert min(b, a) is a and max(a, b) is b

    @pytest.mark.parametrize("other", [(0, 1), (0, 0), [0, 0], 3, "0,0"],
                             ids=["tuple", "own-string", "list", "int", "str"])
    def test_ordering_against_a_non_partition_raises_type_error(self, other):
        # A plain tuple would answer a reflected comparison in tuple order.
        p = L.Partition._canonical((0, 0))
        for op in (operator.lt, operator.le, operator.gt, operator.ge):
            with pytest.raises(TypeError, match="not supported between"):
                op(p, other)
            with pytest.raises(TypeError, match="not supported between"):
                op(other, p)
        with pytest.raises(TypeError, match="not supported between"):
            sorted([p, other])

    def test_sorted_matches_sort_key_on_every_partition_of_four(self):
        parts = list(L.enumerate_partitions(4))
        rng = random.Random(7)
        rng.shuffle(parts)
        want = sorted(parts, key=L.Partition.sort_key)
        assert sorted(parts) == want
        assert min(parts) == want[0] and max(parts) == want[-1]


class TestCached:
    def test_each_value_is_computed_once_per_instance(self):
        calls = []

        class Box:
            @cached
            def value(self):
                calls.append(self)
                return len(calls)

        a, b = Box(), Box()
        assert [a.value, a.value, b.value, a.value, b.value] == [1, 1, 2, 1, 2]
        assert calls == [a, b]
        assert vars(a) == {"value": 1}

    def test_blocks_set_by_the_cover_search_are_never_recomputed(self, ex1, monkeypatch):
        built = []
        real = L.Partition.blocks.func

        def counted(p):
            built.append(p)
            return real(p)

        blocks = cached(counted)
        blocks.__set_name__(L.Partition, "blocks")
        monkeypatch.setattr(L.Partition, "blocks", blocks)
        lat = _Lattice(ex1, None)
        for v in lat.ancillaries:
            # The cover's blocks are the lattice's lifted point tuples.
            assert all(b is lat.lift(z)[1] for b, z in zip(v.blocks, lat._blocks[v]))
        # Only the lift reads blocks built from a string: those of within.
        assert len(built) == 1 and built[0] is lat.within
        assert L.Partition.singletons(3).blocks == ((0,), (1,), (2,))
        assert built[1:] == [L.Partition.singletons(3)]


class TestCoarsening:
    def test_laminal_coarsens_maximal(self):
        assert L.is_coarsening(bp("1,2,3,4|5,6|7", 7), bp("1,2|3,4|5,6|7", 7))

    def test_reflexive(self):
        p = bp("1,2|3,4|5,6|7", 7)
        assert L.is_coarsening(p, p)

    def test_crossing_blocks_are_incomparable(self):
        c2 = bp("1,3,5,6|2,4|7", 7)
        a1 = bp("1,2|3,4|5,6|7", 7)
        assert not L.is_coarsening(c2, a1)
        assert not L.is_coarsening(a1, c2)

    def test_ground_set_mismatch(self):
        with pytest.raises(L.GroundSetMismatch):
            L.is_coarsening(bp("1|2", 2), bp("1|2|3", 3))


class TestJoinMeet:
    def test_join_of_the_two_maximals(self):
        a1 = bp("1,2|3,4|5,6|7", 7)
        a2 = bp("1,3|2,4|5,6|7", 7)
        assert L.join([a1, a2]) == bp("1,2,3,4|5,6|7", 7)

    def test_join_single(self):
        p = bp("1,2|3", 3)
        assert L.join([p]) == p

    def test_join_with_singletons(self):
        a1 = bp("1,2|3,4|5,6|7", 7)
        assert L.join([a1, L.Partition.singletons(7)]) == a1

    def test_join_empty_input(self):
        with pytest.raises(L.EmptyInput):
            L.join([])

    def test_join_and_meet_reject_mixed_ground_sets(self):
        with pytest.raises(L.GroundSetMismatch, match="^join over mixed ground sets$"):
            L.join([bp("1,2|3", 3), bp("1|2", 2)])
        with pytest.raises(L.GroundSetMismatch, match="^ground sets differ: 3 vs 2$"):
            L.meet(bp("1,2|3", 3), bp("1|2", 2))

    def test_meet_of_the_two_maximals(self):
        a1 = bp("1,2|3,4|5,6|7", 7)
        a2 = bp("1,3|2,4|5,6|7", 7)
        assert L.meet(a1, a2) == bp("1|2|3|4|5,6|7", 7)

    def test_meet_trivial_cases(self):
        p = bp("1,2|3,4", 4)
        assert L.meet(p, p) == p
        assert L.meet(p, L.Partition.one_block(4)) == p

    def test_lattice_laws_on_random_partitions(self):
        rng = random.Random(417)
        for _ in range(60):
            n = rng.randint(2, 8)
            p, q, r = (random_partition(rng, n) for _ in range(3))
            assert L.join([p, q]) == L.join([q, p])
            assert L.meet(p, q) == L.meet(q, p)
            assert L.join([p, L.join([q, r])]) == L.join([L.join([p, q]), r])
            assert L.meet(p, L.meet(q, r)) == L.meet(L.meet(p, q), r)
            assert L.join([p, p]) == p
            assert L.meet(p, p) == p
            # absorption
            assert L.join([p, L.meet(p, q)]) == p
            assert L.meet(p, L.join([p, q])) == p
            # order consistency
            assert L.is_coarsening(L.join([p, q]), p)
            assert L.is_coarsening(p, L.meet(p, q))


class TestEnumeration:
    def test_counts_match_bell_triangle(self):
        bells = bell_numbers(10)
        for n in range(1, 11):
            seen = set()
            count = 0
            for p in L.enumerate_partitions(n):
                count += 1
                seen.add(p)
            assert count == bells[n]
            assert len(seen) == bells[n]

    def test_order_is_deterministic_and_starts_trivial(self):
        first = list(L.enumerate_partitions(3))
        assert first[0] == L.Partition.one_block(3)
        assert first == list(L.enumerate_partitions(3))
        assert len(first) == 5

    def test_coarser_than_enumerates_block_partitions(self):
        a1 = bp("1,2|3,4|5,6|7", 7)
        got = list(L.enumerate_partitions(7, coarser_than=a1))
        assert len(got) == 15  # Bell(4)
        assert all(L.is_coarsening(p, a1) for p in got)
        assert len(set(got)) == 15

    def test_size_cap(self):
        with pytest.raises(L.SizeCapExceeded):
            L.enumerate_partitions(14)
        with pytest.raises(L.SizeCapExceeded):
            L.enumerate_partitions(6, cap=5)
        # a coarse base partition keeps a large ground set enumerable
        base = L.Partition([range(0, 7), range(7, 14)], 14)
        assert len(list(L.enumerate_partitions(14, coarser_than=base))) == 2

    def test_empty_or_mismatched_ground_set(self):
        with pytest.raises(ValueError, match="^n must be at least 1$"):
            L.enumerate_partitions(0)
        with pytest.raises(L.GroundSetMismatch,
                           match="^coarser_than has a different ground set$"):
            L.enumerate_partitions(4, coarser_than=bp("1,2|3", 3))


class TestText:
    def test_format_roundtrip(self):
        labels = [str(i + 1) for i in range(7)]
        for text in ("1,2,3,4|5,6|7", "1|2|3|4|5|6|7", "1,2,3,4,5,6,7"):
            assert L.format_partition(L.parse_partition(text, labels), labels) == text

    def test_format_event_lists_points_in_index_order(self):
        labels = ["a", "b", "c"]
        assert L.format_event(frozenset({2, 0}), labels) == "{a,c}"
        assert L.format_event((1,), labels) == "{b}"
        assert L.format_event((), labels) == "{}"

    def test_parse_rejects_unknown_labels_and_non_partitions(self):
        labels = ["1", "2", "3"]
        with pytest.raises(L.UnknownSampleLabel):
            L.parse_partition("1,2|9", labels)
        with pytest.raises(L.UnknownSampleLabel):
            L.parse_partition("1,2|2,3", labels)
        with pytest.raises(L.UnknownSampleLabel):
            L.parse_partition("1,2", labels)
