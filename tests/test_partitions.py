"""Oracle tests: the exhaustive enumeration against the exact kernel."""

import ast
from collections import Counter
from itertools import product
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from bellnum import exact, partitions


class TestEnumeration:
    def test_single_element(self):
        assert partitions.enumerate_partitions(1) == 1

    def test_five_incenses(self):
        assert partitions.enumerate_partitions(5) == 52

    def test_counts_match_recurrence(self, bells):
        for n in range(1, 10):
            assert partitions.enumerate_partitions(n) == bells[n]

    def test_count_at_twelve(self, bells):
        assert partitions.enumerate_partitions(12) == bells[12] == 4213597

    def test_visitor_sees_each_once_in_lex_order(self):
        seen = []
        count = partitions.enumerate_partitions(4, seen.append)
        assert count == len(seen) == 15
        assert seen == sorted(seen)
        assert len(set(seen)) == 15
        assert seen[0] == (0, 0, 0, 0)
        assert seen[-1] == (0, 1, 2, 3)

    def test_cap_enforced(self):
        with pytest.raises(ValueError):
            partitions.enumerate_partitions(partitions.ENUM_CAP + 1)
        with pytest.raises(ValueError):
            partitions.enumerate_partitions(0)
        # a generator: its guard runs at the first next()
        with pytest.raises(ValueError):
            list(partitions.rgs_strings(0))
        with pytest.raises(ValueError):
            list(partitions.rgs_strings(partitions.ENUM_CAP + 1))

    @pytest.mark.parametrize("n", range(1, 8))
    def test_growth_strings_equal_a_brute_force_filter(self, n):
        def restricted(codes):
            return codes[0] == 0 and all(c <= max(codes[:i]) + 1 for i, c in enumerate(codes) if i)

        expected = [codes for codes in product(range(n), repeat=n) if restricted(codes)]
        assert list(partitions.rgs_strings(n)) == expected

    @given(st.integers(min_value=1, max_value=7))
    @settings(deadline=None)
    def test_growth_strings_are_restricted(self, n):
        for codes in partitions.rgs_strings(n):
            assert codes[0] == 0
            running_max = 0
            for c in codes[1:]:
                assert 0 <= c <= running_max + 1
                running_max = max(running_max, c)
            blocks = partitions.rgs_to_blocks(codes)
            assert len(blocks) == max(codes) + 1
            assert sorted(p for b in blocks for p in b) == list(range(1, n + 1))


class TestStats:
    def test_totals(self, bells, betas):
        for n in range(1, 9):
            st_ = partitions.collect_stats(n)
            assert st_.total == bells[n]
            assert st_.no_singleton_total == betas[n]

    def test_no_singleton_examples(self):
        assert partitions.collect_stats(5).no_singleton_total == 11
        assert partitions.collect_stats(6).singleton_count_hist[0] == 41

    def test_shape_counts_are_multinomial_coefficients(self):
        st_ = partitions.collect_stats(7)
        assert sum(st_.by_shape.values()) == st_.total
        for shape, count in st_.by_shape.items():
            assert count == exact.bell_polynomial_coefficient(shape)
        shape = exact.PartitionShape(((1, 1), (2, 2)))
        assert partitions.collect_stats(5).by_shape[shape] == 15

    def test_block_of_element1_histogram(self, bells):
        for n in range(1, 9):
            st_ = partitions.collect_stats(n)
            hist = st_.block_of_element1_size_hist
            assert hist[0] == 0
            assert sum(hist) == st_.total
            for k in range(1, n + 1):
                assert hist[k] == comb(n - 1, k - 1) * bells[n - k]

    def test_singleton_histogram(self, betas):
        for n in range(1, 9):
            st_ = partitions.collect_stats(n)
            hist = st_.singleton_count_hist
            assert sum(hist) == st_.total
            for k in range(n + 1):
                assert hist[k] == comb(n, k) * betas[n - k]

    def test_cap(self):
        with pytest.raises(ValueError):
            partitions.collect_stats(partitions.STATS_CAP + 1)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_stats_equal_tallies_over_the_blocks(self, n):
        by_shape, block1, singles = {}, [0] * (n + 1), [0] * (n + 1)
        for codes in partitions.rgs_strings(n):
            blocks = partitions.rgs_to_blocks(codes)
            shape = exact.PartitionShape(tuple(sorted(Counter(len(b) for b in blocks).items())))
            by_shape[shape] = by_shape.get(shape, 0) + 1
            block1[len(blocks[0])] += 1
            singles[sum(len(b) == 1 for b in blocks)] += 1
        st_ = partitions.collect_stats(n)
        assert st_ == partitions.PartitionStats(
            n=n,
            total=sum(by_shape.values()),
            no_singleton_total=singles[0],
            by_shape=by_shape,
            block_of_element1_size_hist=tuple(block1),
            singleton_count_hist=tuple(singles),
        )
        # shapes in order of first appearance, so a failing check names the first
        assert list(st_.by_shape) == list(by_shape)


class TestIndependence:
    def test_only_partition_shape_comes_from_the_kernel(self):
        # the oracle counts by exhaustion: no kernel prefix or recurrence
        source = Path(partitions.__file__).read_text(encoding="utf-8")
        package = []
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("bellnum")):
                package.append((node.module, [a.name for a in node.names]))
            elif isinstance(node, ast.Import):
                package += [(a.name, []) for a in node.names if a.name.startswith("bellnum")]
        assert package == [("exact", ["PartitionShape"])]


class TestGenjiko:
    def test_fifty_two_patterns(self):
        pats = partitions.genjiko_patterns()
        assert len(pats) == 52
        assert len(set(pats)) == 52

    def test_extreme_patterns_present(self):
        pats = partitions.genjiko_patterns()
        assert ((1, 2, 3, 4, 5),) in pats
        assert ((1,), (2,), (3,), (4,), (5,)) in pats

    def test_patterns_cover_positions(self):
        for blocks in partitions.genjiko_patterns():
            assert sorted(p for b in blocks for p in b) == [1, 2, 3, 4, 5]
