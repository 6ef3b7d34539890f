import itertools
from collections import Counter

import numpy as np
import pytest

from ptwishart import (
    Partition,
    catalan,
    count_admissible_classes,
    induced_partition,
    is_noncrossing,
    kreweras_complement,
    mp_moment_via_noncrossing,
    set_partitions,
    triple_admissibility,
    wishart_admissible_couples,
    wishart_matching_stats,
)
from ptwishart.errors import ParameterError
from ptwishart.partitions import (
    admissible_triples,
    chordings,
    interleaved_union,
    noncrossing_partitions,
    triple_list,
    wishart_couple_list,
)


def bell_number(k):
    """Bell-triangle recurrence, independent of the enumeration code."""
    row = [1]
    for _ in range(k - 1):
        new = [row[-1]]
        for value in row:
            new.append(new[-1] + value)
        row = new
    return row[-1]


def noncrossing_by_quadruples(partition):
    """Definitional non-crossing check: no i < j < k < l with i~k, j~l, i!~j."""
    k = partition.k
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            if partition.same_block(i, j):
                continue
            for kk in range(j + 1, k + 1):
                if not partition.same_block(i, kk):
                    continue
                for ll in range(kk + 1, k + 1):
                    if partition.same_block(j, ll):
                        return False
    return True


def greedy_coarsest_completion(partition):
    """Literal Kreweras construction: merge complement blocks while the
    interleaved union stays non-crossing, until no merge is possible."""
    k = partition.k
    blocks = [[i] for i in range(1, k + 1)]
    merged = True
    while merged:
        merged = False
        for x in range(len(blocks)):
            for y in range(x + 1, len(blocks)):
                candidate = [b for t, b in enumerate(blocks) if t not in (x, y)]
                candidate.append(sorted(blocks[x] + blocks[y]))
                sigma = Partition.from_blocks(candidate, k)
                if is_noncrossing(interleaved_union(partition, sigma)):
                    blocks = candidate
                    merged = True
                    break
            if merged:
                break
    return Partition.from_blocks(blocks, k)


def test_partition_validation():
    with pytest.raises(ParameterError):
        Partition(())
    with pytest.raises(ParameterError):
        Partition((1, 0))
    with pytest.raises(ParameterError):
        Partition((0, 2))
    # labels are integers: a float or a string is refused, not truncated
    with pytest.raises(ParameterError):
        Partition((0.9, 1))
    with pytest.raises(ParameterError):
        Partition((0, 1.0))
    with pytest.raises(ParameterError):
        Partition(("0", "1"))
    with pytest.raises(ParameterError):
        Partition(3)
    with pytest.raises(ParameterError):
        Partition.from_blocks([(1.5, 2)], 2)
    assert Partition(np.array([0, 1, 0], dtype=np.int64)).rgs == (0, 1, 0)
    assert Partition((np.int32(0), np.uint8(1))) == Partition((0, 1))
    assert Partition.from_blocks([(np.int64(2),), (1,)], 2).rgs == (0, 1)
    p = Partition((0, 1, 0, 2))
    assert p.k == 4 and p.n_blocks == 3
    assert p.blocks() == ((1, 3), (2,), (4,))
    assert p.same_block(1, 3) and not p.same_block(1, 2)


def test_from_blocks_canonicalizes():
    p = Partition.from_blocks([(4,), (2, 3), (1,)], 4)
    assert p.rgs == (0, 1, 1, 2)
    with pytest.raises(ParameterError):
        Partition.from_blocks([(1, 2)], 3)
    with pytest.raises(ParameterError):
        Partition.from_blocks([(1, 1), (2,)], 2)


@pytest.mark.parametrize("k", range(1, 9))
def test_set_partition_counts_match_bell_recurrence(k):
    parts = list(set_partitions(k))
    assert len(parts) == bell_number(k)
    assert len({p.rgs for p in parts}) == len(parts)
    assert [p.rgs for p in parts] == sorted(p.rgs for p in parts)


def test_set_partitions_guards():
    with pytest.raises(ParameterError):
        list(set_partitions(0))
    with pytest.raises(ParameterError):
        list(set_partitions(13))
    assert len(list(set_partitions(1))) == 1
    assert len(list(set_partitions(3))) == 5
    assert len(list(set_partitions(6))) == 203


def test_is_noncrossing_examples():
    assert not is_noncrossing(Partition.from_blocks([(1, 3), (2, 4)], 4))
    assert is_noncrossing(Partition.from_blocks([(1, 4), (2, 3)], 4))


@pytest.mark.parametrize("k", range(1, 7))
def test_is_noncrossing_agrees_with_quadruple_scan(k):
    for p in set_partitions(k):
        assert is_noncrossing(p) == noncrossing_by_quadruples(p)


@pytest.mark.parametrize("k", range(1, 9))
def test_direct_noncrossing_enumeration_matches_filter(k):
    direct = list(noncrossing_partitions(k))
    filtered = [p for p in set_partitions(k) if is_noncrossing(p)]
    assert direct == filtered
    assert len(direct) == catalan(k)


def test_direct_noncrossing_count_at_order_ten():
    assert sum(1 for _ in noncrossing_partitions(10)) == catalan(10)


def test_chordings():
    assert len(list(chordings(2))) == 1
    assert len(list(chordings(4))) == 2
    assert len(list(chordings(6))) == 5
    assert list(chordings(5)) == []
    for q in chordings(8):
        assert is_noncrossing(q)
        assert all(len(b) == 2 for b in q.blocks())
    with pytest.raises(ParameterError):
        list(chordings(26))


def test_kreweras_worked_example():
    p = Partition.from_blocks([(1,), (2, 3), (4,)], 4)
    assert kreweras_complement(p) == Partition.from_blocks([(1, 3, 4), (2,)], 4)


def test_kreweras_extremes():
    discrete = Partition((0, 1, 2, 3))
    full = Partition((0, 0, 0, 0))
    assert kreweras_complement(discrete) == full
    assert kreweras_complement(full) == discrete


def test_kreweras_rejects_crossing():
    with pytest.raises(ParameterError):
        kreweras_complement(Partition.from_blocks([(1, 3), (2, 4)], 4))


@pytest.mark.parametrize("k", range(1, 7))
def test_kreweras_matches_greedy_coarsest_completion(k):
    for p in noncrossing_partitions(k):
        assert kreweras_complement(p) == greedy_coarsest_completion(p)


def test_induced_partition():
    p = induced_partition((1, 4, 1, 2))
    assert p.blocks() == ((1, 3), (2,), (4,))
    assert p.n_blocks == 3
    assert induced_partition((7, 7, 7)).n_blocks == 1
    assert induced_partition((2, 5, 9)).n_blocks == 3
    with pytest.raises(ParameterError):
        induced_partition(())


def test_wishart_couple_list_matches_worked_example():
    a, c = (1, 2, 2, 3), (7, 3, 7, 7)
    expected = [(1, 7), (2, 7), (2, 3), (2, 3), (2, 7), (3, 7), (3, 7), (1, 7)]
    assert wishart_couple_list(a, c) == expected
    # the pair partition induced by the list
    assert induced_partition(expected).blocks() == ((1, 8), (2, 5), (3, 4), (6, 7))


def test_wishart_matching_stats_worked_example():
    stats = wishart_matching_stats((1, 2, 2, 3), (7, 3, 7, 7))
    assert stats.matches
    assert stats.distinct_values == 5
    assert stats.distinct_couples == 4
    assert stats.heavy_count == 0


def test_wishart_matching_stats_small_cases():
    assert wishart_matching_stats((1, 2), (1, 1)).matches
    assert not wishart_matching_stats((1, 2), (1, 2)).matches
    with pytest.raises(ParameterError):
        wishart_matching_stats((1, 2), (1,))
    with pytest.raises(ParameterError):
        wishart_matching_stats((), ())


def test_triple_admissibility_worked_example():
    a, b, c = (1, 2), (1, 2), (1, 1)
    assert triple_list(a, b, c) == [(1, 2, 1), (2, 1, 1), (2, 1, 1), (1, 2, 1)]
    result = triple_admissibility(a, b, c)
    assert result.matching and result.non_repeating
    assert result.distinct_weight == 6
    assert result.admissible


def test_triple_constant_rows_repeat():
    result = triple_admissibility((1, 1, 1), (1, 1, 1), (1, 2, 3))
    assert not result.non_repeating and not result.admissible


def test_triple_length_mismatch():
    with pytest.raises(ParameterError):
        triple_admissibility((1, 2), (1, 2, 3), (1, 1))


def brute_force_admissible_triples(k):
    """Unpruned scan over all Bell(k)^3 canonical triples; their rgs."""
    parts = list(set_partitions(k))
    return {
        (pa.rgs, pb.rgs, pc.rgs)
        for pa in parts
        for pb in parts
        for pc in parts
        if triple_admissibility(pa.rgs, pb.rgs, pc.rgs).admissible
    }


@pytest.mark.parametrize("k,expected", [(1, 0), (2, 1), (3, 0), (4, 2)])
def test_admissible_count_matches_unpruned_enumeration(k, expected):
    assert count_admissible_classes(k) == expected
    unpruned = brute_force_admissible_triples(k)
    assert len(unpruned) == expected
    pruned = {tuple(q.rgs for q in t) for t in admissible_triples(wishart_admissible_couples(k))}
    assert pruned == unpruned


def unpruned_admissible_couples(k):
    """Every pair of Bell(k)^2 canonical partitions, a outer and c inner, kept
    on the matching condition at weight k + 1."""
    parts = list(set_partitions(k))
    out = []
    for pa in parts:
        for pc in parts:
            stats = wishart_matching_stats(pa.rgs, pc.rgs)
            if stats.matches and stats.distinct_values == k + 1:
                out.append((pa, pc))
    return out


def unpruned_admissible_triples(couples):
    """Every b of Bell(k) tried against each couple (a, c), in couple order."""
    parts = list(set_partitions(couples[0][0].k))
    return [
        (pa, pb, pc)
        for pa, pc in couples
        for pb in parts
        if triple_admissibility(pa.rgs, pb.rgs, pc.rgs).admissible
    ]


@pytest.mark.parametrize("k", range(1, 7))
def test_block_count_prune_keeps_every_couple_in_order(k):
    assert wishart_admissible_couples(k) == unpruned_admissible_couples(k)


@pytest.mark.parametrize("k", [5, 6])
def test_partner_prune_keeps_every_triple_in_order(k):
    couples = wishart_admissible_couples(k)
    assert list(admissible_triples(couples)) == unpruned_admissible_triples(couples)


def test_admissible_counts_even_odd():
    assert count_admissible_classes(5) == 0
    assert count_admissible_classes(6) == 5
    assert list(admissible_triples([])) == []
    with pytest.raises(ParameterError):
        count_admissible_classes(7)


def test_mp_moment_via_noncrossing():
    assert mp_moment_via_noncrossing(3.7, 1) == 1.0
    for k in range(0, 9):
        assert mp_moment_via_noncrossing(1.0, k) == float(catalan(k))
    assert mp_moment_via_noncrossing(2.0, 2) == 1.5
    with pytest.raises(ParameterError):
        mp_moment_via_noncrossing(0.0, 2)
    with pytest.raises(ParameterError):
        mp_moment_via_noncrossing(1.0, 13)


def test_interleaved_union_layout():
    first = Partition.from_blocks([(1, 2)], 2)
    second = Partition.from_blocks([(1,), (2,)], 2)
    union = interleaved_union(first, second)
    assert union.blocks() == ((1, 3), (2,), (4,))


# Reference copies of the block-based kernels that the restricted-growth ones
# replaced; the exhaustive tests below hold the new kernels to them.


def reference_rgs_refusal(labels):
    """The label-by-label restricted-growth check: None, or the refusal message."""
    if not labels:
        return "partition of the empty set is not supported"
    top = -1
    for label in labels:
        if not 0 <= label <= top + 1:
            return f"not a restricted-growth string: {labels}"
        top = max(top, label)
    return None


def reference_kreweras(partition):
    k = partition.k
    block_next = [0] * (k + 1)
    for block in partition.blocks():
        for t, e in enumerate(block):
            block_next[e] = block[(t + 1) % len(block)]
    block_prev = [0] * (k + 1)
    for e in range(1, k + 1):
        block_prev[block_next[e]] = e
    image = [0] * (k + 1)
    for e in range(1, k + 1):
        image[e] = block_prev[e % k + 1]
    blocks = []
    seen = [False] * (k + 1)
    for start in range(1, k + 1):
        if seen[start]:
            continue
        cycle = []
        e = start
        while not seen[e]:
            seen[e] = True
            cycle.append(e)
            e = image[e]
        blocks.append(sorted(cycle))
    return Partition.from_blocks(blocks, k)


def reference_interleaved_union(first, second):
    blocks = [tuple(2 * e - 1 for e in b) for b in first.blocks()]
    blocks += [tuple(2 * e for e in b) for b in second.blocks()]
    return Partition.from_blocks(blocks, 2 * first.k)


def reference_matching_stats(a, c):
    a, c = tuple(a), tuple(c)
    k = len(a)
    couples = []
    for i in range(k):
        couples.append((a[i], c[i]))
        couples.append((a[(i + 1) % k], c[i]))
    counts = Counter(couples)
    return (
        all(v % 2 == 0 for v in counts.values()),
        len(set(a)) + len(set(c)),
        len(counts),
        sum(1 for cp in couples if counts[cp] >= 4),
    )


def test_rgs_validation_matches_the_label_loop():
    # every label tuple of length <= 5 over -1..6: 37,448 tuples
    for length in range(6):
        for labels in itertools.product(range(-1, 7), repeat=length):
            want = reference_rgs_refusal(labels)
            if want is None:
                assert Partition(labels).rgs == labels
            else:
                with pytest.raises(ParameterError) as refused:
                    Partition(labels)
                assert str(refused.value) == want


@pytest.mark.parametrize("k", range(1, 11))
def test_kreweras_and_interleaved_union_match_the_block_kernels(k):
    for q in noncrossing_partitions(k):
        comp = kreweras_complement(q)
        assert comp.rgs == reference_kreweras(q).rgs
        assert interleaved_union(q, comp).rgs == reference_interleaved_union(q, comp).rgs


def reference_triple_admissibility(a, b, c):
    k = len(a)
    trips = []
    for i in range(k):
        trips.append((a[i], b[(i + 1) % k], c[i]))
        trips.append((a[(i + 1) % k], b[i], c[i]))
    matching = all(v % 2 == 0 for v in Counter(trips).values())
    non_repeating = all((a[i], b[i]) != (a[(i + 1) % k], b[(i + 1) % k]) for i in range(k))
    weight = len(set(a)) + len(set(b)) + 2 * len(set(c))
    return trips, (matching, non_repeating, weight, matching and non_repeating and weight == 2 * k + 2)


def test_triple_admissibility_matches_the_index_loops():
    for k in range(1, 4):
        for a in itertools.product(range(3), repeat=k):
            for b in itertools.product(range(3), repeat=k):
                for c in itertools.product(range(2), repeat=k):
                    trips, flags = reference_triple_admissibility(a, b, c)
                    got = triple_admissibility(a, b, c)
                    assert triple_list(a, b, c) == trips
                    assert (got.matching, got.non_repeating, got.distinct_weight, got.admissible) == flags


def stats_tuple(stats):
    return (stats.matches, stats.distinct_values, stats.distinct_couples, stats.heavy_count)


def test_wishart_matching_stats_match_the_counter_kernel():
    parts = [p.rgs for p in set_partitions(5)]
    for a in parts:
        for c in parts:
            assert stats_tuple(wishart_matching_stats(a, c)) == reference_matching_stats(a, c)
    # labels of any hashable type, orderable or not
    for a, c in [("xyyz", "qrqq"), ("ab", "cd"), ((1, "x", 1), (None, None, 2.5)), ([1j, 2j], [frozenset(), 0])]:
        assert stats_tuple(wishart_matching_stats(a, c)) == reference_matching_stats(a, c)


def test_unhashable_labels_are_refused_by_name():
    with pytest.raises(ParameterError, match="values must be a sequence of hashable labels"):
        induced_partition([[0], [1]])
    with pytest.raises(ParameterError, match="multi-index a must hold hashable labels"):
        wishart_matching_stats([[0]], [[1]])
    with pytest.raises(ParameterError, match="multi-index c must hold hashable labels"):
        wishart_matching_stats([0, 1], [1, {}])
