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


@pytest.mark.parametrize("k", range(1, 9))
def test_kreweras_block_count_sum(k):
    for p in noncrossing_partitions(k):
        assert p.n_blocks + kreweras_complement(p).n_blocks == k + 1


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


def test_admissible_counts_even_odd():
    assert count_admissible_classes(5) == 0
    assert count_admissible_classes(6) == 5
    assert list(admissible_triples([])) == []
    with pytest.raises(ParameterError):
        count_admissible_classes(7)


def test_admissible_triples_have_equal_row_column_partitions():
    for pa, pb, pc in admissible_triples(wishart_admissible_couples(4)):
        assert pa == pb
        assert pc.n_blocks == 2
        assert all(len(blk) == 2 for blk in pc.blocks())


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
