"""Exact combinatorics of set partitions and non-crossing structures.

Ground sets are [k] = {1, ..., k}; the successor of k wraps to 1 wherever a
cyclic neighbour is needed.  Partitions are stored canonically as
restricted-growth strings (rgs[t] is the 0-based block label of element
t + 1, labels appear in first-use order), so one Partition object per
equivalence class of labelings.

The module also carries the matching conditions that govern which index
tuples survive Gaussian moment expansions of Wishart traces, before and
after a per-block transposition, together with exhaustive enumeration of
the admissible equivalence classes at small order.  Everything here is
exact integer combinatorics; there is no floating point except in the
non-crossing moment sum at the bottom.
"""

from __future__ import annotations

import operator
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cache
from math import comb
from typing import Iterator, Sequence

from .errors import ParameterError

# Guards for the exhaustive enumerations; chosen so every suite built on
# them finishes in seconds.
MAX_ENUMERATION_SIZE = 12
MAX_NONCROSSING_SIZE = 14
MAX_CHORDING_SIZE = 24
MAX_TRIPLE_SIZE = 6


def catalan(k: int) -> int:
    """k-th Catalan number binom(2k, k) / (k + 1), exact."""
    if k < 0:
        raise ParameterError(f"Catalan index must be >= 0, got {k}")
    return comb(2 * k, k) // (k + 1)


@dataclass(frozen=True)
class Partition:
    """Set partition of [k] in canonical restricted-growth form.

    Labels must be integers (numpy integers included); a float or a string
    is refused, not truncated; the string is validated once, at construction.
    """

    rgs: tuple[int, ...]

    def __post_init__(self):
        try:
            rgs = tuple(map(operator.index, self.rgs))
        except TypeError:
            raise ParameterError(f"partition labels must be integers, got {self.rgs!r}") from None
        object.__setattr__(self, "rgs", rgs)
        if not rgs:
            raise ParameterError("partition of the empty set is not supported")
        # restricted growth: the labels, in order of first use, are 0, 1, ..., m - 1
        first_use = tuple(dict.fromkeys(rgs))
        if first_use != tuple(range(len(first_use))):
            raise ParameterError(f"not a restricted-growth string: {rgs}")

    @property
    def k(self) -> int:
        return len(self.rgs)

    @property
    def n_blocks(self) -> int:
        return max(self.rgs) + 1

    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """Blocks as sorted tuples of 1-based elements, ordered by first element."""
        out: list[list[int]] = [[] for _ in range(self.n_blocks)]
        for pos, label in enumerate(self.rgs, start=1):
            out[label].append(pos)
        return tuple(tuple(b) for b in out)

    def same_block(self, i: int, j: int) -> bool:
        if not (1 <= i <= self.k and 1 <= j <= self.k):
            raise ParameterError(f"elements ({i}, {j}) outside [1, {self.k}]")
        return self.rgs[i - 1] == self.rgs[j - 1]

    @classmethod
    def from_blocks(cls, blocks: Sequence[Sequence[int]], k: int | None = None) -> "Partition":
        try:
            converted = [[operator.index(e) for e in block] for block in blocks]
        except TypeError:
            raise ParameterError(f"block elements must be integers, got {blocks}") from None
        elements = [e for block in converted for e in block]
        k = len(elements) if k is None else k
        if sorted(elements) != list(range(1, k + 1)):
            raise ParameterError(f"blocks do not partition [{k}]: {blocks}")
        owner = {e: group for group, block in enumerate(converted) for e in block}
        return induced_partition([owner[e] for e in range(1, k + 1)])

    def __str__(self) -> str:
        return "".join("{" + ",".join(map(str, b)) + "}" for b in self.blocks())


def induced_partition(values: Sequence) -> Partition:
    """Partition of positions induced by value equality: i ~ j iff values equal."""
    seen: dict = {}
    try:
        rgs = tuple([seen.setdefault(v, len(seen)) for v in values])
    except TypeError:
        raise ParameterError(f"values must be a sequence of hashable labels, got {values!r}") from None
    if not rgs:
        raise ParameterError("cannot induce a partition from an empty sequence")
    return Partition(rgs)


def set_partitions(k: int) -> Iterator[Partition]:
    """All set partitions of [k], each once, in restricted-growth lex order."""
    if not 1 <= k <= MAX_ENUMERATION_SIZE:
        raise ParameterError(f"set partition enumeration supports 1 <= k <= {MAX_ENUMERATION_SIZE}")
    rgs = [0] * k

    def rec(pos: int, top: int) -> Iterator[Partition]:
        if pos == k:
            yield Partition(tuple(rgs))
            return
        for label in range(top + 2):
            rgs[pos] = label
            yield from rec(pos + 1, max(top, label))

    yield from rec(1, 0)


def is_noncrossing(partition: Partition) -> bool:
    """True iff no i < j < k < l has i ~ k and j ~ l with i, j in different blocks.

    One scan over the stack of open blocks: revisiting a block closes every
    block opened after it, and the partition crosses iff a closed block is
    revisited.  A label is new iff it equals the number of labels seen so far.
    """
    stack: list[int] = []
    n_labels = 0
    for label in partition.rgs:
        if label == n_labels:
            n_labels += 1
            stack.append(label)
        elif label in stack:
            del stack[stack.index(label) + 1 :]
        else:
            return False
    return True


def noncrossing_partitions(k: int) -> Iterator[Partition]:
    """All non-crossing partitions of [k], generated directly in lex order.

    The generator walks positions left to right keeping the stack of open
    blocks; a position either reopens a block on the stack (closing all
    blocks nested above it, which is exactly the non-crossing constraint)
    or starts a new block.  No filtering of the full partition lattice.
    """
    if not 1 <= k <= MAX_NONCROSSING_SIZE:
        raise ParameterError(f"non-crossing enumeration supports 1 <= k <= {MAX_NONCROSSING_SIZE}")
    rgs = [0] * k

    def rec(pos: int, open_stack: tuple[int, ...], next_label: int) -> Iterator[Partition]:
        if pos == k:
            yield Partition(tuple(rgs))
            return
        # Stack labels increase with depth, so this order is rgs-lexicographic.
        for depth in range(len(open_stack)):
            rgs[pos] = open_stack[depth]
            yield from rec(pos + 1, open_stack[: depth + 1], next_label)
        rgs[pos] = next_label
        yield from rec(pos + 1, open_stack + (next_label,), next_label + 1)

    yield from rec(1, (0,), 1)


def chordings(k: int) -> Iterator[Partition]:
    """All non-crossing pair partitions of [k]; an empty stream for odd k."""
    if not 1 <= k <= MAX_CHORDING_SIZE:
        raise ParameterError(f"chording enumeration supports 1 <= k <= {MAX_CHORDING_SIZE}")
    if k % 2 == 1:
        return

    def rec(positions: tuple[int, ...]) -> Iterator[tuple[tuple[int, int], ...]]:
        if not positions:
            yield ()
            return
        first = positions[0]
        for idx in range(1, len(positions), 2):
            inside = positions[1:idx]
            outside = positions[idx + 1 :]
            for pairs_in in rec(inside):
                for pairs_out in rec(outside):
                    yield ((first, positions[idx]),) + pairs_in + pairs_out

    for pairs in rec(tuple(range(1, k + 1))):
        yield Partition.from_blocks(pairs, k)


def kreweras_complement(partition: Partition) -> Partition:
    """Kreweras complement: the coarsest partition interleaving non-crossingly.

    For non-crossing input, the cycles of i -> prev(i + 1) (indices cyclic; prev
    is the cyclic predecessor within a block, read off the restricted-growth
    string), numbered by least element, are the complement's string directly.
    Raises for crossing input.
    """
    if not is_noncrossing(partition):
        raise ParameterError("Kreweras complement requires a non-crossing partition")
    rgs = partition.rgs
    k = len(rgs)
    # the first use of a label takes its last use, the block's largest element
    last = dict(zip(rgs, range(k)))
    prev = []
    for pos, label in enumerate(rgs):
        prev.append(last[label])
        last[label] = pos
    out = [-1] * k
    n_cycles = 0
    for start in range(k):
        e = start
        while out[e] < 0:
            out[e] = n_cycles
            e = prev[(e + 1) % k]
        n_cycles = max(n_cycles, out[start] + 1)
    return Partition(tuple(out))


def interleaved_union(first: Partition, second: Partition) -> Partition:
    """Partition of [2k] with `first` on odd positions and `second` on even ones.

    This is the interleaved order 1- < 1+ < 2- < 2+ < ... used to define the
    Kreweras complement; the two strings are interleaved and canonicalized once.
    """
    if first.k != second.k:
        raise ParameterError("interleaved union needs equal ground-set sizes")
    labels = [0] * (2 * first.k)
    labels[0::2] = first.rgs
    labels[1::2] = [label + first.n_blocks for label in second.rgs]
    return induced_partition(labels)


def _as_multi_index(values: Sequence, name: str) -> tuple:
    out = tuple(values)
    if not out:
        raise ParameterError(f"multi-index {name} must be nonempty")
    return out


def wishart_couple_list(a: Sequence, c: Sequence) -> list[tuple]:
    """Alternating 2k-list of (row, ancilla) couples from the Wishart trace
    expansion: (a1,c1), (a2,c1), (a2,c2), (a3,c2), ..., (ak,ck), (a1,ck)."""
    a = _as_multi_index(a, "a")
    c = _as_multi_index(c, "c")
    if len(a) != len(c):
        raise ParameterError(f"multi-index lengths differ: {len(a)} vs {len(c)}")
    pairs = zip(zip(a, c), zip(a[1:] + a[:1], c))
    return [couple for pair in pairs for couple in pair]


@dataclass(frozen=True)
class WishartMatchingStats:
    """Statistics of a couple under the Wishart matching condition.

    matches          every couple in the alternating list occurs evenly often
    distinct_values  distinct entries of a plus distinct entries of c
    distinct_couples distinct couples in the alternating list
    heavy_count      list positions whose couple occurs four or more times
    """

    matches: bool
    distinct_values: int
    distinct_couples: int
    heavy_count: int


def _couples_match(a: tuple, c: tuple) -> bool:
    """Wishart matching condition on equal-length tuples: each couple (a_i, c_i)
    and (a_i, c_{i-1}), i cyclic, occurs an even number of times.  A set holds
    the couples seen an odd number of times, so labels need not be orderable."""
    odd = set()
    try:
        for couple in zip(a + a, c + c[-1:] + c[:-1]):
            if couple in odd:
                odd.remove(couple)
            else:
                odd.add(couple)
    except TypeError:
        try:
            hash(a)
            name, labels = "c", c
        except TypeError:
            name, labels = "a", a
        raise ParameterError(f"multi-index {name} must hold hashable labels, got {labels!r}") from None
    return not odd


def wishart_matching_stats(a: Sequence, c: Sequence) -> WishartMatchingStats:
    a, c = tuple(a), tuple(c)
    couples = wishart_couple_list(a, c)
    matches = _couples_match(a, c)
    counts = Counter(couples)
    return WishartMatchingStats(
        matches=matches,
        distinct_values=len(set(a)) + len(set(c)),
        distinct_couples=len(counts),
        heavy_count=sum(1 for cp in couples if counts[cp] >= 4),
    )


def triple_list(a: Sequence, b: Sequence, c: Sequence) -> list[tuple]:
    """2k-list of (row, column, ancilla) triples from the partially transposed
    trace expansion: (a1,b2,c1), (a2,b1,c1), (a2,b3,c2), (a3,b2,c2), ...,
    (ak,b1,ck), (a1,bk,ck); indices cyclic mod k."""
    a = _as_multi_index(a, "a")
    b = _as_multi_index(b, "b")
    c = _as_multi_index(c, "c")
    if not len(a) == len(b) == len(c):
        raise ParameterError("multi-index lengths differ")
    pairs = zip(zip(a, b[1:] + b[:1], c), zip(a[1:] + a[:1], b, c))
    return [triple for pair in pairs for triple in pair]


@dataclass(frozen=True)
class TripleAdmissibility:
    """Flags of a triple under the partially transposed moment expansion.

    matching         every triple in the 2k-list occurs evenly often
    non_repeating    (a_i, b_i) != (a_{i+1}, b_{i+1}) for every cyclic i
    distinct_weight  #distinct(a) + #distinct(b) + 2 * #distinct(c)
    admissible       matching and non_repeating and distinct_weight == 2k + 2
    """

    matching: bool
    non_repeating: bool
    distinct_weight: int
    admissible: bool


def triple_admissibility(a: Sequence, b: Sequence, c: Sequence) -> TripleAdmissibility:
    trips = triple_list(a, b, c)
    k = len(trips) // 2
    a, b, c = tuple(a), tuple(b), tuple(c)
    matching = all(v % 2 == 0 for v in Counter(trips).values())
    non_repeating = all(map(operator.ne, zip(a, b), zip(a[1:] + a[:1], b[1:] + b[:1])))
    weight = len(set(a)) + len(set(b)) + 2 * len(set(c))
    return TripleAdmissibility(
        matching=matching,
        non_repeating=non_repeating,
        distinct_weight=weight,
        admissible=matching and non_repeating and weight == 2 * k + 2,
    )


def wishart_admissible_couples(k: int) -> list[tuple[Partition, Partition]]:
    """All classes of couples with the matching condition and maximal weight.

    Scans the pairs of canonical partitions of [k], a outer and c inner, both
    in restricted-growth lex order; a couple is kept when it satisfies the
    Wishart matching condition with distinct_values == k + 1 (the classes
    that survive in the first-order trace expansion).  The distinct entries
    of a restricted-growth string are its block labels, so distinct_values
    is nb(a) + nb(c): only the pairs whose block counts sum to k + 1 are
    tested, and for them only the matching condition is left to decide.
    """
    if not 1 <= k <= MAX_TRIPLE_SIZE:
        raise ParameterError(f"couple enumeration supports 1 <= k <= {MAX_TRIPLE_SIZE}")
    parts = list(set_partitions(k))
    by_blocks = defaultdict(list)
    for pc in parts:
        by_blocks[pc.n_blocks].append(pc)
    return [(pa, pc) for pa in parts for pc in by_blocks[k + 1 - pa.n_blocks]
            if _couples_match(pa.rgs, pc.rgs)]


def admissible_triples(couples: Sequence[tuple]) -> Iterator[tuple[Partition, Partition, Partition]]:
    """Canonical admissible triples of partitions of [k], each class once, where
    `couples` is wishart_admissible_couples(k).

    The 2k-list of an admissible triple projects onto the couple lists of
    both (a, c) and (b, c), so both satisfy the Wishart matching condition;
    its weight is (nb(a) + nb(c)) + (nb(b) + nb(c)) = 2k + 2 with each sum at
    most k + 1, so both sums equal k + 1.  Hence (a, c) and (b, c) are both
    in `couples`, and b ranges over the partners of c there.  Every candidate
    is still checked against the full triple definition.  Triples come in
    the order of `couples`, then of b in restricted-growth lex order.
    """
    partners = defaultdict(list)
    for pa, pc in couples:
        partners[pc].append(pa)
    for pa, pc in couples:
        for pb in partners[pc]:
            if triple_admissibility(pa.rgs, pb.rgs, pc.rgs).admissible:
                yield pa, pb, pc


def count_admissible_classes(k: int) -> int:
    """Number of classes of admissible triples: catalan(k/2) for even k, else 0."""
    return sum(1 for _ in admissible_triples(wishart_admissible_couples(k)))


def mp_moment_via_noncrossing(alpha: float, k: int) -> float:
    """k-th Marchenko-Pastur moment as sum over NC(k) of alpha^(blocks - k)."""
    if alpha <= 0:
        raise ParameterError(f"alpha must be positive, got {alpha}")
    if k < 0 or k > MAX_ENUMERATION_SIZE:
        raise ParameterError(f"moment order must be in [0, {MAX_ENUMERATION_SIZE}], got {k}")
    if k == 0:
        return 1.0
    return float(sum(count * alpha ** (b - k) for b, count in _noncrossing_block_counts(k)))


@cache
def _noncrossing_block_counts(k: int) -> tuple[tuple[int, int], ...]:
    """(b, #{q in NC(k) with b blocks}) in increasing b; one enumeration per k."""
    return tuple(sorted(Counter(q.n_blocks for q in noncrossing_partitions(k)).items()))
