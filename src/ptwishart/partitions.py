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

from collections import Counter
from dataclasses import dataclass
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
    """Set partition of [k] in canonical restricted-growth form."""

    rgs: tuple[int, ...]

    def __post_init__(self):
        rgs = tuple(int(v) for v in self.rgs)
        object.__setattr__(self, "rgs", rgs)
        if not rgs:
            raise ParameterError("partition of the empty set is not supported")
        top = -1
        for label in rgs:
            if not 0 <= label <= top + 1:
                raise ParameterError(f"not a restricted-growth string: {rgs}")
            top = max(top, label)

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
        elements = [int(e) for block in blocks for e in block]
        if k is None:
            k = len(elements)
        if sorted(elements) != list(range(1, k + 1)):
            raise ParameterError(f"blocks do not partition [{k}]: {blocks}")
        owner = {}
        for group, block in enumerate(blocks):
            for e in block:
                owner[int(e)] = group
        labels: dict[int, int] = {}
        rgs = []
        for e in range(1, k + 1):
            group = owner[e]
            if group not in labels:
                labels[group] = len(labels)
            rgs.append(labels[group])
        return cls(tuple(rgs))

    def __str__(self) -> str:
        return "".join("{" + ",".join(map(str, b)) + "}" for b in self.blocks())


def induced_partition(values: Sequence) -> Partition:
    """Partition of positions induced by value equality: i ~ j iff values equal."""
    seen: dict = {}
    rgs = []
    for v in values:
        if v not in seen:
            seen[v] = len(seen)
        rgs.append(seen[v])
    if not rgs:
        raise ParameterError("cannot induce a partition from an empty sequence")
    return Partition(tuple(rgs))


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

    Linear scan: blocks must nest like balanced parentheses, so a revisited
    block has to sit on top of the stack of currently open blocks.
    """
    rgs = partition.rgs
    last = {}
    for pos, label in enumerate(rgs):
        last[label] = pos
    stack: list[int] = []
    open_labels: set[int] = set()
    for pos, label in enumerate(rgs):
        if label not in open_labels:
            open_labels.add(label)
            stack.append(label)
        elif stack[-1] != label:
            return False
        if last[label] == pos:
            stack.pop()
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

    For non-crossing input this equals the cycle decomposition of the
    permutation i -> p_inv(i + 1) (indices cyclic), where p traverses each
    block in increasing order; the complement lives on the interleaved copy
    {1+, ..., k+} identified back with [k].  Raises for crossing input.
    """
    if not is_noncrossing(partition):
        raise ParameterError("Kreweras complement requires a non-crossing partition")
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


def interleaved_union(first: Partition, second: Partition) -> Partition:
    """Partition of [2k] with `first` on odd positions and `second` on even ones.

    This is the interleaved order 1- < 1+ < 2- < 2+ < ... used to define the
    Kreweras complement.
    """
    if first.k != second.k:
        raise ParameterError("interleaved union needs equal ground-set sizes")
    blocks = [tuple(2 * e - 1 for e in b) for b in first.blocks()]
    blocks += [tuple(2 * e for e in b) for b in second.blocks()]
    return Partition.from_blocks(blocks, 2 * first.k)


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
    k = len(a)
    out = []
    for i in range(k):
        out.append((a[i], c[i]))
        out.append((a[(i + 1) % k], c[i]))
    return out


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


def wishart_matching_stats(a: Sequence, c: Sequence) -> WishartMatchingStats:
    couples = wishart_couple_list(a, c)
    counts = Counter(couples)
    return WishartMatchingStats(
        matches=all(v % 2 == 0 for v in counts.values()),
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
    k = len(a)
    out = []
    for i in range(k):
        out.append((a[i], b[(i + 1) % k], c[i]))
        out.append((a[(i + 1) % k], b[i], c[i]))
    return out


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
    counts = Counter(trips)
    k = len(trips) // 2
    a = tuple(a)
    b = tuple(b)
    c = tuple(c)
    matching = all(v % 2 == 0 for v in counts.values())
    non_repeating = all(
        (a[i], b[i]) != (a[(i + 1) % k], b[(i + 1) % k]) for i in range(k)
    )
    weight = len(set(a)) + len(set(b)) + 2 * len(set(c))
    return TripleAdmissibility(
        matching=matching,
        non_repeating=non_repeating,
        distinct_weight=weight,
        admissible=matching and non_repeating and weight == 2 * k + 2,
    )


def wishart_admissible_couples(k: int) -> list[tuple[Partition, Partition]]:
    """All classes of couples with the matching condition and maximal weight.

    Brute force over every pair of canonical partitions of [k]; a couple is
    kept when it satisfies the Wishart matching condition with
    distinct_values == k + 1 (the classes that survive in the first-order
    trace expansion).
    """
    if not 1 <= k <= MAX_TRIPLE_SIZE:
        raise ParameterError(f"couple enumeration supports 1 <= k <= {MAX_TRIPLE_SIZE}")
    parts = list(set_partitions(k))
    out = []
    for pa in parts:
        for pc in parts:
            stats = wishart_matching_stats(pa.rgs, pc.rgs)
            if stats.matches and stats.distinct_values == k + 1:
                out.append((pa, pc))
    return out


def admissible_triples(couples: Sequence[tuple]) -> Iterator[tuple[Partition, Partition, Partition]]:
    """Canonical admissible triples of partitions of [k], each class once, where
    `couples` is wishart_admissible_couples(k); k is read from the couples.

    An admissible triple forces both (a, c) and (b, c) to satisfy the Wishart
    matching condition, and its weight splits as the sum of the two couple
    weights, each at most k + 1; so (a, c) must come from
    wishart_admissible_couples and only b remains free.  Every candidate is
    still checked against the full triple definition.
    """
    parts = list(set_partitions(couples[0][0].k)) if couples else []
    for pa, pc in couples:
        for pb in parts:
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
    return float(sum(alpha ** (q.n_blocks - k) for q in noncrossing_partitions(k)))
