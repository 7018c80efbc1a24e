"""Set partitions of {0, ..., n-1} as canonical value objects.

A statistic on a finite sample space carries the same information as the
partition of sample indices into its preimage blocks, and two statistics
that are 1-1 functions of each other induce the same partition.  All
statistics in this package are therefore represented as partitions over
indices; label text only appears in reports.

A partition is the tuple of its restricted growth string: item e is the
block of point e, and blocks are numbered in order of their least point,
so the string starts at 0 and each entry is at most one more than the
largest before it (Knuth, TAOCP 4A, 7.2.1.5).  So ``len``, indexing and
iteration read the string; building and hashing one are tuple operations,
in C, and sets of partitions deduplicate automatically.  A partition
equals only a partition, never the plain tuple of its string, and it
orders by ``sort_key``, not as a tuple.  Every partition is numbered by
first occurrence of its points' keys (``from_assignment``), which is the
growth string itself; only ``Partition(blocks, n)``, for outside input,
validates first.  Code that already holds a growth string builds through
the one trusted constructor, ``Partition._canonical``, which checks
nothing.  The blocks, sorted by their minimum element with
elements sorted inside each block, are ``cached``: built from the
string on first read and then kept, or set at birth by code that already
has them.  Everything here is a pure function over immutable values.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator, Sequence
from functools import partial
from itertools import chain

from .errors import EmptyInput, GroundSetMismatch, SizeCapExceeded, UnknownSampleLabel

#: Default bound on the ground-set size (or block count when refining a base
#: partition) for exhaustive enumeration.  Bell(13) is about 2.7e7.
DEFAULT_ENUMERATION_CAP = 13


class cached:
    """``functools.cached_property`` without the lock that Python 3.10 and
    3.11 take on each first read.  A non-data descriptor: the value, computed
    once (or set at birth), is kept in the instance's ``__dict__``, where
    later reads find it.  ``func`` is the undecorated function."""

    def __init__(self, func):
        self.func = func

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


class Partition(tuple):
    """An ordered set partition of {0, ..., n-1}: the tuple of its growth string.

    Equal only to partitions with the same string; ordered by ``sort_key``;
    ``blocks`` is cached on first read.
    """

    def __new__(cls, blocks: Iterable[Iterable[int]], n: int | None = None):
        blocks = [tuple(b) for b in blocks]
        if not all(blocks):
            raise ValueError("partition blocks must be nonempty")
        elems = sorted(chain.from_iterable(blocks))
        if n is None:
            n = len(elems)
        if n < 1 or elems != list(range(n)):
            raise ValueError(f"blocks must partition range(0, {n}) exactly")
        owner = {e: i for i, b in enumerate(blocks) for e in b}
        return cls.from_assignment(map(owner.__getitem__, range(n)))

    def __reduce__(self):
        # Tuple's own pickling would hand the string to the validating
        # constructor, which takes blocks.
        return (self._canonical, (tuple(self),))

    @classmethod
    def singletons(cls, n: int) -> "Partition":
        return cls.from_assignment(range(n))

    @classmethod
    def one_block(cls, n: int) -> "Partition":
        return cls.from_assignment([0] * n)

    @classmethod
    def from_assignment(cls, keys: Iterable[Hashable]) -> "Partition":
        """Group indices by key value: point i joins the block of ``keys[i]``.

        Blocks are numbered by first occurrence, which is the growth string
        itself, so nothing is checked and no block is built.
        """
        number: dict[Hashable, int] = {}
        block_of = tuple([number.setdefault(k, len(number)) for k in keys])
        if not block_of:
            raise ValueError("blocks must partition range(0, 0) exactly")
        return cls._canonical(block_of)

    @cached
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        # Points are visited in order, so each block comes out sorted, and
        # the blocks in order of their least point.
        groups: list[list[int]] = [[] for _ in range(self.n_blocks)]
        for e, i in enumerate(self):
            groups[i].append(e)
        return tuple(map(tuple, groups))

    @property
    def n(self) -> int:
        return len(self)

    @property
    def n_blocks(self) -> int:
        return max(self) + 1

    def block_of(self, element: int) -> int:
        """Index of the block containing ``element``."""
        return self[element]

    def restrict(self, kept: Sequence[int]) -> "Partition":
        """Trace on ``kept``, distinct original indices in any order: point i
        is ``kept[i]``, numbered by first occurrence; empty traces disappear.
        """
        if len(set(kept)) < len(kept) or not set(kept) <= set(range(len(self))):
            raise ValueError(f"blocks must partition range(0, {len(kept)}) exactly")
        return Partition.from_assignment([self[e] for e in kept])

    def sort_key(self) -> tuple:
        return (len(self), max(self) + 1, self.blocks)

    # Defining __eq__ would drop the inherited hash, so it is set again.
    __hash__ = tuple.__hash__

    def __eq__(self, other) -> bool:
        # The string's length is n, so equal strings mean equal ground sets.
        return isinstance(other, Partition) and tuple.__eq__(self, other)

    def __ne__(self, other) -> bool:
        return not isinstance(other, Partition) or tuple.__ne__(self, other)

    # All four, or the ones left out would compare as tuples.  Each raises
    # for a non-partition: returning NotImplemented would hand the question
    # to the plain tuple's reflected method, which answers in tuple order.
    def __lt__(self, other: "Partition") -> bool:
        return self.sort_key() < _sort_key(other, "<")

    def __le__(self, other: "Partition") -> bool:
        return self.sort_key() <= _sort_key(other, "<=")

    def __gt__(self, other: "Partition") -> bool:
        return self.sort_key() > _sort_key(other, ">")

    def __ge__(self, other: "Partition") -> bool:
        return self.sort_key() >= _sort_key(other, ">=")

    def __repr__(self) -> str:
        return f"Partition({format_partition(self)!r})"


# The one trusted constructor: its argument must already be a restricted
# growth string; nothing is checked, and no block is built.  A partial of
# tuple.__new__ is called in C and pickles by reference.
Partition._canonical = partial(tuple.__new__, Partition)


def _sort_key(other: object, op: str) -> tuple:
    if not isinstance(other, Partition):
        raise TypeError(f"'{op}' not supported between instances of "
                        f"'Partition' and '{type(other).__name__}'")
    return other.sort_key()


def is_coarsening(p: Partition, q: Partition) -> bool:
    """True when ``p`` is a coarsening of ``q`` (p = h(q) for some h).

    Equivalently every block of ``q`` lies inside one block of ``p``: the
    (q[e], p[e]) pairs number ``q``'s blocks.  The relation is reflexive.
    """
    if p.n != q.n:
        raise GroundSetMismatch(f"ground sets differ: {p.n} vs {q.n}")
    return len(set(zip(q, p))) == q.n_blocks


def join(parts: Sequence[Partition]) -> Partition:
    """Finest common coarsening, via components of the same-block relation."""
    if not parts:
        raise EmptyInput("join of no partitions")
    n = parts[0].n
    if any(p.n != n for p in parts):
        raise GroundSetMismatch("join over mixed ground sets")
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for p in parts:  # link each point to its block's first point
        first: dict[int, int] = {}
        for e, i in enumerate(p):
            parent[find(e)] = find(first.setdefault(i, e))
    return Partition.from_assignment([find(i) for i in range(n)])


def meet(p: Partition, q: Partition) -> Partition:
    """Coarsest common refinement (nonempty pairwise block intersections)."""
    if p.n != q.n:
        raise GroundSetMismatch(f"ground sets differ: {p.n} vs {q.n}")
    return Partition.from_assignment(zip(p, q))


def enumerate_partitions(
    n: int,
    coarser_than: Partition | None = None,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> Iterator[Partition]:
    """Yield every partition of {0,...,n-1} exactly once, deterministically.

    The order is restricted-growth-string (lexicographic) order.  With
    ``coarser_than`` only coarsenings of that partition are produced, by
    enumerating partitions of its block set and expanding, so the effective
    size is its block count.  Raises SizeCapExceeded when the effective size
    exceeds ``cap``.

    A growth string ``a`` over the base blocks puts base block i in group
    a[i].  Base blocks come in order of their least points, so mapping each
    point through its base block gives the yielded partition's own growth
    string: it is canonical by construction, and it becomes a partition as
    a tuple does, with no check and no block built unless one is read.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if coarser_than is not None and coarser_than.n != n:
        raise GroundSetMismatch("coarser_than has a different ground set")
    base = Partition.singletons(n) if coarser_than is None else coarser_than
    size = base.n_blocks
    if size > cap:
        raise SizeCapExceeded(
            f"enumeration over {size} items exceeds the cap of {cap}"
        )
    strings = _growth_strings(size)
    if size < n:  # base block i's points all go to group a[i]
        strings = (tuple(map(a.__getitem__, base)) for a in strings)
    return map(Partition._canonical, strings)


def _growth_strings(size: int) -> Iterator[tuple[int, ...]]:
    # Restricted growth strings of length ``size`` in lexicographic order.
    # Each string of length size - 2, from this same generator, is followed
    # by its admissible last two entries, which depend only on its maximum
    # m: x <= m + 1, then y <= max(m, x) + 1, read from one table per m.
    if size <= 2:
        return iter([(0,)] if size == 1 else [(0, 0), (0, 1)])
    tails = {m: [(x, y) for x in range(m + 2) for y in range(max(m, x) + 2)]
             for m in range(size - 2)}
    return chain.from_iterable([prefix + t for t in tails[max(prefix)]]
                               for prefix in _growth_strings(size - 2))


def format_partition(p: Partition, labels: Sequence[str] | None = None) -> str:
    """Render blocks as label groups: ``1,2,3,4|5,6|7``."""
    if labels is None:
        labels = [str(i) for i in range(p.n)]
    get = labels.__getitem__
    return "|".join([",".join(map(get, b)) for b in p.blocks])


def format_event(event: Iterable[int], labels: Sequence[str]) -> str:
    """Render a set of sample indices as a label group: ``{5,6}``."""
    return "{" + ",".join(map(labels.__getitem__, sorted(event))) + "}"


def parse_partition(text: str, labels: Sequence[str]) -> Partition:
    """Parse the ``a,b|c`` block syntax against a label list."""
    index = {lab: i for i, lab in enumerate(labels)}
    blocks = []
    for group in text.split("|"):
        block = []
        for tok in group.split(","):
            tok = tok.strip()
            if tok not in index:
                raise UnknownSampleLabel(f"unknown label {tok!r} in partition")
            block.append(index[tok])
        blocks.append(block)
    try:
        return Partition(blocks, len(labels))
    except ValueError as exc:
        raise UnknownSampleLabel(f"not a partition of the label set: {exc}") from exc
