"""Finite totally preordered spaces, stored as their ordered quotient.

A total preorder on a finite set is determined by the ordered list of its
equivalence classes, from the class of the smallest elements up to the class
of the largest.  Storing the quotient directly makes every order query an
integer comparison of class indices.

Index ``-1`` addresses a virtual position strictly below the bottom class:
the point where every cumulative value is zero.  It is not an element of the
space -- events never contain it -- but interval bookkeeping uses it as the
open left endpoint of runs anchored at the bottom.
"""

from __future__ import annotations

from typing import Iterable

from possbox.rationals import shown

Label = str

#: Index of the virtual position below the bottom class.
SENTINEL = -1


class Chain:
    """Ordered quotient of a finite totally preordered space.

    ``classes[0]`` holds the smallest elements, ``classes[m - 1]`` the
    largest.  Elements sharing a class are order-equivalent.

    >>> chain = Chain([["a"], ["b"], ["c"]])
    >>> chain.m
    3
    >>> tied = Chain([["low", "also_low"], ["high"]])
    >>> tied.index_of("low") == tied.index_of("also_low")
    True
    """

    __slots__ = ("classes", "_index")

    def __init__(self, classes: Iterable[Iterable[Label]]):
        listed = [list(cls) for cls in classes]
        if not listed:
            raise ValueError("a chain needs at least one class")
        index: dict[Label, int] = {}
        for i, cls in enumerate(listed):
            if not cls:
                raise ValueError(f"class {i} is empty")
            for label in cls:
                if index.setdefault(label, i) != i:
                    raise ValueError(f"label {shown(repr(label))} appears in more than one class")
        self.classes = tuple(frozenset(cls) for cls in listed)
        self._index = index

    # ------------------------------------------------------------ queries

    @property
    def m(self) -> int:
        """Number of equivalence classes."""
        return len(self.classes)

    @property
    def labels(self) -> frozenset[Label]:
        return frozenset(self._index)

    def labels_by_class(self) -> tuple[tuple[int, Label], ...]:
        """``(class index, label)`` pairs, class by class and sorted within a class.

        This is the one within-class order of the package: distributions built
        from a box and the oracle's mass variables list labels in it, so it
        does not depend on string hashing.

        >>> Chain([["c", "a"], ["b"]]).labels_by_class()
        ((0, 'a'), (0, 'c'), (1, 'b'))
        """
        return tuple((i, label) for i, cls in enumerate(self.classes) for label in sorted(cls))

    def index_of(self, label: Label) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise ValueError(f"unknown label {shown(repr(label))}") from None

    # ------------------------------------------------------------- events

    def event(self, labels: Iterable[Label]) -> frozenset[Label]:
        """Normalize an event, rejecting labels outside the space.

        The first unknown label in the caller's order is the one reported.
        """
        listed = list(labels)
        for label in listed:
            if label not in self._index:
                raise ValueError(f"unknown label {shown(repr(label))}")
        return frozenset(listed)

    def complement(self, labels: Iterable[Label]) -> frozenset[Label]:
        return self.labels - self.event(labels)

    def classes_hit(self, labels: Iterable[Label]) -> tuple[int, ...]:
        """Sorted indices of the classes an event intersects.

        The first unknown label in the caller's order is the one reported.
        """
        try:
            return tuple(sorted(set(map(self._index.__getitem__, labels))))
        except KeyError as exc:
            raise ValueError(f"unknown label {shown(repr(exc.args[0]))}") from None

    def class_range_labels(self, lo: int, hi: int) -> frozenset[Label]:
        """Union of the classes with index in ``lo..hi`` (empty if lo > hi)."""
        out: set[Label] = set()
        for i in range(max(lo, 0), min(hi, self.m - 1) + 1):
            out |= self.classes[i]
        return frozenset(out)

    def minimal_cover(self, labels: Iterable[Label]) -> tuple[tuple[int, int], ...]:
        """Smallest union of class runs containing an event, as half-open runs.

        Each maximal run of consecutive intersected classes ``i..j`` becomes
        the pair ``(i - 1, j)``, the run ``(i - 1, j]``; ``i - 1`` may be the
        sentinel.  Runs come in ascending order, separated by at least one
        class the event misses.  No strictly smaller union of runs contains
        the event, and events intersecting the same classes share the same
        cover.

        >>> chain = Chain([["a"], ["b"], ["c"]])
        >>> chain.minimal_cover({"a", "c"})
        ((-1, 0), (1, 2))
        >>> chain.minimal_cover([])
        ()
        """
        runs: list[tuple[int, int]] = []
        start = prev = None
        for i in self.classes_hit(labels):
            if i - 1 != prev:
                if start is not None:
                    runs.append((start - 1, prev))
                start = i
            prev = i
        if start is not None:
            runs.append((start - 1, prev))
        return tuple(runs)

    # ----------------------------------------------------------- protocol

    def __eq__(self, other: object) -> bool:
        # Only PBox.__eq__ calls this, for the benchmark's check of each pass's results.
        return isinstance(other, Chain) and self.classes == other.classes

    def __hash__(self) -> int:
        return hash(self.classes)

    def __repr__(self) -> str:
        body = ", ".join("{" + ", ".join(sorted(cls)) + "}" for cls in self.classes)
        return f"Chain({body})"


def class_subsets(m: int) -> list[tuple[int, ...]]:
    """All subsets of the indices ``0..m-1``, in bitmask order (empty set first).

    The subset at position ``mask`` holds the set bits of ``mask``, so the
    union of the subsets at ``a`` and ``b`` sits at ``a | b``.
    """
    return [tuple(i for i in range(m) if mask >> i & 1) for mask in range(1 << m)]
