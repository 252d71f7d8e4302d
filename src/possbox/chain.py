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

from collections.abc import Mapping, Set
from itertools import groupby
from typing import Hashable, Iterable

from possbox.rationals import shown

#: A ``str``, or a tuple of ``str`` (a joint's product point).
Label = Hashable

#: Index of the virtual position below the bottom class.
SENTINEL = -1


class Chain:
    """Ordered quotient of a finite totally preordered space.

    ``classes[0]`` holds the smallest elements, ``classes[m - 1]`` the
    largest; elements sharing a class are order-equivalent.  A chain keeps
    ``m`` and its label index, in class order, and makes ``classes`` on
    first read.  Every label is a ``str`` or a tuple of ``str`` (:func:`_label`).

    >>> chain = Chain([["a"], ["b"], ["c"]])
    >>> chain.m
    3
    >>> tied = Chain([["low", "also_low"], ["high"]])
    >>> tied.classes_hit(["low"]) == tied.classes_hit(["also_low"])
    True
    """

    __slots__ = ("_index", "_m", "_classes")

    def __init__(self, classes: Iterable[Iterable[Label]]):
        _refuse_unordered(classes, "classes", "classes")
        index: dict[Label, int] = {}
        for i, cls in enumerate(classes):
            if isinstance(cls, str):
                raise ValueError(f"class {i} is a string, not a list of labels")
            known = len(index)
            for label in cls:
                if type(label) is not str:
                    _label(label, f"class {i}: ")
                if index.setdefault(label, i) != i:
                    raise ValueError(f"label {shown(label, repr)} appears in more than one class")
            if len(index) == known:
                raise ValueError(f"class {i} is empty")
        if not index:  # every class holds a label, so no label means no class
            raise ValueError("a chain needs at least one class")
        self._index = index
        self._m = i + 1
        self._classes = None

    # ------------------------------------------------------------ queries

    @property
    def m(self) -> int:
        """Number of equivalence classes."""
        return self._m

    @property
    def classes(self) -> tuple[frozenset[Label], ...]:
        """The classes in order, each a frozenset; built on the first read and kept."""
        if self._classes is None:
            self._classes = tuple(frozenset(group) for _, group in groupby(self._index, self._index.__getitem__))
        return self._classes

    @property
    def labels(self) -> frozenset[Label]:
        return frozenset(self._index)

    def labels_by_class(self) -> tuple[tuple[int, Label], ...]:
        """``(class index, label)`` pairs, class by class and sorted within a class.

        This is the one within-class order of the package: distributions built
        from a box and the oracle's mass variables list labels in it, so it
        does not depend on string hashing.  Strings come first, in their own
        order, then tuples in theirs.

        >>> Chain([["c", "a"], ["b"]]).labels_by_class()
        ((0, 'a'), (0, 'c'), (1, 'b'))
        """
        return tuple((i, label) for i, cls in enumerate(self.classes) for label in sorted(cls, key=_order))

    # ------------------------------------------------------------- events

    def event(self, labels: Iterable[Label]) -> frozenset[Label]:
        """Normalize an event, rejecting labels outside the space.

        The first unknown label in the caller's order is the one reported.
        A bare string is refused, not read as a set of its characters.
        """
        _refuse_string(labels)
        listed = list(labels)
        for label in listed:
            if label not in self._index:
                raise ValueError(f"unknown label {shown(label, repr)}")
        return frozenset(listed)

    def complement(self, labels: Iterable[Label]) -> frozenset[Label]:
        return self.labels - self.event(labels)

    def classes_hit(self, labels: Iterable[Label]) -> tuple[int, ...]:
        """Sorted indices of the classes an event intersects.

        The first unknown label in the caller's order is the one reported.
        A bare string is refused, not read as a set of its characters.
        """
        _refuse_string(labels)
        try:
            return tuple(sorted(set(map(self._index.__getitem__, labels))))
        except KeyError as exc:
            raise ValueError(f"unknown label {shown(exc.args[0], repr)}") from None

    def class_range_labels(self, lo: int, hi: int) -> frozenset[Label]:
        """Union of the classes with index in ``lo..hi``, empty when ``lo > hi``.

        ``lo = m`` or ``hi = -1`` closes an empty interval at an end of the
        chain; any other index off the chain, and a ``bool``, is refused.
        """
        if isinstance(lo, bool) or isinstance(hi, bool) or not (0 <= lo <= self.m and -1 <= hi < self.m):
            raise ValueError(f"class range {shown(lo)}..{shown(hi)} does not index a chain of {self.m} classes")
        return frozenset().union(*self.classes[lo : hi + 1])

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
        return isinstance(other, Chain) and self._index == other._index

    def __repr__(self) -> str:
        body = ", ".join("{" + ", ".join(map(_written, sorted(cls, key=_order))) + "}" for cls in self.classes)
        return f"Chain({body})"


def _label(label: object, place: str = "") -> Label:
    """``label`` itself if it is a ``str`` or a tuple of them, else a ``ValueError`` led by ``place``."""
    if isinstance(label, str) or isinstance(label, tuple) and all(isinstance(x, str) for x in label):
        return label
    raise ValueError(f"{place}label of type {type(label).__name__} is neither a string nor a tuple of strings")


def _order(label: Label) -> tuple[bool, Label]:
    """Sort key of :meth:`Chain.labels_by_class`: strings by their own order, then tuples."""
    return isinstance(label, tuple), label


def _written(label: Label) -> str:
    """A label as :class:`Chain`'s ``repr`` writes it: a string bare, a tuple ``(a, b)``."""
    return label if isinstance(label, str) else "(" + ", ".join(label) + ")"


def _keys(labels: Iterable[Label]) -> list[str]:
    """Each label as a document writes it: a string bare, a tuple's coordinates joined by ``|``.

    Two labels that would write the same key are refused, so no label is dropped.
    """
    keys: dict[str, Label] = {}
    for label in labels:
        key = label if isinstance(label, str) else "|".join(label)
        if keys.setdefault(key, label) != label:
            first, key = shown(keys[key], repr), shown(key, repr)
            raise ValueError(f"labels {first} and {shown(label, repr)} both write the key {key}")
    return list(keys)


def _refuse_unordered(value: object, name: str, items: str) -> None:
    """Refuse a set or a mapping where position carries meaning: it iterates in hash order."""
    if isinstance(value, (Set, Mapping)):
        raise ValueError(f"{name} is a {type(value).__name__}, not a list of {items}")


def _refuse_string(labels: Iterable[Label]) -> None:
    if isinstance(labels, str):
        raise ValueError(f"event {shown(labels, repr)} is a string, not a list of labels")


def class_subsets(m: int) -> list[tuple[int, ...]]:
    """All subsets of the indices ``0..m-1``, in bitmask order (empty set first).

    The subset at position ``mask`` holds the set bits of ``mask``, so the
    union of the subsets at ``a`` and ``b`` sits at ``a | b``.
    """
    return [tuple(i for i in range(m) if mask >> i & 1) for mask in range(1 << m)]
