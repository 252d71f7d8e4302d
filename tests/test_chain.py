from itertools import permutations

import pytest
from conftest import TIED_CHAINS, cover_classes, every_event

from possbox import Chain, MarginalFamily, PBox, PossibilityDistribution, joint_frechet, possibility_to_pbox, verify
from possbox.chain import SENTINEL, class_subsets
from possbox.pbox import pbox_document
from possbox.possibility import value_levels


def test_chain_basic_queries(chain3):
    assert chain3.m == 3
    assert chain3.labels == frozenset({"a", "b", "c"})
    assert chain3.classes_hit({"b"}) == (1,)


def test_chain_ties_share_a_class():
    tied = Chain([["a", "b"], ["c"]])
    assert tied.classes_hit({"a"}) == tied.classes_hit({"b"}) == (0,)
    assert tied.classes_hit({"b", "c"}) == (0, 1)


def test_event_validates_labels(chain3):
    assert chain3.event(["a", "c"]) == frozenset({"a", "c"})


def test_complement(chain3):
    assert chain3.complement({"b"}) == frozenset({"a", "c"})
    assert chain3.complement(frozenset()) == chain3.labels


def test_class_range_labels(chain3):
    assert chain3.class_range_labels(0, 1) == frozenset({"a", "b"})
    # Either end of the chain closes an empty interval.
    assert chain3.class_range_labels(0, -1) == chain3.class_range_labels(3, 2) == frozenset()


def test_minimal_cover_examples(chain3):
    assert chain3.minimal_cover({"a", "c"}) == ((SENTINEL, 0), (1, 2))
    assert chain3.minimal_cover({"b"}) == ((0, 1),)
    assert chain3.minimal_cover({"a", "b", "c"}) == ((SENTINEL, 2),)
    assert chain3.minimal_cover(frozenset()) == ()


def test_minimal_cover_merges_adjacent_classes(chain3):
    assert chain3.minimal_cover({"a", "b"}) == ((SENTINEL, 1),)


def test_minimal_cover_is_least_superset():
    # The cover of A uses exactly the classes A hits: dropping any class of
    # the cover loses part of A, and every other covering union is larger.
    for m in range(1, 6):
        chain = Chain([[f"x{i}"] for i in range(m)])
        for event in every_event(chain.labels):
            cover = chain.minimal_cover(event)
            classes = cover_classes(cover)
            assert event <= frozenset().union(*(chain.classes[i] for i in classes))
            assert classes == chain.classes_hit(event)


def test_minimal_cover_idempotent(chain3):
    cover = chain3.minimal_cover({"a", "c"})
    again = chain3.minimal_cover(frozenset().union(*(chain3.classes[i] for i in cover_classes(cover))))
    assert again == cover


def test_minimal_cover_spans_exactly_the_classes_hit_on_every_event():
    chain = Chain([["a"], ["b", "b2"], ["c"], ["d"], ["e", "e2"]])
    for event in every_event(chain.labels):
        runs = chain.minimal_cover(event)
        assert cover_classes(runs) == chain.classes_hit(event)
        # Each run (l, r] holds a class, and a class the event misses ends it.
        assert all(left < right for left, right in runs)
        assert all(right < next_left for (_, right), (next_left, _) in zip(runs, runs[1:]))
    assert chain.minimal_cover({"e2", "c", "a", "b"}) == ((SENTINEL, 2), (3, 4))
    assert chain.minimal_cover({"a", "c", "e"}) == ((SENTINEL, 0), (1, 2), (3, 4))


def test_class_subsets_come_in_bitmask_order():
    # exhaustive_max_preserving reads unions at ``a | b``.
    assert class_subsets(0) == [()]
    assert class_subsets(1) == [(), (0,)]
    assert class_subsets(2) == [(), (0,), (1,), (0, 1)]
    assert class_subsets(3) == [(), (0,), (1,), (0, 1), (2,), (0, 2), (1, 2), (0, 1, 2)]
    assert verify.class_subsets is class_subsets


def test_chain_equality_and_hash():
    one = Chain([["a"], ["b"]])
    two = Chain([["a"], ["b"]])
    assert one == two
    with pytest.raises(TypeError, match="unhashable"):
        hash(one)
    assert one != Chain([["b"], ["a"]])


#: What a chain shows of itself, and what a box on it writes.
VIEWS = {
    "classes": lambda box: box.chain.classes,
    "labels_by_class": lambda box: box.chain.labels_by_class(),
    "repr": lambda box: repr(box.chain),
    "pbox_document": pbox_document,
}


def vacuous(chain):
    return PBox(chain, [0] * (chain.m - 1) + [1], [1] * chain.m)


PI = PossibilityDistribution({"a": "1/2", "b": "1"})
JOINT = joint_frechet(MarginalFamily([PI, PI]))
#: ``(make, classes)``: ``make`` builds a box on a chain built afresh from ``classes``.
FRESH_BOXES = {
    **{f"default-{m}": (lambda m=m: vacuous(verify.default_chain(m)), [[f"x{i}"] for i in range(m)]) for m in range(1, 6)},
    **{
        f"tied-{k}": (lambda classes=classes: vacuous(Chain(classes)), classes)
        for k, classes in enumerate([sorted(cls) for cls in chain.classes] for chain in TIED_CHAINS)
    },
    "joint": (lambda: possibility_to_pbox(JOINT), [labels for _, labels in value_levels(JOINT, JOINT)]),
}


@pytest.mark.parametrize("make, classes", FRESH_BOXES.values(), ids=FRESH_BOXES)
def test_a_chain_shows_the_same_whichever_view_is_read_first(make, classes):
    # A chain makes its classes on first read: each of the 24 orders of reading sees the classes it was built from.
    first = None
    for order in permutations(VIEWS):
        box = make()
        views = {name: VIEWS[name](box) for name in order}
        first = first or views
        assert views == first, order
    assert first["classes"] == tuple(map(frozenset, classes))
