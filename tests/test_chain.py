import pytest
from conftest import every_event

from possbox import SENTINEL, Chain, IntervalUnion, verify
from possbox.chain import class_subsets


def test_chain_basic_queries(chain3):
    assert chain3.m == 3
    assert chain3.labels == frozenset({"a", "b", "c"})
    assert chain3.index_of("b") == 1
    assert chain3.compare("a", "c") == -1
    assert chain3.compare("c", "a") == 1
    assert chain3.compare("b", "b") == 0


def test_chain_ties_share_a_class():
    tied = Chain([["a", "b"], ["c"]])
    assert tied.compare("a", "b") == 0
    assert tied.index_of("a") == tied.index_of("b") == 0
    assert tied.classes_hit({"a"}) == (0,)
    assert tied.classes_hit({"b", "c"}) == (0, 1)


def test_chain_rejects_bad_input():
    with pytest.raises(ValueError):
        Chain([])
    with pytest.raises(ValueError):
        Chain([["a"], []])
    with pytest.raises(ValueError):
        Chain([["a"], ["a"]])


def test_event_validates_labels(chain3):
    assert chain3.event(["a", "c"]) == frozenset({"a", "c"})
    with pytest.raises(ValueError):
        chain3.event(["a", "z"])


def test_complement(chain3):
    assert chain3.complement({"b"}) == frozenset({"a", "c"})
    assert chain3.complement(frozenset()) == chain3.labels


def test_class_range_labels(chain3):
    assert chain3.class_range_labels(0, 1) == frozenset({"a", "b"})
    assert chain3.class_range_labels(SENTINEL, SENTINEL) == frozenset()


def test_minimal_cover_examples(chain3):
    assert chain3.minimal_cover({"a", "c"}).runs == ((SENTINEL, 0), (1, 2))
    assert chain3.minimal_cover({"b"}).runs == ((0, 1),)
    assert chain3.minimal_cover({"a", "b", "c"}).runs == ((SENTINEL, 2),)
    assert chain3.minimal_cover(frozenset()).runs == ()


def test_minimal_cover_merges_adjacent_classes(chain3):
    cover = chain3.minimal_cover({"a", "b"})
    assert cover.runs == ((SENTINEL, 1),)


def test_minimal_cover_is_least_superset():
    # The cover of A uses exactly the classes A hits: dropping any class of
    # the cover loses part of A, and every other covering union is larger.
    for m in range(1, 6):
        chain = Chain([[f"x{i}"] for i in range(m)])
        for event in every_event(chain.labels):
            cover = chain.minimal_cover(event)
            assert event <= cover.as_event(chain)
            assert set(cover.class_indices()) == set(chain.classes_hit(event))


def test_minimal_cover_idempotent(chain3):
    cover = chain3.minimal_cover({"a", "c"})
    again = chain3.minimal_cover(cover.as_event(chain3))
    assert again == cover


def test_interval_union_validation():
    with pytest.raises(ValueError):
        IntervalUnion(3, ((0, 0),))  # left must be strictly below right
    with pytest.raises(ValueError):
        IntervalUnion(3, ((-2, 1),))
    with pytest.raises(ValueError):
        IntervalUnion(3, ((SENTINEL, 3),))
    with pytest.raises(ValueError):
        # touching runs must be merged, not listed separately
        IntervalUnion(3, ((SENTINEL, 0), (0, 2)))


def test_interval_union_from_class_indices():
    union = IntervalUnion.from_class_indices(5, [0, 1, 3])
    assert union.runs == ((SENTINEL, 1), (2, 3))
    assert list(union.class_indices()) == [0, 1, 3]
    assert IntervalUnion.from_class_indices(5, [3, 1, 0, 1]) == union
    assert IntervalUnion.from_class_indices(5, range(5)).runs == ((SENTINEL, 4),)
    assert IntervalUnion.from_class_indices(5, [4, 2, 0]).runs == ((SENTINEL, 0), (1, 2), (3, 4))
    assert IntervalUnion.from_class_indices(5, []).runs == ()


def test_minimal_cover_runs_equal_from_class_indices_on_every_event():
    chain = Chain([["a"], ["b", "b2"], ["c"], ["d"], ["e", "e2"]])
    labels = sorted(chain.labels)
    for mask in range(1 << len(labels)):
        event = [label for k, label in enumerate(labels) if mask >> k & 1]
        hit = chain.classes_hit(event)
        cover = chain.minimal_cover(event)
        assert cover == IntervalUnion.from_class_indices(chain.m, reversed(hit))
        assert tuple(cover.class_indices()) == hit


@pytest.mark.parametrize("indices, named", [([7, 5], 5), ([2, 6, -3], -3), ([-1, 9], -1)])
def test_from_class_indices_names_the_lowest_index_out_of_range(indices, named):
    with pytest.raises(ValueError, match=rf"^class index {named} out of range for m=4$"):
        IntervalUnion.from_class_indices(4, indices)


def test_class_subsets_come_in_bitmask_order():
    # exhaustive_max_preserving reads unions at ``a | b`` and suite_conjunction
    # pairs each subset with its complement through ``reversed``.
    assert class_subsets(0) == [()]
    assert class_subsets(1) == [(), (0,)]
    assert class_subsets(2) == [(), (0,), (1,), (0, 1)]
    assert class_subsets(3) == [(), (0,), (1,), (0, 1), (2,), (0, 2), (1, 2), (0, 1, 2)]
    assert verify.class_subsets is class_subsets


def test_chain_equality_and_hash():
    one = Chain([["a"], ["b"]])
    two = Chain([["a"], ["b"]])
    assert one == two
    assert hash(one) == hash(two)
    assert one != Chain([["b"], ["a"]])
