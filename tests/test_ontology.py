import pytest
from hypothesis import given
import hypothesis.strategies as st

from driftguard.ontology import (
    OntologyChangeKind,
    OntologyTaxonomy,
    classify_ontology_change,
)
from driftguard.types import ContractError

# Ten-edge toy taxonomy covering the six reference transitions.
TOY_EDGES = [
    ("granny smith", "apple"),
    ("apple", "natural foods"),
    ("wave", "water"),
    ("skiing", "snow"),
    ("tennis", "sports"),
    ("sports", "activity"),
    ("girl", "person"),
    ("photography", "visual arts"),
    ("neighbourhood", "place"),
    ("blue", "colour"),
]
TOY = OntologyTaxonomy.from_pairs(TOY_EDGES)

REFERENCE_TRANSITIONS = [
    ("natural foods", "granny smith", OntologyChangeKind.SPECIALISATION),
    ("water", "wave", OntologyChangeKind.SPECIALISATION),
    ("skiing", "snow", OntologyChangeKind.GENERALISATION),
    ("tennis", "sports", OntologyChangeKind.GENERALISATION),
    ("girl", "photography", OntologyChangeKind.EMPHASIS_CHANGE),
    ("neighbourhood", "blue", OntologyChangeKind.EMPHASIS_CHANGE),
]


@pytest.mark.parametrize("old,new,expected", REFERENCE_TRANSITIONS)
def test_reference_transitions(old, new, expected):
    assert classify_ontology_change(old, new, TOY) == expected


def test_toy_taxonomy_has_ten_edges():
    assert len(TOY_EDGES) == 10


def test_unchanged_on_equal():
    assert classify_ontology_change("sheep", "sheep", TOY) == OntologyChangeKind.UNCHANGED


def test_specialisation_via_direct_edge():
    taxonomy = OntologyTaxonomy.from_pairs([("iguania", "reptile")])
    assert (
        classify_ontology_change("reptile", "iguania", taxonomy)
        == OntologyChangeKind.SPECIALISATION
    )


def test_transitive_generalisation():
    assert classify_ontology_change("granny smith", "natural foods", TOY) == (
        OntologyChangeKind.GENERALISATION
    )
    assert classify_ontology_change("tennis", "activity", TOY) == (
        OntologyChangeKind.GENERALISATION
    )


def test_cycle_rejected_at_load():
    with pytest.raises(ContractError, match="cycle") as excinfo:
        OntologyTaxonomy.from_pairs([("a", "b"), ("b", "c"), ("c", "a")])
    assert str(excinfo.value) == "taxonomy contains a cycle: a -> b -> c -> a"


def test_self_loop_rejected():
    with pytest.raises(ContractError, match="cycle"):
        OntologyTaxonomy.from_pairs([("a", "a")])


def test_multiple_parents_allowed():
    taxonomy = OntologyTaxonomy.from_pairs([("tomato", "fruit"), ("tomato", "vegetable")])
    assert classify_ontology_change("tomato", "fruit", taxonomy) == (
        OntologyChangeKind.GENERALISATION
    )
    assert classify_ontology_change("tomato", "vegetable", taxonomy) == (
        OntologyChangeKind.GENERALISATION
    )


_random_edges = st.lists(
    st.tuples(st.integers(0, 12), st.integers(0, 12)).map(
        # child index always below parent index keeps the graph acyclic
        lambda ab: (f"n{min(ab)}", f"n{max(ab) + 1}")
    ),
    max_size=20,
)


@given(_random_edges, st.integers(0, 13), st.integers(0, 13))
def test_never_both_directions(edges, a, b):
    taxonomy = OntologyTaxonomy.from_pairs(edges)
    old, new = f"n{a}", f"n{b}"
    forward = classify_ontology_change(old, new, taxonomy)
    backward = classify_ontology_change(new, old, taxonomy)
    if old == new:
        assert forward == backward == OntologyChangeKind.UNCHANGED
        return
    pair = {forward, backward}
    assert pair in (
        {OntologyChangeKind.GENERALISATION, OntologyChangeKind.SPECIALISATION},
        {OntologyChangeKind.EMPHASIS_CHANGE},
    )
