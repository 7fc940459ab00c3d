"""Classify a top-label transition against a user-supplied is-a taxonomy.

The taxonomy is plain data: child -> parent edges, multiple parents
allowed, cycles rejected at load. The classifier says whether a transition
walked up the hierarchy (generalisation), down it (specialisation), or
sideways (emphasis change).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from graphlib import CycleError, TopologicalSorter

from .types import ContractError


class OntologyChangeKind(str, Enum):
    GENERALISATION = "generalisation"
    SPECIALISATION = "specialisation"
    EMPHASIS_CHANGE = "emphasis_change"
    UNCHANGED = "unchanged"


@dataclass(frozen=True)
class OntologyTaxonomy:
    """Acyclic child -> parents multi-mapping."""

    parents: dict[str, frozenset[str]]

    def __post_init__(self):
        normalized = {child: frozenset(ps) for child, ps in self.parents.items()}
        object.__setattr__(self, "parents", normalized)
        try:
            TopologicalSorter(normalized).prepare()
        except CycleError as exc:
            # graphlib lists the cycle parent -> child; report it child -> parent
            cycle = reversed(exc.args[1])
            raise ContractError(f"taxonomy contains a cycle: {' -> '.join(cycle)}") from None

    @classmethod
    def from_pairs(cls, pairs) -> "OntologyTaxonomy":
        parents: dict[str, set[str]] = {}
        for child, parent in pairs:
            parents.setdefault(child, set()).add(parent)
        return cls(parents={c: frozenset(p) for c, p in parents.items()})

    def is_ancestor(self, ancestor: str, descendant: str) -> bool:
        """True when `ancestor` is reachable from `descendant` via is-a edges."""
        stack = list(self.parents.get(descendant, ()))
        seen = set()
        while stack:
            node = stack.pop()
            if node == ancestor:
                return True
            if node in seen:
                continue
            seen.add(node)
            stack.extend(self.parents.get(node, ()))
        return False


def classify_ontology_change(
    old_top: str, new_top: str, taxonomy: OntologyTaxonomy
) -> OntologyChangeKind:
    if old_top == new_top:
        return OntologyChangeKind.UNCHANGED
    if taxonomy.is_ancestor(new_top, old_top):
        return OntologyChangeKind.GENERALISATION
    if taxonomy.is_ancestor(old_top, new_top):
        return OntologyChangeKind.SPECIALISATION
    return OntologyChangeKind.EMPHASIS_CHANGE
