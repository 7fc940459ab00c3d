"""Guard proxy for evolving image-labelling services.

Baselines a service against an application-specific benchmark, watches for
label-set and confidence drift, and converts detected evolution into
deterministic error codes delivered through HTTP conditional requests.
"""

from .diffing import (
    EvolutionDelta,
    EvolutionReport,
    Violation,
    compare,
    evaluate_epochs,
    evaluate_image,
)
from .ontology import OntologyChangeKind, OntologyTaxonomy, classify_ontology_change
from .token import (
    BehaviourToken,
    TokenStore,
    ValidationError,
    etag_of,
    mint_token,
    parse_etag,
    validate,
)
from .tuner import TunerMatrix, tune_thresholds
from .types import (
    BenchmarkDataset,
    BenchmarkItem,
    ContractError,
    LabelAnnotation,
    LabelledResponse,
    ThresholdRules,
)

__version__ = "0.1.0"

__all__ = [
    "BehaviourToken",
    "BenchmarkDataset",
    "BenchmarkItem",
    "ContractError",
    "EvolutionDelta",
    "EvolutionReport",
    "LabelAnnotation",
    "LabelledResponse",
    "OntologyChangeKind",
    "OntologyTaxonomy",
    "ThresholdRules",
    "TokenStore",
    "TunerMatrix",
    "ValidationError",
    "Violation",
    "classify_ontology_change",
    "compare",
    "etag_of",
    "evaluate_epochs",
    "evaluate_image",
    "mint_token",
    "parse_etag",
    "tune_thresholds",
    "validate",
]
