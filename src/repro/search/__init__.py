"""Search over candidate product spaces and embeddings (paper Sections
4.2-4.3)."""

from repro.core.spaces import copy_var_bounds
from repro.search.autotune import clear_winner_cache
from repro.search.candidates import Candidate, generate_candidates
from repro.search.driver import SearchResult, SearchStats, search
from repro.search.features import (
    StructureFeatures,
    extract_features,
    structure_signature,
)
from repro.search.format_select import (
    FormatChoice,
    SelectionResult,
    select_format,
)

__all__ = [
    "Candidate",
    "generate_candidates",
    "SearchResult",
    "SearchStats",
    "search",
    "copy_var_bounds",
    "FormatChoice",
    "SelectionResult",
    "select_format",
    "StructureFeatures",
    "extract_features",
    "structure_signature",
    "clear_winner_cache",
]
