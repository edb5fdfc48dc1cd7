"""The paper's core contribution: trace-driven consistency-semantics analysis.

Pipeline (one call: :func:`repro.core.report.analyze`):

1. :mod:`~repro.core.offsets` — reconstruct byte offsets for every POSIX
   data operation from open flags, seeks, and running offsets (§5.1);
2. :mod:`~repro.core.overlaps` — detect overlapping extents with the
   sort-and-sweep Algorithm 1;
3. :mod:`~repro.core.conflicts` — classify RAW/WAW × same/different
   process potential conflicts under commit and session semantics (§5.2);
4. :mod:`~repro.core.patterns` / :mod:`~repro.core.highlevel` — fine- and
   high-level access-pattern characterization (Table 3, Figures 1–2);
5. :mod:`~repro.core.metadata` — metadata-operation usage by issuing
   layer (Figure 3);
6. :mod:`~repro.core.semantics` — the consistency-model lattice and PFS
   registry (Table 1), plus the sufficiency decision;
7. :mod:`~repro.core.happens_before` — rebuild the partial order from MPI
   events and validate race-freedom (§5.2's methodology check).
"""

from repro.core.records import AccessRecord, AccessTable
from repro.core.offsets import reconstruct_offsets
from repro.core.overlaps import find_overlaps, overlap_rank_matrix
from repro.core.conflicts import (
    Conflict,
    ConflictKind,
    ConflictScope,
    ConflictSet,
    count_conflicts,
    detect_conflicts,
)
from repro.core.semantics import (
    Semantics,
    FileSystemInfo,
    PFS_REGISTRY,
    weakest_sufficient_semantics,
    compatible_filesystems,
)
from repro.core.patterns import (
    AccessPattern,
    classify_gap_sequence,
    transition_mix,
    local_pattern_mix,
    global_pattern_mix,
)
from repro.core.highlevel import SharingPattern, classify_sharing
from repro.core.metadata import metadata_usage, LayerGroup
from repro.core.metadata_conflicts import (
    MetadataConflict,
    MetadataConflictKind,
    MetadataConflictSet,
    detect_metadata_conflicts,
)
from repro.core.advisor import (
    FixKind,
    FixSuggestion,
    advice_text,
    suggest_fixes,
)
from repro.core.happens_before import HappensBefore, validate_race_freedom
from repro.core.timeline import conflict_timelines, file_timeline
from repro.core.report import RunReport, analyze

__all__ = [
    "AccessRecord", "AccessTable", "reconstruct_offsets",
    "find_overlaps", "overlap_rank_matrix",
    "Conflict", "ConflictKind", "ConflictScope", "ConflictSet",
    "detect_conflicts", "count_conflicts",
    "Semantics", "FileSystemInfo", "PFS_REGISTRY",
    "weakest_sufficient_semantics", "compatible_filesystems",
    "AccessPattern", "classify_gap_sequence", "transition_mix",
    "local_pattern_mix", "global_pattern_mix",
    "SharingPattern", "classify_sharing",
    "metadata_usage", "LayerGroup",
    "MetadataConflict", "MetadataConflictKind", "MetadataConflictSet",
    "detect_metadata_conflicts",
    "FixKind", "FixSuggestion", "advice_text", "suggest_fixes",
    "HappensBefore", "validate_race_freedom",
    "RunReport", "analyze",
    "conflict_timelines", "file_timeline",
]
