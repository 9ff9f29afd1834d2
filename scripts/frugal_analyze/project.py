"""Project-specific configuration: module DAG, lock ranks, hot list.

This is the one file that encodes Frugal's architecture; the rest of the
package is generic machinery. DESIGN.md §11 is the prose version — keep
the two in sync.
"""

from __future__ import annotations

from typing import Dict, Optional

# ---------------------------------------------------------------------------
# Module layering. A file in a module of rank r may include modules of
# rank <= r; same-rank includes are allowed (e.g. cache -> table for the
# row kernels). Rank 0 holds the two foundation modules every layer may
# use: frugal/ (annotation macro headers) and check/ (the model-sync
# shims the lock primitives compile against).
# ---------------------------------------------------------------------------

MODULE_RANK: Dict[str, int] = {
    "frugal": 0,
    "check": 0,
    "common": 1,
    "pq": 2,
    "cache": 2,
    "table": 2,
    "data": 3,
    "metrics": 3,
    "models": 3,
    "sim": 3,
    "runtime": 4,
    "api": 5,
}

# Per-file module overrides (src-root-relative). frugal/frugal.h is the
# public umbrella header: it sits *above* everything it re-exports even
# though it lives in the frugal/ directory.
FILE_MODULE_OVERRIDES: Dict[str, str] = {
    "frugal/frugal.h": "api",
}


def module_of(path: str) -> Optional[str]:
    """Module of a src-root-relative path, or None if unmapped."""
    override = FILE_MODULE_OVERRIDES.get(path)
    if override is not None:
        return override
    head = path.split("/", 1)[0]
    return head if head in MODULE_RANK else None


# ---------------------------------------------------------------------------
# Lock ranks (mirrors src/common/lock_rank.h; the analyze fixture test
# cross-checks the values against the header so drift fails loudly).
# Acquiring a lock whose rank is <= any held rank is an inversion.
# ---------------------------------------------------------------------------

LOCK_RANKS: Dict[str, int] = {
    "kUnranked": 0,
    "kRegistryShard": 10,
    "kRecoverySlot": 15,
    "kGEntry": 20,
    "kFlushQueue": 30,
    "kTableRow": 40,
    "kGpuCache": 50,
}


# ---------------------------------------------------------------------------
# Hot-path allocation-freedom list. Entries match a function's qualified
# name (`Class::Name`) or its unqualified name when given bare; lambda
# hot paths are matched by the variable they are bound to.
# ---------------------------------------------------------------------------

HOT_FUNCTIONS = (
    # The one flush body and its claim wrapper (pq/pq_ops.h), run by
    # flush threads, gate-blocked trainers, the control loop's reclaim
    # and step registration (due entries)
    "FlushEntryLocked",
    "FlushEntry",
    # The slot-add path: a key's run of step updates under one entry
    # lock, each row copied into a recycled W slot (pq/pq_ops.h,
    # pq/g_entry.h)
    "RegisterUpdates",
    "GEntry::AddWriteLocked",
    # FrugalEngine flush data plane (runtime/frugal_engine.cc): the
    # claim-batch routine, the batched-apply callback and the
    # owner-cache refresh
    "FlushTier::ApplyClaims",
    "FlushTier::ApplyWrites",
    "FlushTier::RefreshCache",
    # Step registration, run by the trainers after every step barrier
    # (runtime/frugal_engine.cc): a part's reads of the steps entering
    # the lookahead window, then its writes; then each trainer's
    # oracular warm of its own cache
    "StepRegistration::RegisterPart",
    "StepRegistration::RegisterReads",
    "Trainer::WarmAhead",
    "Trainer::WarmStep",
    # Two-level PQ dequeue path
    "TwoLevelPQ::DrainBucket",
    # GPU cache operations on the trainer critical path
    "GpuCache::TryGet",
    "GpuCache::Put",
    "GpuCache::UpdateIfPresent",
    # Oracular warm/evict paths: WarmBegin/WarmCommit run on a trainer
    # per warmed batch, WarmOne on flush threads under the
    # g-entry lock, victim selection and the dead-key sweep per step.
    "GpuCache::WarmBegin",
    "GpuCache::WarmCommit",
    "GpuCache::WarmOne",
    "GpuCache::EvictIfDead",
    "GpuCache::PickVictimLocked",
    # Frequency-aware tiered replacement (DESIGN.md §14): the sketch
    # probe runs on every cache lookup, the admission gate on every
    # miss-driven insert at capacity, the segment ops on every hit.
    "GpuCache::AcquireSlotLocked",
    "GpuCache::PromoteOnHitLocked",
    "GpuCache::TailVictimLocked",
    "FreqSketch::Add",
    "FreqSketch::Estimate",
    # The dense model's batch kernel (models/mlp.cc), run by every
    # trainer once per step through the DLRM grad fn
    "Mlp::TrainBatch",
    "Mlp::Forward",
    # Vectorised row kernels (table/row_kernels.h)
    "RowCopy",
    "RowAxpy",
    "RowSgdApply",
    "RowAdagradApply",
    "CopyBody",
    "AxpyBody",
    "SgdBody",
    "AdagradBody",
)


# Directories (src-root-relative) whose raw std::atomic declarations must
# be model_atomic or carry `modelcheck-exempt:` (mirrors lint_atomics).
MODEL_CHECKED_DIRS = ("pq", "common")
