/**
 * @file
 * Lock-rank deadlock detection (compiled out unless FRUGAL_DCHECK).
 *
 * Every ranked lock in the system belongs to a level of a global
 * acquisition order; a thread may only acquire a lock whose rank is
 * strictly greater than every ranked lock it already holds. Any
 * violation is a *potential* deadlock (two threads interleaving the
 * inverse orders), and is reported deterministically on the first
 * out-of-order acquisition — no need to actually lose the race.
 *
 * The rank order, lowest acquired first (see DESIGN.md "Concurrency
 * model" for the full derivation):
 *
 *   kRegistryShard < kRecoverySlot < kGEntry < kFlushQueue < kTableRow
 *     < kGpuCache
 *
 *  - GEntryRegistry shard locks protect only the Key→GEntry map; the
 *    registry's ForEach visits entries (which lock themselves) under
 *    the shard lock, so shards rank below entries.
 *  - Flusher-slot locks (FlusherSlot::lock: the crash-recovery claim
 *    ledgers each flush thread publishes for the control loop) guard
 *    only a ticket vector. They are designed as leaves — bookkeeping
 *    happens before or after a flush, never around it — but rank below
 *    kGEntry so that even a future caller that flushes while holding one
 *    stays ordered. The control loop's sampling path (ControlLoop::Sample
 *    via FlushTier::Sample, and FlushTier::Describe for a diagnosis) in
 *    particular must never hold a rank ≥ kGEntry: it reads slot ledgers
 *    and atomics only, so a stalled flush thread can never block the
 *    component that diagnoses stalls.
 *  - GEntry locks are held across FlushQueue calls (Enqueue /
 *    OnPriorityChange / the claim-validation protocol), so entries rank
 *    below queue-internal locks (TreeHeapPQ's heap lock; TwoLevelPQ has
 *    none).
 *  - Trainers register each step's updates right after the step
 *    barrier (StepRegistration::RegisterPart), holding no lock when
 *    they start: a registry shard lock resolves the part's g-entries
 *    (GetOrCreateBatch, released), then each entry lock is held across
 *    its FlushQueue calls (RegisterUpdate) — kRegistryShard, then
 *    kGEntry → kFlushQueue.
 *  - Every flush (FlushEntry via FlushTier::ApplyClaims: flush threads,
 *    gate-blocked trainers and the control loop's FlushTier::ReclaimDead)
 *    applies writes (embedding-table row locks) and refreshes caches
 *    (FlushTier::RefreshCache) while holding the entry lock, so table
 *    rows and caches rank above entries. Rows and caches are leaf locks
 *    relative to each other (never nested), but get distinct ranks for
 *    clarity.
 *
 * Unranked locks opt out of checking entirely: they must be leaves
 * (nothing ranked is acquired while holding one).
 */
#ifndef FRUGAL_COMMON_LOCK_RANK_H_
#define FRUGAL_COMMON_LOCK_RANK_H_

#include <cstddef>
#include <cstdint>

#include "common/logging.h"

#if FRUGAL_DCHECK_ENABLED
#include <vector>
#endif

namespace frugal {

/** Global lock-acquisition levels, lowest acquired first. */
enum class LockRank : std::uint8_t {
    kUnranked = 0,       ///< excluded from order checking (leaf-only)
    kRegistryShard = 10, ///< GEntryRegistry shard map locks
    kRecoverySlot = 15,  ///< flusher-slot claim ledgers (dead-flusher reclaim)
    kGEntry = 20,        ///< per-parameter g-entry locks
    kFlushQueue = 30,    ///< FlushQueue-internal locks (TreeHeapPQ heap)
    kTableRow = 40,      ///< HostEmbeddingTable striped row locks
    kGpuCache = 50,      ///< per-GPU cache locks
};

#if FRUGAL_DCHECK_ENABLED

namespace lock_rank_internal {

/** The ranked locks this thread currently holds, in acquisition order. */
inline thread_local std::vector<LockRank> tls_held;

/** True iff acquiring `rank` now would break the global order. */
inline bool
WouldViolate(LockRank rank)
{
    if (rank == LockRank::kUnranked)
        return false;
    for (LockRank held : tls_held) {
        if (static_cast<std::uint8_t>(rank) <=
            static_cast<std::uint8_t>(held)) {
            return true;
        }
    }
    return false;
}

inline void
OnAcquire(LockRank rank)
{
    if (rank == LockRank::kUnranked)
        return;
    FRUGAL_CHECK_MSG(!WouldViolate(rank),
                     "lock-rank order violation: acquiring rank "
                         << static_cast<int>(rank) << " while holding rank "
                         << static_cast<int>(tls_held.back())
                         << " (potential deadlock; see "
                            "common/lock_rank.h for the global order)");
    tls_held.push_back(rank);
}

inline void
OnRelease(LockRank rank)
{
    if (rank == LockRank::kUnranked)
        return;
    // Locks are almost always released LIFO; tolerate out-of-order
    // release by erasing the most recent matching rank.
    for (auto it = tls_held.rbegin(); it != tls_held.rend(); ++it) {
        if (*it == rank) {
            tls_held.erase(std::next(it).base());
            return;
        }
    }
    FRUGAL_PANIC("lock-rank release of rank "
                 << static_cast<int>(rank)
                 << " that this thread does not hold");
}

/** Number of ranked locks the calling thread holds (test hook). */
inline std::size_t
HeldCount()
{
    return tls_held.size();
}

}  // namespace lock_rank_internal

#endif  // FRUGAL_DCHECK_ENABLED

}  // namespace frugal

#endif  // FRUGAL_COMMON_LOCK_RANK_H_
