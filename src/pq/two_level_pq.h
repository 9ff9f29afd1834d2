/**
 * @file
 * The paper's two-level concurrent priority queue (§3.4, Fig. 7).
 *
 * Level 1 is the *priority index*: an array with one bucket per priority
 * value. P²F priorities are training step numbers, so the finite range
 * `[0, max_step] ∪ {∞}` maps to `max_step + 2` buckets (∞ is the last
 * one). Level 2 is a lock-free container of the g-entries sharing a
 * priority (see AtomicSlotSet; allocated lazily, most buckets stay empty).
 *
 * Operations (all O(1) amortised, matching the paper):
 *  - Enqueue: insert into the bucket indexed by the priority.
 *  - AdjustPriority (OnPriorityChange): insert into the *new* bucket
 *    first, then logically delete from the old one — the paper's ordering,
 *    so a concurrent dequeuer can never observe the entry in neither
 *    bucket. Physical removal of the stale copy is lazy: a dequeuer that
 *    pops it compares the entry's current priority with the bucket's
 *    priority and discards mismatches.
 *  - DequeueClaim: scans the priority index upward for non-empty buckets
 *    and pops entries (batched, amortising the scan — the paper's
 *    "batched dequeue").
 *
 * Scan range compression (§3.4 optimisation): the dequeue scan is limited
 * to `[floor, horizon] ∪ {∞}` where `floor` is the current training step
 * and `horizon` = current step + lookahead L.
 *
 *  - No finite-priority entry can live below `floor`: a priority is the
 *    next read step of a parameter with pending writes, pending writes are
 *    produced at steps < their next read, and the P²F gate has already
 *    established that nothing readable at ≤ floor has pending writes.
 *  - None can live above `horizon`: reads beyond the lookahead window are
 *    not yet in any R set, so such entries still sit at ∞.
 *
 * Note on the paper's rule "update the lower bound to the last dequeued
 * priority": on its own that rule is unsafe — a flush thread can race
 * ahead to priority p (because everything below was momentarily empty)
 * while a later update inserts at priority p' < p (any p' ≥ the current
 * step is legal). Anchoring the lower bound at the current training step,
 * which the controller publishes through SetScanBounds, restores safety;
 * the last-dequeued value is still used as an in-pass hint.
 *
 * Gate support: each bucket keeps a *logical* population count maintained
 * exactly (entry priority transitions are serialised by the entry lock).
 * `HasPendingAtOrBelow(s)` scans counts in `[floor, s]`; because a
 * logical count is raised on the new bucket before being dropped on the
 * old one, the gate can only over-block momentarily, never under-block.
 *
 * Dequeue sharding (flush-path parallelism): the level-2 container of a
 * bucket is split into `n_shards` independent slot sets, and an entry
 * always lands in the shard `hash(key) % n_shards`. A dequeuer passes its
 * shard hint (its flush-thread index) and drains its *own* sub-set first,
 * so concurrent `DequeueClaim` calls scan disjoint slots in the common
 * case; only when its own shard is dry (and budget remains) does it
 * rotate through the peers' shards — work stealing that preserves
 * liveness when shard populations are skewed or when there are fewer
 * active flushers than shards. The gate predicate is untouched: the
 * logical/in-flight counts stay *per bucket* aggregates, so
 * `HasPendingAtOrBelow` remains one counter pair per step, and scan-range
 * compression still bounds the level-1 scan independently of sharding.
 */
#ifndef FRUGAL_PQ_TWO_LEVEL_PQ_H_
#define FRUGAL_PQ_TWO_LEVEL_PQ_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "check/model_sync.h"
#include "common/cacheline.h"
#include "pq/atomic_slot_set.h"
#include "pq/flush_queue.h"

namespace frugal {

/** Configuration of a TwoLevelPQ. */
struct TwoLevelPQConfig
{
    /** Largest training step number the run will reach. */
    Step max_step = 0;
    /** Slots per bucket segment (growth quantum of the level-2 sets). */
    std::size_t segment_slots = 32;
    /** Dequeue shards per bucket (one per flush thread); entries home to
     *  shard `hash(key) % n_shards`, so dequeuers with distinct hints
     *  drain disjoint slot sets. 1 = the unsharded layout. */
    std::size_t n_shards = 1;
};

/** The two-level concurrent priority queue of §3.4. */
class TwoLevelPQ final : public FlushQueue
{
  public:
    explicit TwoLevelPQ(const TwoLevelPQConfig &config);
    ~TwoLevelPQ() override;

    using FlushQueue::DequeueClaim;

    void Enqueue(GEntry *entry, Priority priority)
        FRUGAL_REQUIRES(entry->lock()) override;
    void OnPriorityChange(GEntry *entry, Priority old_priority,
                          Priority new_priority)
        FRUGAL_REQUIRES(entry->lock()) override;
    std::size_t DequeueClaim(std::vector<ClaimTicket> &out,
                             std::size_t max_entries,
                             std::size_t shard_hint) override;
    std::size_t DequeueClaimBelow(std::vector<ClaimTicket> &out,
                                  std::size_t max_entries,
                                  std::size_t shard_hint,
                                  Step ceiling) override;
    void OnFlushed(const ClaimTicket &ticket) override;
    void Unenqueue(GEntry *entry, Priority priority)
        FRUGAL_REQUIRES(entry->lock()) override;
    bool HasPendingAtOrBelow(Step step) const override;
    std::size_t SizeApprox() const override;
    void SetScanBounds(Step floor, Step horizon) override;
    std::size_t AuditInvariants(bool quiescent) const override;
    std::string DebugDump() const override;
    std::string Name() const override { return "two-level-pq"; }

    /** Number of stale (lazily deleted) copies discarded so far. */
    std::uint64_t staleDiscards() const
    {
        // relaxed: monotonic stat counter, read for reporting only.
        return stale_discards_->load(std::memory_order_relaxed);
    }

    /** Number of priority-index slots scanned by dequeues (for the scan
     *  range compression ablation). */
    std::uint64_t bucketsScanned() const
    {
        // relaxed: monotonic stat counter, read for reporting only.
        return buckets_scanned_->load(std::memory_order_relaxed);
    }

    /** Enables/disables scan range compression (ablation hook; on by
     *  default). When off, dequeue scans from priority 0 as in the
     *  unoptimised design the paper measures against. */
    void setScanCompression(bool enabled) { scan_compression_ = enabled; }

  private:
    struct Bucket
    {
        /** Entries whose current priority maps here and are enqueued. */
        model_atomic<std::int64_t> logical{0};
        /** Entries claimed from here whose flush has not completed. */
        model_atomic<std::int64_t> in_flight{0};
    };

    std::size_t BucketIndex(Priority priority) const;
    std::size_t ShardOf(const GEntry *entry) const;
    AtomicSlotSet<GEntry> &EnsureSet(std::size_t bucket_index,
                                     std::size_t shard);

    /**
     * Pops claimed entries from one bucket, scanning the hinted shard's
     * sub-set first and stealing from the rest only if budget remains.
     * Returns the count appended; accumulates stale discards into
     * `stale_out`.
     */
    std::size_t DrainBucket(std::size_t bucket_index, Priority priority,
                            std::vector<ClaimTicket> &out,
                            std::size_t max_entries, std::size_t shard_hint,
                            std::uint64_t *stale_out);

    /** Shared scan body: claims from finite buckets up to
     *  min(ceiling, horizon), then optionally the ∞ bucket. */
    std::size_t DequeueClaimBounded(std::vector<ClaimTicket> &out,
                                    std::size_t max_entries,
                                    std::size_t shard_hint, Step ceiling,
                                    bool include_infinity);

    const TwoLevelPQConfig config_;
    const std::size_t n_shards_;
    const std::size_t infinity_index_;
    std::vector<Bucket> buckets_;
    /** Level-2 sub-sets, one per (bucket, shard): index
     *  `bucket * n_shards_ + shard`. Lazily allocated. */
    std::vector<model_atomic<AtomicSlotSet<GEntry> *>> sets_;
    /** Hot cross-thread atomics, each on its own cache line: dequeuers
     *  read the scan bounds and bump the shared counters on every pass,
     *  and packing them together made every SetScanBounds invalidate the
     *  counters' line (and vice versa) on all flush threads. */
    CacheAligned<model_atomic<Step>> scan_floor_{0};
    CacheAligned<model_atomic<Step>> scan_horizon_{0};
    CacheAligned<model_atomic<std::size_t>> size_{0};
    CacheAligned<model_atomic<std::uint64_t>> stale_discards_{0};
    CacheAligned<model_atomic<std::uint64_t>> buckets_scanned_{0};
    bool scan_compression_ = true;
};

}  // namespace frugal

#endif  // FRUGAL_PQ_TWO_LEVEL_PQ_H_
