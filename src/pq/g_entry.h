/**
 * @file
 * The per-parameter metadata record of the P²F algorithm (§3.3).
 *
 * A g-entry tracks, for one embedding key:
 *  - the **R set**: future training steps that will read the parameter
 *    (populated by the controller's prefetch thread from the sample queue);
 *  - the **W set**: pending updates ⟨step, src GPU, Δ⟩ not yet flushed to
 *    host memory (populated by step registration after each barrier);
 *  - the **priority** from Equation (1):
 *        priority = min(R set)   if W set ≠ ∅ and R set ≠ ∅
 *        priority = ∞            if W set = ∅ or R set = ∅.
 *
 * Concurrency contract: every mutation happens under the entry spinlock.
 * Only entries with a non-empty W set are enqueued in a FlushQueue; the
 * `enqueued` flag arbitrates between flush threads racing on lazily
 * deleted (stale) queue copies, exactly as §3.4's AdjustPriority protocol
 * requires ("dequeue operations identify an inconsistent g-entry by
 * comparing its priority with the priority of the hash table in which it
 * resides").
 */
#ifndef FRUGAL_PQ_G_ENTRY_H_
#define FRUGAL_PQ_G_ENTRY_H_

#include <chrono>
#include <deque>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/spinlock.h"
#include "common/types.h"

namespace frugal {

/** One pending parameter update in a g-entry's W set. */
struct WriteRecord
{
    Step step = 0;            ///< training step that produced the gradient
    GpuId src = 0;            ///< GPU that produced it
    std::vector<float> grad;  ///< gradient Δ (may be empty in unit tests)
    /** When the record was staged into the W set; flush threads report
     *  apply-time minus this as the *flush lag* (zero/default in unit
     *  tests that never read it). */
    std::chrono::steady_clock::time_point staged{};
};

/** Metadata for one parameter (§3.3). */
class GEntry
{
  public:
    explicit GEntry(Key key) : key_(key) {}

    GEntry(const GEntry &) = delete;
    GEntry &operator=(const GEntry &) = delete;

    Key key() const { return key_; }

    /** The entry spinlock; callers of *Locked methods must hold it. */
    Spinlock &lock() FRUGAL_RETURN_CAPABILITY(lock_) { return lock_; }

    /**
     * Records that `step` will read this parameter. Steps must arrive in
     * non-decreasing order (the prefetcher walks the sample queue forward).
     * @return the (old, new) priority pair; callers propagate a change to
     *         the FlushQueue via OnPriorityChange.
     */
    std::pair<Priority, Priority>
    AddReadLocked(Step step) FRUGAL_REQUIRES(lock_)
    {
        FRUGAL_CHECK_MSG(r_set_.empty() || r_set_.back() <= step,
                         "reads must be registered in step order");
        if (!r_set_.empty() && r_set_.back() == step)
            return {priority_, priority_};  // dedupe within a step
        // alloc-ok: deque grows in blocks; steady-state registration
        // reuses freed blocks, so growth amortizes across the run.
        r_set_.push_back(step);
        return RecomputePriorityLocked();
    }

    /**
     * Removes a read step (the step trained and produced its update).
     * Removing a step not present is a no-op (several GPUs may read the
     * same key in one step; only the first arrival erases it).
     */
    std::pair<Priority, Priority>
    RemoveReadLocked(Step step) FRUGAL_REQUIRES(lock_)
    {
        if (!r_set_.empty() && r_set_.front() == step) {
            r_set_.pop_front();
        } else {
            for (auto it = r_set_.begin(); it != r_set_.end(); ++it) {
                if (*it == step) {
                    r_set_.erase(it);
                    break;
                }
            }
        }
        return RecomputePriorityLocked();
    }

    /** Appends a pending update to the W set. */
    std::pair<Priority, Priority>
    AddWriteLocked(WriteRecord record) FRUGAL_REQUIRES(lock_)
    {
        // alloc-ok: moves the record in (no grad copy); vector doubling
        // amortizes, bounded by the per-entry W set between flushes.
        w_set_.push_back(std::move(record));
        return RecomputePriorityLocked();
    }

    /**
     * Takes the whole W set for flushing (leaves it empty) and recomputes
     * the priority. Used by flush threads after claiming the entry.
     */
    std::vector<WriteRecord>
    TakeWritesLocked() FRUGAL_REQUIRES(lock_)
    {
        std::vector<WriteRecord> taken;
        taken.swap(w_set_);
        RecomputePriorityLocked();
        return taken;
    }

    /** Current priority (Equation (1)); read under the entry lock. */
    Priority priorityLocked() const FRUGAL_REQUIRES(lock_) { return priority_; }

    bool hasWritesLocked() const FRUGAL_REQUIRES(lock_) { return !w_set_.empty(); }
    bool hasReadsLocked() const FRUGAL_REQUIRES(lock_) { return !r_set_.empty(); }
    std::size_t writeCountLocked() const FRUGAL_REQUIRES(lock_) { return w_set_.size(); }
    std::size_t readCountLocked() const FRUGAL_REQUIRES(lock_) { return r_set_.size(); }

    /** Earliest pending read, or kInfiniteStep. */
    Step
    nextReadLocked() const FRUGAL_REQUIRES(lock_)
    {
        return r_set_.empty() ? kInfiniteStep : r_set_.front();
    }

    /** Whether the entry is currently enqueued in a FlushQueue. */
    bool enqueuedLocked() const FRUGAL_REQUIRES(lock_) { return enqueued_; }
    void setEnqueuedLocked(bool v) FRUGAL_REQUIRES(lock_) { enqueued_ = v; }

  private:
    /** Re-evaluates Equation (1); returns (old, new). */
    std::pair<Priority, Priority>
    RecomputePriorityLocked() FRUGAL_REQUIRES(lock_)
    {
        const Priority old = priority_;
        if (w_set_.empty() || r_set_.empty())
            priority_ = kInfiniteStep;
        else
            priority_ = r_set_.front();
        return {old, priority_};
    }

    const Key key_;
    Spinlock lock_{LockRank::kGEntry};
    std::deque<Step> r_set_ FRUGAL_GUARDED_BY(lock_);
    std::vector<WriteRecord> w_set_ FRUGAL_GUARDED_BY(lock_);
    Priority priority_ FRUGAL_GUARDED_BY(lock_) = kInfiniteStep;
    bool enqueued_ FRUGAL_GUARDED_BY(lock_) = false;
};

}  // namespace frugal

#endif  // FRUGAL_PQ_G_ENTRY_H_
