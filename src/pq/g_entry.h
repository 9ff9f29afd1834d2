/**
 * @file
 * The per-parameter metadata record of the P²F algorithm (§3.3).
 *
 * A g-entry tracks, for one embedding key:
 *  - the **R set**: future training steps that will read the parameter
 *    (populated from the sample queue by each step boundary's
 *    registration, for the steps entering the lookahead window);
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

#include <algorithm>
#include <chrono>
#include <span>
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

/**
 * Metadata for one parameter (§3.3).
 *
 * Steady-state bookkeeping allocates nothing. The W set lives in slots
 * the entry keeps across flushes: a write copies its gradient row into
 * the next recycled slot, a flush applies the slots in place and resets
 * the count, and only a W set larger than any before grows the slots
 * (DESIGN.md §12.1 bounds it). The R set is a FIFO that keeps its
 * capacity the same way.
 */
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
     * non-decreasing order (registration walks the sample queue forward).
     * @return the (old, new) priority pair; callers propagate a change to
     *         the FlushQueue via OnPriorityChange.
     */
    std::pair<Priority, Priority>
    AddReadLocked(Step step) FRUGAL_REQUIRES(lock_)
    {
        FRUGAL_CHECK_MSG(!hasReadsLocked() || r_steps_.back() <= step,
                         "reads must be registered in step order");
        if (hasReadsLocked() && r_steps_.back() == step)
            return {priority_, priority_};  // dedupe within a step
        if (r_steps_.size() == r_steps_.capacity() &&
            2 * r_head_ >= r_steps_.size()) {
            // Full, and at least half of it consumed: slide the live
            // steps down instead of growing.
            r_steps_.erase(r_steps_.begin(),
                           r_steps_.begin() +
                               static_cast<std::ptrdiff_t>(r_head_));
            r_head_ = 0;
        }
        // alloc-ok: grows only past the entry's peak live R set (the
        // compaction above reuses a consumed prefix first).
        r_steps_.push_back(step);
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
        if (hasReadsLocked() && r_steps_[r_head_] == step) {
            ++r_head_;
        } else {
            const auto live =
                r_steps_.begin() + static_cast<std::ptrdiff_t>(r_head_);
            const auto it = std::find(live, r_steps_.end(), step);
            if (it != r_steps_.end())
                r_steps_.erase(it);
        }
        if (r_head_ == r_steps_.size()) {
            r_steps_.clear();  // keeps the capacity
            r_head_ = 0;
        }
        return RecomputePriorityLocked();
    }

    /**
     * Appends a pending update to the W set: copies the `dim`-float row
     * at `grad` into the next recycled slot.
     */
    std::pair<Priority, Priority>
    AddWriteLocked(Step step, GpuId src, const float *grad, std::size_t dim,
                   std::chrono::steady_clock::time_point staged)
        FRUGAL_REQUIRES(lock_)
    {
        // alloc-ok: slot growth past the peak W set (DESIGN.md §12.1).
        if (w_count_ == w_slots_.size())
            w_slots_.emplace_back();
        w_slots_[w_count_].grad.resize(dim);
        WriteRecord &slot = w_slots_[w_count_++];
        slot.step = step;
        slot.src = src;
        std::copy_n(grad, dim, slot.grad.data());
        slot.staged = staged;
        return RecomputePriorityLocked();
    }

    /** Appends a copy of `record` to the W set. */
    std::pair<Priority, Priority>
    AddWriteLocked(const WriteRecord &record) FRUGAL_REQUIRES(lock_)
    {
        return AddWriteLocked(record.step, record.src, record.grad.data(),
                              record.grad.size(), record.staged);
    }

    /** The pending writes, in arrival order; flushes sort and apply them
     *  in place, then ClearWritesLocked. */
    std::span<WriteRecord>
    writesLocked() FRUGAL_REQUIRES(lock_)
    {
        return {w_slots_.data(), w_count_};
    }

    /** Empties the W set — the slots stay for the next writes — and
     *  recomputes the priority. */
    std::pair<Priority, Priority>
    ClearWritesLocked() FRUGAL_REQUIRES(lock_)
    {
        w_count_ = 0;
        return RecomputePriorityLocked();
    }

    /**
     * Takes a copy of the W set in arrival order and empties it. For
     * callers that apply elsewhere (TakeClaimedWrites); flushes apply the
     * slots in place instead.
     */
    std::vector<WriteRecord>
    TakeWritesLocked() FRUGAL_REQUIRES(lock_)
    {
        const std::span<WriteRecord> pending = writesLocked();
        std::vector<WriteRecord> taken(pending.begin(), pending.end());
        ClearWritesLocked();
        return taken;
    }

    /** Slots kept for the W set, pending or recycled (tests). */
    std::size_t writeSlotsLocked() const FRUGAL_REQUIRES(lock_)
    {
        return w_slots_.size();
    }

    /** Current priority (Equation (1)); read under the entry lock. */
    Priority priorityLocked() const FRUGAL_REQUIRES(lock_) { return priority_; }

    bool hasWritesLocked() const FRUGAL_REQUIRES(lock_) { return w_count_ != 0; }
    bool
    hasReadsLocked() const FRUGAL_REQUIRES(lock_)
    {
        return r_head_ != r_steps_.size();
    }
    std::size_t writeCountLocked() const FRUGAL_REQUIRES(lock_) { return w_count_; }
    std::size_t
    readCountLocked() const FRUGAL_REQUIRES(lock_)
    {
        return r_steps_.size() - r_head_;
    }

    /** Earliest pending read, or kInfiniteStep. */
    Step
    nextReadLocked() const FRUGAL_REQUIRES(lock_)
    {
        return hasReadsLocked() ? r_steps_[r_head_] : kInfiniteStep;
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
        priority_ = hasWritesLocked() ? nextReadLocked() : kInfiniteStep;
        return {old, priority_};
    }

    const Key key_;
    Spinlock lock_{LockRank::kGEntry};
    /** The R set, ascending: the live steps are [r_head_, size()); the
     *  consumed prefix is reused by the next compaction. */
    std::vector<Step> r_steps_ FRUGAL_GUARDED_BY(lock_);
    std::size_t r_head_ FRUGAL_GUARDED_BY(lock_) = 0;
    /** The W set is w_slots_[0, w_count_); later slots are recycled. */
    std::vector<WriteRecord> w_slots_ FRUGAL_GUARDED_BY(lock_);
    std::size_t w_count_ FRUGAL_GUARDED_BY(lock_) = 0;
    Priority priority_ FRUGAL_GUARDED_BY(lock_) = kInfiniteStep;
    bool enqueued_ FRUGAL_GUARDED_BY(lock_) = false;
};

}  // namespace frugal

#endif  // FRUGAL_PQ_G_ENTRY_H_
