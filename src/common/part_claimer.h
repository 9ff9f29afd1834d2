/**
 * @file
 * Shares one round of `n` fixed work parts among racing threads.
 *
 * Every part is claimed by exactly one thread. A thread keeps claiming
 * until none are left, so an awake thread takes every part its peers
 * have not reached yet and never waits on one that is still waking up.
 * Exactly one Finish() call per round — the one that completes the last
 * part — returns true, and that thread publishes the round's result.
 *
 * FrugalEngine registers each training step's updates this way right
 * after the step barrier (DESIGN.md §5): the parts are fixed key-hash
 * slices of the step's records, and the gate for the next step opens
 * only once the last part is finished.
 *
 *     claimer.Reset();                        // single-threaded
 *     ...                                     // on every worker:
 *     for (auto p = claimer.Claim(); p < claimer.parts();
 *          p = claimer.Claim()) {
 *         DoPart(p);
 *         if (claimer.Finish())
 *             PublishRound();                 // exactly one thread
 *     }
 */
#ifndef FRUGAL_COMMON_PART_CLAIMER_H_
#define FRUGAL_COMMON_PART_CLAIMER_H_

#include <algorithm>
#include <cstdint>

#include "check/model_sync.h"

namespace frugal {

class PartClaimer
{
  public:
    explicit PartClaimer(std::uint32_t parts) : parts_(parts) {}

    PartClaimer(const PartClaimer &) = delete;
    PartClaimer &operator=(const PartClaimer &) = delete;

    /**
     * Opens a new round. The caller must order it against every Claim
     * and Finish of the previous and the next round (the engine calls it
     * from the step-barrier completion, while every worker is parked).
     */
    void
    Reset()
    {
        // relaxed: the caller's barrier orders the reset against both
        // rounds' claims.
        claimed_.store(0, std::memory_order_relaxed);
        // relaxed: see above.
        done_.store(0, std::memory_order_relaxed);
    }

    /** Claims the next unclaimed part; parts() once all are claimed. */
    std::uint32_t
    Claim()
    {
        // relaxed: a claim needs only atomicity. The parts' inputs were
        // published before the round opened, and their results publish
        // through Finish.
        const std::uint32_t part =
            claimed_.fetch_add(1, std::memory_order_relaxed);
        return std::min(part, parts_);
    }

    /**
     * Marks one claimed part finished.
     * @return true for exactly the call that finishes the round's last
     *         part; whatever that thread publishes next (release)
     *         happens-after every part's work.
     */
    bool
    Finish()
    {
        // acq_rel: release publishes this part's work; acquire makes
        // every earlier finisher's work visible to the last one.
        return done_.fetch_add(1, std::memory_order_acq_rel) + 1 == parts_;
    }

    /** Parts claimed so far this round (diagnostics). */
    std::uint32_t
    claimed() const
    {
        // relaxed: diagnostic read; claims publish nothing.
        return std::min(claimed_.load(std::memory_order_relaxed), parts_);
    }

    /** Parts finished so far this round. */
    std::uint32_t
    done() const
    {
        return done_.load(std::memory_order_acquire);
    }

    std::uint32_t
    parts() const
    {
        return parts_;
    }

  private:
    const std::uint32_t parts_;
    /** Claim counter; runs past parts_ by one per late claimer. */
    model_atomic<std::uint32_t> claimed_{0};
    model_atomic<std::uint32_t> done_{0};
};

}  // namespace frugal

#endif  // FRUGAL_COMMON_PART_CLAIMER_H_
