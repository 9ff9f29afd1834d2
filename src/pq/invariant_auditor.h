/**
 * @file
 * Runtime auditor of the P²F safety argument (§3.3–§3.4).
 *
 * The paper's consistency proof rests on invariants no unit test can
 * pin down under real concurrency, so FRUGAL_DCHECK builds audit them
 * *while training runs* (see runtime/frugal_engine.cc for the hook
 * points):
 *
 *  1. **Gate safety** — a parameter read at step s has no pending
 *     (unflushed) update: ¬(W ≠ ∅ ∧ s ∈ R) for every gathered key.
 *     Breaches are recorded through OnReadViolation.
 *  2. **Claim floor / monotone priority** — a dequeued claim never
 *     carries a finite priority below the scan floor (the current
 *     training step): once the gate admitted step s, nothing below s
 *     may ever surface again. Each claim batch must additionally be
 *     non-decreasing (TwoLevelPQ's dequeue scans the priority index
 *     forward).
 *  3. **Step monotonicity** — step boundaries arrive exactly in
 *     sequence 0, 1, 2, …
 *  4. **Queue accounting** — delegated to FlushQueue::AuditInvariants
 *     (per-bucket logical/in-flight counters ≥ 0, slot-set
 *     popped ≤ published per segment), checked at every step boundary
 *     and exactly at quiescence.
 *
 * Violations are counted and logged, not thrown: the run completes and
 * the engine panics once at the end with the aggregate (ExpectClean),
 * so a single race produces one readable report instead of a cascade.
 * All methods are thread-safe.
 */
#ifndef FRUGAL_PQ_INVARIANT_AUDITOR_H_
#define FRUGAL_PQ_INVARIANT_AUDITOR_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "check/model_sync.h"
#include "common/types.h"
#include "pq/flush_queue.h"

namespace frugal {

class GEntryRegistry;

/** Concurrent auditor of the P²F invariants (active in FRUGAL_DCHECK
 *  builds; see file comment for the audited invariant list). */
class InvariantAuditor
{
  public:
    InvariantAuditor() = default;

    InvariantAuditor(const InvariantAuditor &) = delete;
    InvariantAuditor &operator=(const InvariantAuditor &) = delete;

    /** Step `completed_step` just finished on every trainer (called
     *  single-threaded from the step barrier's completion). */
    void OnStepBoundary(Step completed_step, const FlushQueue &queue);

    /** A flush thread claimed `tickets` using scan floor `floor`. */
    void OnClaimBatch(const std::vector<ClaimTicket> &tickets, Step floor);

    /** A trainer observed a pending write on a parameter it is reading
     *  at `step` — a gate-safety breach. */
    void OnReadViolation(Key key, Step step);

    /** The run wound down (all threads joined): exact accounting on the
     *  queue, and every g-entry must be drained and dequeued. */
    void OnQuiescent(const FlushQueue &queue, GEntryRegistry &registry);

    std::uint64_t
    checks() const
    {
        // relaxed: monotonic counter; read for reporting only.
        return checks_.load(std::memory_order_relaxed);
    }

    std::uint64_t
    violations() const
    {
        // relaxed: monotonic counter; the caller synchronises (reads
        // after joining the audited threads).
        return violations_.load(std::memory_order_relaxed);
    }

    /** Panics unless every audit so far passed. */
    void ExpectClean() const;

  private:
    void RecordViolation(const std::string &what);
    void BumpChecks(std::uint64_t n);

    model_atomic<std::int64_t> last_step_{-1};
    model_atomic<std::uint64_t> checks_{0};
    model_atomic<std::uint64_t> violations_{0};
};

}  // namespace frugal

#endif  // FRUGAL_PQ_INVARIANT_AUDITOR_H_
