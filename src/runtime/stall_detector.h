/**
 * @file
 * Stall detection for the Frugal runtime, as a thread-free decision
 * function.
 *
 * The engine's liveness rests on a chain of producers: trainers emit
 * updates, the trainers register them after each step barrier, flush
 * threads apply them, and the gate reopens. A dead flush thread (claims
 * never flushed) or a stalled step registration silently freezes the
 * whole pipeline — the gate predicate `HasPendingAtOrBelow(s)` never
 * clears, trainers wait forever, and nothing reports why. The engine's
 * control loop (ControlLoop in frugal_engine.cc) samples a
 * ProgressSnapshot every tick and hands it to a StallDetector, which
 * (a) detects lack of progress past a deadline, (b) classifies the stall
 * and (c) tells the loop whether to recover (dead flush threads) or to
 * report and diagnose.
 *
 * Design rules:
 *  - Sampling must be non-intrusive: the snapshot reads atomics and
 *    leaf-ranked slot ledgers only, never a lock of rank ≥ kGEntry (see
 *    common/lock_rank.h) — a stalled flush thread can hold entry locks,
 *    and the diagnoser must never block on it.
 *  - Recovery triggers only on *definitive* evidence (a flusher's
 *    `dead` flag), never on timing alone. Under TSan or on a loaded
 *    machine a healthy run can blow any deadline; reclaiming claims
 *    from a merely-slow thread would corrupt in-flight accounting.
 *    Timing drives detection and diagnosis logging only.
 */
#ifndef FRUGAL_RUNTIME_STALL_DETECTOR_H_
#define FRUGAL_RUNTIME_STALL_DETECTOR_H_

#include <chrono>
#include <cstdint>

#include "common/types.h"

namespace frugal {

/** What the engine looked like at one control-loop sample. */
struct ProgressSnapshot
{
    Step current_step = 0;
    Step drained_steps = 0;
    std::uint64_t updates_emitted = 0;
    std::uint64_t updates_applied = 0;
    /** Update batches emitted but not yet registered into g-entries. */
    std::size_t staging_size = 0;
    std::size_t pq_size = 0;
    /** Flush threads whose slots are flagged dead. */
    std::size_t dead_flushers = 0;
    /** Claim tickets sitting in dead flushers' ledgers. */
    std::size_t abandoned_claims = 0;
    /** True once the run's wind-down has begun. */
    bool run_complete = false;

    /** True iff any forward-progress field differs from `other`. */
    bool AdvancedSince(const ProgressSnapshot &other) const;
};

/** The classification of a stuck pipeline. */
enum class StallKind {
    kNone = 0,
    /** A flush thread is flagged dead (definitive; recoverable). */
    kDeadFlusher,
    /** Work is claimed (emitted > applied, PQ drained) but nobody is
     *  flushing it — claims leaked without a dead flag. */
    kClaimLeak,
    /** Updates were emitted but their step is not getting registered. */
    kDrainStall,
    /** Pipeline is empty yet idle — likely a lost gate wakeup. */
    kEmptyQueueIdle,
    kUnknown,
};

const char *StallKindName(StallKind kind);

/**
 * Turns a stream of progress snapshots into stall verdicts. Owns no
 * thread and reads no clock: the caller passes each sample's time, so
 * tests can script both.
 */
class StallDetector
{
  public:
    using Clock = std::chrono::steady_clock;

    /** `baseline` is the state at `start`, before the watched work. */
    StallDetector(Clock::duration deadline, const ProgressSnapshot &baseline,
                  Clock::time_point start);

    /**
     * Judges the sample `snap` taken at `now`. kDeadFlusher asks for
     * recovery at once, deadline or not; any other kind but kNone
     * reports a stall past the deadline, once per stall.
     */
    StallKind Observe(const ProgressSnapshot &snap, Clock::time_point now);

    /** Records a completed recovery: `snap`, sampled at `now` after it,
     *  is the new progress baseline. */
    void Recovered(const ProgressSnapshot &snap, Clock::time_point now);

    /** Time between the last observed progress and `now`. */
    Clock::duration
    Idle(Clock::time_point now) const
    {
        return now - last_progress_;
    }

    /** Classifies a snapshot (pure). */
    static StallKind Classify(const ProgressSnapshot &snap);

    std::uint64_t polls() const { return polls_; }
    std::uint64_t stalls_detected() const { return stalls_detected_; }
    std::uint64_t recoveries() const { return recoveries_; }

  private:
    const Clock::duration deadline_;
    ProgressSnapshot last_;
    Clock::time_point last_progress_;
    bool stall_reported_ = false;
    std::uint64_t polls_ = 0;
    std::uint64_t stalls_detected_ = 0;
    std::uint64_t recoveries_ = 0;
};

}  // namespace frugal

#endif  // FRUGAL_RUNTIME_STALL_DETECTOR_H_
