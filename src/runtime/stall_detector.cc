#include "runtime/stall_detector.h"

namespace frugal {

bool
ProgressSnapshot::AdvancedSince(const ProgressSnapshot &other) const
{
    return current_step != other.current_step ||
           drained_steps != other.drained_steps ||
           updates_emitted != other.updates_emitted ||
           updates_applied != other.updates_applied ||
           staging_size != other.staging_size ||
           pq_size != other.pq_size || run_complete != other.run_complete;
}

const char *
StallKindName(StallKind kind)
{
    switch (kind) {
    case StallKind::kNone:
        return "none";
    case StallKind::kDeadFlusher:
        return "dead-flusher";
    case StallKind::kClaimLeak:
        return "claim-leak";
    case StallKind::kDrainStall:
        return "drain-stall";
    case StallKind::kEmptyQueueIdle:
        return "empty-queue-idle";
    case StallKind::kUnknown:
        break;
    }
    return "unknown";
}

StallDetector::StallDetector(Clock::duration deadline,
                             const ProgressSnapshot &baseline,
                             Clock::time_point start)
    : deadline_(deadline), last_(baseline), last_progress_(start)
{
}

StallKind
StallDetector::Classify(const ProgressSnapshot &snap)
{
    if (snap.run_complete)
        return StallKind::kNone;
    // Dead flushers are definitive — report them first even if other
    // symptoms are present, since they are the one thing recovery can
    // actually fix.
    if (snap.dead_flushers > 0)
        return StallKind::kDeadFlusher;
    // Saturating difference: the two counters are sampled without mutual
    // ordering, so `applied` can momentarily read ahead of `emitted`.
    const std::uint64_t unapplied =
        snap.updates_emitted > snap.updates_applied
            ? snap.updates_emitted - snap.updates_applied
            : 0;
    if (unapplied > 0) {
        // Updates exist but aren't reaching the table. Where are they
        // stuck? If their step isn't registered yet, registration is the
        // bottleneck; if the PQ is also empty, they're claimed by
        // someone who isn't flushing.
        if (snap.staging_size > 0 && snap.drained_steps < snap.current_step)
            return StallKind::kDrainStall;
        if (snap.pq_size == 0 && snap.staging_size == 0)
            return StallKind::kClaimLeak;
        return StallKind::kUnknown;
    }
    if (snap.staging_size == 0 && snap.pq_size == 0)
        return StallKind::kEmptyQueueIdle;
    return StallKind::kUnknown;
}

StallKind
StallDetector::Observe(const ProgressSnapshot &snap, Clock::time_point now)
{
    ++polls_;
    if (snap.AdvancedSince(last_)) {
        last_ = snap;
        last_progress_ = now;
        stall_reported_ = false;
    }
    // Definitive failures are acted on immediately — no need to wait
    // out the deadline when a flusher has declared itself dead.
    if (snap.dead_flushers > 0) {
        ++stalls_detected_;
        return StallKind::kDeadFlusher;
    }
    if (snap.run_complete || Idle(now) < deadline_ || stall_reported_)
        return StallKind::kNone;
    // Past the deadline with no progress: classify and report, once per
    // stall. Timing-based stalls are *reported*, not auto-recovered — on
    // a loaded machine (TSan, CI) a healthy run can blow any deadline,
    // and acting on a merely-slow thread would corrupt accounting.
    stall_reported_ = true;
    ++stalls_detected_;
    return Classify(snap);
}

void
StallDetector::Recovered(const ProgressSnapshot &snap, Clock::time_point now)
{
    ++recoveries_;
    last_ = snap;
    last_progress_ = now;
    stall_reported_ = false;
}

}  // namespace frugal
