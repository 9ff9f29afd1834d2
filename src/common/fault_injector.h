/**
 * @file
 * Deterministic, seeded fault injection for the functional runtime.
 *
 * The paper's whole premise is long-running training on *commodity*
 * hardware, where flush threads, host-DRAM writes, and whole (simulated)
 * GPUs do fail in practice. This module lets tests and benches script
 * those failures reproducibly: a FaultPlan is a list of rules keyed by
 * injection *site*; the FaultInjector evaluates them against per-site
 * hit counters and a seeded stateless hash, so a given (plan, seed)
 * always fires the same set of hit indices regardless of thread
 * interleaving.
 *
 * Arming model: production code threads an optional `FaultInjector *`
 * (via EngineConfig / function parameters) and consults it through
 * FaultPoint(). When no injector is armed — the release default — a
 * fault point is a single null-pointer test, so the hooks cost nothing
 * on the hot paths they instrument.
 *
 * Sites currently instrumented (see DESIGN.md "Fault model & recovery"):
 *  - kFlushThreadDeath    — a flush thread dies between claiming a
 *                           g-entry batch and applying it (context:
 *                           flusher slot index);
 *  - kHostWriteTransient  — one host-table write attempt fails
 *                           transiently (context: key); the flush thread
 *                           retries with bounded exponential backoff;
 *  - kStagingDrainStall   — the thread that finishes registering a
 *                           step's updates (a trainer, or the
 *                           checkpoint barrier) stalls for `payload`
 *                           milliseconds right after publishing the
 *                           step (context: step);
 *  - kTrainerDeath        — a trainer (simulated GPU) dies at a step
 *                           boundary (context: completed step; payload:
 *                           victim GPU id), triggering degraded mode;
 *  - kCheckpointTruncate  — the checkpoint temp file is truncated after
 *                           fsync, simulating a torn write that a crash
 *                           committed under the final name;
 *  - kCheckpointCorrupt   — one payload byte of the checkpoint temp
 *                           file is flipped before rename;
 *  - kAllocFailure        — a container growth allocation (ChunkArena
 *                           chunk, FlatMap rehash) fails with
 *                           std::bad_alloc *before* any state changes,
 *                           so the container stays intact and the
 *                           operation is retryable (context: the
 *                           container's growth ordinal);
 *  - kCheckpointTornWrite — the checkpoint temp-file write stage dies
 *                           mid-stream *before* fsync: only a prefix of
 *                           the image reaches the file and SaveCheckpoint
 *                           reports a transient failure (the temp file is
 *                           discarded; the previous checkpoint survives);
 *  - kFlushDelay          — one same-entry run of a claim batch is applied
 *                           slowly, whoever applies it: a slow host-memory
 *                           path or an overloaded flusher (context: key;
 *                           payload: microseconds per claim ticket).
 */
#ifndef FRUGAL_COMMON_FAULT_INJECTOR_H_
#define FRUGAL_COMMON_FAULT_INJECTOR_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "check/model_sync.h"
#include "common/types.h"

namespace frugal {

/** An instrumented failure site in the runtime. */
enum class FaultSite : std::uint8_t {
    kFlushThreadDeath = 0,
    kHostWriteTransient,
    kStagingDrainStall,
    kTrainerDeath,
    kCheckpointTruncate,
    kCheckpointCorrupt,
    kAllocFailure,
    kCheckpointTornWrite,
    kFlushDelay,
    kSiteCount,  // sentinel; keep last
};

/** Human-readable site name ("flush-thread-death", ...). */
const char *FaultSiteName(FaultSite site);

/** Matches any `context` value in a FaultRule. */
inline constexpr std::uint64_t kAnyContext =
    std::numeric_limits<std::uint64_t>::max();

/**
 * One scripted failure. A rule fires for a hit when all three match:
 * the hit's 0-based per-site index lies in [from_hit, until_hit), the
 * site context equals `context` (or the rule says kAnyContext), and the
 * seeded per-hit Bernoulli draw passes `probability`.
 */
struct FaultRule
{
    FaultSite site = FaultSite::kSiteCount;
    /** Per-matching-hit fire probability (1.0 = always). */
    double probability = 1.0;
    /** Half-open hit-index window [from_hit, until_hit). */
    std::uint64_t from_hit = 0;
    std::uint64_t until_hit = std::numeric_limits<std::uint64_t>::max();
    /** Site-specific discriminator (slot index, step, key); kAnyContext
     *  matches every hit. */
    std::uint64_t context = kAnyContext;
    /** Site-specific payload (victim GPU id, stall milliseconds, ...). */
    std::uint32_t payload = 0;
};

/** A full scripted failure schedule. */
struct FaultPlan
{
    std::uint64_t seed = 1;
    std::vector<FaultRule> rules;

    bool
    HasRuleFor(FaultSite site) const
    {
        for (const FaultRule &rule : rules) {
            if (rule.site == site)
                return true;
        }
        return false;
    }
};

/**
 * Evaluates a FaultPlan at runtime. Thread-safe: hit counters are
 * atomic, and the Bernoulli draw is a stateless hash of
 * (seed, site, hit index), so concurrent callers never perturb each
 * other's outcomes.
 */
class FaultInjector
{
  public:
    explicit FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {}

    FaultInjector(const FaultInjector &) = delete;
    FaultInjector &operator=(const FaultInjector &) = delete;

    /**
     * Registers one hit at `site` and returns the payload of the first
     * rule that fires, or nullopt. `context` is the site-specific
     * discriminator documented on FaultSite.
     */
    std::optional<std::uint32_t> Fire(FaultSite site,
                                      std::uint64_t context = kAnyContext);

    const FaultPlan &plan() const { return plan_; }

    /** Total hits registered at `site` so far. */
    std::uint64_t
    hits(FaultSite site) const
    {
        // relaxed: monotonic stat counter, read for reporting only.
        return hits_[Index(site)].load(std::memory_order_relaxed);
    }

    /** Total rule firings at `site` so far. */
    std::uint64_t
    fires(FaultSite site) const
    {
        // relaxed: monotonic stat counter, read for reporting only.
        return fires_[Index(site)].load(std::memory_order_relaxed);
    }

    /** Firings summed over all sites. */
    std::uint64_t total_fires() const;

  private:
    static constexpr std::size_t kSites =
        static_cast<std::size_t>(FaultSite::kSiteCount);

    static std::size_t
    Index(FaultSite site)
    {
        return static_cast<std::size_t>(site);
    }

    const FaultPlan plan_;
    std::array<model_atomic<std::uint64_t>, kSites> hits_{};
    std::array<model_atomic<std::uint64_t>, kSites> fires_{};
};

/**
 * The arming gate every instrumented site goes through: a disarmed
 * (null) injector reduces the whole fault point to one predictable
 * branch.
 */
inline std::optional<std::uint32_t>
FaultPoint(FaultInjector *injector, FaultSite site,
           std::uint64_t context = kAnyContext)
{
    if (injector == nullptr)
        return std::nullopt;
    return injector->Fire(site, context);
}

}  // namespace frugal

#endif  // FRUGAL_COMMON_FAULT_INJECTOR_H_
