/**
 * @file
 * Memory-pressure monitor driving staged degradation (DESIGN.md §12.2).
 *
 * Frugal targets capacity-constrained commodity hosts, so "resources
 * ran out" is an operating mode, not an error. The MemoryBudget tracks
 * the bytes held by the engine's dynamic components — g-entry arenas,
 * flat-map indexes, GPU caches, pending update batches — against a
 * caller-set budget and classifies the total into pressure stages:
 *
 *   kNormal    usage < 70% of budget — run at full configuration.
 *   kElevated  usage ≥ 70%          — shed throughput for headroom
 *                                     (halve prefetch lookahead, stop
 *                                     coalescing flush claims).
 *   kCritical  usage ≥ 90%          — additionally shrink the GPU
 *                                     caches online (emergency evict).
 *
 * Stage transitions use 10-points-of-budget hysteresis on the way
 * down (e.g. Critical clears only below 80%) so a total oscillating
 * around a threshold does not flap reactions. Write-through coherence
 * makes every reaction correctness-free: eviction and smaller batches
 * change throughput, never table contents (DESIGN.md §5).
 *
 * Concurrency: components publish gauges from their own threads;
 * `Evaluate()` — the stage calculator — is intended for a single
 * sampling thread (the engine's control loop), while `stage()` and the
 * counters are safe to read from anywhere. A zero budget disables
 * classification (always kNormal), which is the default-off legacy
 * behaviour.
 */
#ifndef FRUGAL_COMMON_MEMORY_BUDGET_H_
#define FRUGAL_COMMON_MEMORY_BUDGET_H_

#include <array>
#include <cstddef>
#include <cstdint>

#include "check/model_sync.h"

namespace frugal {

/** The dynamic allocations the budget tracks, one gauge each. */
enum class MemoryComponent : std::uint8_t {
    /** ChunkArena chunks (g-entry storage). */
    kArena = 0,
    /** FlatMap slot arrays (registry + cache indexes). */
    kFlatMap,
    /** GpuCache row storage + LRU bookkeeping. */
    kCache,
    /** Pending update payload (gradient batches emitted but not yet
     *  registered into g-entries). */
    kQueue,
    kComponentCount,
};

const char *MemoryComponentName(MemoryComponent component);

/** Pressure classification of the tracked total vs. the budget. */
enum class PressureStage : std::uint8_t {
    kNormal = 0,
    kElevated = 1,
    kCritical = 2,
};

const char *PressureStageName(PressureStage stage);

class MemoryBudget
{
  public:
    /** Fraction of budget at which kElevated engages. */
    static constexpr double kElevatedFraction = 0.70;
    /** Fraction of budget at which kCritical engages. */
    static constexpr double kCriticalFraction = 0.90;
    /** Downward hysteresis: a stage clears only once usage drops this
     *  far below its engage threshold. */
    static constexpr double kHysteresisFraction = 0.10;

    /** `budget_bytes` = 0 disables classification (always kNormal). */
    explicit MemoryBudget(std::size_t budget_bytes = 0);

    /** Replaces the budget mid-run (thread-safe; takes effect at the
     *  next Evaluate). Models an operator squeeze or a co-tenant
     *  claiming host memory. */
    void SetBudget(std::size_t bytes);
    std::size_t budget_bytes() const;

    /** Publishes the current size of one component (gauge semantics:
     *  overwrites, does not accumulate). Any thread. */
    void Publish(MemoryComponent component, std::size_t bytes);

    std::size_t bytes(MemoryComponent component) const;
    /** Sum of all component gauges. */
    std::size_t TotalBytes() const;

    /**
     * Recomputes the stage from the current gauges and budget,
     * applying hysteresis against the previous stage and counting
     * transitions. Call from one sampling thread; returns the stage
     * now in force.
     */
    PressureStage Evaluate();

    /** Last stage computed by Evaluate(). Any thread. */
    PressureStage stage() const;

    /** Number of stage changes observed by Evaluate(). */
    std::uint64_t transitions() const;

    /** Highest stage ever reached (0/1/2). */
    std::uint8_t peak_stage() const;

    /** Largest TotalBytes() seen by Evaluate(). */
    std::size_t peak_total_bytes() const;

  private:
    static constexpr std::size_t kComponents =
        static_cast<std::size_t>(MemoryComponent::kComponentCount);

    model_atomic<std::size_t> budget_;
    std::array<model_atomic<std::size_t>, kComponents> bytes_{};
    model_atomic<std::uint8_t> stage_{0};
    model_atomic<std::uint64_t> transitions_{0};
    model_atomic<std::uint8_t> peak_stage_{0};
    model_atomic<std::size_t> peak_total_{0};
};

}  // namespace frugal

#endif  // FRUGAL_COMMON_MEMORY_BUDGET_H_
