/**
 * @file
 * The per-key next-use index over a materialized Trace — the oracle that
 * makes prefetching and eviction *oracular* (BagPipe, arXiv:2202.12429):
 * training sees its own future, so at step s the exact key set of step
 * s+k is known, the next step at which any resident key will be read is
 * known, and keys with no future reader are known to be dead.
 *
 * Built in one backward pass over the trace (plus a forward pass that
 * lays out the per-key successor chains), the index answers three
 * questions the runtime asks:
 *
 *  - HintRow(s, g): for the i-th key of (step s, GPU g) in trace order,
 *    the next step (> s) at which that key is read by *any* GPU, or
 *    kNever. Parallel to Trace::KeysFor(s, g), so trainers attach
 *    next-use hints to cache operations in O(1).
 *  - DeadAfter(s): the keys whose final reader is step s — eligible for
 *    zero-cost cache reclamation once s completes.
 *  - NextUseAfter(k, s): the first step > s that reads k (kNever when
 *    none) — a binary search over k's successor chain, used by the
 *    flush-side warm path and by tests.
 *
 * The index describes reads only; it never influences what value a key
 * holds. Consumers use it to *move* reads (warm earlier, evict dead),
 * which cannot perturb update application order — the bit-equality
 * contract every engine test asserts.
 */
#ifndef FRUGAL_DATA_NEXT_USE_H_
#define FRUGAL_DATA_NEXT_USE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/flat_map.h"
#include "common/types.h"

namespace frugal {

class Trace;

/** Immutable next-use oracle over one trace. */
class NextUseIndex
{
  public:
    /** "No future use" sentinel (also returned for unknown keys). */
    static constexpr Step kNever = kInfiniteStep;

    /** Empty index (no steps, every key unknown). */
    NextUseIndex() = default;

    /** Builds the index for `trace`; equivalent to
     *  trace.BuildNextUseIndex(). */
    explicit NextUseIndex(const Trace &trace);

    std::size_t NumSteps() const { return n_steps_; }
    std::uint32_t n_gpus() const { return n_gpus_; }

    /** Number of distinct keys the trace touches. */
    std::uint64_t distinct_keys() const { return key_steps_offset_.empty()
            ? 0
            : key_steps_offset_.size() - 1; }

    /**
     * Next-use hints for (step, gpu), parallel to
     * Trace::KeysFor(step, gpu): element i is the first step > `step`
     * at which that row's key is read by any GPU, or kNever.
     */
    std::span<const Step>
    HintRow(std::size_t step, GpuId gpu) const
    {
        const std::size_t row = step * n_gpus_ + gpu;
        return {hints_.data() + hint_offset_[row],
                hint_offset_[row + 1] - hint_offset_[row]};
    }

    /** Keys whose last reader (across all GPUs) is `step`, each listed
     *  exactly once, in first-seen trace order. */
    std::span<const Key>
    DeadAfter(std::size_t step) const
    {
        return {dead_keys_.data() + dead_offset_[step],
                dead_offset_[step + 1] - dead_offset_[step]};
    }

    /** First step > `step` that reads `key` anywhere, or kNever. */
    Step NextUseAfter(Key key, Step step) const;

    /** First step that reads `key` at all, or kNever. */
    Step FirstUse(Key key) const;

    /** Bytes held by the index (hints + dead lists + chains). */
    std::size_t MemoryBytes() const;

  private:
    friend class Trace;

    std::size_t n_steps_ = 0;
    std::uint32_t n_gpus_ = 1;

    /** Flattened hint rows, one per (step, gpu); offsets row-major. */
    std::vector<Step> hints_;
    std::vector<std::size_t> hint_offset_{0};

    /** Flattened dead-after lists, one per step. */
    std::vector<Key> dead_keys_;
    std::vector<std::size_t> dead_offset_{0};

    /** Per-key successor chains in CSR form: key → dense slot via
     *  key_slot_, then key_steps_[offset[slot] .. offset[slot+1]) is
     *  the ascending, deduplicated list of steps that read the key. */
    FlatMap<Key, std::uint32_t> key_slot_;
    std::vector<std::size_t> key_steps_offset_;
    std::vector<Step> key_steps_;
};

}  // namespace frugal

#endif  // FRUGAL_DATA_NEXT_USE_H_
