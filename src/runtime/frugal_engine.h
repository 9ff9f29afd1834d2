/**
 * @file
 * The full Frugal system (§3): trainer threads with the P²F gate, a
 * controller (prefetch thread, N flush threads), private sharded GPU
 * caches, UVA-style direct host reads, and the
 * two-level PQ (or the TreeHeap baseline) scheduling proactive flushes.
 *
 * Thread roles (Fig. 5):
 *  - n trainer threads: gate on `PQ.top() > s`, gather (local cache for
 *    owned keys, host memory for the rest), run the model callback, and
 *    write the step's ⟨key, step, Δ⟩ records into their trace GPU's
 *    batch slot. Right after the step barrier the trainers register the
 *    step into the g-entries/W sets and adjust PQ priorities, splitting
 *    the work into fixed key-hash parts that any awake trainer claims.
 *    Registering only after the barrier matters: removing step s from an
 *    R set while another GPU is still executing step s would let a
 *    flush expose a post-step value mid-step (a race the paper's proof
 *    implicitly excludes);
 *  - 1 prefetch thread: walks the trace `L` steps ahead of training and
 *    registers R-set entries (the sample queue);
 *  - `flush_threads` flush threads: claim min-priority g-entries, apply
 *    their W sets to host memory, refresh the owner GPU's cached copy
 *    ("H2D"), and wake the gate.
 */
#ifndef FRUGAL_RUNTIME_FRUGAL_ENGINE_H_
#define FRUGAL_RUNTIME_FRUGAL_ENGINE_H_

#include "runtime/engine.h"

namespace frugal {

/** The proactive-flushing engine (the paper's contribution). */
class FrugalEngine final : public Engine
{
  public:
    explicit FrugalEngine(const EngineConfig &config) : Engine(config) {}

    RunReport Run(const Trace &trace, const GradFn &grad_fn,
                  const StepHook &step_hook = {}) override;

    std::string
    Name() const override
    {
        return config_.use_tree_heap ? "frugal-treeheap" : "frugal";
    }
};

}  // namespace frugal

#endif  // FRUGAL_RUNTIME_FRUGAL_ENGINE_H_
