/**
 * @file
 * The benchmark's two workloads (README.md says why each exists) and
 * the model instance every training run of a workload gets.
 *
 * A workload is generated from one seed: the Zipf key stream or the
 * synthetic CTR samples come from the benchmark's `--seed`, and the
 * engine receives only the generated trace.
 */
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "data/trace.h"
#include "models/dlrm.h"
#include "runtime/engine.h"

namespace perfbench {

/** One workload: engine settings plus the inputs made from the seed. */
struct Workload
{
    std::string name;
    frugal::EngineConfig config;
    /** The key trace of `zipf_embed`, the linear task. */
    frugal::Trace linear_trace{{}, 0, 1};
    /** Samples + key trace of `dlrm_rec`; null for the linear task. */
    std::unique_ptr<frugal::DlrmWorkload> dlrm;
    frugal::DlrmConfig dlrm_config;
    /** Seconds spent generating the inputs (data.input_build_s). */
    double input_build_s = 0.0;

    const frugal::Trace &
    trace() const
    {
        return dlrm ? dlrm->trace : linear_trace;
    }

    /** Keys trained per run: the trace's total (step, GPU) keys. */
    std::uint64_t TraceKeys() const;
};

/** Builds workload `name` from `seed`; null for an unknown name. */
std::unique_ptr<Workload> BuildWorkload(const std::string &name,
                                        std::uint64_t seed);

/**
 * The model of one training run. The linear task is stateless; DLRM
 * carries dense replicas and a loss history, so every run (engine or
 * oracle) gets a fresh instance.
 */
class Model
{
  public:
    explicit Model(const Workload &workload);

    Model(const Model &) = delete;
    Model &operator=(const Model &) = delete;

    const frugal::GradFn &grad_fn() const { return grad_fn_; }
    /** Empty for the linear task. */
    const frugal::StepHook &step_hook() const { return step_hook_; }
    /** Mean loss of each completed step; empty for the linear task. */
    std::vector<double> losses() const;

  private:
    std::unique_ptr<frugal::DlrmModel> dlrm_;
    frugal::GradFn grad_fn_;
    frugal::StepHook step_hook_;
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
