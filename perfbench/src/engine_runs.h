/**
 * @file
 * One timed FrugalEngine run of a workload, the spans recorded around
 * the callbacks the benchmark hands the engine, and the bit-exact check
 * of every run's trained parameters.
 *
 * Nothing inside the engine is instrumented: the StepHook wrapper stamps
 * each barrier completion (every run; the step period is the gap between
 * consecutive stamps), and traced runs also wrap the GradFn (one span per
 * trainer and step) and time the StepHook body. Span buffers are sized
 * before the run, so recording never allocates on the step path.
 */
#ifndef PERFBENCH_ENGINE_RUNS_H_
#define PERFBENCH_ENGINE_RUNS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/engine.h"
#include "workloads.h"

namespace perfbench {

/** steady_clock nanoseconds. */
std::int64_t NowNs();

/** The `p`-th percentile (0..100, nearest rank) of `values`; 0 when
 *  empty. */
double Percentile(std::vector<double> values, double p);

inline double
Median(std::vector<double> values)
{
    return Percentile(std::move(values), 50.0);
}

/** Per-step timestamps of one run, preallocated for the trace. */
class StepRecorder
{
  public:
    StepRecorder(std::size_t n_steps, std::uint32_t n_gpus);

    StepRecorder(const StepRecorder &) = delete;
    StepRecorder &operator=(const StepRecorder &) = delete;

    /** GradFn that records a span per (trainer, step) around `inner`. */
    frugal::GradFn TraceGradFn(frugal::GradFn inner);

    /** StepHook that stamps the barrier completion before `inner` (may
     *  be empty) and, when `traced`, the end of `inner`. */
    frugal::StepHook WrapStepHook(frugal::StepHook inner, bool traced);

    /** Gaps between consecutive barrier completions, in µs. */
    std::vector<double> StepPeriodsUs() const;

    /** Longest GradFn span of step `s` across trainers, in ns. */
    std::int64_t SlowestGradNs(std::size_t s) const;

    /** Writes every span as CSV (kind,trainer,step,start_ns,end_ns),
     *  times relative to the first GradFn start. @return false on I/O
     *  failure. */
    bool WriteCsv(const std::string &path) const;

    std::size_t n_steps() const { return hook_start_.size(); }
    /** Duration of step `s`'s StepHook (traced runs only). */
    std::int64_t hook_ns(std::size_t s) const
    {
        return hook_end_[s] - hook_start_[s];
    }

  private:
    std::vector<std::int64_t> hook_start_;
    std::vector<std::int64_t> hook_end_;
    /** [gpu][step]; one buffer per trainer thread. */
    std::vector<std::vector<std::int64_t>> grad_start_;
    std::vector<std::vector<std::int64_t>> grad_end_;
};

/**
 * Bit-exact verification. Every run is compared with the first run's
 * trained table and loss history, and the first run with the oracle
 * replay; a run is correct only when both hold. Keeping one reference
 * copy instead of one per run keeps the benchmark's own memory flat
 * across runs (peak RSS is an end-to-end metric).
 */
class Verifier
{
  public:
    /** Records the next run's outcome; the first run's becomes the
     *  reference. */
    void Check(const frugal::HostEmbeddingTable &table,
               const std::vector<double> &losses);

    /** Compares the reference with the oracle's outcome. */
    void CheckOracle(const frugal::HostEmbeddingTable &table,
                     const std::vector<double> &losses);

    /** Whether run `index` is bit-equal to the oracle. */
    bool RunCorrect(std::size_t index) const
    {
        return oracle_equal_ && equal_to_reference_[index];
    }

  private:
    std::vector<float> table_;
    std::vector<double> losses_;
    std::vector<bool> equal_to_reference_;
    bool oracle_equal_ = false;
};

/** Measurements of one engine run. */
struct RunResult
{
    bool traced = false;
    std::size_t steps = 0;
    double setup_s = 0.0;
    /** Trace keys per second of `RunReport::wall_seconds`: the mean
     *  rate, with every stall of the host in it. */
    double wall_keys_per_s = 0.0;
    std::vector<double> step_periods_us;
    /** Median of `step_periods_us`. */
    double step_p50_us = 0.0;
    frugal::RunReport report;

    /** Traced runs only: the span-derived model/runtime split. */
    double grad_us_per_step = 0.0;
    double grad_share = 0.0;
    double non_model_us_per_step = 0.0;
    double step_hook_us = 0.0;
};

/**
 * Builds a FrugalEngine through MakeEngine, runs the workload's trace,
 * and hands the trained table to `verifier`. With `corrupt`, one float
 * of the trained table (and one loss entry) is nudged by one ulp before
 * the check: the negative control of the correctness gate.
 */
RunResult RunEngine(const Workload &workload, bool traced, bool corrupt,
                    StepRecorder &recorder, Verifier &verifier);

/** The single-threaded oracle replay; stores its outcome in `verifier`.
 *  @return the replay's wall seconds. */
double RunOracleReplay(const Workload &workload, Verifier &verifier);

}  // namespace perfbench

#endif  // PERFBENCH_ENGINE_RUNS_H_
