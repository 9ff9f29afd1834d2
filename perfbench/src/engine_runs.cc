#include "engine_runs.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

#include "runtime/oracle.h"
#include "table/optimizer.h"

namespace perfbench {

using frugal::GpuId;
using frugal::GradFn;
using frugal::HostEmbeddingTable;
using frugal::Key;
using frugal::Step;
using frugal::StepHook;

std::int64_t
NowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
Percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(values.size())));
    const std::size_t index = rank == 0 ? 0 : rank - 1;
    std::nth_element(values.begin(), values.begin() + index, values.end());
    return values[index];
}

StepRecorder::StepRecorder(std::size_t n_steps, std::uint32_t n_gpus)
    : hook_start_(n_steps, 0),
      hook_end_(n_steps, 0),
      grad_start_(n_gpus, std::vector<std::int64_t>(n_steps, 0)),
      grad_end_(n_gpus, std::vector<std::int64_t>(n_steps, 0))
{
}

GradFn
StepRecorder::TraceGradFn(GradFn inner)
{
    // Each trainer writes only its own buffer; the engine joins its
    // threads before Run returns, which orders these writes before any
    // read below.
    return [this, inner = std::move(inner)](
               GpuId gpu, Step step, const std::vector<Key> &keys,
               const std::vector<float> &values, std::vector<float> *grads) {
        const std::int64_t start = NowNs();
        inner(gpu, step, keys, values, grads);
        grad_end_[gpu][step] = NowNs();
        grad_start_[gpu][step] = start;
    };
}

StepHook
StepRecorder::WrapStepHook(StepHook inner, bool traced)
{
    return [this, inner = std::move(inner), traced](Step step) {
        hook_start_[step] = NowNs();
        if (inner)
            inner(step);
        if (traced)
            hook_end_[step] = NowNs();
    };
}

std::vector<double>
StepRecorder::StepPeriodsUs() const
{
    std::vector<double> periods;
    periods.reserve(hook_start_.size());
    for (std::size_t s = 1; s < hook_start_.size(); ++s)
        periods.push_back(
            static_cast<double>(hook_start_[s] - hook_start_[s - 1]) * 1e-3);
    return periods;
}

std::int64_t
StepRecorder::SlowestGradNs(std::size_t s) const
{
    std::int64_t slowest = 0;
    for (std::size_t g = 0; g < grad_start_.size(); ++g)
        slowest = std::max(slowest, grad_end_[g][s] - grad_start_[g][s]);
    return slowest;
}

bool
StepRecorder::WriteCsv(const std::string &path) const
{
    if (n_steps() == 0)
        return false;
    std::int64_t origin_ns = grad_start_[0][0];
    for (const auto &starts : grad_start_)
        origin_ns = std::min(origin_ns, starts[0]);
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (out == nullptr)
        return false;
    std::fprintf(out, "kind,trainer,step,start_ns,end_ns\n");
    for (std::size_t s = 0; s < n_steps(); ++s) {
        std::int64_t last_grad_end = 0;
        for (std::size_t g = 0; g < grad_start_.size(); ++g) {
            std::fprintf(out, "grad,%zu,%zu,%lld,%lld\n", g, s,
                         static_cast<long long>(grad_start_[g][s] -
                                                origin_ns),
                         static_cast<long long>(grad_end_[g][s] -
                                                origin_ns));
            last_grad_end = std::max(last_grad_end, grad_end_[g][s]);
        }
        // Barrier: from the slowest trainer's model end (emit, arrive)
        // to the barrier completion that runs the hook.
        std::fprintf(out, "barrier,,%zu,%lld,%lld\n", s,
                     static_cast<long long>(last_grad_end - origin_ns),
                     static_cast<long long>(hook_start_[s] - origin_ns));
        std::fprintf(out, "step_hook,,%zu,%lld,%lld\n", s,
                     static_cast<long long>(hook_start_[s] - origin_ns),
                     static_cast<long long>(hook_end_[s] - origin_ns));
    }
    return std::fclose(out) == 0;
}

namespace {

void
CopyTable(const HostEmbeddingTable &table, std::vector<float> *out)
{
    const std::size_t dim = table.dim();
    out->resize(static_cast<std::size_t>(table.key_space()) * dim);
    for (Key k = 0; k < table.key_space(); ++k)
        std::memcpy(out->data() + k * dim, table.Row(k),
                    dim * sizeof(float));
}

bool
TableEquals(const HostEmbeddingTable &table, const std::vector<float> &copy)
{
    const std::size_t dim = table.dim();
    if (copy.size() != static_cast<std::size_t>(table.key_space()) * dim)
        return false;
    for (Key k = 0; k < table.key_space(); ++k) {
        if (std::memcmp(copy.data() + k * dim, table.Row(k),
                        dim * sizeof(float)) != 0)
            return false;
    }
    return true;
}

bool
LossesEqual(const std::vector<double> &a, const std::vector<double> &b)
{
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

double
Seconds(std::int64_t from_ns, std::int64_t to_ns)
{
    return static_cast<double>(to_ns - from_ns) * 1e-9;
}

}  // namespace

void
Verifier::Check(const HostEmbeddingTable &table,
                const std::vector<double> &losses)
{
    if (equal_to_reference_.empty()) {
        CopyTable(table, &table_);
        losses_ = losses;
        equal_to_reference_.push_back(true);
        return;
    }
    equal_to_reference_.push_back(TableEquals(table, table_) &&
                                  LossesEqual(losses, losses_));
}

void
Verifier::CheckOracle(const HostEmbeddingTable &table,
                      const std::vector<double> &losses)
{
    oracle_equal_ = !equal_to_reference_.empty() &&
                    TableEquals(table, table_) &&
                    LossesEqual(losses, losses_);
}

RunResult
RunEngine(const Workload &workload, bool traced, bool corrupt,
          StepRecorder &recorder, Verifier &verifier)
{
    const Model model(workload);
    const GradFn grad_fn =
        traced ? recorder.TraceGradFn(model.grad_fn()) : model.grad_fn();
    const StepHook step_hook =
        recorder.WrapStepHook(model.step_hook(), traced);

    const std::int64_t make_start = NowNs();
    auto engine = frugal::MakeEngine("frugal", workload.config);
    const std::int64_t run_start = NowNs();
    RunResult result;
    result.report = engine->Run(workload.trace(), grad_fn, step_hook);
    const std::int64_t run_end = NowNs();

    const frugal::RunReport &report = result.report;
    result.traced = traced;
    result.steps = report.steps;
    // Construction plus the part of Run before stepping starts (PQ,
    // registry, caches, next-use index): Run's wall time minus the
    // stepping phase the engine reports.
    result.setup_s = Seconds(make_start, run_start) +
                     Seconds(run_start, run_end) - report.wall_seconds;
    result.wall_keys_per_s =
        static_cast<double>(workload.TraceKeys()) / report.wall_seconds;
    result.step_periods_us = recorder.StepPeriodsUs();
    result.step_p50_us = Median(result.step_periods_us);

    if (traced && recorder.n_steps() > 1) {
        // Step s's period ends at its barrier completion, so it pairs
        // with step s's GradFn spans.
        double grad_ns = 0.0;
        double hook_ns = 0.0;
        for (std::size_t s = 1; s < recorder.n_steps(); ++s) {
            grad_ns += static_cast<double>(recorder.SlowestGradNs(s));
            hook_ns += static_cast<double>(recorder.hook_ns(s));
        }
        double period_us = 0.0;
        for (double p : result.step_periods_us)
            period_us += p;
        const double n = static_cast<double>(result.step_periods_us.size());
        result.grad_us_per_step = grad_ns * 1e-3 / n;
        result.grad_share = grad_ns * 1e-3 / period_us;
        result.non_model_us_per_step =
            period_us / n - result.grad_us_per_step;
        result.step_hook_us = hook_ns * 1e-3 / n;
    }

    std::vector<double> losses = model.losses();
    if (corrupt) {
        const Key key = workload.trace().KeysFor(0, 0).front();
        float *row = engine->table().MutableRow(key);
        row[0] = std::nextafter(row[0], std::numeric_limits<float>::max());
        if (!losses.empty())
            losses.back() = std::nextafter(
                losses.back(), std::numeric_limits<double>::max());
    }
    verifier.Check(engine->table(), losses);
    return result;
}

double
RunOracleReplay(const Workload &workload, Verifier &verifier)
{
    const frugal::EngineConfig &config = workload.config;
    frugal::EmbeddingTableConfig tc;
    tc.key_space = config.key_space;
    tc.dim = config.dim;
    tc.init_seed = config.init_seed;
    tc.init_scale = config.init_scale;
    HostEmbeddingTable table(tc);
    auto optimizer = frugal::MakeOptimizer(
        config.optimizer, config.learning_rate, config.key_space, config.dim);
    const Model model(workload);

    const std::int64_t start = NowNs();
    frugal::RunOracle(table, *optimizer, workload.trace(), model.grad_fn(),
                      model.step_hook());
    const double seconds = Seconds(start, NowNs());
    verifier.CheckOracle(table, model.losses());
    return seconds;
}

}  // namespace perfbench
