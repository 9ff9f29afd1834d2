/**
 * The repo benchmark: drives the real FrugalEngine on one workload for
 * a fixed time, checks every run bit-equal against the oracle replay,
 * and prints the metrics (README.md). The last line of stdout is one
 * JSON object: {"correct", "attempted", "failed", "metrics"}.
 *
 *   perfbench --workload zipf_embed --seed 1 --seconds 20 --trace 0
 *             [--spans-out DIR] [--corrupt]
 *
 * --trace 0 reports the end-to-end metrics; --trace 1 alternates traced
 * and untraced runs and reports the per-layer metrics, and writes the
 * last traced run's spans to DIR/<workload>-seed<seed>.csv.
 * --corrupt is the correctness gate's negative control (selftest.py).
 */
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "engine_runs.h"
#include "layer_replays.h"
#include "workloads.h"

namespace perfbench {
namespace {

/** Untimed warm-up before the measured runs. */
constexpr std::int64_t kWarmupNs = 3'000'000'000;

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 20.0;
    bool trace = false;
    std::string spans_out;
    bool corrupt = false;
};

bool
ParseOptions(int argc, char **argv, Options *opt)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--workload" && has_value) {
            opt->workload = argv[++i];
        } else if (arg == "--seed" && has_value) {
            opt->seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--seconds" && has_value) {
            opt->seconds = std::strtod(argv[++i], nullptr);
        } else if (arg == "--trace" && has_value) {
            opt->trace = std::string(argv[++i]) == "1";
        } else if (arg == "--spans-out" && has_value) {
            opt->spans_out = argv[++i];
        } else if (arg == "--corrupt") {
            opt->corrupt = true;
        } else {
            return false;
        }
    }
    return !opt->workload.empty() && opt->seconds > 0.0;
}

/** One reported metric. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

double
Ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

double
PeakRssMb()
{
    struct rusage usage = {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB → MiB
}

/** Median over `runs` of `fn(run)`. */
template <typename Fn>
double
MedianOf(const std::vector<const RunResult *> &runs, Fn &&fn)
{
    std::vector<double> values;
    for (const RunResult *run : runs)
        values.push_back(fn(*run));
    return Median(std::move(values));
}

/** The typical step of `runs`: the median of each run's median step
 *  period, in µs. */
double
StepTimeP50Us(const std::vector<const RunResult *> &runs)
{
    return MedianOf(runs, [](const RunResult &r) { return r.step_p50_us; });
}

/** Trace keys per second at the step period `step_us`. */
double
KeysPerSecond(const Workload &w, double step_us)
{
    return Ratio(static_cast<double>(w.TraceKeys()) /
                     static_cast<double>(w.trace().NumSteps()),
                 step_us * 1e-6);
}

std::vector<Metric>
EndToEndMetrics(const Workload &w, const std::vector<const RunResult *> &timed,
                double peak_rss)
{
    std::size_t periods = 0;
    for (const RunResult *run : timed)
        periods += run->step_periods_us.size();
    std::printf("step_time_p50_us: median of %zu runs' medians over %zu "
                "step periods\n",
                timed.size(), periods);
    // Both rates are taken at the median step, not over wall_seconds: a
    // busy host stretches a varying share of the steps, and on a shared
    // VM those stalls spread the mean rate of repeated runs several
    // times wider than their median step. The mean rate is the
    // per-layer runtime.wall_keys_per_s.
    const double step_us = StepTimeP50Us(timed);
    return {
        {"keys_per_s", KeysPerSecond(w, step_us), "keys/s"},
        {"steps_per_s", Ratio(1e6, step_us), "steps/s"},
        {"step_time_p50_us", step_us, "us"},
        {"setup_s",
         MedianOf(timed, [](const RunResult &r) { return r.setup_s; }),
         "s"},
        {"peak_rss_mb", peak_rss, "MB"},
    };
}

std::vector<Metric>
PerLayerMetrics(const Workload &w, const std::vector<const RunResult *> &traced,
                const std::vector<const RunResult *> &untraced,
                double oracle_s, const LayerReplays &replays)
{
    // Pooled distributions across the traced runs.
    frugal::Histogram lag;
    std::vector<double> periods;
    for (const RunResult *run : traced) {
        lag.Merge(run->report.flush_lag);
        periods.insert(periods.end(), run->step_periods_us.begin(),
                       run->step_periods_us.end());
    }
    auto per_run = [&traced](auto fn) { return MedianOf(traced, fn); };
    auto per_step = [](const RunResult &r, double count) {
        return Ratio(count, static_cast<double>(r.steps));
    };
    const double n_gpus = static_cast<double>(w.config.n_gpus);
    const double keys = static_cast<double>(w.TraceKeys());

    return {
        {"runtime.gate_stall_us_per_step",
         per_run([&](const RunResult &r) {
             return per_step(r, r.report.stall_seconds_total * 1e6);
         }),
         "us"},
        {"runtime.gate_blocked_ratio",
         per_run([&](const RunResult &r) {
             return per_step(r, static_cast<double>(r.report.gate_waits)) /
                    n_gpus;
         }),
         "ratio"},
        {"runtime.flush_lag_p50_us", lag.Percentile(50) * 1e6, "us"},
        {"runtime.flush_lag_p99_us", lag.Percentile(99) * 1e6, "us"},
        {"runtime.flush_lag_samples", static_cast<double>(lag.count()),
         "count"},
        {"runtime.non_model_us_per_step",
         per_run([](const RunResult &r) { return r.non_model_us_per_step; }),
         "us"},
        {"runtime.step_time_p99_us", Percentile(periods, 99), "us"},
        {"runtime.step_time_samples", static_cast<double>(periods.size()),
         "count"},
        {"runtime.wall_keys_per_s",
         MedianOf(untraced,
                  [](const RunResult &r) { return r.wall_keys_per_s; }),
         "keys/s"},
        {"runtime.oracle_keys_per_s", Ratio(keys, oracle_s), "keys/s"},
        {"pq.claims_per_step",
         per_run([&](const RunResult &r) {
             return per_step(
                 r, static_cast<double>(r.report.flush_entry_claims));
         }),
         "claims/step"},
        {"pq.updates_per_claim",
         per_run([](const RunResult &r) {
             return Ratio(static_cast<double>(r.report.updates_applied),
                          static_cast<double>(r.report.flush_entry_claims));
         }),
         "updates/claim"},
        {"pq.register_update_ns", replays.pq_register_update_ns, "ns"},
        {"pq.dequeue_claim_ns", replays.pq_dequeue_claim_ns, "ns"},
        {"cache.hit_ratio",
         per_run([](const RunResult &r) { return r.report.cache.HitRatio(); }),
         "ratio"},
        {"cache.hot_hit_share",
         per_run([](const RunResult &r) {
             return Ratio(static_cast<double>(r.report.cache.hot_hits),
                          static_cast<double>(r.report.cache.hits));
         }),
         "ratio"},
        {"cache.admission_declines_per_step",
         per_run([&](const RunResult &r) {
             return per_step(
                 r, static_cast<double>(r.report.cache.admission_declines));
         }),
         "declines/step"},
        {"cache.warm_hit_ratio",
         per_run([](const RunResult &r) {
             return Ratio(static_cast<double>(r.report.prefetch.warm_hits),
                          static_cast<double>(r.report.prefetch.rows_warmed));
         }),
         "ratio"},
        {"cache.late_warms",
         per_run([](const RunResult &r) {
             return static_cast<double>(r.report.prefetch.late_warms);
         }),
         "count"},
        {"cache.lookup_ns", replays.cache_lookup_ns, "ns"},
        {"cache.replay_hit_ratio", replays.cache_replay_hit_ratio, "ratio"},
        {"table.host_reads_per_step",
         per_run([&](const RunResult &r) {
             return per_step(r, static_cast<double>(r.report.host_reads));
         }),
         "rows/step"},
        {"table.read_rows_ns_per_row", replays.table_read_rows_ns_per_row,
         "ns"},
        {"table.apply_ns_per_row", replays.table_apply_ns_per_row, "ns"},
        {"models.grad_us_per_step",
         per_run([](const RunResult &r) { return r.grad_us_per_step; }), "us"},
        {"models.grad_share",
         per_run([](const RunResult &r) { return r.grad_share; }), "ratio"},
        {"models.step_hook_us",
         per_run([](const RunResult &r) { return r.step_hook_us; }), "us"},
        {"data.input_build_s", w.input_build_s, "s"},
        {"data.next_use_build_s", replays.next_use_build_s, "s"},
        {"trace_overhead_ratio",
         1.0 - Ratio(KeysPerSecond(w, StepTimeP50Us(traced)),
                     KeysPerSecond(w, StepTimeP50Us(untraced))),
         "ratio"},
    };
}

/**
 * The split each workload was chosen for (README.md). A failure means
 * the inputs no longer exercise what the workload is named for.
 */
bool
LayerSplitHolds(const std::string &workload,
                const std::vector<Metric> &metrics)
{
    std::map<std::string, double> by_name;
    for (const Metric &m : metrics)
        by_name[m.name] = m.value;
    const double grad_share = by_name["models.grad_share"];
    bool ok = true;
    auto require = [&ok](bool cond, const char *what, double value) {
        if (!cond) {
            std::fprintf(stderr, "LAYER SPLIT CHECK FAILED: %s (got %.4f)\n",
                         what, value);
            ok = false;
        }
    };
    if (workload == "dlrm_rec") {
        require(grad_share >= 0.5, "dlrm_rec needs models.grad_share >= 0.5",
                grad_share);
    } else {
        require(grad_share <= 0.05,
                "zipf_embed needs models.grad_share <= 0.05",
                grad_share);
    }
    if (workload == "zipf_embed") {
        require(by_name["cache.hit_ratio"] < 1.0,
                "zipf_embed needs cache.hit_ratio < 1",
                by_name["cache.hit_ratio"]);
    }
    return ok;
}

void
PrintResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics)
        std::printf("  %-36s %16.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit.c_str());
    }
    std::printf("}}\n");
}

int
Main(const Options &opt)
{
    const std::unique_ptr<Workload> workload =
        BuildWorkload(opt.workload, opt.seed);
    if (!workload) {
        std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
        return 2;
    }
    const Workload &w = *workload;
    std::printf("workload %s, seed %llu: %zu steps, %llu keys, "
                "inputs built in %.3f s\n",
                w.name.c_str(), static_cast<unsigned long long>(opt.seed),
                w.trace().NumSteps(),
                static_cast<unsigned long long>(w.TraceKeys()),
                w.input_build_s);

    StepRecorder recorder(w.trace().NumSteps(), w.config.n_gpus);
    std::unique_ptr<StepRecorder> traced_recorder;
    if (opt.trace)
        traced_recorder = std::make_unique<StepRecorder>(
            w.trace().NumSteps(), w.config.n_gpus);
    Verifier verifier;
    std::vector<RunResult> runs;

    // Peak RSS through input generation and one run. Later runs in the
    // same process only add allocator-arena fragmentation (each run's
    // fresh threads may land on other malloc arenas), which is a
    // property of repeating runs, not of a run.
    runs.push_back(RunEngine(w, false, opt.corrupt, recorder, verifier));
    const double peak_rss = PeakRssMb();
    // Untimed warm-up: until glibc has created its per-thread malloc
    // arenas (each run starts fresh threads), runs page-fault new arenas
    // in and read up to 20% slow.
    std::int64_t deadline = NowNs() + kWarmupNs;
    while (NowNs() < deadline)
        runs.push_back(RunEngine(w, false, opt.corrupt, recorder, verifier));
    const std::size_t warmup_runs = runs.size();
    deadline = NowNs() + static_cast<std::int64_t>(opt.seconds * 1e9);
    // With tracing, traced and untraced runs alternate so a slow stretch
    // of the host hits both alike.
    const std::size_t min_runs = opt.trace ? 4 : 3;
    while (NowNs() < deadline || runs.size() - warmup_runs < min_runs) {
        const bool traced = opt.trace && (runs.size() - warmup_runs) % 2 == 0;
        runs.push_back(RunEngine(w, traced, opt.corrupt,
                                 traced ? *traced_recorder : recorder,
                                 verifier));
    }
    const double oracle_s = RunOracleReplay(w, verifier);

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<const RunResult *> traced;
    std::vector<const RunResult *> untraced;
    for (std::size_t i = 0; i < runs.size(); ++i) {
        attempted += runs[i].steps;
        if (!verifier.RunCorrect(i))
            failed += runs[i].steps;
        if (i >= warmup_runs)
            (runs[i].traced ? traced : untraced).push_back(&runs[i]);
    }
    std::printf("%zu engine runs (%zu warm-up), %llu of %llu steps failed "
                "the oracle check\n",
                runs.size(), warmup_runs, static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(attempted));
    bool correct = failed == 0;

    std::vector<Metric> metrics;
    if (!opt.trace) {
        metrics = EndToEndMetrics(w, untraced, peak_rss);
    } else {
        const LayerReplays replays = RunLayerReplays(w);
        metrics = PerLayerMetrics(w, traced, untraced, oracle_s, replays);
        correct = LayerSplitHolds(w.name, metrics) && correct;
        if (!opt.spans_out.empty()) {
            std::filesystem::create_directories(opt.spans_out);
            const std::string path = opt.spans_out + "/" + w.name + "-seed" +
                                     std::to_string(opt.seed) + ".csv";
            if (traced_recorder->WriteCsv(path))
                std::printf("spans of the last traced run: %s\n",
                            path.c_str());
            else
                std::fprintf(stderr, "cannot write %s\n", path.c_str());
        }
    }
    PrintResult(correct, attempted, failed, metrics);
    return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int
main(int argc, char **argv)
{
    perfbench::Options opt;
    if (!perfbench::ParseOptions(argc, argv, &opt)) {
        std::fprintf(stderr,
                     "usage: %s --workload zipf_embed|dlrm_rec "
                     "--seed N --seconds S --trace 0|1 [--spans-out DIR] "
                     "[--corrupt]\n",
                     argv[0]);
        return 2;
    }
    return perfbench::Main(opt);
}
