/**
 * Offline cache-policy replay harness (DESIGN.md §14).
 *
 * Every replacement-policy change should ship with a hit-rate and
 * throughput *curve*, not a single number: this bench drives a bare
 * GpuCache — no engine, no threads, just the policy — through
 * identical synthetic traces and scores four policies against each
 * other across a {Zipf 0.8, 0.99} × {capacity 100%, 50%, 25% of the
 * trace's working set} grid:
 *
 *  - lru     — the legacy single-list LRU baseline (what the §4.1
 *              competitor engines model);
 *  - lfu     — LRU plus the TinyLFU admission gate (frequency sketch
 *              vetoes one-hit wonders at full capacity);
 *  - tiered  — the full default policy: admission gate + hot/cold
 *              segmented eviction (promotion on re-reference);
 *  - oracle  — tiered with next-use hints attached (the oracular mode
 *              of DESIGN.md §13 composed on top: Belady-within-window
 *              victims, eviction horizon, dead-key reclamation).
 *
 * Capacity is expressed against the *working set* (distinct keys the
 * trace actually touches), so the 25% cells genuinely thrash and the
 * eviction policy is what differs. Each replay charges a simulated
 * PCIe gather latency per miss (the same debt-sleep idiom as
 * EngineConfig::host_gather_ns), so hit-rate differences surface as
 * steps/s, while hit rates themselves are exact and deterministic.
 *
 * The acceptance gate of ISSUE 9 runs here: the tiered policy must
 * beat pure LRU on hit rate at equal capacity on Zipf 0.99 *without*
 * hints, or the bench exits non-zero.
 *
 * Emits BENCH_cache_policy.json (one {"metric", "value", "unit"}
 * record per measurement) for the check.sh baseline diff. `--smoke`
 * shrinks the trace for CI; `--out PATH` moves the JSON.
 */
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "cache/gpu_cache.h"
#include "common/distribution.h"
#include "common/rng.h"
#include "data/next_use.h"
#include "data/trace.h"
#include "metrics/reporter.h"

namespace frugal {
namespace {

/** Workload sized so replacement is the bottleneck: enough distinct
 *  keys that the 25% cells evict constantly, a single trace GPU so one
 *  cache sees the whole stream. */
struct Sizes
{
    std::uint64_t key_space = 4096;
    std::size_t dim = 16;
    std::size_t steps = 400;
    std::size_t keys_per_step = 64;
    /** Throughput repeats per cell (best-of-N; hit rates are
     *  deterministic and identical across repeats). */
    std::size_t repeats = 3;
    std::size_t lookahead = 10;
    /** Simulated PCIe latency per missed row (debt-sleep, same idiom
     *  as the engine's host_gather_ns): makes steps/s track hit rate
     *  instead of raw bookkeeping overhead. */
    std::uint64_t miss_gather_ns = 2000;
};

/** One replayed (policy, trace, capacity) cell. */
struct ReplayResult
{
    double steps_per_s = 0.0;
    double hit_rate = 0.0;
    GpuCacheStats stats;
};

struct PolicySpec
{
    const char *tag;
    bool segmented;
    bool freq_admission;
    bool hinted;  ///< next-use hints + horizon + dead-key sweeps
};

constexpr PolicySpec kPolicies[] = {
    {"lru", false, false, false},
    {"lfu", false, true, false},
    {"tiered", true, true, false},
    {"oracle", true, true, true},
};

constexpr std::uint64_t kGatherSleepQuantumNs = 100'000;

/** Replays the whole trace through one fresh cache. `index` is only
 *  consulted for hinted policies. */
ReplayResult
RunReplay(const PolicySpec &policy, const Trace &trace,
          const NextUseIndex &index, std::size_t capacity_rows,
          const Sizes &sizes)
{
    GpuCacheOptions options;
    options.segmented = policy.segmented;
    options.freq_admission = policy.freq_admission;
    GpuCache cache(capacity_rows, sizes.dim, options);

    std::vector<float> row(sizes.dim);
    std::uint64_t gather_debt_ns = 0;
    const auto start = std::chrono::steady_clock::now();
    for (std::size_t s = 0; s < trace.NumSteps(); ++s) {
        const std::vector<Key> &keys =
            trace.KeysFor(s, /*gpu=*/0);
        std::span<const Step> hints;
        if (policy.hinted) {
            cache.SetEvictionHorizon(
                static_cast<Step>(s + sizes.lookahead));
            hints = index.HintRow(s, /*gpu=*/0);
        }
        for (std::size_t i = 0; i < keys.size(); ++i) {
            const bool hit =
                policy.hinted
                    ? cache.TryGet(keys[i], row.data(), hints[i])
                    : cache.TryGet(keys[i], row.data());
            if (hit)
                continue;
            // Miss: charge the simulated host gather, then refill.
            gather_debt_ns += sizes.miss_gather_ns;
            for (std::size_t d = 0; d < sizes.dim; ++d)
                row[d] = static_cast<float>(keys[i]);
            if (policy.hinted)
                cache.Put(keys[i], row.data(), hints[i]);
            else
                cache.Put(keys[i], row.data());
        }
        if (policy.hinted) {
            // Step boundary: reclaim keys whose last reader has passed
            // (the §13 dead-key sweep, composed onto the new policy).
            for (const Key dead : index.DeadAfter(s))
                cache.EvictIfDead(dead);
        }
        if (gather_debt_ns >= kGatherSleepQuantumNs) {
            std::this_thread::sleep_for(
                std::chrono::nanoseconds(gather_debt_ns));
            gather_debt_ns = 0;
        }
    }
    if (gather_debt_ns > 0)
        std::this_thread::sleep_for(
            std::chrono::nanoseconds(gather_debt_ns));
    const auto end = std::chrono::steady_clock::now();
    const double seconds =
        std::chrono::duration<double>(end - start).count();

    ReplayResult result;
    result.stats = cache.stats();
    result.steps_per_s =
        seconds > 0
            ? static_cast<double>(trace.NumSteps()) / seconds
            : 0.0;
    result.hit_rate = result.stats.HitRatio();
    return result;
}

}  // namespace
}  // namespace frugal

int
main(int argc, char **argv)
{
    using namespace frugal;

    BenchArgs args{false, "BENCH_cache_policy.json"};
    if (!ParseBenchArgs(argc, argv, &args))
        return 2;

    Sizes sizes;
    if (args.smoke) {
        sizes.steps = 120;
        sizes.repeats = 1;
        sizes.miss_gather_ns = 500;
    }

    PrintBanner("Cache policy replay (DESIGN.md §14)",
                "bare-GpuCache trace replay: LRU vs TinyLFU admission "
                "vs tiered vs tiered+oracular hints, by capacity and "
                "skew");

    const std::vector<double> thetas = {0.8, 0.99};
    const std::vector<double> capacity_fracs = {1.0, 0.5, 0.25};

    std::vector<Metric> metrics;
    TablePrinter grid("GpuCache replay (identical traces per skew)",
                      {"Zipf", "Capacity", "Policy", "Hit rate",
                       "Steps/s", "Declines", "Promotions"});

    for (const double theta : thetas) {
        // One trace per skew; every policy and capacity replays the
        // identical stream. The working set anchors the capacity axis.
        Rng rng(4242);
        ZipfDistribution dist(sizes.key_space, theta);
        const Trace trace =
            Trace::Synthetic(dist, rng, sizes.steps, /*n_gpus=*/1,
                             sizes.keys_per_step);
        const NextUseIndex index = trace.BuildNextUseIndex();
        const auto working_set = index.distinct_keys();

        const std::string z =
            "z" + std::to_string(static_cast<int>(theta * 100));
        for (const double frac : capacity_fracs) {
            const std::string c =
                "_c" + std::to_string(static_cast<int>(frac * 100));
            const auto capacity_rows = static_cast<std::size_t>(
                static_cast<double>(working_set) * frac);
            for (const PolicySpec &policy : kPolicies) {
                ReplayResult best;
                for (std::size_t rep = 0; rep < sizes.repeats; ++rep) {
                    const ReplayResult run = RunReplay(
                        policy, trace, index, capacity_rows, sizes);
                    if (rep == 0 || run.steps_per_s > best.steps_per_s)
                        best = run;
                }
                const std::string tag =
                    std::string("_") + policy.tag + "_" + z + c;
                metrics.push_back(Metric{"cpolicy_hit_rate" + tag,
                                         best.hit_rate, "ratio"});
                metrics.push_back(Metric{"cpolicy_steps_per_s" + tag,
                                         best.steps_per_s, "steps/s"});
                if (policy.freq_admission) {
                    metrics.push_back(Metric{
                        "cpolicy_declines" + tag,
                        static_cast<double>(
                            best.stats.admission_declines),
                        "inserts", /*lower_is_better=*/true});
                }
                if (policy.segmented) {
                    metrics.push_back(Metric{
                        "cpolicy_promotions" + tag,
                        static_cast<double>(best.stats.promotions),
                        "rows"});
                }
                grid.AddRow(
                    {FormatDouble(theta, 2),
                     FormatDouble(frac * 100, 0) + "%", policy.tag,
                     FormatDouble(best.hit_rate * 100, 1) + "%",
                     FormatDouble(best.steps_per_s, 1),
                     std::to_string(best.stats.admission_declines),
                     std::to_string(best.stats.promotions)});
            }
        }
    }

    grid.Print();

    // Headline + acceptance gate: tiered (unhinted) must beat pure LRU
    // on hit rate at equal capacity on Zipf 0.99 in the thrashing
    // cells. Hit rates are deterministic, so this is a hard gate, not
    // a flaky timing assertion.
    bool gate_ok = true;
    TablePrinter headline("Tiered vs LRU hit-rate gain (Zipf 0.99)",
                          {"Capacity", "LRU", "Tiered", "Gain"});
    for (const char *cap : {"c50", "c25"}) {
        double lru_hr = 0.0, tiered_hr = 0.0;
        for (const Metric &m : metrics) {
            const std::string suffix = std::string("_z99_") + cap;
            if (m.name == "cpolicy_hit_rate_lru" + suffix)
                lru_hr = m.value;
            if (m.name == "cpolicy_hit_rate_tiered" + suffix)
                tiered_hr = m.value;
        }
        metrics.push_back(
            Metric{std::string("cpolicy_hit_gain_z99_") + cap,
                   tiered_hr - lru_hr, "ratio"});
        headline.AddRow(
            {cap, FormatDouble(lru_hr * 100, 1) + "%",
             FormatDouble(tiered_hr * 100, 1) + "%",
             FormatDouble((tiered_hr - lru_hr) * 100, 1) + " pp"});
        if (tiered_hr <= lru_hr) {
            gate_ok = false;
            std::fprintf(stderr,
                         "FAIL: tiered policy does not beat LRU at "
                         "z99_%s (%.4f vs %.4f)\n",
                         cap, tiered_hr, lru_hr);
        }
    }
    headline.Print();

    WriteJson(metrics, args.out_path);
    return gate_ok ? 0 : 1;
}
