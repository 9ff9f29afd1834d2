/**
 * Data-plane hot-path microbenchmark (DESIGN.md §8).
 *
 * Measures the data-plane structures the flat-layout overhaul rewrote:
 *
 *  - cache get / put: FlatMap + intrusive-array LRU GpuCache;
 *  - registry get-or-create: single-probe TryEmplace + arena GEntries;
 *  - row kernels: vectorised copy / SGD / Adagrad bandwidth.
 *
 * Emits BENCH_hotpath.json (one {"metric", "value", "unit"} record per
 * measurement) for the check.sh baseline diff. `--smoke` shrinks every
 * size for CI; `--out PATH` moves the JSON.
 */
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "cache/gpu_cache.h"
#include "common/types.h"
#include "metrics/reporter.h"
#include "pq/g_entry_registry.h"
#include "table/row_kernels.h"

namespace frugal {
namespace {

using Clock = std::chrono::steady_clock;

double
SecondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** One benchmark result; serialised to BENCH_hotpath.json. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

// --- benchmarks --------------------------------------------------------

struct Sizes
{
    std::size_t dim = 32;
    std::size_t cache_rows = 1 << 16;
    std::size_t cache_ops = 2'000'000;
    std::size_t registry_keys = 200'000;
    std::size_t registry_passes = 8;
    std::size_t kernel_rows = 1 << 15;
    std::size_t kernel_passes = 64;
};

/** A key stream with cache-friendly skew: 90 % of accesses hit the first
 *  `hot` keys, so get benchmarks measure the hit path. */
std::vector<Key>
SkewedKeys(std::size_t n, std::size_t universe, std::size_t hot,
           std::uint64_t seed)
{
    std::mt19937_64 rng(seed);
    std::uniform_int_distribution<std::size_t> coin(0, 9);
    std::uniform_int_distribution<std::size_t> hot_dist(0, hot - 1);
    std::uniform_int_distribution<std::size_t> cold_dist(0, universe - 1);
    std::vector<Key> keys(n);
    for (Key &key : keys)
        key = static_cast<Key>(coin(rng) == 0 ? cold_dist(rng)
                                              : hot_dist(rng));
    return keys;
}

std::pair<double, double>
RunCacheBench(GpuCache &cache, const Sizes &sizes)
{
    const std::vector<Key> keys = SkewedKeys(
        sizes.cache_ops, sizes.cache_rows * 2, sizes.cache_rows / 2, 7);
    std::vector<float> row(sizes.dim, 1.0f);
    // Warm: put the hot set so gets measure the hit path.
    for (std::size_t k = 0; k < sizes.cache_rows / 2; ++k)
        cache.Put(static_cast<Key>(k), row.data());

    const auto put_start = Clock::now();
    for (Key key : keys)
        cache.Put(key, row.data());
    const double put_rate =
        static_cast<double>(keys.size()) / SecondsSince(put_start);

    float sink = 0.0f;
    const auto get_start = Clock::now();
    for (Key key : keys) {
        if (cache.TryGet(key, row.data()))
            sink += row[0];
    }
    const double get_rate =
        static_cast<double>(keys.size()) / SecondsSince(get_start);
    if (sink == 12345.678f)  // defeat dead-code elimination
        std::printf("%f\n", sink);
    return {get_rate, put_rate};
}

double
RunRegistryBench(GEntryRegistry &registry, const Sizes &sizes)
{
    std::vector<Key> keys(sizes.registry_keys);
    for (std::size_t k = 0; k < keys.size(); ++k)
        keys[k] = static_cast<Key>(k);
    std::mt19937_64 rng(11);
    std::shuffle(keys.begin(), keys.end(), rng);

    std::uintptr_t sink = 0;
    const auto start = Clock::now();
    for (std::size_t pass = 0; pass < sizes.registry_passes; ++pass) {
        for (Key key : keys)
            sink ^= reinterpret_cast<std::uintptr_t>(
                &registry.GetOrCreate(key));
    }
    const double rate = static_cast<double>(sizes.registry_keys *
                                            sizes.registry_passes) /
                        SecondsSince(start);
    if (sink == 1)
        std::printf("impossible\n");
    return rate;
}

double
GigabytesPerSecond(std::size_t bytes_touched, double seconds)
{
    return static_cast<double>(bytes_touched) / seconds / 1e9;
}

void
RunKernelBench(const Sizes &sizes, std::vector<Metric> &metrics)
{
    const std::size_t n = sizes.kernel_rows * sizes.dim;
    std::vector<float> src(n, 0.25f), dst(n, 0.0f), acc(n, 1.0f);

    const auto copy_start = Clock::now();
    for (std::size_t pass = 0; pass < sizes.kernel_passes; ++pass) {
        for (std::size_t r = 0; r < sizes.kernel_rows; ++r) {
            RowCopy(dst.data() + r * sizes.dim,
                    src.data() + r * sizes.dim, sizes.dim);
        }
    }
    // read + write per element
    metrics.push_back(Metric{
        "kernel_copy_bandwidth",
        GigabytesPerSecond(2 * n * sizes.kernel_passes * sizeof(float),
                           SecondsSince(copy_start)),
        "GB/s"});

    const auto sgd_start = Clock::now();
    for (std::size_t pass = 0; pass < sizes.kernel_passes; ++pass) {
        for (std::size_t r = 0; r < sizes.kernel_rows; ++r) {
            RowSgdApply(dst.data() + r * sizes.dim,
                        src.data() + r * sizes.dim, 0.05f, sizes.dim);
        }
    }
    // row read+write, grad read
    metrics.push_back(Metric{
        "kernel_sgd_bandwidth",
        GigabytesPerSecond(3 * n * sizes.kernel_passes * sizeof(float),
                           SecondsSince(sgd_start)),
        "GB/s"});

    const auto ada_start = Clock::now();
    for (std::size_t pass = 0; pass < sizes.kernel_passes; ++pass) {
        for (std::size_t r = 0; r < sizes.kernel_rows; ++r) {
            RowAdagradApply(dst.data() + r * sizes.dim,
                            acc.data() + r * sizes.dim,
                            src.data() + r * sizes.dim, 0.05f, 1e-10f,
                            sizes.dim);
        }
    }
    // row read+write, acc read+write, grad read
    metrics.push_back(Metric{
        "kernel_adagrad_bandwidth",
        GigabytesPerSecond(5 * n * sizes.kernel_passes * sizeof(float),
                           SecondsSince(ada_start)),
        "GB/s"});
}

void
WriteJson(const std::vector<Metric> &metrics, const std::string &path)
{
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return;
    }
    std::fprintf(out, "[\n");
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::fprintf(out,
                     "  {\"metric\": \"%s\", \"value\": %.6g, "
                     "\"unit\": \"%s\"}%s\n",
                     metrics[i].name.c_str(), metrics[i].value,
                     metrics[i].unit.c_str(),
                     i + 1 < metrics.size() ? "," : "");
    }
    std::fprintf(out, "]\n");
    std::fclose(out);
    std::printf("wrote %s (%zu metrics)\n", path.c_str(), metrics.size());
}

}  // namespace
}  // namespace frugal

int
main(int argc, char **argv)
{
    using namespace frugal;

    bool smoke = false;
    std::string out_path = "BENCH_hotpath.json";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--smoke") {
            smoke = true;
        } else if (arg == "--out" && i + 1 < argc) {
            out_path = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: %s [--smoke] [--out PATH]\n", argv[0]);
            return 2;
        }
    }

    PrintBanner("Hot path (DESIGN.md §8)",
                "flat cache / registry / row kernels");

    Sizes sizes;
    if (smoke) {
        sizes.cache_rows = 1 << 12;
        sizes.cache_ops = 100'000;
        sizes.registry_keys = 20'000;
        sizes.registry_passes = 4;
        sizes.kernel_rows = 1 << 12;
        sizes.kernel_passes = 8;
    }

    std::vector<Metric> metrics;

    // --- cache ---
    // Pinned to the single-list LRU policy: this bench measures the
    // flat-array layout; policy effects (admission declines skip
    // RowCopy) are bench_cache_policy's subject, not this one's.
    GpuCacheOptions lru_only;
    lru_only.segmented = false;
    lru_only.freq_admission = false;
    GpuCache cache(sizes.cache_rows, sizes.dim, lru_only);
    const auto [get_rate, put_rate] = RunCacheBench(cache, sizes);
    metrics.push_back(Metric{"cache_get_rate", get_rate, "ops/s"});
    metrics.push_back(Metric{"cache_put_rate", put_rate, "ops/s"});

    // --- registry ---
    GEntryRegistry registry(64, sizes.registry_keys);
    const double registry_rate = RunRegistryBench(registry, sizes);
    metrics.push_back(
        Metric{"registry_get_or_create_rate", registry_rate, "ops/s"});

    // --- row kernels ---
    RunKernelBench(sizes, metrics);

    TablePrinter table("Hot-path throughput", {"Path", "Ops/s"});
    table.AddRow({"cache get", FormatCount(get_rate)});
    table.AddRow({"cache put", FormatCount(put_rate)});
    table.AddRow({"registry get-or-create", FormatCount(registry_rate)});
    table.Print();

    TablePrinter kernels("Row kernels (dim 32)", {"Kernel", "GB/s"});
    for (const Metric &metric : metrics) {
        if (metric.unit == "GB/s")
            kernels.AddRow({metric.name, FormatDouble(metric.value, 1)});
    }
    kernels.Print();

    WriteJson(metrics, out_path);
    return 0;
}
