/**
 * Data-plane hot-path microbenchmark (DESIGN.md §8).
 *
 * Measures the four paths the flat-layout overhaul rewrote, each against
 * an inline *legacy* reference that reproduces the pre-rewrite
 * implementation shape:
 *
 *  - cache get / put: FlatMap + intrusive-array LRU GpuCache vs an
 *    unordered_map + std::list node-based LRU;
 *  - registry get-or-create: single-probe TryEmplace + arena GEntries vs
 *    find-then-emplace over unordered_map<Key, unique_ptr<GEntry>>;
 *  - update-pipeline drain: one UpdateBatch per (step, GPU) vs one
 *    heap-allocated message per key plus end markers, both through a
 *    staging queue and a drain thread — frozen shapes; FrugalEngine
 *    registers each step on its trainers instead;
 *  - row kernels: vectorised copy / SGD / Adagrad bandwidth.
 *
 * Emits BENCH_hotpath.json (one {"metric", "value", "unit"} record per
 * measurement) for the check.sh baseline diff. `--smoke` shrinks every
 * size for CI; `--out PATH` moves the JSON.
 */
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <list>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cache/gpu_cache.h"
#include "common/blocking_queue.h"
#include "common/spinlock.h"
#include "common/types.h"
#include "metrics/reporter.h"
#include "pq/g_entry.h"
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

// --- legacy reference implementations (pre-rewrite shape) --------------

/** The old GpuCache layout: std::list LRU of heap rows, indexed by an
 *  unordered_map of list iterators. */
class LegacyLruCache
{
  public:
    LegacyLruCache(std::size_t capacity_rows, std::size_t dim)
        : capacity_(capacity_rows), dim_(dim)
    {
    }

    bool
    TryGet(Key key, float *out)
    {
        SpinGuard guard(lock_);
        auto it = map_.find(key);
        if (it == map_.end())
            return false;
        std::memcpy(out, it->second->row.data(), dim_ * sizeof(float));
        lru_.splice(lru_.begin(), lru_, it->second);
        return true;
    }

    Key
    Put(Key key, const float *row)
    {
        SpinGuard guard(lock_);
        auto it = map_.find(key);
        if (it != map_.end()) {
            std::memcpy(it->second->row.data(), row,
                        dim_ * sizeof(float));
            lru_.splice(lru_.begin(), lru_, it->second);
            return kInvalidKey;
        }
        Key evicted = kInvalidKey;
        if (map_.size() >= capacity_) {
            evicted = lru_.back().key;
            map_.erase(evicted);
            lru_.pop_back();
        }
        lru_.push_front(Node{key, std::vector<float>(row, row + dim_)});
        map_.emplace(key, lru_.begin());
        return evicted;
    }

  private:
    struct Node
    {
        Key key;
        std::vector<float> row;
    };

    const std::size_t capacity_;
    const std::size_t dim_;
    Spinlock lock_{LockRank::kGpuCache};
    std::list<Node> lru_;
    std::unordered_map<Key, std::list<Node>::iterator> map_;
};

/** The old registry layout: sharded unordered_map of unique_ptr entries
 *  with the find-then-emplace double lookup. */
class LegacyRegistry
{
  public:
    explicit LegacyRegistry(std::size_t shards = 64) : shards_(shards) {}

    GEntry &
    GetOrCreate(Key key)
    {
        Shard &shard = shards_[static_cast<std::size_t>(key) %
                               shards_.size()];
        SpinGuard guard(shard.lock);
        auto it = shard.entries.find(key);
        if (it == shard.entries.end()) {
            it = shard.entries
                     .emplace(key, std::make_unique<GEntry>(key))
                     .first;
        }
        return *it->second;
    }

  private:
    struct Shard
    {
        Spinlock lock{LockRank::kRegistryShard};
        std::unordered_map<Key, std::unique_ptr<GEntry>> entries;
    };

    std::vector<Shard> shards_;
};

/** The old staging-queue element: one message per key + end markers. */
struct LegacyMsg
{
    Key key = 0;
    Step step = 0;
    GpuId src = 0;
    bool end_marker = false;
    std::vector<float> grad;
};

/** The new staging-queue element (mirrors the engine's UpdateBatch). */
struct HotBatch
{
    Step step = 0;
    GpuId src = 0;
    const std::vector<Key> *keys = nullptr;
    std::vector<float> grads;
};

// --- benchmarks --------------------------------------------------------

struct Sizes
{
    std::size_t dim = 32;
    std::size_t cache_rows = 1 << 16;
    std::size_t cache_ops = 2'000'000;
    std::size_t registry_keys = 200'000;
    std::size_t registry_passes = 8;
    Step pipeline_steps = 64;
    std::uint32_t pipeline_gpus = 4;
    std::size_t pipeline_keys_per_gpu = 2048;
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

template <typename Cache>
std::pair<double, double>
RunCacheBench(Cache &cache, const Sizes &sizes)
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

template <typename Registry>
double
RunRegistryBench(Registry &registry, const Sizes &sizes)
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

/** Legacy pipeline: producer pushes one message per key + an end marker
 *  per (step, GPU); consumer buffers until every marker arrived, then
 *  sorts and discards. Returns drained updates/s. */
double
RunLegacyPipeline(const Sizes &sizes,
                  const std::vector<std::vector<Key>> &per_gpu_keys)
{
    const std::size_t total = sizes.pipeline_gpus *
                              sizes.pipeline_keys_per_gpu *
                              static_cast<std::size_t>(sizes.pipeline_steps);
    BlockingQueue<LegacyMsg> staging(1 << 15);
    const auto start = Clock::now();
    std::thread producer([&] {
        for (Step s = 0; s < sizes.pipeline_steps; ++s) {
            for (std::uint32_t g = 0; g < sizes.pipeline_gpus; ++g) {
                for (Key key : per_gpu_keys[g]) {
                    LegacyMsg msg;
                    msg.key = key;
                    msg.step = s;
                    msg.src = static_cast<GpuId>(g);
                    msg.grad.assign(sizes.dim, 0.5f);
                    staging.Push(std::move(msg));
                }
                LegacyMsg marker;
                marker.step = s;
                marker.src = static_cast<GpuId>(g);
                marker.end_marker = true;
                staging.Push(std::move(marker));
            }
        }
        staging.Close();
    });
    std::size_t drained = 0;
    std::vector<std::vector<LegacyMsg>> buffers(
        static_cast<std::size_t>(sizes.pipeline_steps));
    std::vector<std::uint32_t> markers(
        static_cast<std::size_t>(sizes.pipeline_steps), 0);
    while (true) {
        auto popped = staging.PopBatchFor(
            std::size_t{512}, std::chrono::milliseconds(50));
        if (popped.empty()) {
            if (staging.closed())
                break;
            continue;
        }
        for (LegacyMsg &msg : popped) {
            if (!msg.end_marker) {
                buffers[msg.step].push_back(std::move(msg));
                continue;
            }
            if (++markers[msg.step] < sizes.pipeline_gpus)
                continue;
            std::sort(buffers[msg.step].begin(), buffers[msg.step].end(),
                      [](const LegacyMsg &a, const LegacyMsg &b) {
                          return a.key != b.key ? a.key < b.key
                                                : a.src < b.src;
                      });
            drained += buffers[msg.step].size();
            buffers[msg.step].clear();
            buffers[msg.step].shrink_to_fit();
        }
    }
    producer.join();
    const double rate = static_cast<double>(drained) / SecondsSince(start);
    FRUGAL_CHECK(drained == total);
    return rate;
}

/** Batched pipeline: one batch per (step, GPU); the batch is the
 *  marker. Includes the (key, src) index sort the engine's step
 *  registration runs. */
double
RunBatchedPipeline(const Sizes &sizes,
                   const std::vector<std::vector<Key>> &per_gpu_keys)
{
    const std::size_t total = sizes.pipeline_gpus *
                              sizes.pipeline_keys_per_gpu *
                              static_cast<std::size_t>(sizes.pipeline_steps);
    BlockingQueue<HotBatch> staging(1 << 15);
    const auto start = Clock::now();
    std::thread producer([&] {
        for (Step s = 0; s < sizes.pipeline_steps; ++s) {
            for (std::uint32_t g = 0; g < sizes.pipeline_gpus; ++g) {
                HotBatch batch;
                batch.step = s;
                batch.src = static_cast<GpuId>(g);
                batch.keys = &per_gpu_keys[g];
                batch.grads.assign(
                    per_gpu_keys[g].size() * sizes.dim, 0.5f);
                staging.Push(std::move(batch));
            }
        }
        staging.Close();
    });
    struct RowRef
    {
        Key key;
        GpuId src;
    };
    std::size_t drained = 0;
    std::vector<std::vector<HotBatch>> step_batches(
        static_cast<std::size_t>(sizes.pipeline_steps));
    std::vector<RowRef> order;
    while (true) {
        auto popped = staging.PopBatchFor(
            std::size_t{64}, std::chrono::milliseconds(50));
        if (popped.empty()) {
            if (staging.closed())
                break;
            continue;
        }
        for (HotBatch &incoming : popped) {
            const Step s = incoming.step;
            step_batches[s].push_back(std::move(incoming));
            if (step_batches[s].size() < sizes.pipeline_gpus)
                continue;
            order.clear();
            for (const HotBatch &batch : step_batches[s]) {
                for (Key key : *batch.keys)
                    order.push_back(RowRef{key, batch.src});
            }
            std::sort(order.begin(), order.end(),
                      [](const RowRef &a, const RowRef &b) {
                          return a.key != b.key ? a.key < b.key
                                                : a.src < b.src;
                      });
            drained += order.size();
            step_batches[s].clear();
            step_batches[s].shrink_to_fit();
        }
    }
    producer.join();
    const double rate = static_cast<double>(drained) / SecondsSince(start);
    FRUGAL_CHECK(drained == total);
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
                "flat cache / registry / batched pipeline / row kernels "
                "vs legacy shapes");

    Sizes sizes;
    if (smoke) {
        sizes.cache_rows = 1 << 12;
        sizes.cache_ops = 100'000;
        sizes.registry_keys = 20'000;
        sizes.registry_passes = 4;
        sizes.pipeline_steps = 8;
        sizes.pipeline_keys_per_gpu = 512;
        sizes.kernel_rows = 1 << 12;
        sizes.kernel_passes = 8;
    }

    std::vector<Metric> metrics;

    // --- cache ---
    // Pinned to the legacy single-list LRU policy: this bench compares
    // the flat-array layout against the std::list LegacyLruCache doing
    // identical work; policy effects (admission declines skip RowCopy)
    // are bench_cache_policy's subject, not this one's.
    GpuCacheOptions lru_only;
    lru_only.segmented = false;
    lru_only.freq_admission = false;
    GpuCache cache(sizes.cache_rows, sizes.dim, lru_only);
    const auto [get_rate, put_rate] = RunCacheBench(cache, sizes);
    LegacyLruCache legacy_cache(sizes.cache_rows, sizes.dim);
    const auto [legacy_get, legacy_put] =
        RunCacheBench(legacy_cache, sizes);
    metrics.push_back(Metric{"cache_get_rate", get_rate, "ops/s"});
    metrics.push_back(Metric{"cache_put_rate", put_rate, "ops/s"});
    metrics.push_back(
        Metric{"legacy_cache_get_rate", legacy_get, "ops/s"});
    metrics.push_back(
        Metric{"legacy_cache_put_rate", legacy_put, "ops/s"});

    // --- registry ---
    GEntryRegistry registry(64, sizes.registry_keys);
    const double registry_rate = RunRegistryBench(registry, sizes);
    LegacyRegistry legacy_registry(64);
    const double legacy_registry_rate =
        RunRegistryBench(legacy_registry, sizes);
    metrics.push_back(
        Metric{"registry_get_or_create_rate", registry_rate, "ops/s"});
    metrics.push_back(Metric{"legacy_registry_get_or_create_rate",
                             legacy_registry_rate, "ops/s"});

    // --- update pipeline ---
    std::vector<std::vector<Key>> per_gpu_keys(sizes.pipeline_gpus);
    for (std::uint32_t g = 0; g < sizes.pipeline_gpus; ++g) {
        per_gpu_keys[g].resize(sizes.pipeline_keys_per_gpu);
        for (std::size_t k = 0; k < sizes.pipeline_keys_per_gpu; ++k) {
            per_gpu_keys[g][k] = static_cast<Key>(
                g * sizes.pipeline_keys_per_gpu + k);
        }
    }
    const double batched_rate = RunBatchedPipeline(sizes, per_gpu_keys);
    const double legacy_rate = RunLegacyPipeline(sizes, per_gpu_keys);
    metrics.push_back(
        Metric{"pipeline_drain_rate", batched_rate, "updates/s"});
    metrics.push_back(
        Metric{"legacy_pipeline_drain_rate", legacy_rate, "updates/s"});

    // --- row kernels ---
    RunKernelBench(sizes, metrics);

    // --- speedups + report ---
    metrics.push_back(Metric{"cache_get_speedup",
                             get_rate / legacy_get, "x"});
    metrics.push_back(Metric{"cache_put_speedup",
                             put_rate / legacy_put, "x"});
    metrics.push_back(Metric{"registry_speedup",
                             registry_rate / legacy_registry_rate, "x"});
    metrics.push_back(Metric{"pipeline_speedup",
                             batched_rate / legacy_rate, "x"});

    TablePrinter table("Hot-path throughput (new vs legacy shape)",
                       {"Path", "New", "Legacy", "Speedup"});
    table.AddRow({"cache get (ops/s)", FormatCount(get_rate),
                  FormatCount(legacy_get),
                  FormatSpeedup(get_rate / legacy_get)});
    table.AddRow({"cache put (ops/s)", FormatCount(put_rate),
                  FormatCount(legacy_put),
                  FormatSpeedup(put_rate / legacy_put)});
    table.AddRow({"registry get-or-create (ops/s)",
                  FormatCount(registry_rate),
                  FormatCount(legacy_registry_rate),
                  FormatSpeedup(registry_rate / legacy_registry_rate)});
    table.AddRow({"pipeline drain (updates/s)",
                  FormatCount(batched_rate), FormatCount(legacy_rate),
                  FormatSpeedup(batched_rate / legacy_rate)});
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
