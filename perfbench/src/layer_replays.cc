#include "layer_replays.h"

#include <algorithm>
#include <vector>

#include "cache/gpu_cache.h"
#include "data/next_use.h"
#include "engine_runs.h"
#include "pq/g_entry_registry.h"
#include "pq/pq_ops.h"
#include "pq/two_level_pq.h"
#include "table/embedding_table.h"
#include "table/optimizer.h"

namespace perfbench {
namespace {

using frugal::ClaimTicket;
using frugal::EngineConfig;
using frugal::GEntry;
using frugal::GpuId;
using frugal::Key;
using frugal::NextUseIndex;
using frugal::Step;
using frugal::Trace;
using frugal::WriteRecord;

/** Replays cover at most this many steps: enough for steady per-op
 *  costs, short enough to keep a traced run's tail to a few seconds. */
constexpr std::size_t kReplaySteps = 3000;

double
PerOp(std::int64_t ns, std::uint64_t ops)
{
    return ops == 0 ? 0.0
                    : static_cast<double>(ns) / static_cast<double>(ops);
}

/**
 * The engine's g-entry stream, single-threaded: reads are registered
 * `lookahead` steps ahead (the prefetcher), each step's updates are
 * registered (the drainer), then every claimable entry is claimed,
 * detached and completed (the flushers), so the queue is empty at each
 * step boundary.
 */
void
ReplayPq(const Workload &w, std::size_t steps, LayerReplays *out)
{
    const Trace &trace = w.trace();
    const EngineConfig &config = w.config;
    frugal::TwoLevelPQConfig pq_config;
    pq_config.max_step = steps;
    pq_config.n_shards = config.flush_threads;
    frugal::TwoLevelPQ queue(pq_config);
    frugal::GEntryRegistry registry(64, config.key_space);
    const std::size_t lookahead = config.lookahead;

    std::vector<GEntry *> resolved;
    std::vector<WriteRecord> records;
    std::vector<ClaimTicket> claims;
    auto resolve = [&](const std::vector<Key> &keys) {
        resolved.resize(keys.size());
        registry.GetOrCreateBatch(keys, resolved.data());
    };
    auto register_reads = [&](std::size_t s) {
        for (GpuId g = 0; g < trace.n_gpus(); ++g) {
            resolve(trace.KeysFor(s, g));
            for (GEntry *entry : resolved)
                frugal::RegisterRead(queue, *entry, s);
        }
    };
    for (std::size_t s = 0; s < std::min(lookahead, steps); ++s)
        register_reads(s);

    std::int64_t update_ns = 0;
    std::int64_t claim_ns = 0;
    std::uint64_t updates = 0;
    std::uint64_t n_claims = 0;
    for (std::size_t s = 0; s < steps; ++s) {
        queue.SetScanBounds(s, s + lookahead);
        if (s + lookahead < steps)
            register_reads(s + lookahead);
        for (GpuId g = 0; g < trace.n_gpus(); ++g) {
            const std::vector<Key> &keys = trace.KeysFor(s, g);
            records.clear();
            for (std::size_t i = 0; i < keys.size(); ++i)
                records.push_back(WriteRecord{
                    s, g, std::vector<float>(config.dim, 0.01f), {}});
            const std::int64_t start = NowNs();
            resolve(keys);
            for (std::size_t i = 0; i < keys.size(); ++i)
                frugal::RegisterUpdate(queue, *resolved[i],
                                       std::move(records[i]));
            update_ns += NowNs() - start;
            updates += keys.size();
        }
        const std::int64_t start = NowNs();
        while (queue.DequeueClaim(claims, config.flush_batch, 0) > 0) {
            for (const ClaimTicket &ticket : claims) {
                const std::vector<WriteRecord> writes =
                    frugal::TakeClaimedWrites(*ticket.entry);
                queue.OnFlushed(ticket);
            }
            n_claims += claims.size();
            claims.clear();
        }
        claim_ns += NowNs() - start;
    }
    out->pq_register_update_ns = PerOp(update_ns, updates);
    out->pq_dequeue_claim_ns = PerOp(claim_ns, n_claims);
}

/**
 * Each GPU's own key stream (the keys it reads and owns) through a bare
 * GpuCache at the workload's capacity and policy, with the next-use
 * hints, step-boundary dead-key evictions and horizon moves the engine
 * applies — but no warming, so the hit ratio is the demand-path one.
 */
void
ReplayCache(const Workload &w, const NextUseIndex &index, std::size_t steps,
            LayerReplays *out)
{
    const Trace &trace = w.trace();
    const EngineConfig &config = w.config;
    const frugal::KeyOwnership ownership(config.n_gpus);
    const std::vector<float> row(config.dim, 0.0f);
    std::vector<float> read(config.dim);

    std::int64_t ns = 0;
    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;
    for (GpuId g = 0; g < trace.n_gpus(); ++g) {
        // The owned stream is filtered before timing.
        std::vector<Key> keys;
        std::vector<Step> hints;
        std::vector<std::size_t> step_end;
        std::vector<Key> dead;
        std::vector<std::size_t> dead_end;
        for (std::size_t s = 0; s < steps; ++s) {
            const std::vector<Key> &step_keys = trace.KeysFor(s, g);
            const auto step_hints = index.HintRow(s, g);
            for (std::size_t i = 0; i < step_keys.size(); ++i) {
                if (ownership.OwnerOf(step_keys[i]) == g) {
                    keys.push_back(step_keys[i]);
                    hints.push_back(step_hints[i]);
                }
            }
            step_end.push_back(keys.size());
            for (const Key key : index.DeadAfter(s)) {
                if (ownership.OwnerOf(key) == g)
                    dead.push_back(key);
            }
            dead_end.push_back(dead.size());
        }

        frugal::GpuCache cache(config.CacheRowsPerGpu(), config.dim,
                               config.cache_options);
        cache.SetEvictionHorizon(static_cast<Step>(config.lookahead));
        const std::int64_t start = NowNs();
        std::size_t i = 0;
        std::size_t d = 0;
        for (std::size_t s = 0; s < steps; ++s) {
            for (; i < step_end[s]; ++i) {
                if (cache.TryGet(keys[i], read.data(), hints[i]))
                    ++hits;
                else
                    cache.Put(keys[i], row.data(), hints[i]);
            }
            for (; d < dead_end[s]; ++d)
                cache.EvictIfDead(dead[d]);
            cache.SetEvictionHorizon(
                static_cast<Step>(s + 1 + config.lookahead));
        }
        ns += NowNs() - start;
        lookups += keys.size();
    }
    out->cache_lookup_ns = PerOp(ns, lookups);
    out->cache_replay_hit_ratio =
        lookups == 0 ? 0.0
                     : static_cast<double>(hits) /
                           static_cast<double>(lookups);
}

/** Batch gathers and single-gradient applies over the trace's keys at
 *  the workload's dim and optimizer. */
void
ReplayTable(const Workload &w, std::size_t steps, LayerReplays *out)
{
    const Trace &trace = w.trace();
    const EngineConfig &config = w.config;
    frugal::EmbeddingTableConfig tc;
    tc.key_space = config.key_space;
    tc.dim = config.dim;
    tc.init_seed = config.init_seed;
    tc.init_scale = config.init_scale;
    frugal::HostEmbeddingTable table(tc);
    auto optimizer = frugal::MakeOptimizer(
        config.optimizer, config.learning_rate, config.key_space, config.dim);

    std::size_t max_keys = 0;
    for (std::size_t s = 0; s < steps; ++s)
        for (GpuId g = 0; g < trace.n_gpus(); ++g)
            max_keys = std::max(max_keys, trace.KeysFor(s, g).size());
    std::vector<float> rows(max_keys * config.dim);
    const std::vector<float> grad(config.dim, 0.01f);
    const float *grad_ptr = grad.data();

    std::uint64_t n_rows = 0;
    std::int64_t start = NowNs();
    for (std::size_t s = 0; s < steps; ++s) {
        for (GpuId g = 0; g < trace.n_gpus(); ++g) {
            const std::vector<Key> &keys = trace.KeysFor(s, g);
            table.ReadRows(keys.data(), keys.size(), rows.data());
            n_rows += keys.size();
        }
    }
    out->table_read_rows_ns_per_row = PerOp(NowNs() - start, n_rows);

    start = NowNs();
    for (std::size_t s = 0; s < steps; ++s)
        for (GpuId g = 0; g < trace.n_gpus(); ++g)
            for (const Key key : trace.KeysFor(s, g))
                table.ApplyGradients(key, &grad_ptr, 1, *optimizer);
    out->table_apply_ns_per_row = PerOp(NowNs() - start, n_rows);
}

}  // namespace

LayerReplays
RunLayerReplays(const Workload &workload)
{
    LayerReplays out;
    const Trace &trace = workload.trace();
    NextUseIndex index;
    std::vector<double> builds;
    for (int i = 0; i < 3; ++i) {
        const std::int64_t start = NowNs();
        index = trace.BuildNextUseIndex();
        builds.push_back(static_cast<double>(NowNs() - start) * 1e-9);
    }
    out.next_use_build_s = Median(builds);

    const std::size_t steps = std::min(trace.NumSteps(), kReplaySteps);
    ReplayPq(workload, steps, &out);
    ReplayCache(workload, index, steps, &out);
    ReplayTable(workload, steps, &out);
    return out;
}

}  // namespace perfbench
