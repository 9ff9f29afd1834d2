/**
 * Sharded-dequeue tests for TwoLevelPQ: per-flush-thread sub-buckets
 * must keep every FlushQueue guarantee intact — exactly-once flushing,
 * priority-sorted claim batches, clean internal accounting — with scan
 * compression on and off, while dequeuers with distinct shard hints
 * drain disjoint slot sets (and steal across shards for liveness when
 * the populations are skewed).
 */
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "common/distribution.h"
#include "common/rng.h"
#include "pq/g_entry_registry.h"
#include "pq/invariant_auditor.h"
#include "pq/pq_ops.h"
#include "pq/two_level_pq.h"

namespace frugal {
namespace {

// --- unit-level shard semantics ---------------------------------------

TEST(PqShardedTest, SingleDequeuerDrainsAllShardsViaStealing)
{
    TwoLevelPQConfig config;
    config.max_step = 10;
    config.n_shards = 8;
    TwoLevelPQ q(config);
    GEntryRegistry registry(4);

    constexpr int kKeys = 64;  // spread across all 8 shards w.h.p.
    for (Key k = 0; k < kKeys; ++k)
        RegisterUpdate(q, registry.GetOrCreate(k), {0, 0, {}});
    for (Key k = 0; k < kKeys; ++k)
        RegisterRead(q, registry.GetOrCreate(k), 3);

    // One dequeuer, one hint: stealing must surface every entry — a
    // shard is never reachable only by the flusher whose index matches.
    std::vector<ClaimTicket> out;
    EXPECT_EQ(q.DequeueClaim(out, kKeys + 8, /*shard_hint=*/5), kKeys);
    for (const ClaimTicket &ticket : out) {
        EXPECT_EQ(ticket.priority, 3u);
        q.OnFlushed(ticket);
    }
    EXPECT_EQ(q.SizeApprox(), 0u);
    EXPECT_EQ(q.AuditInvariants(/*quiescent=*/false), 0u);
}

TEST(PqShardedTest, HintedDequeuerDrainsOwnShardFirst)
{
    TwoLevelPQConfig config;
    config.max_step = 4;
    config.n_shards = 4;
    TwoLevelPQ q(config);
    GEntryRegistry registry(4);

    // Bin keys by the queue's own homing function.
    std::vector<std::vector<Key>> by_shard(4);
    for (Key k = 0; by_shard[0].size() < 4 || by_shard[1].size() < 4 ||
                    by_shard[2].size() < 4 || by_shard[3].size() < 4;
         ++k)
        by_shard[MixHash64(k) % 4].push_back(k);

    for (std::size_t shard = 0; shard < 4; ++shard) {
        for (std::size_t i = 0; i < 4; ++i) {
            const Key k = by_shard[shard][i];
            RegisterUpdate(q, registry.GetOrCreate(k), {0, 0, {}});
            RegisterRead(q, registry.GetOrCreate(k), 2);
        }
    }

    // A budget that fits inside one shard must be served entirely from
    // the hinted shard — disjoint from what a peer with another hint
    // scans.
    for (std::size_t hint = 0; hint < 4; ++hint) {
        std::vector<ClaimTicket> out;
        ASSERT_EQ(q.DequeueClaim(out, 4, hint), 4u);
        for (const ClaimTicket &ticket : out) {
            EXPECT_EQ(MixHash64(ticket.entry->key()) % 4, hint);
            FlushClaimed(q, ticket, [](Key, const WriteRecord &) {});
        }
    }
    EXPECT_EQ(q.SizeApprox(), 0u);
    EXPECT_EQ(q.AuditInvariants(/*quiescent=*/true), 0u);
}

// --- DequeueClaimBelow edge cases --------------------------------------

TEST(PqShardedTest, DequeueClaimBelowSkipsEmptyCeilingBucket)
{
    TwoLevelPQConfig config;
    config.max_step = 6;
    config.n_shards = 2;
    TwoLevelPQ q(config);
    GEntryRegistry registry(4);

    // Priority 1 and 3 populated, 2 empty; one deferred (∞) entry.
    RegisterUpdate(q, registry.GetOrCreate(0), {0, 0, {}});
    RegisterRead(q, registry.GetOrCreate(0), 1);
    RegisterUpdate(q, registry.GetOrCreate(1), {0, 0, {}});
    RegisterRead(q, registry.GetOrCreate(1), 3);
    RegisterUpdate(q, registry.GetOrCreate(2), {0, 0, {}});

    // Ceiling bucket (2) is empty: the claim must still surface the
    // lower-priority entry and must not touch priority 3 or ∞.
    std::vector<ClaimTicket> out;
    EXPECT_EQ(q.DequeueClaimBelow(out, 8, /*shard_hint=*/0,
                                  /*ceiling=*/2),
              1u);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].entry->key(), 0u);
    EXPECT_EQ(out[0].priority, 1u);
    FlushClaimed(q, out[0], [](Key, const WriteRecord &) {});

    // Nothing at or below the (now empty) ceiling: an exact no-op.
    out.clear();
    EXPECT_EQ(q.DequeueClaimBelow(out, 8, 0, /*ceiling=*/2), 0u);
    EXPECT_TRUE(out.empty());
    EXPECT_EQ(q.SizeApprox(), 2u);

    // The ceiling is inclusive and never reaches the deferred bucket.
    out.clear();
    EXPECT_EQ(q.DequeueClaimBelow(out, 8, 0, /*ceiling=*/3), 1u);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].priority, 3u);
    FlushClaimed(q, out[0], [](Key, const WriteRecord &) {});

    out.clear();
    EXPECT_EQ(q.DequeueClaim(out, 8, 0), 1u);  // the ∞ entry
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].priority, kInfiniteStep);
    FlushClaimed(q, out[0], [](Key, const WriteRecord &) {});

    EXPECT_EQ(q.SizeApprox(), 0u);
    EXPECT_EQ(q.AuditInvariants(/*quiescent=*/true), 0u);
}

TEST(PqShardedTest, DequeueClaimBelowCeilingEqualsLastDequeuedPriority)
{
    TwoLevelPQConfig config;
    config.max_step = 4;
    config.n_shards = 2;
    TwoLevelPQ q(config);
    GEntryRegistry registry(4);

    for (Key k = 0; k < 3; ++k) {
        RegisterUpdate(q, registry.GetOrCreate(k), {0, 0, {}});
        RegisterRead(q, registry.GetOrCreate(k), 2);
    }

    // A budget-limited claim leaves peers at the dequeued priority; a
    // follow-up claim whose ceiling EQUALS that last-dequeued priority
    // must still surface them (the in-pass lower-bound hint may only
    // exclude strictly lower buckets — an off-by-one here starves the
    // cooperative flush path).
    std::vector<ClaimTicket> first;
    ASSERT_EQ(q.DequeueClaimBelow(first, 1, 0, /*ceiling=*/2), 1u);
    EXPECT_EQ(first[0].priority, 2u);

    std::vector<ClaimTicket> second;
    EXPECT_EQ(q.DequeueClaimBelow(second, 4, 0, /*ceiling=*/2), 2u);
    for (const ClaimTicket &ticket : second)
        EXPECT_EQ(ticket.priority, 2u);

    for (const ClaimTicket &ticket : first)
        FlushClaimed(q, ticket, [](Key, const WriteRecord &) {});
    for (const ClaimTicket &ticket : second)
        FlushClaimed(q, ticket, [](Key, const WriteRecord &) {});
    EXPECT_EQ(q.SizeApprox(), 0u);
    EXPECT_EQ(q.AuditInvariants(/*quiescent=*/true), 0u);
}

TEST(PqShardedTest, StealRacesCooperativeClaimExactlyOnce)
{
    TwoLevelPQConfig config;
    config.max_step = 6;
    config.n_shards = 2;
    TwoLevelPQ q(config);
    GEntryRegistry registry(8);

    // Low half gate-blocking (priority 2), high half later (priority 5):
    // the cooperative claimer wants exactly the low half while a general
    // flusher with the other shard hint drains everything — every entry
    // it takes from the cooperative claimer's home shard is a steal.
    constexpr int kKeys = 96;
    std::vector<std::atomic<int>> claims(kKeys);
    for (Key k = 0; k < kKeys; ++k) {
        RegisterUpdate(q, registry.GetOrCreate(k), {0, 0, {}});
        RegisterRead(q, registry.GetOrCreate(k), k < kKeys / 2 ? 2 : 5);
    }

    auto noop = [](Key, const WriteRecord &) {};
    std::thread cooperative([&] {
        std::vector<ClaimTicket> out;
        for (int dry = 0; dry < 3;) {
            out.clear();
            if (q.DequeueClaimBelow(out, 4, /*shard_hint=*/0,
                                    /*ceiling=*/2) == 0) {
                ++dry;
                std::this_thread::yield();
                continue;
            }
            for (const ClaimTicket &ticket : out) {
                EXPECT_LE(ticket.priority, 2u);
                // relaxed: tally only, read after both joins.
                claims[ticket.entry->key()].fetch_add(
                    1, std::memory_order_relaxed);
                FlushClaimed(q, ticket, noop);
            }
        }
    });
    std::thread stealer([&] {
        std::vector<ClaimTicket> out;
        for (int dry = 0; dry < 3;) {
            out.clear();
            if (q.DequeueClaim(out, 4, /*shard_hint=*/1) == 0) {
                ++dry;
                std::this_thread::yield();
                continue;
            }
            for (const ClaimTicket &ticket : out) {
                // relaxed: tally only, read after both joins.
                claims[ticket.entry->key()].fetch_add(
                    1, std::memory_order_relaxed);
                FlushClaimed(q, ticket, noop);
            }
        }
    });
    cooperative.join();
    stealer.join();

    // Nothing re-enqueues in this test, so however claims interleaved —
    // cooperative fast path, hinted fast path, or a steal — each entry
    // was claimed exactly once, and both dequeuers went dry only after
    // the queue was truly empty.
    // relaxed: counters read after both joins.
    for (Key k = 0; k < kKeys; ++k)
        EXPECT_EQ(claims[k].load(std::memory_order_relaxed), 1)
            << "key " << k;
    EXPECT_EQ(q.SizeApprox(), 0u);
    EXPECT_EQ(q.AuditInvariants(/*quiescent=*/true), 0u);
}

// --- concurrent stress -------------------------------------------------

struct ShardCase
{
    std::size_t n_shards;
    int flushers;
    int keys;
    int steps;
    int batch;
    bool compression;
    double zipf_theta;
};

class PqShardedStressTest : public ::testing::TestWithParam<ShardCase>
{
};

TEST_P(PqShardedStressTest, ExactlyOnceFlushAndCleanAudit)
{
    const ShardCase param = GetParam();
    const Step lookahead = 4;

    TwoLevelPQConfig config;
    config.max_step = param.steps;
    config.segment_slots = 8;
    config.n_shards = param.n_shards;
    TwoLevelPQ queue(config);
    queue.setScanCompression(param.compression);
    GEntryRegistry registry(16);
    InvariantAuditor auditor;

    // Pre-generate the trace (deduped keys per step).
    Rng rng(99);
    std::unique_ptr<KeyDistribution> dist =
        param.zipf_theta > 0
            ? MakeDistribution(DistributionKind::kZipf, param.keys,
                               param.zipf_theta)
            : MakeDistribution(DistributionKind::kUniform, param.keys);
    std::vector<std::vector<Key>> trace(param.steps);
    for (int s = 0; s < param.steps; ++s) {
        std::vector<bool> seen(param.keys, false);
        for (int i = 0; i < param.batch; ++i) {
            const Key k = dist->Sample(rng);
            if (!seen[k]) {
                seen[k] = true;
                trace[s].push_back(k);
            }
        }
    }

    std::atomic<bool> stop{false};
    std::atomic<Step> current_step{0};
    std::atomic<Step> frontier{0};
    std::atomic<std::uint64_t> flushed_records{0};
    std::atomic<std::uint64_t> gate_violations{0};

    std::vector<std::thread> flushers;
    for (int f = 0; f < param.flushers; ++f) {
        flushers.emplace_back([&, hint = static_cast<std::size_t>(f)] {
            auto noop_apply = [](Key, const WriteRecord &) {};
            std::vector<ClaimTicket> claimed;
            auto drain_once = [&]() -> bool {
                const Step floor =
                    current_step.load(std::memory_order_acquire);
                queue.SetScanBounds(
                    floor, frontier.load(std::memory_order_acquire));
                claimed.clear();
                if (queue.DequeueClaim(claimed, 8, hint) == 0)
                    return false;
                auditor.OnClaimBatch(claimed, floor);
                for (const ClaimTicket &ticket : claimed)
                    flushed_records +=
                        FlushClaimed(queue, ticket, noop_apply);
                return true;
            };
            while (!stop.load(std::memory_order_acquire)) {
                if (!drain_once())
                    std::this_thread::yield();
            }
            while (drain_once()) {
            }
        });
    }

    std::uint64_t emitted_records = 0;
    Step prefetched_through = 0;  // exclusive frontier

    auto prefetch_to = [&](Step horizon) {
        while (prefetched_through < horizon &&
               prefetched_through < static_cast<Step>(param.steps)) {
            for (Key k : trace[prefetched_through])
                RegisterRead(queue, registry.GetOrCreate(k),
                             prefetched_through);
            ++prefetched_through;
            frontier.store(prefetched_through,
                           std::memory_order_release);
        }
    };

    prefetch_to(lookahead);
    for (Step s = 0; s < static_cast<Step>(param.steps); ++s) {
        current_step.store(s, std::memory_order_release);
        while (queue.HasPendingAtOrBelow(s))
            std::this_thread::yield();
        for (Key k : trace[s]) {
            GEntry &entry = registry.GetOrCreate(k);
            SpinGuard guard(entry.lock());
            if (entry.hasWritesLocked())
                ++gate_violations;
        }
        for (Key k : trace[s]) {
            RegisterUpdate(queue, registry.GetOrCreate(k),
                           {s, 0, {static_cast<float>(s)}});
            ++emitted_records;
        }
        // Mid-run accounting audit (non-quiescent checks only).
        if (s % 64 == 0) {
            EXPECT_EQ(queue.AuditInvariants(/*quiescent=*/false), 0u);
        }
        prefetch_to(s + 1 + lookahead);
    }

    stop.store(true, std::memory_order_release);
    for (auto &t : flushers)
        t.join();

    EXPECT_EQ(gate_violations.load(), 0u);
    EXPECT_EQ(flushed_records.load(), emitted_records);
    EXPECT_EQ(queue.SizeApprox(), 0u);
    EXPECT_EQ(queue.AuditInvariants(/*quiescent=*/true), 0u);
    auditor.OnQuiescent(queue, registry);
    EXPECT_EQ(auditor.violations(), 0u);
    auditor.ExpectClean();
    registry.ForEach([&](GEntry &entry) {
        SpinGuard guard(entry.lock());
        EXPECT_FALSE(entry.hasWritesLocked());
        EXPECT_FALSE(entry.enqueuedLocked());
    });
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PqShardedStressTest,
    ::testing::Values(
        // shards == flushers (the engine's default pairing)
        ShardCase{2, 2, 64, 200, 16, true, 0.0},
        ShardCase{4, 4, 256, 300, 32, true, 0.9},
        ShardCase{8, 8, 512, 200, 64, true, 0.99},
        // compression off: full-range scans over sharded buckets
        ShardCase{4, 4, 256, 200, 32, false, 0.9},
        ShardCase{8, 4, 128, 150, 32, false, 0.99},
        // mismatched counts: stealing keeps orphan shards live
        ShardCase{8, 2, 256, 200, 32, true, 0.9},
        ShardCase{3, 5, 128, 200, 32, true, 0.0},
        ShardCase{1, 4, 64, 200, 16, true, 0.9}),
    [](const ::testing::TestParamInfo<ShardCase> &info) {
        const ShardCase &p = info.param;
        return "sh" + std::to_string(p.n_shards) + "_f" +
               std::to_string(p.flushers) + "_k" +
               std::to_string(p.keys) + "_s" + std::to_string(p.steps) +
               (p.compression ? "_comp" : "_nocomp") +
               (p.zipf_theta > 0 ? "_zipf" : "_unif");
    });

}  // namespace
}  // namespace frugal
