/**
 * Fault-tolerance tests: scripted fault plans kill flush threads
 * mid-claim, fail host writes transiently, stall step registration, and
 * kill trainers at step boundaries — the control loop must detect and
 * recover, and the final table must stay bit-equal to the fault-free
 * oracle.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <algorithm>

#include <unistd.h>

#include "common/distribution.h"
#include "common/fault_injector.h"
#include "pq/g_entry_registry.h"
#include "runtime/frugal_engine.h"
#include "runtime/microtask.h"
#include "runtime/oracle.h"
#include "runtime/stall_detector.h"

namespace frugal {
namespace {

EngineConfig
BaseConfig()
{
    EngineConfig config;
    config.n_gpus = 2;
    config.dim = 4;
    config.key_space = 256;
    config.cache_ratio = 0.05;
    config.flush_threads = 2;
    config.audit_consistency = true;
    config.control_poll_ms = 1;  // recover fast at test scale
    return config;
}

/**
 * A step hook that holds one early step boundary for 50 control polls.
 * A short fault-free run can end before the control thread's first tick
 * on a loaded host; the hold makes a mid-run tick certain, so tests can
 * require `watchdog_polls > 0`.
 */
StepHook
HoldOneBoundary(const EngineConfig &config)
{
    const auto hold = std::chrono::milliseconds(50 * config.control_poll_ms);
    return [hold](Step s) {
        if (s == 5)
            std::this_thread::sleep_for(hold);
    };
}

void
ExpectOracleEqual(Engine &engine, const Trace &trace, const GradFn &task)
{
    EmbeddingTableConfig tc;
    tc.key_space = engine.config().key_space;
    tc.dim = engine.config().dim;
    tc.init_seed = engine.config().init_seed;
    tc.init_scale = engine.config().init_scale;
    HostEmbeddingTable oracle_table(tc);
    auto opt = MakeOptimizer(engine.config().optimizer,
                             engine.config().learning_rate,
                             engine.config().key_space,
                             engine.config().dim);
    RunOracle(oracle_table, *opt, trace, task);
    EXPECT_TRUE(TablesBitEqual(engine.table(), oracle_table))
        << "max diff " << MaxAbsTableDiff(engine.table(), oracle_table);
}

// --- fault injector determinism -------------------------------------

TEST(FaultInjectorTest, SameSeedSameFiresAcrossInterleavings)
{
    // The Bernoulli draw hashes (seed, site, hit index), so the set of
    // firing hit indices — and hence the fire count — must not depend on
    // which thread happens to dispense which index.
    FaultPlan plan;
    plan.seed = 77;
    FaultRule rule;
    rule.site = FaultSite::kHostWriteTransient;
    rule.probability = 0.3;
    plan.rules.push_back(rule);

    auto run_once = [&plan] {
        FaultInjector injector(plan);
        std::vector<std::thread> threads;
        for (int t = 0; t < 4; ++t) {
            threads.emplace_back([&injector] {
                for (int i = 0; i < 500; ++i)
                    (void)injector.Fire(FaultSite::kHostWriteTransient);
            });
        }
        for (auto &thread : threads)
            thread.join();
        EXPECT_EQ(injector.hits(FaultSite::kHostWriteTransient), 2000u);
        return injector.fires(FaultSite::kHostWriteTransient);
    };
    const std::uint64_t first = run_once();
    EXPECT_GT(first, 0u);
    EXPECT_LT(first, 2000u);
    EXPECT_EQ(run_once(), first);
    EXPECT_EQ(run_once(), first);
}

TEST(FaultInjectorTest, WindowAndContextGateRules)
{
    FaultPlan plan;
    FaultRule rule;
    rule.site = FaultSite::kTrainerDeath;
    rule.from_hit = 2;
    rule.until_hit = 4;
    rule.context = 9;
    rule.payload = 5;
    plan.rules.push_back(rule);
    FaultInjector injector(plan);
    EXPECT_FALSE(injector.Fire(FaultSite::kTrainerDeath, 9));  // hit 0
    EXPECT_FALSE(injector.Fire(FaultSite::kTrainerDeath, 9));  // hit 1
    EXPECT_FALSE(injector.Fire(FaultSite::kTrainerDeath, 8));  // hit 2, ctx
    const auto fired = injector.Fire(FaultSite::kTrainerDeath, 9);  // hit 3
    ASSERT_TRUE(fired.has_value());
    EXPECT_EQ(*fired, 5u);
    EXPECT_FALSE(injector.Fire(FaultSite::kTrainerDeath, 9));  // hit 4
}

// --- stall detector unit tests (scripted snapshots and clock) -------

using Clock = StallDetector::Clock;
using std::chrono::milliseconds;

TEST(StallDetectorTest, ClassifyTaxonomy)
{
    ProgressSnapshot snap;
    snap.run_complete = true;
    EXPECT_EQ(StallDetector::Classify(snap), StallKind::kNone);

    snap = {};
    snap.dead_flushers = 1;
    EXPECT_EQ(StallDetector::Classify(snap), StallKind::kDeadFlusher);

    snap = {};
    snap.current_step = 5;
    snap.drained_steps = 3;
    snap.updates_emitted = 100;
    snap.updates_applied = 60;
    snap.staging_size = 40;
    EXPECT_EQ(StallDetector::Classify(snap), StallKind::kDrainStall);

    snap = {};
    snap.updates_emitted = 100;
    snap.updates_applied = 90;
    snap.staging_size = 0;
    snap.pq_size = 0;
    EXPECT_EQ(StallDetector::Classify(snap), StallKind::kClaimLeak);

    snap = {};
    snap.updates_emitted = 100;
    snap.updates_applied = 100;
    EXPECT_EQ(StallDetector::Classify(snap), StallKind::kEmptyQueueIdle);

    // Counters sampled without mutual ordering may read applied ahead
    // of emitted; that must classify as idle, not wrap around.
    snap = {};
    snap.updates_emitted = 100;
    snap.updates_applied = 101;
    EXPECT_EQ(StallDetector::Classify(snap), StallKind::kEmptyQueueIdle);
}

TEST(StallDetectorTest, DeadFlusherRecoveredBeforeDeadline)
{
    // A dead flusher is definitive: the first sample that shows it asks
    // for recovery, long before the (here: enormous) stall deadline.
    const Clock::time_point t0{};
    StallDetector detector(milliseconds(60000), ProgressSnapshot{}, t0);
    ProgressSnapshot dead;
    dead.dead_flushers = 1;
    EXPECT_EQ(detector.Observe(dead, t0 + milliseconds(1)),
              StallKind::kDeadFlusher);
    detector.Recovered(ProgressSnapshot{}, t0 + milliseconds(1));
    for (int ms = 2; ms < 50; ++ms) {
        EXPECT_EQ(detector.Observe(ProgressSnapshot{}, t0 + milliseconds(ms)),
                  StallKind::kNone);
    }
    EXPECT_EQ(detector.recoveries(), 1u);
    EXPECT_EQ(detector.stalls_detected(), 1u);
}

TEST(StallDetectorTest, TimedStallReportedButNotAutoRecovered)
{
    // No dead flag, just a frozen pipeline: past the deadline the
    // detector classifies and reports the stall exactly once, and never
    // asks for recovery.
    const Clock::time_point t0{};
    ProgressSnapshot frozen;
    frozen.current_step = 7;
    frozen.drained_steps = 5;
    frozen.updates_emitted = 10;
    frozen.staging_size = 10;
    StallDetector detector(milliseconds(10), frozen, t0);
    for (int ms = 2; ms <= 100; ms += 2) {
        const auto now = t0 + milliseconds(ms);
        // Reported on the first sample at the deadline, then never again.
        EXPECT_EQ(detector.Observe(frozen, now),
                  ms == 10 ? StallKind::kDrainStall : StallKind::kNone);
        EXPECT_EQ(detector.Idle(now), milliseconds(ms));
    }
    EXPECT_EQ(detector.stalls_detected(), 1u);
    EXPECT_EQ(detector.recoveries(), 0u);
    EXPECT_EQ(detector.polls(), 50u);
}

TEST(StallDetectorTest, ProgressSuppressesStallReports)
{
    const Clock::time_point t0{};
    ProgressSnapshot snap;
    snap.pq_size = 1;
    StallDetector detector(milliseconds(5), snap, t0);
    for (int ms = 1; ms <= 100; ++ms) {
        ++snap.updates_applied;  // always advancing
        snap.updates_emitted = snap.updates_applied + 1;
        EXPECT_EQ(detector.Observe(snap, t0 + milliseconds(ms)),
                  StallKind::kNone);
    }
    EXPECT_EQ(detector.stalls_detected(), 0u);
}

// --- engine-level fault drills --------------------------------------

TEST(FaultToleranceTest, TransientWriteFailuresRetriedExactly)
{
    // The first three host-write attempts fail; each costs one retry and
    // the result must be unaffected.
    FaultPlan plan;
    FaultRule rule;
    rule.site = FaultSite::kHostWriteTransient;
    rule.until_hit = 3;
    plan.rules.push_back(rule);
    FaultInjector injector(plan);

    EngineConfig config = BaseConfig();
    config.fault_injector = &injector;
    Rng rng(21);
    ZipfDistribution dist(config.key_space, 0.9);
    const Trace trace = Trace::Synthetic(dist, rng, 40, 2, 16);
    FrugalEngine engine(config);
    const GradFn task = MakeLinearGradTask();
    const RunReport report = engine.Run(trace, task);

    EXPECT_EQ(report.recovery.write_retries, 3u);
    EXPECT_EQ(report.recovery.faults_injected, 3u);
    EXPECT_EQ(report.audit_violations, 0u);
    ExpectOracleEqual(engine, trace, task);
}

TEST(FaultToleranceTest, RegistryAllocFailureIsStrongAndRetryable)
{
    // A firing growth fault throws std::bad_alloc out of GetOrCreate
    // with the shard untouched (strong guarantee); a plain retry of the
    // same key must succeed. Covers both growth sites: the shard's
    // FlatMap index fires first, the entry arena on the next window.
    FaultPlan plan;
    FaultRule rule;
    rule.site = FaultSite::kAllocFailure;
    rule.until_hit = 1;
    plan.rules.push_back(rule);
    FaultInjector injector(plan);
    GEntryRegistry registry(4);
    registry.ArmFaultInjector(&injector);
    EXPECT_THROW((void)registry.GetOrCreate(42), std::bad_alloc);
    EXPECT_EQ(registry.size(), 0u);
    EXPECT_EQ(registry.Find(42), nullptr);
    GEntry &entry = registry.GetOrCreate(42);  // retry succeeds
    EXPECT_EQ(entry.key(), 42u);
    EXPECT_EQ(registry.size(), 1u);
    EXPECT_EQ(injector.fires(FaultSite::kAllocFailure), 1u);
    registry.ArmFaultInjector(nullptr);  // disarm
    (void)registry.GetOrCreate(43);
    EXPECT_EQ(registry.size(), 2u);
}

TEST(FaultToleranceTest, RegistryBatchAllocFailureLeavesShardRetryable)
{
    // Batched get-or-create hits the same fault points; the throw may
    // leave a *prefix* of the batch created (each key is atomic, the
    // batch is not), and rerunning the identical batch must converge
    // with no duplicates or lost keys.
    FaultPlan plan;
    FaultRule rule;
    rule.site = FaultSite::kAllocFailure;
    rule.from_hit = 1;
    rule.until_hit = 2;
    plan.rules.push_back(rule);
    FaultInjector injector(plan);
    GEntryRegistry registry(2);
    registry.ArmFaultInjector(&injector);
    const std::vector<Key> keys{1, 2, 3, 4, 5, 6, 7, 8};
    std::vector<GEntry *> out(keys.size(), nullptr);
    try {
        registry.GetOrCreateBatch(keys, out.data());
    } catch (const std::bad_alloc &) {
    }
    std::fill(out.begin(), out.end(), nullptr);
    registry.GetOrCreateBatch(keys, out.data());  // retry converges
    EXPECT_EQ(registry.size(), keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i) {
        ASSERT_NE(out[i], nullptr);
        EXPECT_EQ(out[i]->key(), keys[i]);
    }
}

TEST(FaultToleranceTest, FlushThreadDeathRecoveredBitEqual)
{
    // The acceptance drill: a seeded plan kills a flush thread mid-claim
    // (twice) while host writes also fail transiently. The watchdog must
    // reclaim the abandoned claims and respawn the thread, and the final
    // table must be bit-equal to the fault-free oracle.
    FaultPlan plan;
    plan.seed = 3;
    FaultRule death;
    death.site = FaultSite::kFlushThreadDeath;
    death.until_hit = 2;
    plan.rules.push_back(death);
    FaultRule flaky_writes;
    flaky_writes.site = FaultSite::kHostWriteTransient;
    flaky_writes.probability = 0.05;
    flaky_writes.until_hit = 2000;
    plan.rules.push_back(flaky_writes);
    FaultInjector injector(plan);

    EngineConfig config = BaseConfig();
    config.fault_injector = &injector;
    Rng rng(22);
    ZipfDistribution dist(config.key_space, 0.9);
    const Trace trace = Trace::Synthetic(dist, rng, 60, 2, 24);
    FrugalEngine engine(config);
    const GradFn task = MakeLinearGradTask();
    const RunReport report = engine.Run(trace, task);

    EXPECT_EQ(report.recovery.flusher_deaths, 2u);
    EXPECT_EQ(report.recovery.flusher_respawns, 2u);
    EXPECT_GE(report.recovery.watchdog_recoveries, 1u);
    EXPECT_GT(report.recovery.claims_reclaimed, 0u);
    EXPECT_EQ(report.updates_applied, report.updates_emitted);
    EXPECT_EQ(report.audit_violations, 0u);
    ExpectOracleEqual(engine, trace, task);
}

TEST(FaultToleranceTest, FlushThreadDeathWithSingleFlusher)
{
    // Worst case: the *only* flush thread dies. Nothing can make
    // progress until the watchdog revives it.
    FaultPlan plan;
    FaultRule death;
    death.site = FaultSite::kFlushThreadDeath;
    death.from_hit = 10;
    death.until_hit = 11;
    plan.rules.push_back(death);
    FaultInjector injector(plan);

    EngineConfig config = BaseConfig();
    config.flush_threads = 1;
    config.fault_injector = &injector;
    Rng rng(23);
    UniformDistribution dist(config.key_space);
    const Trace trace = Trace::Synthetic(dist, rng, 40, 2, 16);
    FrugalEngine engine(config);
    const GradFn task = MakeLinearGradTask();
    const RunReport report = engine.Run(trace, task);

    EXPECT_EQ(report.recovery.flusher_deaths, 1u);
    EXPECT_EQ(report.recovery.flusher_respawns, 1u);
    EXPECT_EQ(report.audit_violations, 0u);
    ExpectOracleEqual(engine, trace, task);
}

TEST(FaultToleranceTest, TrainerDeathDegradedModeBitEqual)
{
    // GPU 1 dies at the boundary of step 10; the survivor takes over its
    // trace share and ownership shards. Degraded mode must still be
    // bit-equal: the update stream (key, step, src) is unchanged, only
    // who produces it.
    FaultPlan plan;
    FaultRule death;
    death.site = FaultSite::kTrainerDeath;
    death.context = 10;  // fires in the completion of step 10
    death.payload = 1;   // victim GPU id
    plan.rules.push_back(death);
    FaultInjector injector(plan);

    EngineConfig config = BaseConfig();
    config.fault_injector = &injector;
    Rng rng(24);
    ZipfDistribution dist(config.key_space, 0.9);
    const Trace trace = Trace::Synthetic(dist, rng, 40, 2, 16);
    FrugalEngine engine(config);
    const GradFn task = MakeLinearGradTask();
    const RunReport report = engine.Run(trace, task);

    EXPECT_EQ(report.recovery.trainer_deaths, 1u);
    EXPECT_GT(report.recovery.ownership_remaps, 0u);
    EXPECT_EQ(report.audit_violations, 0u);
    ExpectOracleEqual(engine, trace, task);
}

TEST(FaultToleranceTest, TrainerDeathWithAdagradStateStaysExact)
{
    // Stateful optimizer + degraded mode: accumulator updates follow the
    // canonical (step, src) order, so the remap must not perturb them.
    FaultPlan plan;
    FaultRule death;
    death.site = FaultSite::kTrainerDeath;
    death.context = 5;
    death.payload = 0;  // kill GPU 0 for variety
    plan.rules.push_back(death);
    FaultInjector injector(plan);

    EngineConfig config = BaseConfig();
    config.optimizer = "adagrad";
    config.fault_injector = &injector;
    Rng rng(25);
    ZipfDistribution dist(config.key_space, 0.9);
    const Trace trace = Trace::Synthetic(dist, rng, 30, 2, 12);
    FrugalEngine engine(config);
    const GradFn task = MakeLinearGradTask();
    const RunReport report = engine.Run(trace, task);

    EXPECT_EQ(report.recovery.trainer_deaths, 1u);
    EXPECT_EQ(report.audit_violations, 0u);
    ExpectOracleEqual(engine, trace, task);
}

TEST(FaultToleranceTest, TrainerDeathOnCheckpointBoundaryExactAndResumable)
{
    // A trainer death and a due checkpoint on the same step boundary,
    // with three trainers. The barrier completion registers step 11
    // itself for the checkpoint and then kills GPU 2; from step 12 on
    // the two survivors claim the dead trainer's share of every step's
    // registration parts. The run must match the oracle, and resuming
    // from the checkpoint must land on the same table and optimizer
    // state.
    FaultPlan plan;
    FaultRule death;
    death.site = FaultSite::kTrainerDeath;
    death.context = 11;  // the boundary after step 11...
    death.payload = 2;
    plan.rules.push_back(death);
    FaultInjector injector(plan);

    const std::string path = ::testing::TempDir() +
                             "frugal_death_on_checkpoint_boundary_" +
                             std::to_string(getpid()) + ".ckpt";
    EngineConfig config = BaseConfig();
    config.n_gpus = 3;
    config.optimizer = "adagrad";
    config.fault_injector = &injector;
    config.checkpoint_every_steps = 12;  // ...is also a checkpoint
    config.checkpoint_path = path;
    Rng rng(28);
    ZipfDistribution dist(config.key_space, 0.9);
    const Trace trace = Trace::Synthetic(dist, rng, 20, 3, 12);
    FrugalEngine engine(config);
    const GradFn task = MakeLinearGradTask();
    const RunReport report = engine.Run(trace, task);

    EXPECT_EQ(report.recovery.trainer_deaths, 1u);
    EXPECT_EQ(report.recovery.checkpoint_barriers, 1u);
    EXPECT_EQ(report.audit_violations, 0u);
    ExpectOracleEqual(engine, trace, task);

    EngineConfig resume_config = BaseConfig();
    resume_config.n_gpus = 3;
    resume_config.optimizer = "adagrad";
    FrugalEngine resumed(resume_config);
    const auto cursor = resumed.ResumeFrom(path);
    ASSERT_TRUE(cursor.has_value());
    EXPECT_EQ(*cursor, 12u);
    resumed.Run(trace.Slice(*cursor, trace.NumSteps()), task);
    EXPECT_TRUE(TablesBitEqual(resumed.table(), engine.table()));
    EXPECT_EQ(resumed.optimizer().ExportState(),
              engine.optimizer().ExportState());
    std::remove(path.c_str());
}

TEST(FaultToleranceTest, StagingDrainStallToleratedAndDiagnosable)
{
    // Step registration naps 50 ms at one step; consistency must hold (the
    // gate simply stays closed longer) and the injection is visible in
    // the fault counters.
    FaultPlan plan;
    FaultRule stall;
    stall.site = FaultSite::kStagingDrainStall;
    stall.context = 5;   // at step 5
    stall.payload = 50;  // milliseconds
    plan.rules.push_back(stall);
    FaultInjector injector(plan);

    EngineConfig config = BaseConfig();
    config.fault_injector = &injector;
    Rng rng(26);
    UniformDistribution dist(config.key_space);
    const Trace trace = Trace::Synthetic(dist, rng, 20, 2, 12);
    FrugalEngine engine(config);
    const GradFn task = MakeLinearGradTask();
    const RunReport report = engine.Run(trace, task);

    EXPECT_EQ(report.recovery.faults_injected, 1u);
    EXPECT_EQ(report.audit_violations, 0u);
    ExpectOracleEqual(engine, trace, task);
}

TEST(FaultToleranceTest, HealthyRunNoFalseRecoveries)
{
    // A fault-free run under an armed watchdog must never trigger
    // recovery actions or reclaim anything.
    EngineConfig config = BaseConfig();
    Rng rng(27);
    ZipfDistribution dist(config.key_space, 0.9);
    const Trace trace = Trace::Synthetic(dist, rng, 50, 2, 16);
    FrugalEngine engine(config);
    const GradFn task = MakeLinearGradTask();
    const RunReport report =
        engine.Run(trace, task, HoldOneBoundary(config));

    EXPECT_EQ(report.recovery.faults_injected, 0u);
    EXPECT_EQ(report.recovery.write_retries, 0u);
    EXPECT_EQ(report.recovery.flusher_deaths, 0u);
    EXPECT_EQ(report.recovery.flusher_respawns, 0u);
    EXPECT_EQ(report.recovery.claims_reclaimed, 0u);
    EXPECT_EQ(report.recovery.watchdog_recoveries, 0u);
    EXPECT_GT(report.recovery.watchdog_polls, 0u);  // it really sampled
    EXPECT_EQ(report.audit_violations, 0u);
    ExpectOracleEqual(engine, trace, task);
}

TEST(FaultToleranceTest, SparseShardsNoFalseStall)
{
    // Regression for the sharded dequeue path: with more PQ shards than
    // flush threads and a tiny key set, most sub-buckets are empty or
    // hold a single entry, so an individual DequeueClaim often comes
    // back empty (the work lives in a shard another rotation reaches).
    // The watchdog must not read that sparseness as a flush stall — the
    // in-bucket rotation guarantees any one dequeuer still sees every
    // shard, so flush progress continues and no stall is diagnosed.
    EngineConfig config = BaseConfig();
    config.pq_shards = 8;
    config.flush_threads = 2;
    config.key_space = 16;  // sparse: ~2 live keys per shard
    config.watchdog_stall_ms = 200;  // tight stall deadline
    Rng rng(31);
    ZipfDistribution dist(config.key_space, 0.9);
    const Trace trace = Trace::Synthetic(dist, rng, 120, 2, 8);
    FrugalEngine engine(config);
    const GradFn task = MakeLinearGradTask();
    const RunReport report =
        engine.Run(trace, task, HoldOneBoundary(config));

    EXPECT_EQ(report.steps, 120u);
    EXPECT_EQ(report.recovery.stalls_detected, 0u);
    EXPECT_EQ(report.recovery.watchdog_recoveries, 0u);
    EXPECT_EQ(report.recovery.claims_reclaimed, 0u);
    EXPECT_GT(report.recovery.watchdog_polls, 0u);
    EXPECT_EQ(report.audit_violations, 0u);
    ExpectOracleEqual(engine, trace, task);
}

TEST(FaultToleranceTest, KeyOwnershipRemapMovesEveryShard)
{
    KeyOwnership ownership(4);
    std::size_t owned_by_3 = 0;
    for (Key k = 0; k < 1000; ++k)
        owned_by_3 += ownership.OwnerOf(k) == 3 ? 1 : 0;
    EXPECT_GT(owned_by_3, 0u);
    const std::size_t moved = ownership.Remap(3, 1);
    EXPECT_GT(moved, 0u);
    for (Key k = 0; k < 1000; ++k)
        EXPECT_NE(ownership.OwnerOf(k), 3u);
    EXPECT_EQ(ownership.Remap(3, 1), 0u);  // idempotent: nothing left
}

}  // namespace
}  // namespace frugal
