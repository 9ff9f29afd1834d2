/**
 * @file
 * Chaos-soak harness (DESIGN.md §12.4): long randomized fault campaigns
 * against the full FrugalEngine pipeline. Each campaign is a *seeded*
 * FaultPlan — flusher deaths, transient host writes, step-registration
 * stalls, torn checkpoint writes — layered over thousands of training
 * steps, optionally with a trainer death and a mid-run memory-budget
 * squeeze. The assertions are the system's whole
 * robustness contract at once:
 *
 *   liveness     — the run terminates (no wedged gate, no leaked claim);
 *   recovery     — every injected death is matched by a respawn, every
 *                  emitted update is applied;
 *   correctness  — the trained table is bit-equal to the fault-free
 *                  single-threaded oracle, whatever the campaign did.
 *
 * Seeds make every campaign replayable: a failure here is a repro
 * recipe, not a flake. bench/bench_chaos.cc runs the same shape with
 * throughput instrumentation.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "common/distribution.h"
#include "common/fault_injector.h"
#include "common/memory_budget.h"
#include "common/rng.h"
#include "runtime/frugal_engine.h"
#include "runtime/microtask.h"
#include "runtime/oracle.h"

namespace frugal {
namespace {

/** Soak length per campaign (the acceptance floor is 2k). */
constexpr std::size_t kSoakSteps = 2048;

EngineConfig
SoakConfig()
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

void
ExpectOracleEqual(Engine &engine, const Trace &trace, const GradFn &task)
{
    const auto oracle_table = TrainOracle(engine.config(), trace, task);
    EXPECT_TRUE(TablesBitEqual(engine.table(), *oracle_table))
        << "max diff " << MaxAbsTableDiff(engine.table(), *oracle_table);
}

/** Common liveness/recovery postconditions of every campaign. */
void
ExpectCampaignSound(const RunReport &report)
{
    EXPECT_EQ(report.steps, kSoakSteps);  // the run terminated, fully
    EXPECT_EQ(report.updates_applied, report.updates_emitted);
    EXPECT_EQ(report.recovery.flusher_deaths,
              report.recovery.flusher_respawns);
    EXPECT_EQ(report.audit_violations, 0u);
}

/** Scatters `count` step-registration stalls of `payload_ms` over the soak at
 *  seed-derived steps (the "randomized" in randomized chaos). */
void
AddRandomDrainStalls(FaultPlan &plan, Rng &rng, int count,
                     std::uint32_t payload_ms)
{
    for (int i = 0; i < count; ++i) {
        FaultRule stall;
        stall.site = FaultSite::kStagingDrainStall;
        stall.context = rng() % kSoakSteps;
        stall.payload = payload_ms;
        plan.rules.push_back(stall);
    }
}

// Campaign 1: pipeline faults. A deterministic first-claim flusher
// death plus a probabilistic death tail, flaky host writes, seeded
// registration stalls, and a transiently torn checkpoint write — all riding
// one 2k-step run with periodic checkpoint barriers.
TEST(ChaosSoakTest, PipelineFaultCampaignRecoversBitEqual)
{
    FaultPlan plan;
    plan.seed = 1001;
    Rng chaos_rng(plan.seed);

    FaultRule first_death;
    first_death.site = FaultSite::kFlushThreadDeath;
    first_death.until_hit = 1;  // hit 0 always dies: ≥ 1 recovery
    plan.rules.push_back(first_death);
    FaultRule death_tail;
    death_tail.site = FaultSite::kFlushThreadDeath;
    death_tail.from_hit = 1;
    death_tail.probability = 0.0005;
    plan.rules.push_back(death_tail);
    FaultRule flaky_writes;
    flaky_writes.site = FaultSite::kHostWriteTransient;
    flaky_writes.probability = 0.01;
    plan.rules.push_back(flaky_writes);
    FaultRule torn_ckpt;
    torn_ckpt.site = FaultSite::kCheckpointTornWrite;
    torn_ckpt.until_hit = 1;  // first save attempt fails, retry lands
    plan.rules.push_back(torn_ckpt);
    AddRandomDrainStalls(plan, chaos_rng, /*count=*/4, /*payload_ms=*/3);
    FaultInjector injector(plan);

    EngineConfig config = SoakConfig();
    config.fault_injector = &injector;
    config.checkpoint_every_steps = 512;
    config.checkpoint_path = "chaos_soak_ckpt.bin";

    Rng rng(41);
    ZipfDistribution dist(config.key_space, 0.9);
    const Trace trace =
        Trace::Synthetic(dist, rng, kSoakSteps, config.n_gpus, 8);
    FrugalEngine engine(config);
    const GradFn task = MakeLinearGradTask();
    const RunReport report = engine.Run(trace, task);

    ExpectCampaignSound(report);
    EXPECT_GE(report.recovery.flusher_deaths, 1u);
    EXPECT_GE(report.recovery.watchdog_recoveries, 1u);
    EXPECT_GT(report.recovery.write_retries, 0u);
    EXPECT_GE(report.recovery.checkpoint_barriers, 1u);
    EXPECT_GE(report.recovery.checkpoint_retries, 1u);
    ExpectOracleEqual(engine, trace, task);
    std::remove(config.checkpoint_path.c_str());
    std::remove((config.checkpoint_path + ".tmp").c_str());
}

// Campaign 2: overload under degradation. A trainer death forces the
// survivor into degraded mode — it executes its dead peer's share
// back-to-back with its own each step and registers every part of each
// step alone. Flaky writes, registration stalls and a slow flush path
// ride along; the overload must slow the run down, not lose updates.
TEST(ChaosSoakTest, OverloadCampaignRecoversWithoutLoss)
{
    FaultPlan plan;
    plan.seed = 2002;
    Rng chaos_rng(plan.seed);
    FaultRule flaky_writes;
    flaky_writes.site = FaultSite::kHostWriteTransient;
    flaky_writes.probability = 0.01;
    plan.rules.push_back(flaky_writes);
    FaultRule trainer_death;
    trainer_death.site = FaultSite::kTrainerDeath;
    trainer_death.context = 8;  // dies at the step-8 boundary
    trainer_death.payload = 1;  // victim GPU id
    plan.rules.push_back(trainer_death);
    AddRandomDrainStalls(plan, chaos_rng, /*count=*/6, /*payload_ms=*/10);
    // A slow flush path: 2 µs per applied ticket.
    plan.rules.push_back(
        FaultRule{.site = FaultSite::kFlushDelay, .payload = 2});
    FaultInjector injector(plan);

    EngineConfig config = SoakConfig();
    config.fault_injector = &injector;

    Rng rng(42);
    ZipfDistribution dist(config.key_space, 0.9);
    const Trace trace =
        Trace::Synthetic(dist, rng, kSoakSteps, config.n_gpus, 8);
    FrugalEngine engine(config);
    const GradFn task = MakeLinearGradTask();
    const RunReport report = engine.Run(trace, task);

    ExpectCampaignSound(report);
    EXPECT_EQ(report.recovery.trainer_deaths, 1u);
    ExpectOracleEqual(engine, trace, task);
}

// Campaign 3: memory-pressure squeeze. The budget is halved against
// live usage mid-run (forcing kCritical: degradation sheds lookahead,
// coalescing width and cache rows) and restored later (reactions roll
// back). Write-through coherence makes every reaction invisible to the
// trained table.
TEST(ChaosSoakTest, BudgetSqueezeCampaignDegradesBitEqual)
{
    FaultPlan plan;
    plan.seed = 3003;
    FaultRule flaky_writes;
    flaky_writes.site = FaultSite::kHostWriteTransient;
    flaky_writes.probability = 0.005;
    plan.rules.push_back(flaky_writes);
    FaultInjector injector(plan);

    MemoryBudget budget(1u << 30);  // ample: starts kNormal
    EngineConfig config = SoakConfig();
    config.fault_injector = &injector;
    config.memory_budget = &budget;

    Rng rng(43);
    ZipfDistribution dist(config.key_space, 0.9);
    const Trace trace =
        Trace::Synthetic(dist, rng, kSoakSteps, config.n_gpus, 8);
    FrugalEngine engine(config);
    const GradFn task = MakeLinearGradTask();
    const StepHook squeeze = [&budget](Step step) {
        if (step == kSoakSteps / 4) {
            // Halve the budget against what is actually resident:
            // usage lands at 200% of budget, deep into kCritical.
            const std::size_t used = budget.TotalBytes();
            budget.SetBudget(used > 1 ? used / 2 : 1);
        } else if (step == kSoakSteps / 2) {
            budget.SetBudget(1u << 30);  // operator relief: back off
        }
    };
    const RunReport report = engine.Run(trace, task, squeeze);

    ExpectCampaignSound(report);
    EXPECT_GE(report.overload.pressure_transitions, 1u);
    EXPECT_EQ(report.overload.peak_stage, 2u);
    EXPECT_GT(report.overload.peak_tracked_bytes, 0u);
    ExpectOracleEqual(engine, trace, task);
}

}  // namespace
}  // namespace frugal
