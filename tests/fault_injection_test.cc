/**
 * Failure-injection and edge-case tests for the functional runtime:
 * starve the flush pipeline, shrink caches to one row, feed degenerate
 * traces — consistency must never break and the result must still equal
 * the oracle.
 */
#include <gtest/gtest.h>

#include "common/distribution.h"
#include "runtime/baseline_engines.h"
#include "runtime/frugal_engine.h"
#include "runtime/microtask.h"
#include "runtime/oracle.h"

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
    return config;
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
        << "max diff "
        << MaxAbsTableDiff(engine.table(), oracle_table);
}

TEST(FaultInjectionTest, StarvedFlushPipeline)
{
    // One flush thread, large flush demand: gates must block (not skip)
    // and the run must still be exact.
    EngineConfig config = BaseConfig();
    config.n_gpus = 4;
    config.flush_threads = 1;
    config.flush_batch = 1;  // worst-case dequeue amortisation
    Rng rng(1);
    ZipfDistribution dist(config.key_space, 0.99);
    const Trace trace = Trace::Synthetic(dist, rng, 50, 4, 32);
    FrugalEngine engine(config);
    const GradFn task = MakeLinearGradTask();
    const RunReport report = engine.Run(trace, task);
    EXPECT_EQ(report.audit_violations, 0u);
    EXPECT_GT(report.gate_waits, 0u);  // it really did block
    ExpectOracleEqual(engine, trace, task);
}

TEST(FaultInjectionTest, OneRowCache)
{
    EngineConfig config = BaseConfig();
    config.cache_ratio = 1e-9;  // CacheRowsPerGpu clamps to 1
    ASSERT_EQ(config.CacheRowsPerGpu(), 1u);
    Rng rng(3);
    ZipfDistribution dist(config.key_space, 0.9);
    const Trace trace = Trace::Synthetic(dist, rng, 40, 2, 16);
    for (const char *name : {"frugal", "frugal-sync", "cached"}) {
        auto engine = MakeEngine(name, config);
        const GradFn task = MakeLinearGradTask();
        const RunReport report = engine->Run(trace, task);
        EXPECT_EQ(report.audit_violations, 0u) << name;
        ExpectOracleEqual(*engine, trace, task);
    }
}

TEST(FaultInjectionTest, EmptySubBatches)
{
    // Some GPUs read nothing in some steps.
    EngineConfig config = BaseConfig();
    std::vector<StepKeys> steps(20);
    Rng rng(4);
    for (std::size_t s = 0; s < steps.size(); ++s) {
        steps[s].per_gpu.resize(2);
        // GPU 0 idles on even steps, GPU 1 on odd steps.
        for (GpuId g = 0; g < 2; ++g) {
            if ((s + g) % 2 == 0)
                continue;
            for (int i = 0; i < 8; ++i)
                steps[s].per_gpu[g].push_back(rng.NextBounded(256));
            DedupeKeys(steps[s].per_gpu[g]);
        }
    }
    const Trace trace(std::move(steps), 256, 2);
    FrugalEngine engine(config);
    const GradFn task = MakeLinearGradTask();
    const RunReport report = engine.Run(trace, task);
    EXPECT_EQ(report.audit_violations, 0u);
    ExpectOracleEqual(engine, trace, task);
}

TEST(FaultInjectionTest, SingleStepTrace)
{
    EngineConfig config = BaseConfig();
    Rng rng(5);
    UniformDistribution dist(config.key_space);
    const Trace trace = Trace::Synthetic(dist, rng, 1, 2, 16);
    FrugalEngine engine(config);
    const GradFn task = MakeLinearGradTask();
    const RunReport report = engine.Run(trace, task);
    EXPECT_EQ(report.steps, 1u);
    EXPECT_EQ(report.audit_violations, 0u);
    ExpectOracleEqual(engine, trace, task);
}

TEST(FaultInjectionTest, EmptyTrace)
{
    EngineConfig config = BaseConfig();
    const Trace trace(std::vector<StepKeys>{}, config.key_space, 2);
    FrugalEngine engine(config);
    const RunReport report = engine.Run(trace, MakeConstantGradTask());
    EXPECT_EQ(report.steps, 0u);
    EXPECT_EQ(report.updates_applied, 0u);
}

TEST(FaultInjectionTest, EveryKeyEveryStep)
{
    // The full table is read and written each step: maximal flush load,
    // every entry permanently urgent.
    EngineConfig config = BaseConfig();
    config.key_space = 64;
    config.flush_threads = 3;
    std::vector<StepKeys> steps(25);
    for (auto &step : steps) {
        step.per_gpu.resize(2);
        for (GpuId g = 0; g < 2; ++g) {
            for (Key k = 0; k < 64; ++k)
                step.per_gpu[g].push_back(k);
        }
    }
    const Trace trace(std::move(steps), 64, 2);
    FrugalEngine engine(config);
    const GradFn task = MakeLinearGradTask();
    const RunReport report = engine.Run(trace, task);
    EXPECT_EQ(report.audit_violations, 0u);
    // 64 keys × 2 GPUs × 25 steps updates, all flushed.
    EXPECT_EQ(report.updates_applied, 64u * 2u * 25u);
    ExpectOracleEqual(engine, trace, task);
}

TEST(FaultInjectionTest, ManyFlushThreadsFewKeys)
{
    // More flushers than work: they must spin down cleanly.
    EngineConfig config = BaseConfig();
    config.flush_threads = 16;
    config.key_space = 8;
    Rng rng(6);
    UniformDistribution dist(8);
    const Trace trace = Trace::Synthetic(dist, rng, 30, 2, 4);
    FrugalEngine engine(config);
    const GradFn task = MakeLinearGradTask();
    const RunReport report = engine.Run(trace, task);
    EXPECT_EQ(report.audit_violations, 0u);
    ExpectOracleEqual(engine, trace, task);
}

TEST(FaultInjectionTest, ZeroGradientUpdatesStillFlush)
{
    // Zero gradients exercise the full pipeline (versions advance even
    // when values do not change).
    EngineConfig config = BaseConfig();
    Rng rng(7);
    UniformDistribution dist(config.key_space);
    const Trace trace = Trace::Synthetic(dist, rng, 20, 2, 8);
    FrugalEngine engine(config);
    const RunReport report =
        engine.Run(trace, MakeConstantGradTask(0.0f));
    EXPECT_EQ(report.audit_violations, 0u);
    EXPECT_EQ(report.updates_applied, report.updates_emitted);
    // Table must equal a fresh init (SGD with zero gradients).
    EmbeddingTableConfig tc;
    tc.key_space = config.key_space;
    tc.dim = config.dim;
    tc.init_seed = config.init_seed;
    tc.init_scale = config.init_scale;
    HostEmbeddingTable fresh(tc);
    EXPECT_TRUE(TablesBitEqual(engine.table(), fresh));
}

}  // namespace
}  // namespace frugal
