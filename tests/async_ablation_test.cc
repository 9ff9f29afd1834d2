/**
 * The "why synchronous" ablation (§3): with the P²F gate disabled,
 * training becomes asynchronous — readers observe parameters with
 * unflushed updates — and the result diverges from the synchronous
 * oracle. A flush-delay fault rule makes the staleness
 * deterministic. Also tests the AUC metric the paper cites as the
 * accuracy currency of CTR models.
 */
#include <gtest/gtest.h>

#include "common/distribution.h"
#include "common/fault_injector.h"
#include "data/dataset_spec.h"
#include "models/auc.h"
#include "models/dlrm.h"
#include "runtime/frugal_engine.h"
#include "runtime/microtask.h"
#include "runtime/oracle.h"

namespace frugal {
namespace {

Trace
HotKeyTrace(std::uint32_t n_gpus, std::size_t steps)
{
    // Every GPU reads and updates the same hot key every step, plus a
    // private cold key: the hot key's flush is always urgent.
    std::vector<StepKeys> all(steps);
    for (std::size_t s = 0; s < steps; ++s) {
        all[s].per_gpu.resize(n_gpus);
        for (GpuId g = 0; g < n_gpus; ++g) {
            all[s].per_gpu[g] = {0, 1 + g + 16 * (s % 4)};
        }
    }
    return Trace(std::move(all), 128, n_gpus);
}

EngineConfig
SlowFlushConfig()
{
    // Flushing far slower than stepping: 300 µs per applied ticket.
    static FaultInjector slow_flush(FaultPlan{
        .rules = {FaultRule{.site = FaultSite::kFlushDelay, .payload = 300}}});
    EngineConfig config;
    config.n_gpus = 2;
    config.dim = 4;
    config.key_space = 128;
    config.flush_threads = 1;
    config.flush_batch = 1;
    config.fault_injector = &slow_flush;
    config.audit_consistency = true;
    return config;
}

TEST(AsyncAblationTest, GateKeepsSlowFlushConsistent)
{
    const EngineConfig config = SlowFlushConfig();
    const Trace trace = HotKeyTrace(2, 30);
    const GradFn task = MakeLinearGradTask();
    FrugalEngine engine(config);
    const RunReport report = engine.Run(trace, task);
    // The gate turns the slow flusher into stall time, never staleness.
    EXPECT_EQ(report.audit_violations, 0u);
    EXPECT_GT(report.stall_seconds_total, 0.0);

    const auto oracle_table = TrainOracle(config, trace, task);
    EXPECT_TRUE(TablesBitEqual(engine.table(), *oracle_table));
}

TEST(AsyncAblationTest, DisabledGateReadsStaleParameters)
{
    EngineConfig config = SlowFlushConfig();
    config.disable_gate_unsafe = true;
    const Trace trace = HotKeyTrace(2, 30);
    const GradFn task = MakeLinearGradTask();
    FrugalEngine engine(config);
    const RunReport report = engine.Run(trace, task);
    // Asynchronous mode: the auditor must observe invariant-(2)
    // violations (reads of parameters with pending updates)...
    EXPECT_GT(report.audit_violations, 0u);
    // ...yet the pipeline still conserves updates.
    EXPECT_EQ(report.updates_applied, report.updates_emitted);

    // And the trained model diverges from the synchronous oracle —
    // the accuracy cost §3 cites.
    const auto oracle_table = TrainOracle(config, trace, task);
    EXPECT_FALSE(TablesBitEqual(engine.table(), *oracle_table));
}

TEST(AucTest, PerfectAndInvertedClassifiers)
{
    const std::vector<float> labels = {0, 0, 1, 1};
    EXPECT_DOUBLE_EQ(ComputeAuc({0.1f, 0.2f, 0.8f, 0.9f}, labels), 1.0);
    EXPECT_DOUBLE_EQ(ComputeAuc({0.9f, 0.8f, 0.2f, 0.1f}, labels), 0.0);
}

TEST(AucTest, RandomScoresNearHalf)
{
    Rng rng(3);
    std::vector<float> scores, labels;
    for (int i = 0; i < 20000; ++i) {
        scores.push_back(static_cast<float>(rng.NextDouble()));
        labels.push_back(static_cast<float>(rng.NextBounded(2)));
    }
    EXPECT_NEAR(ComputeAuc(scores, labels), 0.5, 0.02);
}

TEST(AucTest, TiesGetMeanRank)
{
    // All scores equal ⇒ AUC exactly 0.5 regardless of labels.
    EXPECT_DOUBLE_EQ(
        ComputeAuc({0.5f, 0.5f, 0.5f, 0.5f}, {0, 1, 0, 1}), 0.5);
}

TEST(AucTest, DegenerateSingleClass)
{
    EXPECT_DOUBLE_EQ(ComputeAuc({0.1f, 0.9f}, {1, 1}), 0.5);
    EXPECT_DOUBLE_EQ(ComputeAuc({0.1f, 0.9f}, {0, 0}), 0.5);
}

TEST(AucTest, DlrmTrainingImprovesAuc)
{
    const DatasetSpec spec = DatasetByName("Avazu").Scaled(100000.0);
    RecDatasetGenerator train_gen(spec, 50);
    const std::uint32_t n_gpus = 2;
    const DlrmWorkload workload =
        DlrmWorkload::Build(train_gen, /*steps=*/300, n_gpus, 16);

    EngineConfig config;
    config.n_gpus = n_gpus;
    config.dim = spec.embedding_dim;
    config.key_space = train_gen.key_space();
    config.flush_threads = 2;
    config.learning_rate = 0.3f;

    DlrmConfig model_config;
    model_config.n_features = train_gen.n_features();
    model_config.dim = spec.embedding_dim;
    model_config.hidden = {32, 16};
    model_config.n_gpus = n_gpus;
    model_config.dense_learning_rate = 0.2f;
    DlrmModel model(model_config);

    FrugalEngine engine(config);
    RecDatasetGenerator eval_gen(spec, 51);  // held-out stream
    const double auc_before =
        model.EvaluateAuc(engine.table(), eval_gen, 3000);
    engine.Run(workload.trace, model.BindGradFn(workload),
               model.BindStepHook());
    RecDatasetGenerator eval_gen2(spec, 51);
    const double auc_after =
        model.EvaluateAuc(engine.table(), eval_gen2, 3000);

    EXPECT_NEAR(auc_before, 0.5, 0.06);  // untrained ≈ random
    EXPECT_GT(auc_after, auc_before + 0.08)
        << "before " << auc_before << " after " << auc_after;
}

}  // namespace
}  // namespace frugal
