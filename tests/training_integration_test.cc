/**
 * Integration tests: real models (DLRM, KG scorers) trained end-to-end
 * through the Frugal engine on synthetic datasets — loss must fall, and
 * Frugal must produce the same trained parameters as the oracle replay
 * (the paper's "does not affect model convergence" claim, §1 footnote).
 */
#include <gtest/gtest.h>

#include <memory>

#include "data/dataset_spec.h"
#include "models/dlrm.h"
#include "models/kg_model.h"
#include "runtime/baseline_engines.h"
#include "runtime/frugal_engine.h"
#include "runtime/oracle.h"

namespace frugal {
namespace {

TEST(DlrmIntegrationTest, LossDecreasesUnderFrugal)
{
    const DatasetSpec spec = DatasetByName("Avazu").Scaled(100000.0);
    RecDatasetGenerator gen(spec, 21);
    const std::uint32_t n_gpus = 2;
    const DlrmWorkload workload =
        DlrmWorkload::Build(gen, /*steps=*/800, n_gpus,
                            /*samples_per_gpu=*/16);

    EngineConfig config;
    config.n_gpus = n_gpus;
    config.dim = spec.embedding_dim;
    config.key_space = gen.key_space();
    config.cache_ratio = 0.10;
    config.flush_threads = 2;
    config.learning_rate = 0.5f;
    config.audit_consistency = true;

    DlrmConfig model_config;
    model_config.n_features = gen.n_features();
    model_config.dim = spec.embedding_dim;
    model_config.hidden = {32, 16};  // scaled-down top MLP
    model_config.n_gpus = n_gpus;
    model_config.dense_learning_rate = 0.3f;
    DlrmModel model(model_config);

    FrugalEngine engine(config);
    const RunReport report = engine.Run(
        workload.trace, model.BindGradFn(workload), model.BindStepHook());
    EXPECT_EQ(report.audit_violations, 0u);
    ASSERT_EQ(model.loss_history().size(), 800u);
    // The untrained first step sits near -ln(0.5) ≈ 0.69; the synthetic
    // labels carry irreducible noise, so expect a solid but bounded
    // drop toward the instance's Bayes floor (~0.62 here).
    const double first = model.loss_history().front();
    const double late = model.MeanLossOverLast(40);
    EXPECT_GT(first, 0.55);
    EXPECT_LT(late, first - 0.04)
        << "first " << first << " late " << late;
}

TEST(DlrmIntegrationTest, FrugalMatchesOracleTraining)
{
    const DatasetSpec spec = DatasetByName("Criteo").Scaled(100000.0);
    RecDatasetGenerator gen(spec, 33);
    const std::uint32_t n_gpus = 2;
    const DlrmWorkload workload =
        DlrmWorkload::Build(gen, /*steps=*/40, n_gpus,
                            /*samples_per_gpu=*/8);

    EngineConfig config;
    config.n_gpus = n_gpus;
    config.dim = spec.embedding_dim;
    config.key_space = gen.key_space();
    config.cache_ratio = 0.05;
    config.flush_threads = 3;
    config.audit_consistency = true;

    DlrmConfig model_config;
    model_config.n_features = gen.n_features();
    model_config.dim = spec.embedding_dim;
    model_config.hidden = {16, 8};
    model_config.n_gpus = n_gpus;

    // Engine run.
    auto engine_model = std::make_unique<DlrmModel>(model_config);
    FrugalEngine engine(config);
    engine.Run(workload.trace, engine_model->BindGradFn(workload),
               engine_model->BindStepHook());

    // Oracle replay with a fresh model instance.
    auto oracle_model = std::make_unique<DlrmModel>(model_config);
    const auto oracle_table =
        TrainOracle(config, workload.trace, oracle_model->BindGradFn(workload),
                    oracle_model->BindStepHook());

    EXPECT_TRUE(TablesBitEqual(engine.table(), *oracle_table))
        << "max diff "
        << MaxAbsTableDiff(engine.table(), *oracle_table);
    // Loss trajectories identical too (dense replicas in lockstep).
    ASSERT_EQ(engine_model->loss_history().size(),
              oracle_model->loss_history().size());
    for (std::size_t i = 0; i < engine_model->loss_history().size(); ++i) {
        ASSERT_DOUBLE_EQ(engine_model->loss_history()[i],
                         oracle_model->loss_history()[i])
            << "step " << i;
    }
}

class KgIntegrationTest : public ::testing::TestWithParam<KgScorerKind>
{
};

TEST_P(KgIntegrationTest, LossDecreasesAndMatchesOracle)
{
    const DatasetSpec spec = DatasetByName("FB15k").Scaled(100.0);
    KgDatasetGenerator gen(spec, /*negatives=*/4, 55);
    const std::uint32_t n_gpus = 2;
    const KgWorkload workload =
        KgWorkload::Build(gen, /*steps=*/150, n_gpus,
                          /*samples_per_gpu=*/12);

    EngineConfig config;
    config.n_gpus = n_gpus;
    config.dim = 16;
    config.key_space = gen.key_space();
    config.cache_ratio = 0.05;
    config.flush_threads = 2;
    // TransE's squared-L2 objective is quadratic in the error and blows
    // up under large steps; the bilinear scorers produce tiny gradients
    // (products of small embeddings) and need a larger rate.
    config.learning_rate =
        GetParam() == KgScorerKind::kTransE ? 0.02f : 0.5f;
    config.audit_consistency = true;
    config.init_scale = 0.5f;  // KG models need non-degenerate init

    KgModelConfig model_config;
    model_config.kind = GetParam();
    model_config.dim = 16;
    model_config.n_gpus = n_gpus;

    KgModel engine_model(model_config);
    FrugalEngine engine(config);
    const RunReport report =
        engine.Run(workload.trace, engine_model.BindGradFn(workload),
                   engine_model.BindStepHook());
    EXPECT_EQ(report.audit_violations, 0u);

    // Compare the untrained start against the trained tail; per-step
    // noise makes adjacent-window comparisons flaky.
    const double first = engine_model.MeanLossOverFirst(3);
    const double late = engine_model.MeanLossOverLast(15);
    EXPECT_LT(late, 0.98 * first) << KgScorerName(GetParam());

    // Oracle equality.
    KgModel oracle_model(model_config);
    const auto oracle_table =
        TrainOracle(config, workload.trace, oracle_model.BindGradFn(workload),
                    oracle_model.BindStepHook());
    EXPECT_TRUE(TablesBitEqual(engine.table(), *oracle_table))
        << KgScorerName(GetParam()) << " max diff "
        << MaxAbsTableDiff(engine.table(), *oracle_table);
}

INSTANTIATE_TEST_SUITE_P(AllScorers, KgIntegrationTest,
                         ::testing::Values(KgScorerKind::kTransE,
                                           KgScorerKind::kDistMult,
                                           KgScorerKind::kComplEx,
                                           KgScorerKind::kSimplE),
                         [](const auto &info) {
                             return KgScorerName(info.param);
                         });

TEST(KgIntegrationTest2, CachedBaselineAlsoMatchesOracle)
{
    const DatasetSpec spec = DatasetByName("FB15k").Scaled(50.0);
    KgDatasetGenerator gen(spec, 4, 99);
    const KgWorkload workload = KgWorkload::Build(gen, 30, 2, 6);

    EngineConfig config;
    config.n_gpus = 2;
    config.dim = 8;
    config.key_space = gen.key_space();
    config.cache_ratio = 0.05;
    config.init_scale = 0.3f;

    KgModelConfig model_config;
    model_config.kind = KgScorerKind::kTransE;
    model_config.dim = 8;
    model_config.n_gpus = 2;

    KgModel engine_model(model_config);
    CachedEngine engine(config);
    engine.Run(workload.trace, engine_model.BindGradFn(workload),
               engine_model.BindStepHook());

    KgModel oracle_model(model_config);
    const auto oracle_table =
        TrainOracle(config, workload.trace, oracle_model.BindGradFn(workload),
                    oracle_model.BindStepHook());
    EXPECT_TRUE(TablesBitEqual(engine.table(), *oracle_table));
}

}  // namespace
}  // namespace frugal
