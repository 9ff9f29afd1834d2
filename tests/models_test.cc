/**
 * Model tests: analytic gradients of the MLP and the four KG scorers are
 * checked against central finite differences, the batch kernel is
 * checked byte-for-byte against a scalar per-example reference, and the
 * replicated-dense machinery is verified to keep replicas bit-identical.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <ostream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "data/dataset_spec.h"
#include "data/rec_dataset.h"
#include "models/dlrm.h"
#include "models/kg_scorers.h"
#include "models/mlp.h"

namespace frugal {
namespace {

// ---------------------------------------------------------------------
// KG scorer gradient checks (parameterised over the scorer kind).
// ---------------------------------------------------------------------

class KgScorerGradTest : public ::testing::TestWithParam<KgScorerKind>
{
};

TEST_P(KgScorerGradTest, MatchesFiniteDifferences)
{
    const KgScorerKind kind = GetParam();
    constexpr std::size_t kDim = 8;
    constexpr double kEps = 1e-3;
    Rng rng(123);
    for (int trial = 0; trial < 20; ++trial) {
        std::vector<float> h(kDim), r(kDim), t(kDim);
        for (std::size_t j = 0; j < kDim; ++j) {
            h[j] = static_cast<float>(rng.NextGaussian(0, 0.5));
            r[j] = static_cast<float>(rng.NextGaussian(0, 0.5));
            t[j] = static_cast<float>(rng.NextGaussian(0, 0.5));
        }
        std::vector<float> gh(kDim, 0), gr(kDim, 0), gt(kDim, 0);
        AccumulateTripleGrad(kind, h.data(), r.data(), t.data(), kDim,
                             1.0f, gh.data(), gr.data(), gt.data());

        auto check = [&](std::vector<float> &vec,
                         const std::vector<float> &grad,
                         const char *name) {
            for (std::size_t j = 0; j < kDim; ++j) {
                const float saved = vec[j];
                vec[j] = saved + static_cast<float>(kEps);
                const double up = ScoreTriple(kind, h.data(), r.data(),
                                              t.data(), kDim);
                vec[j] = saved - static_cast<float>(kEps);
                const double dn = ScoreTriple(kind, h.data(), r.data(),
                                              t.data(), kDim);
                vec[j] = saved;
                const double fd = (up - dn) / (2 * kEps);
                EXPECT_NEAR(grad[j], fd, 5e-3)
                    << name << "[" << j << "] trial " << trial;
            }
        };
        check(h, gh, "h");
        check(r, gr, "r");
        check(t, gt, "t");
    }
}

TEST_P(KgScorerGradTest, DscaleScalesLinearly)
{
    const KgScorerKind kind = GetParam();
    constexpr std::size_t kDim = 4;
    std::vector<float> h = {0.1f, -0.2f, 0.3f, 0.4f};
    std::vector<float> r = {0.2f, 0.1f, -0.3f, 0.2f};
    std::vector<float> t = {-0.1f, 0.2f, 0.1f, -0.4f};
    std::vector<float> g1(kDim * 3, 0), g2(kDim * 3, 0);
    AccumulateTripleGrad(kind, h.data(), r.data(), t.data(), kDim, 1.0f,
                         g1.data(), g1.data() + kDim,
                         g1.data() + 2 * kDim);
    AccumulateTripleGrad(kind, h.data(), r.data(), t.data(), kDim, -2.5f,
                         g2.data(), g2.data() + kDim,
                         g2.data() + 2 * kDim);
    for (std::size_t i = 0; i < g1.size(); ++i)
        EXPECT_NEAR(g2[i], -2.5f * g1[i], 1e-5);
}

INSTANTIATE_TEST_SUITE_P(AllScorers, KgScorerGradTest,
                         ::testing::Values(KgScorerKind::kTransE,
                                           KgScorerKind::kDistMult,
                                           KgScorerKind::kComplEx,
                                           KgScorerKind::kSimplE),
                         [](const auto &info) {
                             return KgScorerName(info.param);
                         });

TEST(KgScorerTest, NamesRoundTrip)
{
    for (KgScorerKind kind :
         {KgScorerKind::kTransE, KgScorerKind::kDistMult,
          KgScorerKind::kComplEx, KgScorerKind::kSimplE}) {
        EXPECT_EQ(KgScorerByName(KgScorerName(kind)), kind);
    }
}

TEST(KgScorerTest, TransEPerfectTripleScoresGamma)
{
    // h + r == t ⇒ distance 0 ⇒ score = γ.
    std::vector<float> h = {0.1f, 0.2f}, r = {0.3f, -0.1f};
    std::vector<float> t = {0.4f, 0.1f};
    EXPECT_NEAR(ScoreTriple(KgScorerKind::kTransE, h.data(), r.data(),
                            t.data(), 2, 12.0),
                12.0, 1e-6);
}

// ---------------------------------------------------------------------
// MLP
// ---------------------------------------------------------------------

MlpConfig
SmallMlp()
{
    MlpConfig config;
    config.layers = {6, 8, 4};
    config.learning_rate = 0.1f;
    config.seed = 5;
    return config;
}

TEST(MlpTest, PredictInUnitInterval)
{
    Mlp mlp(SmallMlp());
    Rng rng(1);
    std::vector<float> x(6);
    for (int i = 0; i < 100; ++i) {
        for (float &v : x)
            v = static_cast<float>(rng.NextGaussian());
        const float p = mlp.Predict(x.data());
        ASSERT_GT(p, 0.0f);
        ASSERT_LT(p, 1.0f);
    }
}

TEST(MlpTest, InputGradientMatchesFiniteDifferences)
{
    Mlp mlp(SmallMlp());
    Rng rng(2);
    std::vector<float> x(6);
    for (float &v : x)
        v = static_cast<float>(rng.NextGaussian(0, 0.5));
    std::vector<float> gx(6, 0.0f);
    const float label = 1.0f;
    // Copy so parameter-gradient accumulation does not disturb checks.
    Mlp probe(SmallMlp());
    probe.TrainExample(x.data(), label, gx.data());

    constexpr double kEps = 1e-3;
    for (std::size_t j = 0; j < 6; ++j) {
        auto loss_at = [&](float xj) {
            std::vector<float> xx = x;
            xx[j] = xj;
            const float p = mlp.Predict(xx.data());
            return -std::log(static_cast<double>(p) + 1e-7);
        };
        const double fd =
            (loss_at(x[j] + static_cast<float>(kEps)) -
             loss_at(x[j] - static_cast<float>(kEps))) /
            (2 * kEps);
        EXPECT_NEAR(gx[j], fd, 2e-3) << "input " << j;
    }
}

TEST(MlpTest, ParameterGradientMatchesFiniteDifferences)
{
    MlpConfig config = SmallMlp();
    Mlp mlp(config);
    Rng rng(3);
    std::vector<float> x(6);
    for (float &v : x)
        v = static_cast<float>(rng.NextGaussian(0, 0.5));
    std::vector<float> gx(6, 0.0f);
    const float label = 0.0f;
    mlp.TrainExample(x.data(), label, gx.data());
    const std::vector<float> grads = mlp.gradients();

    constexpr double kEps = 1e-3;
    // Spot-check a spread of parameters (checking all ~100 is fine too
    // but adds nothing).
    for (std::size_t p = 0; p < mlp.parameter_count();
         p += mlp.parameter_count() / 17 + 1) {
        const float saved = mlp.parameters()[p];
        auto loss_at = [&](float v) {
            mlp.parameters()[p] = v;
            const float prob = mlp.Predict(x.data());
            mlp.parameters()[p] = saved;
            return -std::log(1.0 - static_cast<double>(prob) + 1e-7);
        };
        const double fd =
            (loss_at(saved + static_cast<float>(kEps)) -
             loss_at(saved - static_cast<float>(kEps))) /
            (2 * kEps);
        EXPECT_NEAR(grads[p], fd, 2e-3) << "param " << p;
    }
}

TEST(MlpTest, LearnsLinearlySeparableData)
{
    MlpConfig config;
    config.layers = {4, 16};
    config.learning_rate = 0.5f;
    config.seed = 7;
    Mlp mlp(config);
    Rng rng(11);
    std::vector<float> x(4), gx(4);
    double early = 0.0, late = 0.0;
    constexpr int kSteps = 2000;
    for (int i = 0; i < kSteps; ++i) {
        float sum = 0.0f;
        for (float &v : x) {
            v = static_cast<float>(rng.NextGaussian());
            sum += v;
        }
        const float label = sum > 0 ? 1.0f : 0.0f;
        gx.assign(4, 0.0f);
        const float loss = mlp.TrainExample(x.data(), label, gx.data());
        mlp.ApplyAccumulatedGradients(1.0f);
        if (i < 200)
            early += loss;
        if (i >= kSteps - 200)
            late += loss;
    }
    EXPECT_LT(late, 0.6 * early);  // clear learning signal
}

TEST(MlpTest, ResetRestoresInitialParameters)
{
    Mlp a(SmallMlp());
    const std::vector<float> init = a.parameters();
    std::vector<float> x(6, 0.5f), gx(6, 0.0f);
    a.TrainExample(x.data(), 1.0f, gx.data());
    a.ApplyAccumulatedGradients(1.0f);
    EXPECT_NE(a.parameters(), init);
    a.Reset();
    EXPECT_EQ(a.parameters(), init);
}

TEST(ReplicatedMlpTest, ReplicasStayBitIdentical)
{
    ReplicatedMlp replicas(SmallMlp(), 3);
    Rng rng(13);
    std::vector<float> x(6), gx(6);
    for (int step = 0; step < 20; ++step) {
        std::size_t examples = 0;
        for (std::uint32_t g = 0; g < 3; ++g) {
            for (int i = 0; i < 4; ++i) {
                for (float &v : x)
                    v = static_cast<float>(rng.NextGaussian());
                gx.assign(6, 0.0f);
                replicas.replica(g).TrainExample(
                    x.data(), i % 2 ? 1.0f : 0.0f, gx.data());
                ++examples;
            }
        }
        replicas.AllReduceAndStep(examples);
        EXPECT_EQ(replicas.replica(0).parameters(),
                  replicas.replica(1).parameters());
        EXPECT_EQ(replicas.replica(0).parameters(),
                  replicas.replica(2).parameters());
    }
}

TEST(ReplicatedMlpTest, MatchesSingleReplicaOnSameExamples)
{
    // 2 replicas splitting a batch must equal 1 replica seeing the whole
    // batch (the all-reduce is a mean over all examples).
    ReplicatedMlp two(SmallMlp(), 2);
    ReplicatedMlp one(SmallMlp(), 1);
    Rng rng(17);
    std::vector<float> x(6), gx(6);
    std::vector<std::vector<float>> batch;
    std::vector<float> labels;
    for (int i = 0; i < 8; ++i) {
        for (float &v : x)
            v = static_cast<float>(rng.NextGaussian());
        batch.push_back(x);
        labels.push_back(i % 2 ? 1.0f : 0.0f);
    }
    for (int i = 0; i < 8; ++i) {
        gx.assign(6, 0.0f);
        two.replica(i < 4 ? 0 : 1).TrainExample(batch[i].data(),
                                                labels[i], gx.data());
        gx.assign(6, 0.0f);
        one.replica(0).TrainExample(batch[i].data(), labels[i],
                                    gx.data());
    }
    two.AllReduceAndStep(8);
    one.AllReduceAndStep(8);
    const auto &p2 = two.replica(0).parameters();
    const auto &p1 = one.replica(0).parameters();
    for (std::size_t i = 0; i < p1.size(); ++i)
        ASSERT_NEAR(p1[i], p2[i], 1e-6);
}

// ---------------------------------------------------------------------
// Batch kernel vs the scalar per-example loops, byte for byte.
// ---------------------------------------------------------------------

/**
 * The scalar per-example MLP: one add chain per output over the inputs
 * in ascending order, a backward pass that skips zero deltas, and
 * gradients accumulated one example after another. Mlp::TrainBatch must
 * reproduce it bit for bit.
 */
class ScalarMlp
{
  public:
    ScalarMlp(const MlpConfig &config, std::vector<float> params)
        : lr_(config.learning_rate), params_(std::move(params)),
          grads_(params_.size(), 0.0f)
    {
        std::size_t offset = 0;
        for (std::size_t l = 0; l < config.layers.size(); ++l) {
            Shape shape;
            shape.in = config.layers[l];
            shape.out =
                l + 1 < config.layers.size() ? config.layers[l + 1] : 1;
            shape.w = offset;
            offset += shape.in * shape.out;
            shape.b = offset;
            offset += shape.out;
            shapes_.push_back(shape);
        }
        EXPECT_EQ(offset, params_.size());
    }

    float Predict(const float *x)
    {
        return 1.0f / (1.0f + std::exp(-Forward(x)));
    }

    float TrainExample(const float *x, float label, float *grad_x)
    {
        const float p = Predict(x);
        const float eps = 1e-7f;
        const float loss = label > 0.5f ? -std::log(p + eps)
                                        : -std::log(1.0f - p + eps);
        std::vector<float> delta(1, p - label);
        for (std::size_t l = shapes_.size(); l-- > 0;) {
            const Shape &shape = shapes_[l];
            const float *in = acts_[l].data();
            std::vector<float> delta_next(shape.in, 0.0f);
            for (std::size_t o = 0; o < shape.out; ++o) {
                const float d = delta[o];
                if (d == 0.0f)
                    continue;
                for (std::size_t i = 0; i < shape.in; ++i) {
                    grads_[shape.w + o * shape.in + i] += d * in[i];
                    delta_next[i] += d * params_[shape.w + o * shape.in + i];
                }
                grads_[shape.b + o] += d;
            }
            if (l > 0) {
                for (std::size_t i = 0; i < shape.in; ++i) {
                    if (in[i] <= 0.0f)
                        delta_next[i] = 0.0f;
                }
            }
            delta.swap(delta_next);
        }
        for (std::size_t i = 0; i < delta.size(); ++i)
            grad_x[i] += delta[i];
        return loss;
    }

    void ApplyAccumulatedGradients(float scale)
    {
        for (std::size_t i = 0; i < params_.size(); ++i)
            params_[i] -= lr_ * scale * grads_[i];
        grads_.assign(params_.size(), 0.0f);
    }

    const std::vector<float> &parameters() const { return params_; }
    const std::vector<float> &gradients() const { return grads_; }

  private:
    struct Shape
    {
        std::size_t in, out, w, b;
    };

    float Forward(const float *x)
    {
        acts_.assign(1, std::vector<float>(x, x + shapes_[0].in));
        for (std::size_t l = 0; l < shapes_.size(); ++l) {
            const Shape &shape = shapes_[l];
            std::vector<float> out(shape.out);
            for (std::size_t o = 0; o < shape.out; ++o) {
                float z = params_[shape.b + o];
                for (std::size_t i = 0; i < shape.in; ++i)
                    z += params_[shape.w + o * shape.in + i] * acts_[l][i];
                out[o] = l + 1 == shapes_.size() ? z
                                                 : (z > 0.0f ? z : 0.0f);
            }
            acts_.push_back(std::move(out));
        }
        return acts_.back()[0];
    }

    float lr_;
    std::vector<Shape> shapes_;
    std::vector<float> params_;
    std::vector<float> grads_;
    std::vector<std::vector<float>> acts_;
};

bool
BytesEqual(const std::vector<float> &a, const std::vector<float> &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

struct BatchCase
{
    std::vector<std::size_t> layers;
    std::size_t batch;
};

void
PrintTo(const BatchCase &c, std::ostream *os)
{
    for (std::size_t width : c.layers)
        *os << width << "-";
    *os << "1, batch " << c.batch;
}

class MlpBatchBitExactTest : public ::testing::TestWithParam<BatchCase>
{
};

TEST_P(MlpBatchBitExactTest, MatchesScalarPerExampleLoops)
{
    const BatchCase &c = GetParam();
    MlpConfig config;
    config.layers = c.layers;
    config.learning_rate = 0.3f;
    config.seed = 29;
    Mlp mlp(config);
    ScalarMlp ref(config, mlp.parameters());
    const std::size_t in = c.layers.front();
    Rng rng(c.batch * 131 + in);

    for (int step = 0; step < 6; ++step) {
        std::vector<float> xs(c.batch * in), labels(c.batch);
        for (std::size_t s = 0; s < c.batch; ++s) {
            float *x = xs.data() + s * in;
            for (std::size_t i = 0; i < in; ++i)
                x[i] = static_cast<float>(rng.NextGaussian(0, 1.5));
            if (s % 5 == 1) {
                // At step 0 the biases are 0, so an all-zero input
                // leaves every hidden unit at exactly 0: its ReLU
                // deltas are 0 and the zero-delta skip runs.
                std::fill(x, x + in, 0.0f);
            }
            if (s % 7 == 2) {
                // Large negative inputs drive many units to 0.
                for (std::size_t i = 0; i < in; ++i)
                    x[i] = -std::fabs(x[i]) * 4.0f;
            }
            labels[s] = (s + step) % 3 == 0 ? 1.0f : 0.0f;
        }
        std::vector<float> grad_xs(c.batch * in, 0.25f);
        std::vector<float> losses(c.batch);
        mlp.TrainBatch(xs.data(), labels.data(), c.batch, grad_xs.data(),
                       losses.data());

        std::vector<float> ref_grad_xs(c.batch * in, 0.25f);
        std::vector<float> ref_losses(c.batch);
        for (std::size_t s = 0; s < c.batch; ++s) {
            ref_losses[s] = ref.TrainExample(xs.data() + s * in, labels[s],
                                             ref_grad_xs.data() + s * in);
        }
        ASSERT_TRUE(BytesEqual(losses, ref_losses)) << "step " << step;
        ASSERT_TRUE(BytesEqual(grad_xs, ref_grad_xs)) << "step " << step;
        ASSERT_TRUE(BytesEqual(mlp.gradients(), ref.gradients()))
            << "step " << step;

        const float predicted = mlp.Predict(xs.data());
        const float ref_predicted = ref.Predict(xs.data());
        ASSERT_EQ(std::memcmp(&predicted, &ref_predicted, sizeof(float)), 0);
        std::vector<float> probs(c.batch), ref_probs(c.batch);
        mlp.PredictBatch(xs.data(), c.batch, probs.data());
        for (std::size_t s = 0; s < c.batch; ++s)
            ref_probs[s] = ref.Predict(xs.data() + s * in);
        ASSERT_TRUE(BytesEqual(probs, ref_probs)) << "step " << step;

        const float scale = 1.0f / static_cast<float>(c.batch);
        mlp.ApplyAccumulatedGradients(scale);
        ref.ApplyAccumulatedGradients(scale);
        ASSERT_TRUE(BytesEqual(mlp.parameters(), ref.parameters()))
            << "step " << step;
    }
}

INSTANTIATE_TEST_SUITE_P(
    WidthsAndBatches, MlpBatchBitExactTest,
    ::testing::Values(BatchCase{{6, 8, 4}, 1}, BatchCase{{6, 8, 4}, 3},
                      BatchCase{{6, 8, 4}, 17}, BatchCase{{6, 8, 4}, 32},
                      BatchCase{{13, 7, 5}, 1}, BatchCase{{13, 7, 5}, 3},
                      BatchCase{{13, 7, 5}, 17}, BatchCase{{13, 7, 5}, 32},
                      BatchCase{{70, 9}, 37}),
    [](const auto &info) {
        std::string name;
        for (std::size_t width : info.param.layers)
            name += std::to_string(width) + "_";
        return name + "n" + std::to_string(info.param.batch);
    });

TEST(ReplicatedMlpTest, StepMatchesScalarSumAndApply)
{
    // The step hook sums the replicas' gradients in replica order and
    // applies the mean once; every replica must end up with exactly the
    // parameters that applying that sum gives.
    MlpConfig config = SmallMlp();
    ReplicatedMlp replicas(config, 3);
    ScalarMlp ref(config, replicas.replica(0).parameters());
    Rng rng(23);
    std::vector<float> x(6), gx(6);
    for (int step = 0; step < 5; ++step) {
        std::vector<float> sum(ref.parameters().size(), 0.0f);
        for (std::uint32_t g = 0; g < 3; ++g) {
            for (int i = 0; i < 3; ++i) {
                for (float &v : x)
                    v = static_cast<float>(rng.NextGaussian());
                gx.assign(6, 0.0f);
                replicas.replica(g).TrainExample(x.data(), i % 2 ? 1.0f : 0.0f,
                                                 gx.data());
            }
            const std::vector<float> &grads = replicas.replica(g).gradients();
            for (std::size_t p = 0; p < sum.size(); ++p)
                sum[p] += grads[p];
        }
        replicas.AllReduceAndStep(9);
        std::vector<float> expected = ref.parameters();
        for (std::size_t p = 0; p < expected.size(); ++p)
            expected[p] -= config.learning_rate * (1.0f / 9.0f) * sum[p];
        ref = ScalarMlp(config, expected);
        for (std::uint32_t g = 0; g < 3; ++g) {
            ASSERT_TRUE(BytesEqual(replicas.replica(g).parameters(), expected))
                << "replica " << g << " step " << step;
            for (float v : replicas.replica(g).gradients())
                ASSERT_EQ(v, 0.0f);
        }
    }
}

// ---------------------------------------------------------------------
// DLRM grad fn scratch.
// ---------------------------------------------------------------------

/** Key gradients of `workload`'s step 0 on GPU 0 through `fn`. */
std::vector<float>
DlrmKeyGrads(const GradFn &fn, const DlrmWorkload &workload, std::size_t dim)
{
    const std::vector<Key> &keys = workload.trace.KeysFor(0, 0);
    std::vector<float> values(keys.size() * dim);
    Rng rng(41);
    for (float &v : values)
        v = static_cast<float>(rng.NextGaussian(0, 0.5));
    std::vector<float> grads(values.size(), 0.0f);
    fn(0, 0, keys, values, &grads);
    return grads;
}

TEST(DlrmModelTest, GradFnsOfOneModelShareGrowingScratch)
{
    // Two workloads bound to one model share its per-replica scratch:
    // the larger sub-batch must grow it whichever was bound or run
    // first, and give the key gradients a model of its own gives.
    const DatasetSpec spec = DatasetByName("Avazu").Scaled(100000.0);
    RecDatasetGenerator gen(spec, 9);
    const DlrmWorkload large = DlrmWorkload::Build(gen, 1, 1, 32);
    const DlrmWorkload small = DlrmWorkload::Build(gen, 1, 1, 4);
    DlrmConfig config;
    config.n_features = gen.n_features();
    config.dim = spec.embedding_dim;
    config.hidden = {16};

    DlrmModel alone(config);
    const std::vector<float> expected =
        DlrmKeyGrads(alone.BindGradFn(large), large, config.dim);

    DlrmModel shared(config);
    const GradFn large_fn = shared.BindGradFn(large);
    const GradFn small_fn = shared.BindGradFn(small);
    DlrmKeyGrads(small_fn, small, config.dim);
    EXPECT_TRUE(
        BytesEqual(DlrmKeyGrads(large_fn, large, config.dim), expected));
}

}  // namespace
}  // namespace frugal
