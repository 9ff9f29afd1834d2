#include "models/dlrm.h"

#include <unordered_map>

#include "common/logging.h"
#include "models/auc.h"

namespace frugal {

DlrmWorkload
DlrmWorkload::Build(RecDatasetGenerator &gen, std::size_t steps,
                    std::uint32_t n_gpus, std::size_t samples_per_gpu)
{
    DlrmWorkload workload;
    workload.samples.resize(steps);
    workload.key_idx.resize(steps);
    std::vector<StepKeys> trace_steps(steps);
    for (std::size_t s = 0; s < steps; ++s) {
        workload.samples[s].resize(n_gpus);
        workload.key_idx[s].resize(n_gpus);
        trace_steps[s].per_gpu.resize(n_gpus);
        for (std::uint32_t g = 0; g < n_gpus; ++g) {
            auto &samples = workload.samples[s][g];
            auto &indices = workload.key_idx[s][g];
            auto &keys = trace_steps[s].per_gpu[g];
            std::unordered_map<Key, std::uint32_t> key_to_idx;
            samples = gen.NextBatch(samples_per_gpu);
            indices.resize(samples.size());
            for (std::size_t i = 0; i < samples.size(); ++i) {
                indices[i].reserve(samples[i].keys.size());
                for (Key key : samples[i].keys) {
                    auto [it, inserted] = key_to_idx.try_emplace(
                        key,
                        static_cast<std::uint32_t>(keys.size()));
                    if (inserted)
                        keys.push_back(key);
                    indices[i].push_back(it->second);
                }
            }
        }
    }
    workload.trace =
        Trace(std::move(trace_steps), gen.key_space(), n_gpus);
    return workload;
}

DlrmModel::DlrmModel(const DlrmConfig &config)
    : config_(config),
      mlp_(
          [&config] {
              MlpConfig mlp_config;
              mlp_config.layers.push_back(
                  static_cast<std::size_t>(config.n_features) *
                  config.dim);
              for (std::size_t width : config.hidden)
                  mlp_config.layers.push_back(width);
              mlp_config.learning_rate = config.dense_learning_rate;
              mlp_config.seed = config.seed;
              return mlp_config;
          }(),
          config.n_gpus),
      loss_accum_(config.n_gpus), examples_(config.n_gpus)
{
    FRUGAL_CHECK(config.n_features > 0);
}

GradFn
DlrmModel::BindGradFn(const DlrmWorkload &workload)
{
    return [this, &workload](GpuId gpu, Step step,
                             const std::vector<Key> &keys,
                             const std::vector<float> &values,
                             std::vector<float> *grads) {
        const std::size_t dim = config_.dim;
        const std::size_t input = config_.n_features * dim;
        const auto &samples = workload.samples[step][gpu];
        const auto &indices = workload.key_idx[step][gpu];
        Mlp &mlp = mlp_.replica(gpu);
        std::vector<float> x(input);
        std::vector<float> gx(input);
        for (std::size_t i = 0; i < samples.size(); ++i) {
            // Assemble the concatenated embedding input.
            for (std::size_t f = 0; f < indices[i].size(); ++f) {
                const float *src =
                    values.data() +
                    static_cast<std::size_t>(indices[i][f]) * dim;
                float *dst = x.data() + f * dim;
                for (std::size_t j = 0; j < dim; ++j)
                    dst[j] = src[j];
            }
            gx.assign(input, 0.0f);
            const float loss =
                mlp.TrainExample(x.data(), samples[i].label, gx.data());
            *loss_accum_[gpu] += loss;
            *examples_[gpu] += 1;
            // Scatter dL/dx back onto the (deduplicated) key gradients.
            for (std::size_t f = 0; f < indices[i].size(); ++f) {
                const float *src = gx.data() + f * dim;
                float *dst =
                    grads->data() +
                    static_cast<std::size_t>(indices[i][f]) * dim;
                for (std::size_t j = 0; j < dim; ++j)
                    dst[j] += src[j];
            }
        }
        (void)keys;
    };
}

StepHook
DlrmModel::BindStepHook()
{
    return [this](Step) {
        std::size_t total_examples = 0;
        double total_loss = 0.0;
        for (std::uint32_t g = 0; g < config_.n_gpus; ++g) {
            total_examples += *examples_[g];
            total_loss += *loss_accum_[g];
            *examples_[g] = 0;
            *loss_accum_[g] = 0.0;
        }
        mlp_.AllReduceAndStep(total_examples);
        losses_.push_back(total_examples == 0
                              ? 0.0
                              : total_loss /
                                    static_cast<double>(total_examples));
    };
}

double
DlrmModel::MeanLossOverFirst(std::size_t window) const
{
    window = std::min(window, losses_.size());
    double sum = 0.0;
    for (std::size_t i = 0; i < window; ++i)
        sum += losses_[i];
    return window == 0 ? 0.0 : sum / static_cast<double>(window);
}

double
DlrmModel::MeanLossOverLast(std::size_t window) const
{
    window = std::min(window, losses_.size());
    double sum = 0.0;
    for (std::size_t i = losses_.size() - window; i < losses_.size(); ++i)
        sum += losses_[i];
    return window == 0 ? 0.0 : sum / static_cast<double>(window);
}

double
DlrmModel::EvaluateAuc(const HostEmbeddingTable &table,
                       RecDatasetGenerator &gen, std::size_t n_samples)
{
    const std::size_t dim = config_.dim;
    const std::size_t input = config_.n_features * dim;
    Mlp &mlp = mlp_.replica(0);
    std::vector<float> x(input);
    std::vector<float> scores;
    std::vector<float> labels;
    scores.reserve(n_samples);
    labels.reserve(n_samples);
    for (std::size_t i = 0; i < n_samples; ++i) {
        const RecSample sample = gen.Next();
        for (std::size_t f = 0; f < sample.keys.size(); ++f)
            table.ReadRow(sample.keys[f], x.data() + f * dim);
        scores.push_back(mlp.Predict(x.data()));
        labels.push_back(sample.label);
    }
    return ComputeAuc(scores, labels);
}

void
DlrmModel::Reset()
{
    mlp_.Reset();
    losses_.clear();
    loss_accum_.assign(config_.n_gpus, {});
    examples_.assign(config_.n_gpus, {});
}

}  // namespace frugal
