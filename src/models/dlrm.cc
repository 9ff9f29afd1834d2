#include "models/dlrm.h"

#include <algorithm>
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
      batches_(config.n_gpus), loss_accum_(config.n_gpus),
      examples_(config.n_gpus)
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
        const std::size_t n = samples.size();
        SubBatch &batch = batches_[gpu];
        // alloc-ok: grows to the largest sub-batch once
        batch.Reserve(n, input);
        // Assemble the concatenated embedding inputs.
        for (std::size_t i = 0; i < n; ++i) {
            batch.labels[i] = samples[i].label;
            for (std::size_t f = 0; f < indices[i].size(); ++f) {
                const float *src =
                    values.data() +
                    static_cast<std::size_t>(indices[i][f]) * dim;
                float *dst = batch.xs.data() + i * input + f * dim;
                for (std::size_t j = 0; j < dim; ++j)
                    dst[j] = src[j];
            }
        }
        std::fill(batch.grad_xs.begin(), batch.grad_xs.begin() + n * input,
                  0.0f);
        mlp_.replica(gpu).TrainBatch(batch.xs.data(), batch.labels.data(),
                                     n, batch.grad_xs.data(),
                                     batch.losses.data());
        for (std::size_t i = 0; i < n; ++i)
            *loss_accum_[gpu] += batch.losses[i];
        *examples_[gpu] += n;
        // Scatter dL/dx back onto the (deduplicated) key gradients, in
        // sample order.
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t f = 0; f < indices[i].size(); ++f) {
                const float *src =
                    batch.grad_xs.data() + i * input + f * dim;
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
    const Mlp &mlp = mlp_.replica(0);
    // Scored kEvalBatch samples per forward pass.
    constexpr std::size_t kEvalBatch = 32;
    std::vector<float> xs(kEvalBatch * input);
    std::vector<float> scores(n_samples);
    std::vector<float> labels(n_samples);
    for (std::size_t first = 0; first < n_samples; first += kEvalBatch) {
        const std::size_t n = std::min(kEvalBatch, n_samples - first);
        for (std::size_t i = 0; i < n; ++i) {
            const RecSample sample = gen.Next();
            for (std::size_t f = 0; f < sample.keys.size(); ++f) {
                table.ReadRow(sample.keys[f],
                              xs.data() + i * input + f * dim);
            }
            labels[first + i] = sample.label;
        }
        mlp.PredictBatch(xs.data(), n, scores.data() + first);
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
