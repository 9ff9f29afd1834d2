#include "models/mlp.h"

#include <cmath>

#include "common/logging.h"

namespace frugal {

namespace {

float
Sigmoid(float z)
{
    return 1.0f / (1.0f + std::exp(-z));
}

}  // namespace

Mlp::Mlp(const MlpConfig &config) : config_(config)
{
    FRUGAL_CHECK_MSG(config.layers.size() >= 1,
                     "need at least an input width");
    // Hidden layers between consecutive widths, plus the 1-wide output.
    std::size_t offset = 0;
    for (std::size_t l = 0; l + 1 < config_.layers.size(); ++l) {
        LayerShape shape;
        shape.in = config_.layers[l];
        shape.out = config_.layers[l + 1];
        shape.weight_offset = offset;
        offset += shape.in * shape.out;
        shape.bias_offset = offset;
        offset += shape.out;
        shapes_.push_back(shape);
    }
    LayerShape head;
    head.in = config_.layers.back();
    head.out = 1;
    head.weight_offset = offset;
    offset += head.in;
    head.bias_offset = offset;
    offset += 1;
    shapes_.push_back(head);

    params_.resize(offset);
    grads_.assign(offset, 0.0f);
    acts_.resize(shapes_.size() + 1);
    Reset();
}

void
Mlp::Reset()
{
    Rng rng(config_.seed);
    for (const LayerShape &shape : shapes_) {
        // He-style init scaled by fan-in.
        const float scale =
            std::sqrt(2.0f / static_cast<float>(shape.in));
        for (std::size_t i = 0; i < shape.in * shape.out; ++i) {
            params_[shape.weight_offset + i] =
                static_cast<float>(rng.NextGaussian(0.0, scale));
        }
        for (std::size_t i = 0; i < shape.out; ++i)
            params_[shape.bias_offset + i] = 0.0f;
    }
    grads_.assign(params_.size(), 0.0f);
}

float
Mlp::ForwardInternal(const float *x, Activations &acts) const
{
    acts[0].assign(x, x + input_dim());
    for (std::size_t l = 0; l < shapes_.size(); ++l) {
        const LayerShape &shape = shapes_[l];
        acts[l + 1].assign(shape.out, 0.0f);
        const float *w = params_.data() + shape.weight_offset;
        const float *b = params_.data() + shape.bias_offset;
        const float *in = acts[l].data();
        float *out = acts[l + 1].data();
        for (std::size_t o = 0; o < shape.out; ++o) {
            float z = b[o];
            const float *wrow = w + o * shape.in;
            for (std::size_t i = 0; i < shape.in; ++i)
                z += wrow[i] * in[i];
            const bool is_head = (l + 1 == shapes_.size());
            out[o] = is_head ? z : (z > 0.0f ? z : 0.0f);  // ReLU hidden
        }
    }
    return acts.back()[0];  // pre-sigmoid logit
}

float
Mlp::Predict(const float *x) const
{
    Activations acts(shapes_.size() + 1);
    return Sigmoid(ForwardInternal(x, acts));
}

float
Mlp::TrainExample(const float *x, float label, float *grad_x)
{
    const float logit = ForwardInternal(x, acts_);
    const float p = Sigmoid(logit);
    const float eps = 1e-7f;
    const float loss = label > 0.5f ? -std::log(p + eps)
                                    : -std::log(1.0f - p + eps);

    // dL/dlogit for sigmoid+BCE.
    delta_.assign(1, p - label);
    for (std::size_t l = shapes_.size(); l-- > 0;) {
        const LayerShape &shape = shapes_[l];
        const float *in = acts_[l].data();
        float *gw = grads_.data() + shape.weight_offset;
        float *gb = grads_.data() + shape.bias_offset;
        const float *w = params_.data() + shape.weight_offset;
        delta_next_.assign(shape.in, 0.0f);
        for (std::size_t o = 0; o < shape.out; ++o) {
            const float d = delta_[o];
            if (d == 0.0f)
                continue;
            float *gwrow = gw + o * shape.in;
            const float *wrow = w + o * shape.in;
            for (std::size_t i = 0; i < shape.in; ++i) {
                gwrow[i] += d * in[i];
                delta_next_[i] += d * wrow[i];
            }
            gb[o] += d;
        }
        if (l > 0) {
            // ReLU derivative on the layer input (which is layer l-1's
            // post-activation output).
            for (std::size_t i = 0; i < shape.in; ++i) {
                if (acts_[l][i] <= 0.0f)
                    delta_next_[i] = 0.0f;
            }
        }
        delta_.swap(delta_next_);
    }
    for (std::size_t i = 0; i < input_dim(); ++i)
        grad_x[i] += delta_[i];
    return loss;
}

void
Mlp::ApplyAccumulatedGradients(float scale)
{
    const float lr = config_.learning_rate;
    for (std::size_t i = 0; i < params_.size(); ++i)
        params_[i] -= lr * scale * grads_[i];
    grads_.assign(params_.size(), 0.0f);
}

ReplicatedMlp::ReplicatedMlp(const MlpConfig &config,
                             std::uint32_t replicas)
{
    FRUGAL_CHECK(replicas > 0);
    for (std::uint32_t g = 0; g < replicas; ++g)
        replicas_.push_back(std::make_unique<Mlp>(config));
}

void
ReplicatedMlp::AllReduceAndStep(std::size_t examples_total)
{
    if (examples_total == 0)
        return;
    Mlp &first = *replicas_[0];
    std::vector<float> &mean = first.gradients();
    for (std::size_t r = 1; r < replicas_.size(); ++r) {
        const std::vector<float> &g = replicas_[r]->gradients();
        for (std::size_t i = 0; i < mean.size(); ++i)
            mean[i] += g[i];
    }
    const float scale = 1.0f / static_cast<float>(examples_total);
    // Broadcast the summed gradient so every replica takes the identical
    // step (replicas stay bit-equal).
    for (std::size_t r = 1; r < replicas_.size(); ++r)
        replicas_[r]->gradients() = mean;
    for (auto &replica : replicas_)
        replica->ApplyAccumulatedGradients(scale);
}

void
ReplicatedMlp::Reset()
{
    for (auto &replica : replicas_)
        replica->Reset();
}

}  // namespace frugal
