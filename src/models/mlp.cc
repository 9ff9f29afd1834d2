#include "models/mlp.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace frugal {

namespace {

float
Sigmoid(float z)
{
    return 1.0f / (1.0f + std::exp(-z));
}

// The kernels below are vectorised with GCC vector types, because the
// build is -O2 without -march: plain loops over runtime widths do not
// auto-vectorise there. Every lane computes exactly the float
// expression the scalar per-example code did (one multiply, then one
// add, in the same order), so results are bit-identical to it; see
// DESIGN.md §8, "Dense model kernels".

/** Four floats: one SSE register without -march. */
using Vec = float __attribute__((vector_size(16)));
constexpr std::size_t kVecLanes = 4;

Vec
Load(const float *p)
{
    Vec v;
    __builtin_memcpy(&v, p, sizeof v);
    return v;
}

void
Store(float *p, Vec v)
{
    __builtin_memcpy(p, &v, sizeof v);
}

Vec
Splat(float a)
{
    return Vec{a, a, a, a};
}

/** Sample lanes per feature row: n rounded up to whole vectors. */
std::size_t
Lanes(std::size_t n)
{
    return (n + kVecLanes - 1) / kVecLanes * kVecLanes;
}

/**
 * One output over kVecs × 4 samples: z = b, then z += w[i] * in[i][s]
 * for ascending i — each (output, sample) keeps the scalar code's one
 * add chain, and the kVecs chains run side by side. `in` is
 * feature-major with row stride `stride`; `out` receives the tile's
 * lanes, ReLU'd for a hidden layer.
 */
template <std::size_t kVecs>
void
ForwardTile(const float *__restrict w, float b,
            const float *__restrict in, std::size_t stride,
            std::size_t width, bool relu, float *__restrict out)
{
    Vec acc[kVecs];
#pragma GCC unroll 8
    for (std::size_t k = 0; k < kVecs; ++k)
        acc[k] = Splat(b);
    for (std::size_t i = 0; i < width; ++i) {
        const Vec wi = Splat(w[i]);
        const float *row = in + i * stride;
#pragma GCC unroll 8
        for (std::size_t k = 0; k < kVecs; ++k)
            acc[k] += wi * Load(row + k * kVecLanes);
    }
    const Vec zero = Splat(0.0f);
#pragma GCC unroll 8
    for (std::size_t k = 0; k < kVecs; ++k) {
        // z > 0 ? z : 0, as the scalar ReLU (NaN and -0 map to +0).
        const Vec z = relu ? (acc[k] > zero ? acc[k] : zero) : acc[k];
        Store(out + k * kVecLanes, z);
    }
}

/** gw[i] += d * in[i]; dn[i] += d * w[i] over one weight row. */
void
BackwardRow(float *__restrict gw, float *__restrict dn, float d,
            const float *__restrict in, const float *__restrict w,
            std::size_t width)
{
    const Vec dv = Splat(d);
    std::size_t i = 0;
    for (; i + kVecLanes <= width; i += kVecLanes) {
        Store(gw + i, Load(gw + i) + dv * Load(in + i));
        Store(dn + i, Load(dn + i) + dv * Load(w + i));
    }
    for (; i < width; ++i) {
        gw[i] += d * in[i];
        dn[i] += d * w[i];
    }
}

/** y[i] += x[i] */
void
AddRow(float *__restrict y, const float *__restrict x, std::size_t width)
{
    std::size_t i = 0;
    for (; i + kVecLanes <= width; i += kVecLanes)
        Store(y + i, Load(y + i) + Load(x + i));
    for (; i < width; ++i)
        y[i] += x[i];
}

/** p[i] -= lr * scale * g[i] */
void
StepRow(float *__restrict p, const float *__restrict g, float lr,
        float scale, std::size_t width)
{
    const Vec lv = Splat(lr), sv = Splat(scale);
    std::size_t i = 0;
    for (; i + kVecLanes <= width; i += kVecLanes)
        Store(p + i, Load(p + i) - lv * sv * Load(g + i));
    for (; i < width; ++i)
        p[i] -= lr * scale * g[i];
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

void
Mlp::Reserve(BatchScratch &scratch, std::size_t n, bool backward) const
{
    if (n <= scratch.capacity)
        return;
    const std::size_t lanes = Lanes(n);
    scratch.capacity = n;
    scratch.feature_major.resize(shapes_.size() + 1);
    for (std::size_t l = 0; l < shapes_.size(); ++l)
        scratch.feature_major[l].resize(shapes_[l].in * lanes);
    scratch.feature_major.back().resize(lanes);
    if (!backward)
        return;
    std::size_t widest = 1;  // widest layer output
    scratch.sample_major.resize(shapes_.size());
    for (std::size_t l = 0; l < shapes_.size(); ++l) {
        widest = std::max(widest, shapes_[l].out);
        if (l > 0)
            scratch.sample_major[l].resize(shapes_[l].in * n);
    }
    scratch.delta.resize(widest * n);
    scratch.delta_next.resize(widest * n);
    scratch.input_delta.resize(input_dim());
}

const float *
Mlp::Forward(const float *xs, std::size_t n, BatchScratch &scratch) const
{
    const std::size_t lanes = Lanes(n);
    // Transpose the inputs to feature-major once; the padding lanes are
    // zeros whose outputs nobody reads.
    float *x_t = scratch.feature_major[0].data();
    for (std::size_t i = 0; i < input_dim(); ++i) {
        float *row = x_t + i * lanes;
        for (std::size_t s = 0; s < n; ++s)
            row[s] = xs[s * input_dim() + i];
        std::fill(row + n, row + lanes, 0.0f);
    }
    for (std::size_t l = 0; l < shapes_.size(); ++l) {
        const LayerShape &shape = shapes_[l];
        const bool relu = l + 1 < shapes_.size();
        const float *in = scratch.feature_major[l].data();
        float *out = scratch.feature_major[l + 1].data();
        for (std::size_t o = 0; o < shape.out; ++o) {
            const float *w =
                params_.data() + shape.weight_offset + o * shape.in;
            const float b = params_[shape.bias_offset + o];
            float *z = out + o * lanes;
            // Whole 32-sample tiles (a DLRM sub-batch), then single
            // vectors.
            std::size_t s = 0;
            for (; s + 8 * kVecLanes <= lanes; s += 8 * kVecLanes)
                ForwardTile<8>(w, b, in + s, lanes, shape.in, relu, z + s);
            for (; s < lanes; s += kVecLanes)
                ForwardTile<1>(w, b, in + s, lanes, shape.in, relu, z + s);
        }
    }
    return scratch.feature_major.back().data();
}

float
Mlp::Predict(const float *x) const
{
    float prob = 0.0f;
    PredictBatch(x, 1, &prob);
    return prob;
}

void
Mlp::PredictBatch(const float *xs, std::size_t n, float *probs) const
{
    BatchScratch scratch;
    Reserve(scratch, n, /*backward=*/false);
    const float *logits = Forward(xs, n, scratch);
    for (std::size_t s = 0; s < n; ++s)
        probs[s] = Sigmoid(logits[s]);
}

float
Mlp::TrainExample(const float *x, float label, float *grad_x)
{
    float loss = 0.0f;
    TrainBatch(x, &label, 1, grad_x, &loss);
    return loss;
}

void
Mlp::TrainBatch(const float *xs, const float *labels, std::size_t n,
                float *grad_xs, float *losses)
{
    if (n == 0)
        return;
    // alloc-ok: grows to the largest batch once
    Reserve(scratch_, n, /*backward=*/true);
    const float *logits = Forward(xs, n, scratch_);
    // The backward pass reads each sample's hidden-layer inputs as a
    // row.
    const std::size_t lanes = Lanes(n);
    for (std::size_t l = 1; l < shapes_.size(); ++l) {
        const std::size_t width = shapes_[l].in;
        const float *cols = scratch_.feature_major[l].data();
        float *rows = scratch_.sample_major[l].data();
        for (std::size_t s = 0; s < n; ++s) {
            for (std::size_t i = 0; i < width; ++i)
                rows[s * width + i] = cols[i * lanes + s];
        }
    }

    // dL/dlogit for sigmoid+BCE, one per sample.
    float *delta = scratch_.delta.data();
    float *delta_next = scratch_.delta_next.data();
    for (std::size_t s = 0; s < n; ++s) {
        const float p = Sigmoid(logits[s]);
        const float eps = 1e-7f;
        losses[s] = labels[s] > 0.5f ? -std::log(p + eps)
                                     : -std::log(1.0f - p + eps);
        delta[s] = p - labels[s];
    }

    // Layer by layer, samples in order: each gradient element gets its
    // samples' terms in the order per-example training added them.
    for (std::size_t l = shapes_.size(); l-- > 0;) {
        const LayerShape &shape = shapes_[l];
        float *gw = grads_.data() + shape.weight_offset;
        float *gb = grads_.data() + shape.bias_offset;
        const float *w = params_.data() + shape.weight_offset;
        for (std::size_t s = 0; s < n; ++s) {
            const float *in = l == 0 ? xs + s * shape.in
                                     : scratch_.sample_major[l].data() +
                                           s * shape.in;
            float *dn = l == 0 ? scratch_.input_delta.data()
                               : delta_next + s * shape.in;
            std::fill(dn, dn + shape.in, 0.0f);
            const float *d_out = delta + s * shape.out;
            for (std::size_t o = 0; o < shape.out; ++o) {
                const float d = d_out[o];
                if (d == 0.0f)
                    continue;
                BackwardRow(gw + o * shape.in, dn, d, in,
                            w + o * shape.in, shape.in);
                gb[o] += d;
            }
            if (l > 0) {
                // ReLU derivative on the layer input (which is layer
                // l-1's post-activation output).
                for (std::size_t i = 0; i < shape.in; ++i) {
                    if (in[i] <= 0.0f)
                        dn[i] = 0.0f;
                }
            } else {
                AddRow(grad_xs + s * shape.in, dn, shape.in);
            }
        }
        std::swap(delta, delta_next);
    }
}

void
Mlp::ApplyAccumulatedGradients(float scale)
{
    StepRow(params_.data(), grads_.data(), config_.learning_rate, scale,
            params_.size());
    std::fill(grads_.begin(), grads_.end(), 0.0f);
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
    std::vector<float> &sum = first.gradients();
    for (std::size_t r = 1; r < replicas_.size(); ++r) {
        std::vector<float> &g = replicas_[r]->gradients();
        AddRow(sum.data(), g.data(), sum.size());
        std::fill(g.begin(), g.end(), 0.0f);
    }
    // Replicas are bit-identical between steps, so applying the summed
    // gradient once and copying the parameters equals applying it to
    // every replica.
    first.ApplyAccumulatedGradients(1.0f /
                                    static_cast<float>(examples_total));
    for (std::size_t r = 1; r < replicas_.size(); ++r) {
        std::copy(first.parameters().begin(), first.parameters().end(),
                  replicas_[r]->parameters().begin());
    }
}

void
ReplicatedMlp::Reset()
{
    for (auto &replica : replicas_)
        replica->Reset();
}

}  // namespace frugal
