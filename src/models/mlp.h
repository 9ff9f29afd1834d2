/**
 * @file
 * A dense feed-forward network with ReLU hidden layers and a sigmoid
 * output trained with binary cross-entropy — the DNN part of DLRM (§4.1:
 * "a fully connected network with the structure of 512-512-256-1").
 *
 * The implementation is a real forward/backward pass on CPU floats;
 * gradient-check tests validate it against finite differences. Multi-GPU
 * data parallelism is modelled by ReplicatedMlp: one replica per trainer
 * accumulates local gradients, and a single-threaded step hook averages
 * and applies them to every replica (the all-reduce of real systems).
 */
#ifndef FRUGAL_MODELS_MLP_H_
#define FRUGAL_MODELS_MLP_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/cacheline.h"
#include "common/rng.h"

namespace frugal {

/** Architecture + training hyper-parameters of an Mlp. */
struct MlpConfig
{
    /** Layer widths from input to last hidden; the output neuron (width
     *  1, sigmoid) is implicit. E.g. {64, 512, 512, 256} is DLRM's
     *  512-512-256-1 top MLP over a 64-wide input. */
    std::vector<std::size_t> layers;
    float learning_rate = 0.05f;
    std::uint64_t seed = 1;
};

/**
 * Fully connected ReLU network with sigmoid/BCE head. Line-aligned:
 * TrainExample rewrites the scratch vectors' headers on every example,
 * so two trainers' replicas allocated back to back must not share a
 * cache line; the scratch rows themselves get whole lines of their own
 * (CacheLineAllocator) for the same reason.
 *
 * The two per-example functions start on a 64-byte boundary. Their inner
 * loops are short enough that the front end's speed depends on where
 * they sit within a 64-byte code window; without the pin, any change to
 * the code linked ahead of them moved DLRM's step time by up to ~20%.
 */
class alignas(kCacheLineSize) Mlp
{
  public:
    explicit Mlp(const MlpConfig &config);

    /** Predicted probability for one input (no gradient bookkeeping). */
    float Predict(const float *x) const;

    /**
     * Forward + backward for one example. Accumulates parameter
     * gradients internally and adds dL/dx into `grad_x` (size
     * input_dim()), which carries the loss signal into the embeddings.
     * @return the BCE loss of this example.
     */
    [[gnu::aligned(64)]] float TrainExample(const float *x, float label,
                                            float *grad_x);

    /**
     * Applies the accumulated gradients, scaled by `scale` (1/examples
     * for a mean-gradient step), then clears them.
     */
    void ApplyAccumulatedGradients(float scale);

    /** Accumulated parameter gradients (flattened; for all-reduce). */
    std::vector<float> &gradients() { return grads_; }
    const std::vector<float> &gradients() const { return grads_; }

    /** Flattened parameters (weights then biases per layer). */
    std::vector<float> &parameters() { return params_; }
    const std::vector<float> &parameters() const { return params_; }

    std::size_t input_dim() const { return config_.layers.front(); }
    std::size_t parameter_count() const { return params_.size(); }

    /** Re-initialises parameters from the seed and clears gradients. */
    void Reset();

  private:
    struct LayerShape
    {
        std::size_t in = 0;
        std::size_t out = 0;
        std::size_t weight_offset = 0;  ///< into params_/grads_
        std::size_t bias_offset = 0;
    };

    /** Per-example scratch row. */
    using ScratchRow = std::vector<float, CacheLineAllocator<float>>;
    using Activations =
        std::vector<ScratchRow, CacheLineAllocator<ScratchRow>>;

    /** Forward pass filling the per-layer activations. */
    [[gnu::aligned(64)]] float ForwardInternal(const float *x,
                                               Activations &acts) const;

    MlpConfig config_;
    std::vector<LayerShape> shapes_;  ///< hidden layers + output layer
    std::vector<float> params_;
    std::vector<float> grads_;
    // Scratch reused across TrainExample calls (single-threaded use).
    Activations acts_;
    ScratchRow delta_;
    ScratchRow delta_next_;
};

/** Data-parallel MLP replicas with deterministic gradient averaging. */
class ReplicatedMlp
{
  public:
    ReplicatedMlp(const MlpConfig &config, std::uint32_t replicas);

    /** Replica for trainer `g`; safe for concurrent use across distinct
     *  replicas. */
    Mlp &replica(std::uint32_t g) { return *replicas_[g]; }

    /**
     * The step hook body: averages all replicas' accumulated gradients,
     * applies the same mean step to every replica (keeping them
     * bit-identical), and clears the accumulators.
     * @param examples_total examples contributing this step (the mean
     *        gradient divisor).
     */
    void AllReduceAndStep(std::size_t examples_total);

    void Reset();

    std::uint32_t replica_count() const
    {
        return static_cast<std::uint32_t>(replicas_.size());
    }

  private:
    std::vector<std::unique_ptr<Mlp>> replicas_;
};

}  // namespace frugal

#endif  // FRUGAL_MODELS_MLP_H_
