/**
 * @file
 * A dense feed-forward network with ReLU hidden layers and a sigmoid
 * output trained with binary cross-entropy — the DNN part of DLRM (§4.1:
 * "a fully connected network with the structure of 512-512-256-1").
 *
 * The implementation is a real forward/backward pass on CPU floats;
 * gradient-check tests validate it against finite differences. Multi-GPU
 * data parallelism is modelled by ReplicatedMlp: one replica per trainer
 * accumulates local gradients, and a single-threaded step hook sums
 * them, applies the mean step once and copies the result to every
 * replica (the all-reduce of real systems).
 *
 * One kernel trains a whole sub-batch (TrainBatch); TrainExample and
 * Predict are its n = 1 calls, and PredictBatch runs its forward pass.
 * The kernel is bit-identical to training the samples one at a time in
 * order (DESIGN.md §8, "Dense model kernels"): every float accumulates
 * the same terms in the same order, and only the interleaving of
 * independent chains changes.
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
 * TrainBatch rewrites its scratch on every call, so two trainers'
 * replicas allocated back to back must not share a cache line; the
 * scratch rows themselves get whole lines of their own
 * (CacheLineAllocator) for the same reason.
 */
class alignas(kCacheLineSize) Mlp
{
  public:
    explicit Mlp(const MlpConfig &config);

    /** Predicted probability for one input (no gradient bookkeeping). */
    float Predict(const float *x) const;

    /**
     * Predicted probabilities of `n` inputs (n rows of input_dim()
     * floats) into `probs[0..n)`; each equals Predict of its row.
     */
    void PredictBatch(const float *xs, std::size_t n, float *probs) const;

    /**
     * Forward + backward for `n` examples. `xs` holds n rows of
     * input_dim() floats. Accumulates the parameter gradients of the
     * samples in order, adds sample s's dL/dx into row s of `grad_xs`
     * (n × input_dim(); it carries the loss signal into the
     * embeddings) and writes its BCE loss to `losses[s]`. The scratch
     * grows to the largest n seen and is reused after that.
     */
    void TrainBatch(const float *xs, const float *labels, std::size_t n,
                    float *grad_xs, float *losses);

    /** TrainBatch of one example; @return its BCE loss. */
    float TrainExample(const float *x, float label, float *grad_x);

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

    using ScratchRow = std::vector<float, CacheLineAllocator<float>>;

    /** Per-batch scratch, sized for `capacity` samples. */
    struct BatchScratch
    {
        std::size_t capacity = 0;
        /** feature_major[l]: layer l's input, one row of lanes per
         *  feature (row stride Lanes(n)); the last entry holds the
         *  logits. */
        std::vector<ScratchRow> feature_major;
        // The backward pass's rows (empty in a forward-only scratch):
        /** sample_major[l]: layer l's input, one row per sample; empty
         *  for layer 0, whose input is the caller's `xs`. */
        std::vector<ScratchRow> sample_major;
        /** Per-sample deltas of a layer's outputs and inputs. */
        ScratchRow delta;
        ScratchRow delta_next;
        /** Layer 0's input delta of one sample. */
        ScratchRow input_delta;
    };

    /** Grows `scratch` to n samples: the forward rows, plus the
     *  backward rows if `backward` (a scratch always passes the same
     *  `backward`). */
    void Reserve(BatchScratch &scratch, std::size_t n, bool backward) const;

    /** Forward pass of n samples; returns the n logits. */
    const float *Forward(const float *xs, std::size_t n,
                         BatchScratch &scratch) const;

    MlpConfig config_;
    std::vector<LayerShape> shapes_;  ///< hidden layers + output layer
    std::vector<float> params_;
    std::vector<float> grads_;
    BatchScratch scratch_;  // TrainBatch's (single-threaded use)
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
     * The step hook body: sums all replicas' accumulated gradients into
     * replica 0, applies the mean step there, copies its parameters to
     * the other replicas (keeping them bit-identical) and clears every
     * accumulator.
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
