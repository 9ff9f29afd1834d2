/**
 * @file
 * DLRM (Deep Learning Recommendation Model, Naumov et al.) — the REC
 * model of the paper's evaluation (§4.1: embedding dim 32, top MLP
 * 512-512-256-1).
 *
 * Architecture here: one embedding lookup per categorical feature field,
 * features concatenated into the top MLP's input, sigmoid/BCE head.
 * (The original's pairwise-interaction layer is folded into the MLP —
 * Frugal's techniques only touch the embedding layer, which is kept
 * faithful: one lookup + one gradient per feature per sample.)
 *
 * The model plugs into any Engine through a GradFn bound to a
 * DlrmWorkload: the workload fixes the sample stream and the mapping from
 * samples to each sub-batch's deduplicated key list.
 */
#ifndef FRUGAL_MODELS_DLRM_H_
#define FRUGAL_MODELS_DLRM_H_

#include <atomic>
#include <memory>
#include <vector>

#include "common/cacheline.h"
#include "data/rec_dataset.h"
#include "data/trace.h"
#include "models/grad_fn.h"
#include "models/mlp.h"
#include "table/embedding_table.h"

namespace frugal {

/** A fixed DLRM training workload: samples + their key-trace view. */
struct DlrmWorkload
{
    Trace trace{{}, 0, 1};
    /** samples[step][gpu] — the raw samples of each sub-batch. */
    std::vector<std::vector<std::vector<RecSample>>> samples;
    /** key_idx[step][gpu][sample][feature] — index of that feature's key
     *  in trace.KeysFor(step, gpu). */
    std::vector<std::vector<std::vector<std::vector<std::uint32_t>>>>
        key_idx;

    /** Draws `steps × n_gpus × samples_per_gpu` samples from `gen`. */
    static DlrmWorkload Build(RecDatasetGenerator &gen, std::size_t steps,
                              std::uint32_t n_gpus,
                              std::size_t samples_per_gpu);
};

/** Configuration of a DLRM instance. */
struct DlrmConfig
{
    std::uint32_t n_features = 0;
    std::size_t dim = 32;
    /** Hidden widths of the top MLP (paper: {512, 512, 256}). */
    std::vector<std::size_t> hidden = {512, 512, 256};
    float dense_learning_rate = 0.05f;
    std::uint64_t seed = 1;
    std::uint32_t n_gpus = 1;
};

/** The dense part of DLRM plus the glue that feeds engines. */
class DlrmModel
{
  public:
    explicit DlrmModel(const DlrmConfig &config);

    /** Gradient callback for Engine::Run; `workload` must outlive it. */
    GradFn BindGradFn(const DlrmWorkload &workload);

    /** Step hook: dense all-reduce + loss bookkeeping. */
    StepHook BindStepHook();

    /** Mean training loss of each completed step. */
    const std::vector<double> &loss_history() const { return losses_; }

    /** Mean loss over the first/last `window` steps (convergence tests). */
    double MeanLossOverFirst(std::size_t window) const;
    double MeanLossOverLast(std::size_t window) const;

    /**
     * Held-out AUC of the current model: draws `n_samples` fresh samples
     * from `gen`, gathers their embeddings from `table`, and scores them
     * with dense replica 0 (all replicas are identical between steps).
     */
    double EvaluateAuc(const HostEmbeddingTable &table,
                       RecDatasetGenerator &gen, std::size_t n_samples);

    /** Restores dense parameters and clears the loss history. */
    void Reset();

  private:
    /** One replica's sub-batch, sample-major: the MLP inputs, their
     *  gradients, labels and losses. Grows to the largest sub-batch
     *  seen and is reused after that. */
    struct SubBatch
    {
        using Row = std::vector<float, CacheLineAllocator<float>>;
        Row xs;
        Row grad_xs;
        Row labels;
        Row losses;

        /** Sizes the rows for n samples of `input` floats each. */
        void Reserve(std::size_t n, std::size_t input)
        {
            if (n <= labels.size())
                return;
            xs.resize(n * input);
            grad_xs.resize(n * input);
            labels.resize(n);
            losses.resize(n);
        }
    };

    DlrmConfig config_;
    ReplicatedMlp mlp_;
    std::vector<SubBatch> batches_;  // per GPU
    // Per-GPU, current step; each trainer adds to its own on every
    // example, so each sits on its own cache line.
    std::vector<CacheAligned<double>> loss_accum_;
    std::vector<CacheAligned<std::size_t>> examples_;
    std::vector<double> losses_;
};

}  // namespace frugal

#endif  // FRUGAL_MODELS_DLRM_H_
