#include "workloads.h"

#include <chrono>

#include "common/distribution.h"
#include "common/rng.h"
#include "data/dataset_spec.h"
#include "data/rec_dataset.h"
#include "runtime/microtask.h"

namespace perfbench {
namespace {

using frugal::DatasetByName;
using frugal::DatasetSpec;
using frugal::DlrmWorkload;
using frugal::RecDatasetGenerator;
using frugal::Rng;
using frugal::Trace;
using frugal::ZipfDistribution;

/** Every workload runs 2 trainers and 2 flush threads: four busy
 *  threads on a four-core host. */
constexpr std::uint32_t kTrainers = 2;
constexpr std::size_t kFlushThreads = 2;

/** `zipf_embed` sizes. Steps are fixed per workload (not scaled to the
 *  host) so one seed always yields the same inputs; each is sized so
 *  one engine run lasts about half a second on a four-core host, which
 *  gives a run of the benchmark dozens of engine runs to take medians
 *  over. */
constexpr std::size_t kLinearDim = 16;
constexpr std::size_t kKeysPerTrainer = 64;
constexpr double kZipfTheta = 0.99;
constexpr std::size_t kZipfEmbedSteps = 4000;
constexpr std::uint64_t kZipfEmbedKeys = 16384;

constexpr std::size_t kDlrmSteps = 200;
constexpr std::size_t kDlrmSamplesPerTrainer = 32;
constexpr float kDlrmLearningRate = 0.2f;

frugal::EngineConfig
BaseConfig()
{
    frugal::EngineConfig config;
    config.n_gpus = kTrainers;
    config.flush_threads = kFlushThreads;
    return config;
}

Trace
ZipfTrace(std::uint64_t key_space, std::size_t steps, std::uint64_t seed)
{
    Rng rng(seed);
    ZipfDistribution dist(key_space, kZipfTheta);
    return Trace::Synthetic(dist, rng, steps, kTrainers, kKeysPerTrainer);
}

void
BuildZipfEmbed(Workload &w, std::uint64_t seed)
{
    w.config.dim = kLinearDim;
    w.config.key_space = kZipfEmbedKeys;
    w.linear_trace = ZipfTrace(kZipfEmbedKeys, kZipfEmbedSteps, seed);
}

void
BuildDlrmRec(Workload &w, std::uint64_t seed)
{
    const DatasetSpec spec = DatasetByName("Avazu").Scaled(10000.0);
    RecDatasetGenerator gen(spec, seed);
    w.dlrm = std::make_unique<DlrmWorkload>(DlrmWorkload::Build(
        gen, kDlrmSteps, kTrainers, kDlrmSamplesPerTrainer));
    w.config.dim = spec.embedding_dim;
    w.config.key_space = gen.key_space();
    w.config.learning_rate = kDlrmLearningRate;

    w.dlrm_config.n_features = gen.n_features();
    w.dlrm_config.dim = spec.embedding_dim;
    w.dlrm_config.hidden = {64, 32};
    w.dlrm_config.n_gpus = kTrainers;
    w.dlrm_config.dense_learning_rate = kDlrmLearningRate;
}

}  // namespace

std::uint64_t
Workload::TraceKeys() const
{
    std::uint64_t keys = 0;
    for (std::size_t s = 0; s < trace().NumSteps(); ++s)
        keys += trace().StepAt(s).TotalKeys();
    return keys;
}

std::unique_ptr<Workload>
BuildWorkload(const std::string &name, std::uint64_t seed)
{
    auto w = std::make_unique<Workload>();
    w->name = name;
    w->config = BaseConfig();
    const auto start = std::chrono::steady_clock::now();
    if (name == "zipf_embed") {
        BuildZipfEmbed(*w, seed);
    } else if (name == "dlrm_rec") {
        BuildDlrmRec(*w, seed);
    } else {
        return nullptr;
    }
    w->input_build_s = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();
    return w;
}

Model::Model(const Workload &workload)
{
    if (workload.dlrm) {
        dlrm_ = std::make_unique<frugal::DlrmModel>(workload.dlrm_config);
        grad_fn_ = dlrm_->BindGradFn(*workload.dlrm);
        step_hook_ = dlrm_->BindStepHook();
    } else {
        grad_fn_ = frugal::MakeLinearGradTask();
    }
}

std::vector<double>
Model::losses() const
{
    return dlrm_ ? dlrm_->loss_history() : std::vector<double>{};
}

}  // namespace perfbench
