#include "runtime/oracle.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace frugal {

std::uint64_t
RunOracle(HostEmbeddingTable &table, Optimizer &optimizer,
          const Trace &trace, const GradFn &grad_fn,
          const StepHook &step_hook)
{
    struct OracleUpdate
    {
        Key key;
        GpuId src;
        std::vector<float> grad;
    };

    const std::size_t dim = table.dim();
    std::uint64_t applied = 0;
    std::vector<float> values;
    std::vector<float> grads;
    for (Step s = 0; s < trace.NumSteps(); ++s) {
        std::vector<OracleUpdate> updates;
        for (GpuId g = 0; g < trace.n_gpus(); ++g) {
            const std::vector<Key> &keys = trace.KeysFor(s, g);
            values.resize(keys.size() * dim);
            grads.assign(keys.size() * dim, 0.0f);
            for (std::size_t i = 0; i < keys.size(); ++i)
                table.ReadRow(keys[i], values.data() + i * dim);
            grad_fn(g, s, keys, values, &grads);
            for (std::size_t i = 0; i < keys.size(); ++i) {
                OracleUpdate update;
                update.key = keys[i];
                update.src = g;
                update.grad.assign(
                    grads.begin() + static_cast<std::ptrdiff_t>(i * dim),
                    grads.begin() +
                        static_cast<std::ptrdiff_t>((i + 1) * dim));
                updates.push_back(std::move(update));
            }
        }
        std::sort(updates.begin(), updates.end(),
                  [](const OracleUpdate &a, const OracleUpdate &b) {
                      return a.key != b.key ? a.key < b.key
                                            : a.src < b.src;
                  });
        for (const OracleUpdate &update : updates) {
            table.ApplyGradient(update.key, update.grad.data(), optimizer);
            ++applied;
        }
        if (step_hook)
            step_hook(s);
    }
    return applied;
}

EmbeddingTableConfig
TableConfigFor(const EngineConfig &config)
{
    EmbeddingTableConfig table_config;
    table_config.key_space = config.key_space;
    table_config.dim = config.dim;
    table_config.init_seed = config.init_seed;
    table_config.init_scale = config.init_scale;
    return table_config;
}

std::unique_ptr<HostEmbeddingTable>
TrainOracle(const EngineConfig &config, const Trace &trace,
            const GradFn &grad_fn, const StepHook &step_hook)
{
    auto table = std::make_unique<HostEmbeddingTable>(TableConfigFor(config));
    const auto optimizer = MakeOptimizer(config.optimizer,
                                         config.learning_rate,
                                         config.key_space, config.dim);
    RunOracle(*table, *optimizer, trace, grad_fn, step_hook);
    return table;
}

double
MaxAbsTableDiff(const HostEmbeddingTable &a, const HostEmbeddingTable &b)
{
    FRUGAL_CHECK(a.key_space() == b.key_space() && a.dim() == b.dim());
    double max_diff = 0.0;
    for (Key k = 0; k < a.key_space(); ++k) {
        const float *ra = a.Row(k);
        const float *rb = b.Row(k);
        for (std::size_t j = 0; j < a.dim(); ++j) {
            max_diff = std::max(
                max_diff,
                std::abs(static_cast<double>(ra[j]) - rb[j]));
        }
    }
    return max_diff;
}

bool
TablesBitEqual(const HostEmbeddingTable &a, const HostEmbeddingTable &b)
{
    FRUGAL_CHECK(a.key_space() == b.key_space() && a.dim() == b.dim());
    for (Key k = 0; k < a.key_space(); ++k) {
        const float *ra = a.Row(k);
        const float *rb = b.Row(k);
        for (std::size_t j = 0; j < a.dim(); ++j) {
            if (ra[j] != rb[j])
                return false;
        }
    }
    return true;
}

}  // namespace frugal
