/**
 * @file
 * Single-threaded oracle replay of a training trace.
 *
 * The oracle defines synchronous-training ground truth: at step s every
 * read observes the table after all step-(s−1) updates; each step's
 * updates are applied in the canonical (key, src) order. Because the
 * Frugal flush path and the baseline commit phases apply a given row's
 * updates in exactly the same canonical order, every engine's final
 * parameters must match the oracle's bit for bit (tests assert this).
 */
#ifndef FRUGAL_RUNTIME_ORACLE_H_
#define FRUGAL_RUNTIME_ORACLE_H_

#include <memory>

#include "runtime/engine.h"

namespace frugal {

/**
 * Replays `trace` through `grad_fn` against `table` using `optimizer`.
 * @return the number of updates applied.
 */
std::uint64_t RunOracle(HostEmbeddingTable &table, Optimizer &optimizer,
                        const Trace &trace, const GradFn &grad_fn,
                        const StepHook &step_hook = {});

/** The host table an engine built from `config` starts from. */
EmbeddingTableConfig TableConfigFor(const EngineConfig &config);

/** The oracle's parameters for an engine built from `config`: RunOracle
 *  on a fresh table and optimizer of the configured kind. */
std::unique_ptr<HostEmbeddingTable>
TrainOracle(const EngineConfig &config, const Trace &trace,
            const GradFn &grad_fn, const StepHook &step_hook = {});

/** Max |a−b| over all rows of two equally shaped tables. */
double MaxAbsTableDiff(const HostEmbeddingTable &a,
                       const HostEmbeddingTable &b);

/** True when the two tables are bit-identical. */
bool TablesBitEqual(const HostEmbeddingTable &a,
                    const HostEmbeddingTable &b);

}  // namespace frugal

#endif  // FRUGAL_RUNTIME_ORACLE_H_
