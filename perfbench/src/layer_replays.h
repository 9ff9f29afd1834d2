/**
 * @file
 * Single-threaded replays of a workload's key stream through one
 * module's public functions at a time — the per-operation costs the
 * engine run cannot separate (README.md, "Per-layer metrics").
 */
#ifndef PERFBENCH_LAYER_REPLAYS_H_
#define PERFBENCH_LAYER_REPLAYS_H_

#include "workloads.h"

namespace perfbench {

/** Per-operation costs and ratios from the layer replays. */
struct LayerReplays
{
    /** pq: GEntryRegistry resolve + RegisterUpdate, per update. */
    double pq_register_update_ns = 0.0;
    /** pq: DequeueClaim + TakeClaimedWrites + OnFlushed, per claim. */
    double pq_dequeue_claim_ns = 0.0;
    /** cache: TryGet (+ Put on a miss) per owned lookup, with hints. */
    double cache_lookup_ns = 0.0;
    double cache_replay_hit_ratio = 0.0;
    /** table: batch gather and single-gradient apply, per row. */
    double table_read_rows_ns_per_row = 0.0;
    double table_apply_ns_per_row = 0.0;
    /** data: Trace::BuildNextUseIndex over the whole trace (median of
     *  three builds). */
    double next_use_build_s = 0.0;
};

/** Runs every replay over the workload's trace. */
LayerReplays RunLayerReplays(const Workload &workload);

}  // namespace perfbench

#endif  // PERFBENCH_LAYER_REPLAYS_H_
