/**
 * Recovery bench — the cost of the fault-tolerance layer, measured on
 * the REAL functional engine (not the simulator):
 *
 *  1. Checkpoint-barrier overhead vs interval: how much wall time the
 *     consistent barrier (drain + fsync'd save) adds per run, split
 *     into pipeline-pause and file-save components.
 *  2. Recovery under injected flush-thread deaths: control-loop detect +
 *     reclaim + respawn, and what the faults cost end to end while the
 *     result stays bit-identical to the fault-free run.
 *  3. Transient host-write failures: retry/backoff overhead at a given
 *     failure probability.
 */
#include <cstdio>
#include <string>

#include "common/distribution.h"
#include "common/fault_injector.h"
#include "common/rng.h"
#include "metrics/recovery_metrics.h"
#include "metrics/reporter.h"
#include "runtime/frugal_engine.h"
#include "runtime/microtask.h"
#include "runtime/oracle.h"

namespace {

using namespace frugal;

EngineConfig
BenchConfig()
{
    EngineConfig config;
    config.n_gpus = 4;
    config.dim = 16;
    config.key_space = 1 << 14;
    config.cache_ratio = 0.05;
    config.flush_threads = 4;
    config.control_poll_ms = 1;
    return config;
}

Trace
BenchTrace(std::uint64_t key_space, std::size_t steps)
{
    Rng rng(13);
    ZipfDistribution dist(key_space, 0.9);
    return Trace::Synthetic(dist, rng, steps, 4, 128);
}

}  // namespace

int
main()
{
    using namespace frugal;

    PrintBanner("Recovery bench",
                "fault-tolerance layer: checkpoint barriers, control-loop "
                "recovery, write retries");

    const EngineConfig base = BenchConfig();
    const Trace trace = BenchTrace(base.key_space, 200);
    const GradFn task = MakeLinearGradTask();
    const std::string ckpt_path = "/tmp/frugal_bench_recovery.ckpt";

    // --- 1. checkpoint-barrier overhead vs interval ------------------
    TablePrinter ckpt_table(
        "Checkpoint-barrier overhead (200 steps, 4 GPUs, 16k keys)",
        {"Interval", "Barriers", "Wall", "Pause", "Save", "Overhead"});
    double baseline_wall = 0.0;
    for (const std::size_t every : {std::size_t{0}, std::size_t{100},
                                    std::size_t{50}, std::size_t{25}}) {
        EngineConfig config = base;
        config.checkpoint_every_steps = every;
        config.checkpoint_path = ckpt_path;
        FrugalEngine engine(config);
        const RunReport report = engine.Run(trace, task);
        if (every == 0)
            baseline_wall = report.wall_seconds;
        const double overhead =
            baseline_wall > 0.0
                ? (report.wall_seconds - baseline_wall) / baseline_wall
                : 0.0;
        char overhead_str[32];
        std::snprintf(overhead_str, sizeof(overhead_str), "%+.1f%%",
                      overhead * 100.0);
        ckpt_table.AddRow(
            {every == 0 ? "never" : ("every " + std::to_string(every)),
             std::to_string(report.recovery.checkpoint_barriers),
             FormatSeconds(report.wall_seconds),
             FormatSeconds(report.recovery.checkpoint_pause_seconds),
             FormatSeconds(report.recovery.checkpoint_save_seconds),
             overhead_str});
    }
    ckpt_table.Print();
    std::remove(ckpt_path.c_str());

    // --- 2. control-loop recovery under flush-thread deaths ----------
    TablePrinter death_table(
        "Injected flush-thread deaths (control poll 1 ms)",
        {"Deaths", "Wall", "Respawns", "Claims reclaimed",
         "Recovery time", "Bit-equal"});
    FrugalEngine healthy(base);
    const RunReport healthy_report = healthy.Run(trace, task);
    death_table.AddRow({"0", FormatSeconds(healthy_report.wall_seconds),
                        "0", "0", FormatSeconds(0.0), "-"});
    for (const std::uint64_t deaths : {1, 4, 16}) {
        FaultPlan plan;
        FaultRule rule;
        rule.site = FaultSite::kFlushThreadDeath;
        // Spread the deaths across the run instead of burning them all
        // on the first tickets.
        rule.probability = 0.001;
        rule.until_hit = deaths * 1000;
        plan.rules.push_back(rule);
        FaultInjector injector(plan);
        EngineConfig config = base;
        config.fault_injector = &injector;
        FrugalEngine engine(config);
        const RunReport report = engine.Run(trace, task);
        const bool equal =
            TablesBitEqual(engine.table(), healthy.table());
        death_table.AddRow(
            {std::to_string(report.recovery.flusher_deaths),
             FormatSeconds(report.wall_seconds),
             std::to_string(report.recovery.flusher_respawns),
             std::to_string(report.recovery.claims_reclaimed),
             FormatSeconds(report.recovery.recovery_seconds),
             equal ? "yes" : "NO"});
        if (!equal) {
            std::printf("ERROR: recovered run diverged from the "
                        "fault-free table\n");
            return 1;
        }
        RecoveryTable(report.recovery,
                      "Recovery counters (" +
                          std::to_string(report.recovery.flusher_deaths) +
                          " deaths)")
            .Print();
    }
    death_table.Print();

    // --- 3. transient write failures: retry/backoff cost -------------
    TablePrinter retry_table(
        "Transient host-write failures (bounded exponential backoff)",
        {"P(fail)", "Retries", "Wall", "Slowdown"});
    for (const double p : {0.0, 0.001, 0.01, 0.05}) {
        FaultPlan plan;
        if (p > 0.0) {
            FaultRule rule;
            rule.site = FaultSite::kHostWriteTransient;
            rule.probability = p;
            plan.rules.push_back(rule);
        }
        FaultInjector injector(plan);
        EngineConfig config = base;
        config.fault_injector = p > 0.0 ? &injector : nullptr;
        FrugalEngine engine(config);
        const RunReport report = engine.Run(trace, task);
        const double slowdown =
            healthy_report.wall_seconds > 0.0
                ? report.wall_seconds / healthy_report.wall_seconds
                : 1.0;
        char prob[32];
        std::snprintf(prob, sizeof(prob), "%.3f", p);
        char factor[32];
        std::snprintf(factor, sizeof(factor), "%.2fx", slowdown);
        retry_table.AddRow(
            {prob, std::to_string(report.recovery.write_retries),
             FormatSeconds(report.wall_seconds), factor});
    }
    retry_table.Print();

    std::printf(
        "Consistent checkpoints cost one pipeline drain + fsync each; "
        "flush-thread deaths are absorbed by the control loop with no "
        "numerical effect; transient write failures cost retries, not "
        "correctness.\n");
    return 0;
}
