#include "runtime/frugal_engine.h"

#include <algorithm>
#include <barrier>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "common/cacheline.h"
#include "common/fault_injector.h"
#include "common/logging.h"
#include "common/memory_budget.h"
#include "common/part_claimer.h"
#include "common/retry.h"
#include "common/rng.h"
#include "common/spinlock.h"
#include "data/next_use.h"
#include "pq/g_entry_registry.h"
#include "pq/invariant_auditor.h"
#include "pq/pq_ops.h"
#include "pq/two_level_pq.h"
#include "runtime/watchdog.h"
#include "table/checkpoint.h"

namespace frugal {

namespace {

/**
 * Amortization quantum for the simulated UVA gather latency
 * (EngineConfig::host_gather_ns): per-row debt accumulates and is paid
 * as one sleep only once it exceeds this, because nanosleep overshoots
 * by a roughly constant ~60 µs per call — per-gather sleeps would model
 * timer granularity, not PCIe.
 */
constexpr std::uint64_t kGatherSleepQuantumNs = 100'000;

/**
 * Everything one trace GPU produced in one step: the step's
 * deduplicated key list plus one contiguous gradient buffer. Each trace
 * GPU owns one batch slot; the trainer executing it fills the slot
 * before the step barrier, and the trainers register the step's slots
 * right after it (see register_part). A trainer refills its slot only
 * after passing the next gate, which implies every part of the previous
 * step was registered, so a slot is never overwritten while read.
 */
struct UpdateBatch
{
    Step step = 0;
    GpuId src = 0;
    /** The step's deduplicated key list. Points into the Trace, which
     *  outlives the run; registration only reads it. */
    const std::vector<Key> *keys = nullptr;
    /** keys->size() × dim gradients; row i starts at i * dim. */
    std::vector<float> grads;
};

/**
 * Per-trainer hot-loop counters, folded into the shared atomics right
 * before each step-barrier arrival. The trainer loop previously bumped
 * shared atomics per key; with several trainers that is pure cache-line
 * ping-pong. CacheAligned keeps neighbouring trainers' slots off each
 * other's lines.
 */
struct TrainerLocalStats
{
    std::uint64_t host_reads = 0;
    std::uint64_t updates_emitted = 0;
    std::uint64_t gate_waits = 0;
};

/**
 * Flush-lag samples of one applying thread (registration-to-commit
 * seconds). One applied run in 16 is sampled: a steady_clock read plus a
 * log-bucket histogram insert per run is measurable against these
 * micro-second apply times.
 */
struct LagSampler
{
    Histogram hist{};
    std::size_t tick = 0;

    /** The histogram to record this run's lag in, or nullptr. */
    Histogram *
    Next()
    {
        return (tick++ & 0xf) == 0 ? &hist : nullptr;
    }
};

/**
 * One flush thread's crash-recovery slot. The *claim ledger* mirrors
 * the tickets the thread has dequeued but not yet flushed: claims are
 * invisible to the queue (that is the point of claiming), so without
 * the ledger a dying flush thread would take its in-flight work to the
 * grave and the gate would never open again. The watchdog reads `dead`
 * ledgers, reclaims their tickets, and respawns the thread.
 *
 * The slot lock guards only the ticket vector and is a designed leaf
 * (rank kRecoverySlot, below kGEntry): bookkeeping happens strictly
 * before or after a flush, never around it, so the watchdog can sample
 * ledgers without ever waiting on a wedged flush thread.
 */
struct FlusherSlot
{
    explicit FlusherSlot(std::size_t slot_index) : index(slot_index) {}

    const std::size_t index;
    Spinlock lock{LockRank::kRecoverySlot};
    std::vector<ClaimTicket> claimed FRUGAL_GUARDED_BY(lock);

    /** Drops one applied ticket from the ledger. */
    void
    ForgetLocked(const ClaimTicket &ticket) FRUGAL_REQUIRES(lock)
    {
        for (auto it = claimed.begin(); it != claimed.end(); ++it) {
            if (it->entry == ticket.entry &&
                it->priority == ticket.priority) {
                claimed.erase(it);
                return;
            }
        }
    }
    /** Set by the thread itself on injected death (definitive). */
    std::atomic<bool> dead{false};
    /** True while a dequeued batch is being processed. */
    std::atomic<bool> busy{false};
    /** Flush lag of runs this slot applied.
     *  tsa-exempt: written only by the slot's own thread; the engine
     *  merges it after joining every flusher. */
    LagSampler lag;
    // tsa-exempt: set before the thread starts, joined by the engine's
    // wind-down; never touched under `lock`.
    std::thread thread;
};

double
Seconds(std::chrono::steady_clock::time_point a,
        std::chrono::steady_clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

}  // namespace

RunReport
FrugalEngine::Run(const Trace &trace, const GradFn &grad_fn,
                  const StepHook &step_hook)
{
    const Step n_steps = trace.NumSteps();
    const std::uint32_t n_gpus = config_.n_gpus;
    FRUGAL_CHECK_MSG(trace.n_gpus() == n_gpus,
                     "trace built for " << trace.n_gpus()
                                        << " GPUs, engine has " << n_gpus);
    FRUGAL_CHECK_MSG(trace.key_space() <= config_.key_space,
                     "trace key space exceeds the table");

    FaultInjector *const injector = config_.fault_injector;
    if (injector != nullptr) {
        // Flush-thread deaths park claims in the slot ledgers; only the
        // watchdog reclaims those, so without it the run would hang.
        FRUGAL_CHECK_MSG(
            !injector->plan().HasRuleFor(FaultSite::kFlushThreadDeath) ||
                config_.watchdog,
            "flush-thread-death fault plans require the watchdog");
        FRUGAL_CHECK_MSG(
            !injector->plan().HasRuleFor(FaultSite::kTrainerDeath) ||
                n_gpus >= 2,
            "trainer-death fault plans require at least 2 GPUs");
    }

    // --- run-scoped shared state -------------------------------------
    TwoLevelPQConfig pq_config;
    pq_config.max_step = n_steps;  // priorities are read steps < S
    pq_config.n_shards = config_.pq_shards != 0
                             ? config_.pq_shards
                             : std::max<std::size_t>(1, config_.flush_threads);
    TwoLevelPQ queue(pq_config);

    GEntryRegistry registry(64, config_.key_space);
    if (injector != nullptr) {
        // Arm the container growth fault points (kAllocFailure). Plans
        // without a rule for that site see zero behaviour change.
        registry.ArmFaultInjector(injector);
    }
    std::vector<std::unique_ptr<GpuCache>> caches;
    for (std::uint32_t g = 0; g < n_gpus; ++g) {
        caches.push_back(std::make_unique<GpuCache>(
            config_.CacheRowsPerGpu(), config_.dim,
            config_.cache_options));
    }

    // --- the next-use oracle (DESIGN.md §13) --------------------------
    // The trace is fully materialized, so the future is known: build the
    // per-key next-use index once (one backward pass) and drive cache
    // warming, Belady-style eviction hints and dead-key reclamation
    // from it. All step values below are trace-local indices — exactly
    // the coordinates current_step and the prefetch frontier use.
    const bool oracular = config_.oracular_prefetch;
    NextUseIndex next_use;
    if (oracular) {
        next_use = trace.BuildNextUseIndex();
        for (auto &cache : caches)
            cache->SetEvictionHorizon(
                static_cast<Step>(config_.lookahead));
    }
    // Warming is the first mechanism shed under memory pressure — it is
    // pure opportunism (extra host gathers + cache inserts), so the
    // monitor turns it off at kElevated before narrowing the lookahead
    // window matters and long before caches shrink.
    std::atomic<bool> warming_enabled{oracular};

    std::atomic<Step> prefetch_frontier{0};  // steps with R sets in place
    std::atomic<Step> drained_steps{0};      // steps fully in g-entries
    std::atomic<Step> current_step{0};
    std::atomic<bool> drain_done{false};  // every step registered
    std::atomic<bool> run_complete{false};
    std::mutex gate_mutex;
    std::condition_variable gate_cv;
    auto nudge_gate = [&] {
        { std::lock_guard<std::mutex> lock(gate_mutex); }
        gate_cv.notify_all();
    };

    // Degraded-mode execution map: executor[g] is the trainer thread
    // currently executing trace GPU g's work (identity while healthy;
    // rewritten by the trainer-death recovery at a step boundary).
    std::vector<std::atomic<GpuId>> executor(n_gpus);
    std::vector<std::atomic<bool>> trainer_dead(n_gpus);
    for (std::uint32_t g = 0; g < n_gpus; ++g) {
        // relaxed: single-threaded setup before any thread is spawned.
        executor[g].store(static_cast<GpuId>(g),
                          std::memory_order_relaxed);
        trainer_dead[g].store(false, std::memory_order_relaxed);
    }

    RunReport report;
    report.engine = Name();
    report.steps = n_steps;
    report.n_gpus = n_gpus;
    std::atomic<std::uint64_t> host_reads{0};
    std::atomic<std::uint64_t> updates_emitted{0};
    std::atomic<std::uint64_t> updates_applied{0};
    std::atomic<std::uint64_t> entry_claims{0};
    std::atomic<std::uint64_t> audit_violations{0};
    std::atomic<std::uint64_t> gate_waits{0};
    std::atomic<std::uint64_t> write_retries{0};
    std::atomic<std::uint64_t> flusher_deaths{0};
    std::atomic<std::uint64_t> flusher_respawns{0};
    std::atomic<std::uint64_t> claims_reclaimed{0};
    // Degradation knobs, written by the pressure monitor and read on
    // the prefetch/flush paths. They start at the configured values and
    // only move on stage transitions.
    std::atomic<std::size_t> effective_lookahead{config_.lookahead};
    std::atomic<std::size_t> effective_flush_batch{config_.flush_batch};
    std::atomic<std::uint64_t> cache_rows_shed{0};
    std::atomic<std::uint64_t> late_warm_count{0};
    std::atomic<std::uint64_t> warms_shed_count{0};
    // Written only by the single-threaded barrier completion; read after
    // the trainer joins, which provide the happens-before edge.
    std::uint64_t trainer_death_count = 0;
    std::uint64_t ownership_remap_count = 0;
    std::uint64_t checkpoint_barriers = 0;
    std::uint64_t checkpoint_retry_count = 0;
    double checkpoint_pause_seconds = 0.0;
    double checkpoint_save_seconds = 0.0;

    // --- step registration (DESIGN.md §5) -----------------------------
    // A trace GPU's step output waits in its batch slot until the step
    // barrier; right after it, the live trainers register the step
    // themselves. The records are split into n_gpus fixed key-hash
    // parts claimed through `registration`, so an awake trainer takes
    // every part a peer still waking from the barrier has not reached.
    // Registering only after the barrier keeps R-set removal safe (§5
    // gap 2): every trainer has left step s by then.
    std::vector<UpdateBatch> batch_slots(n_gpus);
    PartClaimer registration(n_gpus);
    // Emitted-but-unregistered batches and their gradient bytes: the
    // watchdog's staging depth and the kQueue pressure gauge.
    std::atomic<std::size_t> pending_batches{0};
    std::atomic<std::size_t> pending_bytes{0};
    /**
     * Registers part `part` of step `s`: every record in the batch slots
     * whose key hashes to the part, in (key, src) order, so a key's W
     * records always *arrive* in canonical order — a flush may otherwise
     * split one step's records for a key across two takes and apply them
     * in registration order (§5 gap 4). A key belongs to exactly one
     * part and one thread registers a part, so the order holds across
     * parts. With n_gpus dividing the registry's 64 shards, a part also
     * covers whole registry shards, so concurrent parts never contend on
     * a shard lock.
     */
    auto register_part = [&](Step s, std::uint32_t part) {
        /** Row reference used to order the part's records. */
        struct RowRef
        {
            Key key;
            GpuId src;
            std::uint32_t row;
        };
        // Per-thread scratch: the capacity persists across steps, so
        // the steady state allocates nothing but the W records.
        thread_local std::vector<RowRef> order;
        thread_local std::vector<Key> unique_keys;
        thread_local std::vector<GEntry *> entries;
        const std::size_t dim = config_.dim;
        order.clear();
        for (std::uint32_t g = 0; g < n_gpus; ++g) {
            FRUGAL_DCHECK(batch_slots[g].step == s);
            const std::vector<Key> &keys = *batch_slots[g].keys;
            for (std::uint32_t r = 0; r < keys.size(); ++r) {
                if (MixHash64(keys[r]) % n_gpus != part)
                    continue;
                // alloc-ok: thread_local scratch; capacity amortizes
                // across steps.
                order.push_back(RowRef{keys[r], static_cast<GpuId>(g), r});
            }
        }
        std::sort(order.begin(), order.end(),
                  [](const RowRef &a, const RowRef &b) {
                      return a.key != b.key ? a.key < b.key : a.src < b.src;
                  });
        // Consecutive refs with equal keys hit the same g-entry; resolve
        // the part's sorted, unique key list in one batched registry
        // call — one shard lock per same-shard run instead of one per
        // key.
        unique_keys.clear();
        for (const RowRef &ref : order) {
            if (unique_keys.empty() || ref.key != unique_keys.back())
                // alloc-ok: thread_local scratch (see above).
                unique_keys.push_back(ref.key);
        }
        // alloc-ok: thread_local scratch (see above).
        entries.resize(unique_keys.size());
        // alloc-ok: g-entries are created once per key (arena growth);
        // the call's grouping scratch is thread_local.
        registry.GetOrCreateBatch(unique_keys, entries.data());
        // One stamp for the part's records: flush lag is measured from
        // here.
        const auto staged_at = std::chrono::steady_clock::now();
        std::size_t run = 0;
        for (const RowRef &ref : order) {
            if (ref.key != unique_keys[run])
                ++run;  // order and unique_keys sort identically
            const float *grad = batch_slots[ref.src].grads.data() +
                                static_cast<std::size_t>(ref.row) * dim;
            // alloc-ok: the W record owns a copy of its gradient row (the
            // slot is refilled next step) and the W set grows by one
            // record; both are freed or reused when the entry flushes.
            RegisterUpdate(queue, *entries[run],
                           WriteRecord{s, ref.src,
                                       std::vector<float>(grad, grad + dim),
                                       staged_at});
        }
    };
    /**
     * Claims and registers parts of step `s` until none is left. The
     * thread that finishes the last part publishes the step
     * (drained_steps), which satisfies gate condition (b) for s + 1.
     */
    auto register_step = [&](Step s) {
        for (std::uint32_t part = registration.Claim(); part < n_gpus;
             part = registration.Claim()) {
            register_part(s, part);
            if (!registration.Finish())
                continue;
            // Last part: read the slots' sizes before publishing, since
            // publishing lets the trainers refill them.
            std::size_t bytes = 0;
            for (const UpdateBatch &batch : batch_slots)
                bytes += batch.grads.size() * sizeof(float);
            // relaxed: gauges; the watchdog and the pressure monitor
            // tolerate skew.
            pending_bytes.fetch_sub(bytes, std::memory_order_relaxed);
            // relaxed: see above.
            pending_batches.fetch_sub(n_gpus, std::memory_order_relaxed);
            drained_steps.store(s + 1, std::memory_order_release);
            nudge_gate();
            if (auto stall_ms =
                    FaultPoint(injector, FaultSite::kStagingDrainStall,
                               static_cast<std::uint64_t>(s))) {
                FRUGAL_WARN("fault injection: step registration stalls "
                            << *stall_ms << " ms after step " << s);
                // The nap sits *after* the gate reopened: the peers run
                // step s + 1 and then wait at its barrier for this
                // trainer.
                // retry-exempt: injected stall, not a retry backoff.
                std::this_thread::sleep_for(std::chrono::milliseconds(
                    std::max<std::uint32_t>(*stall_ms, 1)));
            }
            return;
        }
    };

#if FRUGAL_DCHECK_ENABLED
    // The invariant auditor (§3.3 safety argument, machine-checked).
    // Disarmed for the async ablation: disable_gate_unsafe *exists* to
    // break the invariant, and its violations are reported through
    // report.audit_violations instead of a shutdown panic.
    InvariantAuditor auditor;
    const bool auditor_armed = !config_.disable_gate_unsafe;
#endif

    // End-of-step barrier; its completion runs single-threaded.
    std::barrier step_barrier(
        static_cast<std::ptrdiff_t>(n_gpus), [&]() noexcept {
            // relaxed: the completion callback is the only writer and
            // runs single-threaded between steps.
            const Step s = current_step.load(std::memory_order_relaxed);
            // Open step s's registration round: every trainer finished
            // claiming step s - 1's parts before it arrived here.
            registration.Reset();
            if (step_hook)
                step_hook(s);
#if FRUGAL_DCHECK_ENABLED
            if (auditor_armed)
                auditor.OnStepBoundary(s, queue);
#endif
            // --- consistent checkpoint barrier --------------------
            // All trainers are parked in the barrier, so no new updates
            // can be produced: register step s here (the trainers then
            // find no part left to claim), wait for the flushers to
            // apply everything, and the host table + optimizer state IS
            // the model as of the end of step s.
            if (config_.checkpoint_every_steps > 0 &&
                !config_.checkpoint_path.empty() &&
                static_cast<std::size_t>(s + 1) %
                        config_.checkpoint_every_steps ==
                    0) {
                const auto pause_start = std::chrono::steady_clock::now();
                register_step(s);
                auto quiescent = [&] {
                    return drained_steps.load(std::memory_order_acquire) >=
                               s + 1 &&
                           queue.SizeApprox() == 0 &&
                           // relaxed: trainers are parked in this
                           // barrier, so emitted is frozen; only
                           // applied needs to synchronize.
                           updates_applied.load(
                               std::memory_order_acquire) >=
                               updates_emitted.load(
                                   std::memory_order_relaxed);
                };
                {
                    std::unique_lock<std::mutex> lock(gate_mutex);
                    while (!quiescent()) {
                        gate_cv.wait_for(lock,
                                         std::chrono::milliseconds(1));
                    }
                }
                const auto save_start = std::chrono::steady_clock::now();
                CheckpointExtras extras;
                extras.optimizer_name = optimizer_->Name();
                extras.optimizer_state = optimizer_->ExportState();
                extras.next_step = config_.step_offset + s + 1;
                // Unified retry policy (common/retry.h): transient
                // checkpoint failures (injected I/O errors, torn
                // writes) get a few backed-off attempts before the
                // barrier gives up. The previous checkpoint survives
                // either way — the tmp-file + rename protocol never
                // touches it until a replacement is durable.
                RetryPolicy ckpt_policy;
                ckpt_policy.max_attempts = 3;
                ckpt_policy.initial_backoff =
                    std::chrono::microseconds(100);
                ckpt_policy.max_backoff = std::chrono::microseconds(2000);
                const RetryOutcome saved = RetryWithBackoff(
                    ckpt_policy, static_cast<std::uint64_t>(s), [&] {
                        if (SaveCheckpoint(*table_, extras,
                                           config_.checkpoint_path,
                                           injector)) {
                            return true;
                        }
                        ++checkpoint_retry_count;
                        return false;
                    });
                if (!saved.ok()) {
                    FRUGAL_WARN("checkpoint barrier after step "
                                << s << " failed to persist ("
                                << saved.attempts
                                << " attempts); training continues");
                }
                ++checkpoint_barriers;
                const auto save_end = std::chrono::steady_clock::now();
                checkpoint_pause_seconds += Seconds(pause_start,
                                                    save_start);
                checkpoint_save_seconds += Seconds(save_start, save_end);
            }
            // --- trainer death → degraded mode --------------------
            if (auto victim_payload =
                    FaultPoint(injector, FaultSite::kTrainerDeath,
                               static_cast<std::uint64_t>(s))) {
                const GpuId victim =
                    static_cast<GpuId>(*victim_payload % n_gpus);
                std::uint32_t live = 0;
                for (std::uint32_t i = 0; i < n_gpus; ++i) {
                    // relaxed: only this single-threaded callback
                    // writes the dead flags.
                    live += trainer_dead[i].load(std::memory_order_relaxed)
                                ? 0u
                                : 1u;
                }
                if (trainer_dead[victim].load(std::memory_order_relaxed)) {
                    FRUGAL_WARN("fault injection: trainer "
                                << victim << " is already dead; ignored");
                } else if (live < 2) {
                    FRUGAL_WARN("fault injection: refusing to kill the "
                                "last live trainer");
                } else {
                    GpuId successor = victim;
                    for (std::uint32_t c = 0; c < n_gpus; ++c) {
                        // relaxed: see the live count above.
                        if (static_cast<GpuId>(c) != victim &&
                            !trainer_dead[c].load(
                                std::memory_order_relaxed)) {
                            successor = static_cast<GpuId>(c);
                            break;
                        }
                    }
                    FRUGAL_WARN("fault injection: trainer "
                                << victim << " dies after step " << s
                                << "; degraded mode, successor "
                                << successor);
                    // Rewire execution and ownership before publishing
                    // the death: a trainer that observes its dead flag
                    // (acquire) must also observe the rewired map.
                    for (std::uint32_t g = 0; g < n_gpus; ++g) {
                        // relaxed: only this callback writes executor.
                        if (executor[g].load(std::memory_order_relaxed) ==
                            victim) {
                            executor[g].store(successor,
                                              std::memory_order_release);
                        }
                    }
                    // The victim's cache is dropped, not migrated: its
                    // rows are all committed (gate invariant), so the
                    // successor re-fills from host memory on demand.
                    caches[victim]->Clear();
                    ownership_remap_count +=
                        ownership_.Remap(victim, successor);
                    trainer_dead[victim].store(true,
                                               std::memory_order_release);
                    ++trainer_death_count;
                }
            }
            // --- dead-key reclamation + eviction-horizon advance ----
            // Step s is complete on every trainer, so a key whose last
            // reader is s will never be read again: drop its cached row
            // now (zero cost — the cache is write-through). A flush for
            // such a key may still be in flight, but its cache-refresh
            // side is harmless: UpdateIfPresent on the evicted key is a
            // no-op and the flush-side warm skips keys with no next use
            // inside the window.
            if (oracular) {
                for (const Key key : next_use.DeadAfter(s))
                    caches[ownership_.OwnerOf(key)]->EvictIfDead(key);
                const Step horizon =
                    s + 1 +
                    // relaxed: degradation knob; any recent value is
                    // acceptable for a scan-policy boundary.
                    static_cast<Step>(effective_lookahead.load(
                        std::memory_order_relaxed));
                for (auto &cache : caches)
                    cache->SetEvictionHorizon(horizon);
            }
            current_step.store(s + 1, std::memory_order_release);
            { std::lock_guard<std::mutex> lock(gate_mutex); }
            gate_cv.notify_all();
        });

    const auto run_start = std::chrono::steady_clock::now();

    // --- prefetch thread (the sample queue, §3.2) ---------------------
    std::thread prefetcher([&] {
        std::vector<GEntry *> resolved;
        // Warm scratch: the subset of a future step's keys owned by the
        // thread that will execute them, plus their hints.
        std::vector<Key> warm_keys;
        std::vector<Step> warm_hints;
        // Oracular warming for one registered step: gather the rows the
        // step will read from the host table in batches and insert them
        // cold into the owner GPU's cache (GpuCache::WarmBatch — stamped
        // two-phase, so a racing flush always wins). Runs strictly
        // *after* the frontier advance + gate nudge of its step: warming
        // is opportunistic and must never delay the gate.
        // Simulated-PCIe debt for warm gathers (see EngineConfig::
        // host_gather_ns): paid as sleeps, so on an oversubscribed host
        // the prefetcher yields instead of stealing trainer cycles —
        // the DMA-latency-hiding the warm path exists to model.
        std::uint64_t gather_debt_ns = 0;
        auto warm_step = [&](Step target) {
            for (std::uint32_t g = 0; g < n_gpus; ++g) {
                // Only keys the executing trainer owns are cacheable on
                // its GPU (non-owned keys use the zero-copy host path).
                const GpuId dst =
                    executor[g].load(std::memory_order_acquire);
                const std::vector<Key> &keys = trace.KeysFor(target, g);
                warm_keys.clear();
                warm_hints.clear();
                for (const Key key : keys) {
                    if (ownership_.OwnerOf(key) == dst) {
                        // alloc-ok: scratch capacity amortizes across
                        // steps; warming is off the critical path.
                        warm_keys.push_back(key);
                        // The row's next read *from now* is the target
                        // step itself; the trainer's hinted TryGet
                        // refreshes it to the post-target next use.
                        warm_hints.push_back(target);
                    }
                }
                if (warm_keys.empty())
                    continue;
                caches[dst]->WarmBatch(
                    warm_keys.data(), warm_hints.data(), warm_keys.size(),
                    [&](const Key *fill, std::size_t m, float *rows) {
                        table_->ReadRows(fill, m, rows);
                        gather_debt_ns +=
                            m * static_cast<std::uint64_t>(
                                    std::max(0, config_.host_gather_ns));
                    });
                if (gather_debt_ns >= kGatherSleepQuantumNs) {
                    // retry-exempt: simulated PCIe latency, not a retry
                    // backoff.
                    std::this_thread::sleep_for(
                        std::chrono::nanoseconds(gather_debt_ns));
                    gather_debt_ns = 0;
                }
            }
        };
        // Wake hysteresis: parking per advanced step costs one futex
        // round trip per training step. Sleep until a burst of headroom
        // (half the lookahead window) has opened, then register every
        // available step before re-parking — same RegisterRead stream,
        // a fraction of the wakeups. The burst tracks the *effective*
        // lookahead: under memory-pressure degradation the window can
        // shrink to 1, and a burst sized off the configured window
        // would then demand headroom that never opens (livelock).
        while (true) {
            // relaxed: only the prefetcher itself advances the frontier,
            // so its own prior store is always visible to it.
            Step frontier = prefetch_frontier.load(std::memory_order_relaxed);
            if (frontier >= n_steps)
                return;
            {
                std::unique_lock<std::mutex> lock(gate_mutex);
                auto can_prefetch = [&] {
                    // relaxed: degradation knob; any recent value is
                    // acceptable.
                    const Step eff =
                        static_cast<Step>(effective_lookahead.load(
                            std::memory_order_relaxed));
                    const Step limit = std::min<Step>(
                        n_steps,
                        current_step.load(std::memory_order_acquire) +
                            eff);
                    if (frontier >= limit)
                        return false;
                    // The final (partial) burst must not wait for
                    // headroom the run will never produce.
                    const Step burst = std::max<Step>(1, eff / 2);
                    return frontier + burst <= limit || limit >= n_steps;
                };
                // Timed re-check: recovery paths can lose a wakeup; the
                // deadline bounds any missed notify to one period.
                while (!gate_cv.wait_for(lock,
                                         std::chrono::milliseconds(50),
                                         can_prefetch)) {
                }
            }
            while (frontier < n_steps) {
                const Step limit = std::min<Step>(
                    n_steps,
                    current_step.load(std::memory_order_acquire) +
                        // relaxed: degradation knob (see above).
                        static_cast<Step>(effective_lookahead.load(
                            std::memory_order_relaxed)));
                if (frontier >= limit)
                    break;
                for (std::uint32_t g = 0; g < n_gpus; ++g) {
                    // Batched get-or-create: one registry shard-lock
                    // take per same-shard key run instead of one per
                    // key.
                    const std::vector<Key> &keys =
                        trace.KeysFor(frontier, g);
                    resolved.resize(keys.size());
                    registry.GetOrCreateBatch(keys, resolved.data());
                    for (GEntry *entry : resolved)
                        RegisterRead(queue, *entry, frontier);
                }
                const Step target = frontier;
                ++frontier;
                prefetch_frontier.store(frontier,
                                        std::memory_order_release);
                nudge_gate();
                // Oracular warm, after the gate nudge (see warm_step).
                // A step the trainers already reached is not worth
                // gathering for — the demand path is serving it now.
                // relaxed: degradation flag; a stale read warms (or
                // skips) one extra step, both harmless.
                if (oracular &&
                    warming_enabled.load(std::memory_order_relaxed)) {
                    if (current_step.load(std::memory_order_acquire) >=
                        target) {
                        // relaxed: monotonic stat counter.
                        late_warm_count.fetch_add(
                            1, std::memory_order_relaxed);
                    } else {
                        warm_step(target);
                    }
                }
            }
        }
    });

    // --- flush threads (§3.4 parallel flushing + recovery slots) ------
    auto await_host_write = [&](Key key) {
        // Transient host-write failures retry under the unified policy
        // (common/retry.h): bounded exponential backoff, 2 µs doubling
        // to a 1 ms cap — the same envelope the old hand-rolled loop
        // used. This runs under the g-entry lock, so a retry storm
        // delays only this parameter's flush.
        RetryPolicy policy;
        policy.max_attempts = config_.write_retry_limit + 1;
        policy.initial_backoff = std::chrono::microseconds(2);
        policy.max_backoff = std::chrono::microseconds(1000);
        const RetryOutcome outcome = RetryWithBackoff(
            policy, static_cast<std::uint64_t>(key), [&] {
                if (FaultPoint(injector, FaultSite::kHostWriteTransient,
                               static_cast<std::uint64_t>(key))) {
                    // relaxed: monotonic stat counter, read after joins.
                    write_retries.fetch_add(1, std::memory_order_relaxed);
                    return false;
                }
                return true;
            });
        FRUGAL_CHECK_MSG(outcome.ok(),
                         "host-table write for key "
                             << key << " still failing after "
                             << outcome.attempts
                             << " attempts; giving up (permanent "
                                "failure, not transient)");
    };
    auto refresh_cache = [&](Key key) {
        // "H2D": copy the committed row into the owner's cache. Also
        // runs on the watchdog thread when reclaiming abandoned claims,
        // hence the thread-local row buffer.
        thread_local std::vector<float> row;
        // alloc-ok: thread_local scratch; after the first call on each
        // thread this resize never reallocates (dim is run-constant).
        row.resize(config_.dim);
        const GpuId owner = ownership_.OwnerOf(key);
        table_->ReadRow(key, row.data());
        // Flush-side warm: the caller holds the g-entry lock and this
        // row is the freshly committed host value — if the key will be
        // read again inside the lookahead window, cache it even when it
        // was not resident (WarmOne update-or-cold-inserts). That turns
        // the mandatory coherence write into a free prefetch for keys
        // the prefetcher's batch warm skipped (they had pending writes
        // then). Fully shed with warming under memory pressure.
        // relaxed: degradation flag; a stale read warms one extra row.
        if (oracular && warming_enabled.load(std::memory_order_relaxed)) {
            const Step now =
                current_step.load(std::memory_order_acquire);
            const Step reuse = next_use.NextUseAfter(key, now);
            const Step window =
                now +
                // relaxed: degradation knob; any recent value works.
                static_cast<Step>(effective_lookahead.load(
                    std::memory_order_relaxed));
            if (reuse != NextUseIndex::kNever && reuse <= window) {
                caches[owner]->WarmOne(key, row.data(), reuse);
                return;
            }
        }
        caches[owner]->UpdateIfPresent(key, row.data());
    };

    std::vector<std::unique_ptr<FlusherSlot>> flusher_slots;
    for (std::size_t f = 0; f < config_.flush_threads; ++f)
        flusher_slots.push_back(std::make_unique<FlusherSlot>(f));

    /**
     * Injected death of the flush thread owning `slot`, checked before
     * each run of its claim batch: the thread vanishes with the
     * unflushed tail still in its ledger. The gate stays blocked
     * (in-flight counts unretired) until the watchdog reclaims them.
     */
    auto flusher_dies = [&](FlusherSlot &slot) -> bool {
        if (!FaultPoint(injector, FaultSite::kFlushThreadDeath, slot.index)
                 .has_value()) {
            return false;
        }
        std::size_t orphaned = 0;
        {
            SpinGuard guard(slot.lock);
            orphaned = slot.claimed.size();
        }
        FRUGAL_WARN("fault injection: flush thread "
                    << slot.index << " dies holding " << orphaned
                    << " claim(s)");
        // relaxed: monotonic stat counter, read after joins.
        flusher_deaths.fetch_add(1, std::memory_order_relaxed);
        slot.dead.store(true, std::memory_order_release);
        slot.busy.store(false, std::memory_order_release);
        nudge_gate();
        return true;
    };

    /**
     * Applies one claim batch. This is the only flush routine: the flush
     * threads, a gate-blocked trainer (cooperative flushing) and the
     * watchdog's reclaim of a dead flush thread's claims all call it.
     *
     * The batch is sorted by key, after the auditor saw it in dequeue
     * (priority) order, so tickets for the same entry form one contiguous
     * run. Each run is flushed once through FlushEntry (pq_ops.h): one
     * entry-lock hold, one batched ApplyGradients row-lock hold and one
     * owner-cache refresh. Then every ticket of the run is retired and the
     * applied count published. A second ticket for the same entry finds
     * the W set already taken and only retires its claim. The optimizer
     * applications are the per-record ones, in canonical order, so the
     * trained table is bit-identical whoever applies.
     *
     * `owner` is the applying flush thread's slot, or nullptr for a
     * trainer or the watchdog: its injected death may abandon the batch
     * before any run, and each applied run leaves its claim ledger.
     * `lag` (nullable) samples the flush lag.
     * @return false iff the owner died mid-batch.
     */
    auto apply_claims = [&](std::vector<ClaimTicket> &batch,
                            FlusherSlot *owner, LagSampler *lag) -> bool {
        std::sort(batch.begin(), batch.end(),
                  [](const ClaimTicket &a, const ClaimTicket &b) {
                      return a.entry->key() < b.entry->key();
                  });
        std::size_t i = 0;
        while (i < batch.size()) {
            std::size_t j = i + 1;
            while (j < batch.size() && batch[j].entry == batch[i].entry)
                ++j;
            if (owner != nullptr && flusher_dies(*owner))
                return false;
            if (config_.flush_delay_us > 0) {
                // Fault injection: a slow host-memory path, per ticket.
                // retry-exempt: injected delay.
                std::this_thread::sleep_for(std::chrono::microseconds(
                    config_.flush_delay_us * static_cast<long>(j - i)));
            }
            Histogram *const lag_hist =
                lag != nullptr ? lag->Next() : nullptr;
            const std::size_t applied = FlushEntry(
                queue, *batch[i].entry,
                [&](Key key, const std::vector<WriteRecord> &writes) {
                    // The per-record transient-fault sequence runs first;
                    // only the row writes themselves are batched after
                    // it.
                    // spin-block-ok: deliberate — the retry backoff
                    // sleeps under the g-entry lock so a write storm
                    // delays only this key (see await_host_write);
                    // contention on one entry's lock is rare.
                    for (std::size_t r = 0; r < writes.size(); ++r)
                        // spin-block-ok: see rationale above the loop.
                        await_host_write(key);
                    thread_local std::vector<const float *> grad_ptrs;
                    grad_ptrs.clear();
                    for (const WriteRecord &record : writes)
                        // alloc-ok: thread_local scratch; capacity
                        // amortizes across entry runs (clear() keeps
                        // it), so growth is one-time.
                        grad_ptrs.push_back(record.grad.data());
                    table_->ApplyGradients(key, grad_ptrs.data(),
                                           writes.size(), *optimizer_);
                    if (lag_hist != nullptr) {
                        lag_hist->Add(
                            Seconds(writes.front().staged,
                                    std::chrono::steady_clock::now()));
                    }
                },
                refresh_cache);
            for (std::size_t k = i; k < j; ++k)
                queue.OnFlushed(batch[k]);
            if (applied > 0) {
                // release: pairs with the checkpoint barrier's acquire
                // load. A reader observing applied == emitted must also
                // observe every row/optimizer write committed before the
                // increment.
                updates_applied.fetch_add(applied,
                                          std::memory_order_release);
            }
            if (owner != nullptr) {
                SpinGuard guard(owner->lock);
                for (std::size_t k = i; k < j; ++k)
                    owner->ForgetLocked(batch[k]);
            }
            i = j;
        }
        return true;
    };

    // The flusher body is a named function so the watchdog can respawn
    // a dead slot with the identical loop.
    std::function<void(FlusherSlot *)> flusher_body =
        [&](FlusherSlot *slot) {
            // Consecutive zero-claim passes before the backoff stops
            // yielding and naps between rescans.
            constexpr std::size_t kParkAfterEmptyClaims = 2;
            std::size_t empty_claims = 0;
            // Idle nap; doubles (capped) while the queue stays dry,
            // resets on a successful claim.
            std::chrono::microseconds idle_sleep{500};
            std::vector<ClaimTicket> claimed;
            while (true) {
                if (queue.SizeApprox() == 0) {
                    if (drain_done.load(std::memory_order_acquire))
                        return;
                    // Idle: flat self-wake, off the gate CV. A step
                    // registration's nudge_gate is a notify_all; four
                    // flushers parked on it would turn every step into a
                    // thundering herd whose losers wake, rescan and
                    // re-park. The gate-blocked trainer claims its own
                    // blockers (cooperative flush), so an idle flusher
                    // only needs to wake often enough to absorb
                    // later-step and deferred backlog.
                    // retry-exempt: idle self-wake, not a retry.
                    std::this_thread::sleep_for(idle_sleep);
                    idle_sleep = std::min(idle_sleep * 2,
                                          std::chrono::microseconds(4000));
                    continue;
                }
                // The scan floor relies on the gate's invariant that
                // nothing below the current step is pending; without the
                // gate (async ablation) stale priorities survive below
                // it, so the floor must stay at zero.
                const Step scan_floor =
                    config_.disable_gate_unsafe
                        ? 0
                        : current_step.load(std::memory_order_acquire);
                queue.SetScanBounds(
                    scan_floor,
                    prefetch_frontier.load(std::memory_order_acquire));
                claimed.clear();
                slot->busy.store(true, std::memory_order_release);
                if (queue.DequeueClaim(claimed,
                                       // relaxed: degradation knob
                                       // (coalescing width).
                                       effective_flush_batch.load(
                                           std::memory_order_relaxed),
                                       slot->index) == 0) {
                    // Entries exist but are momentarily unclaimable
                    // (mid-publish or taken by a peer); back off briefly.
                    slot->busy.store(false, std::memory_order_release);
                    // Two-stage backoff: yield while the pipeline is
                    // merely between batches, then a flat sleep after a
                    // streak of empty claims. Everything visible is in
                    // flight on a peer — or on a gate-blocked trainer,
                    // which self-claims in the cooperative-flush path and
                    // must not have to outrace a flusher for the work it
                    // is waiting on — so rescanning in-flight entries
                    // only burns timeslices the applying threads need.
                    if (++empty_claims < kParkAfterEmptyClaims) {
                        std::this_thread::yield();
                    } else {
                        // retry-exempt: contention backoff while peers
                        // hold the claims, not a retry.
                        std::this_thread::sleep_for(
                            std::chrono::microseconds(200));
                    }
                    continue;
                }
                empty_claims = 0;
                idle_sleep = std::chrono::microseconds{500};
#if FRUGAL_DCHECK_ENABLED
                if (auditor_armed)
                    auditor.OnClaimBatch(claimed, scan_floor);
#endif
                // relaxed: monotonic stat counter, read after joins.
                entry_claims.fetch_add(claimed.size(),
                                       std::memory_order_relaxed);
                // Publish the batch to the claim ledger *before*
                // flushing: from here on, death leaves a trail the
                // watchdog can reclaim.
                {
                    SpinGuard guard(slot->lock);
                    // alloc-ok: amortized append to the claim ledger;
                    // capacity persists for the flusher's lifetime.
                    slot->claimed.insert(slot->claimed.end(),
                                         claimed.begin(), claimed.end());
                }
                if (!apply_claims(claimed, slot, &slot->lag))
                    return;
                slot->busy.store(false, std::memory_order_release);
                nudge_gate();
            }
        };
    for (auto &slot : flusher_slots)
        slot->thread = std::thread(flusher_body, slot.get());

    // --- watchdog ------------------------------------------------------
    std::unique_ptr<Watchdog> watchdog;
    if (config_.watchdog) {
        Watchdog::Config wd_config;
        wd_config.poll = std::chrono::milliseconds(
            std::max(1, config_.watchdog_poll_ms));
        wd_config.stall_deadline = std::chrono::milliseconds(
            std::max(config_.watchdog_poll_ms, config_.watchdog_stall_ms));
        // Sampling reads atomics and leaf-ranked slot ledgers only —
        // never a lock of rank ≥ kGEntry (a wedged flush thread may
        // hold those; the diagnoser must not join it in the wedge).
        auto snapshot = [&]() {
            ProgressSnapshot snap;
            snap.current_step =
                current_step.load(std::memory_order_acquire);
            snap.drained_steps =
                drained_steps.load(std::memory_order_acquire);
            snap.prefetch_frontier =
                prefetch_frontier.load(std::memory_order_acquire);
            // relaxed: diagnostic snapshot; the two counters may be
            // mutually skewed, which Classify tolerates.
            snap.updates_emitted =
                updates_emitted.load(std::memory_order_relaxed);
            // relaxed: diagnostic snapshot (see above).
            snap.updates_applied =
                updates_applied.load(std::memory_order_relaxed);
            // relaxed: diagnostic snapshot (see above).
            snap.staging_size =
                pending_batches.load(std::memory_order_relaxed);
            snap.pq_size = queue.SizeApprox();
            for (const auto &slot : flusher_slots) {
                if (slot->dead.load(std::memory_order_acquire)) {
                    ++snap.dead_flushers;
                    SpinGuard guard(slot->lock);
                    snap.abandoned_claims += slot->claimed.size();
                }
            }
            snap.run_complete =
                run_complete.load(std::memory_order_acquire);
            return snap;
        };
        auto recover = [&](StallKind kind) -> bool {
            if (kind == StallKind::kEmptyQueueIdle ||
                kind == StallKind::kUnknown) {
                // Cheap, safe, idempotent: re-deliver a possibly lost
                // gate wakeup. Not counted as a recovery — if the nudge
                // fixes it, progress resumes and the stall clears.
                nudge_gate();
                return false;
            }
            if (kind != StallKind::kDeadFlusher)
                return false;
            bool acted = false;
            for (auto &slot : flusher_slots) {
                if (!slot->dead.load(std::memory_order_acquire))
                    continue;
                // The thread has already returned (it set `dead` on its
                // way out); join reaps it so the slot can be reused.
                if (slot->thread.joinable())
                    slot->thread.join();
                std::vector<ClaimTicket> abandoned;
                {
                    SpinGuard guard(slot->lock);
                    abandoned.swap(slot->claimed);
                }
                // Reclaim the abandoned tickets through the flushers'
                // own batch routine: apply their entries' pending writes
                // and retire the in-flight counts. If a live flusher
                // already took the writes through the zombie re-enqueue
                // path, the W set is empty and the run just retires the
                // claim — both outcomes keep the per-key canonical order,
                // because W records only ever leave an entry through a
                // sorted take.
                apply_claims(abandoned, nullptr, nullptr);
                // relaxed: monotonic stat counter, reporting only.
                claims_reclaimed.fetch_add(abandoned.size(),
                                           std::memory_order_relaxed);
                slot->dead.store(false, std::memory_order_release);
                slot->thread = std::thread(flusher_body, slot.get());
                // relaxed: monotonic stat counter, reporting only.
                flusher_respawns.fetch_add(1, std::memory_order_relaxed);
                FRUGAL_WARN("watchdog: respawned flush thread "
                            << slot->index << " after reclaiming "
                            << abandoned.size() << " claim(s)");
                acted = true;
            }
            if (acted)
                nudge_gate();
            return acted;
        };
        auto diagnose = [&]() -> std::string {
            std::ostringstream out;
            out << queue.DebugDump();
            // relaxed: diagnostic read; skew against the round is fine.
            out << pending_batches.load(std::memory_order_relaxed)
                << " batch(es) emitted but unregistered, registration "
                << registration.claimed() << "/" << registration.parts()
                << " part(s) claimed, " << registration.done()
                << " done, registered through step "
                << drained_steps.load(std::memory_order_acquire)
                << ", prefetch frontier "
                << prefetch_frontier.load(std::memory_order_acquire)
                << "\n";
            for (const auto &slot : flusher_slots) {
                std::size_t ledger = 0;
                {
                    SpinGuard guard(slot->lock);
                    ledger = slot->claimed.size();
                }
                out << "flusher " << slot->index << ": "
                    << (slot->dead.load(std::memory_order_acquire)
                            ? "DEAD"
                            : "alive")
                    << (slot->busy.load(std::memory_order_acquire)
                            ? " busy"
                            : " idle")
                    << ", " << ledger << " claim(s) in ledger\n";
            }
            if (config_.memory_budget != nullptr) {
                out << "memory pressure stage "
                    << PressureStageName(config_.memory_budget->stage())
                    << ", tracked "
                    << config_.memory_budget->TotalBytes() << " of "
                    << config_.memory_budget->budget_bytes()
                    << " budget bytes\n";
            }
            return out.str();
        };
        watchdog = std::make_unique<Watchdog>(
            wd_config, std::move(snapshot), std::move(recover),
            std::move(diagnose));
        watchdog->Start();
    }

    // --- memory-pressure monitor (DESIGN.md §12.2) ---------------------
    MemoryBudget *const budget = config_.memory_budget;
    std::atomic<bool> monitor_stop{false};
    std::thread pressure_monitor;
    if (budget != nullptr) {
        const std::size_t healthy_rows = config_.CacheRowsPerGpu();
        pressure_monitor = std::thread([&, healthy_rows] {
            const auto poll = std::chrono::milliseconds(
                std::max(1, config_.memory_poll_ms));
            PressureStage reacted = PressureStage::kNormal;
            while (!monitor_stop.load(std::memory_order_acquire)) {
                budget->Publish(MemoryComponent::kArena,
                                registry.ArenaBytes());
                budget->Publish(MemoryComponent::kFlatMap,
                                registry.IndexBytes());
                std::size_t cache_total = 0;
                for (const auto &cache : caches)
                    cache_total += cache->MemoryBytes();
                budget->Publish(MemoryComponent::kCache, cache_total);
                budget->Publish(MemoryComponent::kQueue,
                                // relaxed: gauge; skew tolerated.
                                pending_bytes.load(
                                    std::memory_order_relaxed));
                const PressureStage stage = budget->Evaluate();
                if (stage != reacted) {
                    // Staged reactions. Oracular warming is pure
                    // optimism (extra host gathers + cold-end inserts),
                    // so it is the FIRST mechanism shed — at elevated,
                    // before the prefetch window narrows and long
                    // before caches shrink. Elevated also sheds the
                    // prefetch window (fewer R sets in flight) and the
                    // flush coalescing width;
                    // critical additionally halves the GPU caches —
                    // safe at any moment because the cache is
                    // write-through, so eviction changes throughput,
                    // never table contents. Returning to normal
                    // restores every knob, including warming and the
                    // cache capacity.
                    std::size_t lookahead = config_.lookahead;
                    std::size_t flush_batch = config_.flush_batch;
                    std::size_t cache_rows = healthy_rows;
                    bool warm = oracular;
                    if (stage == PressureStage::kElevated) {
                        warm = false;
                        lookahead = std::max<std::size_t>(
                            1, config_.lookahead / 2);
                        flush_batch = 1;
                    } else if (stage == PressureStage::kCritical) {
                        warm = false;
                        lookahead = 1;
                        flush_batch = 1;
                        cache_rows =
                            std::max<std::size_t>(1, healthy_rows / 2);
                    }
                    // relaxed: degradation knobs; readers tolerate any
                    // recent value.
                    effective_lookahead.store(lookahead,
                                              std::memory_order_relaxed);
                    // relaxed: see above.
                    effective_flush_batch.store(
                        flush_batch, std::memory_order_relaxed);
                    // relaxed: see above.
                    if (warming_enabled.exchange(
                            warm, std::memory_order_relaxed) &&
                        !warm) {
                        // relaxed: monotonic stat counter.
                        warms_shed_count.fetch_add(
                            1, std::memory_order_relaxed);
                    }
                    std::uint64_t shed = 0;
                    for (const auto &cache : caches) {
                        if (cache->capacity() != cache_rows)
                            shed += cache->Resize(cache_rows);
                    }
                    if (shed > 0) {
                        // relaxed: monotonic stat counter.
                        cache_rows_shed.fetch_add(
                            shed, std::memory_order_relaxed);
                    }
                    FRUGAL_WARN("memory pressure: "
                                << PressureStageName(reacted) << " -> "
                                << PressureStageName(stage) << " ("
                                << budget->TotalBytes() << " of "
                                << budget->budget_bytes()
                                << " budget bytes; warming "
                                << (warm ? "on" : "shed")
                                << ", lookahead " << lookahead
                                << ", flush batch " << flush_batch
                                << ", " << shed
                                << " cache row(s) shed)");
                    reacted = stage;
                    // Satellite: every effective_lookahead change must
                    // nudge the gate CV — a prefetcher parked on a full
                    // window re-evaluates against the new bound.
                    nudge_gate();
                }
                // retry-exempt: monitor sampling period, not a retry
                // backoff.
                std::this_thread::sleep_for(poll);
            }
        });
    }

    // --- trainer threads ----------------------------------------------
    std::vector<std::thread> trainers;
    std::vector<double> stall_seconds(n_gpus, 0.0);
    std::vector<StatAccumulator> stall_stats(n_gpus);
    // Per-trainer counter slots, one cache line each; folded into the
    // shared atomics once per step (before the barrier) instead of one
    // shared fetch_add per key.
    std::vector<CacheAligned<TrainerLocalStats>> local_stats(n_gpus);
    // Per-trainer flush-lag histograms: cooperative-flush applies land
    // here (flusher slots hold their own); merged after the joins.
    std::vector<CacheAligned<LagSampler>> trainer_lag(n_gpus);
    for (std::uint32_t g = 0; g < n_gpus; ++g) {
        trainers.emplace_back([&, t = static_cast<GpuId>(g)] {
            const std::size_t dim = config_.dim;
            std::vector<float> values;
            std::vector<float> grads;
            std::vector<Key> miss_keys;
            std::vector<float *> miss_outs;
            std::vector<std::size_t> owned_miss;
            std::vector<Step> owned_hint;
            // Claim buffer for cooperative flushing at the gate.
            std::vector<ClaimTicket> assist;
            // Simulated-PCIe debt for demand gathers, amortized into
            // sleep quanta (EngineConfig::host_gather_ns).
            std::uint64_t gather_debt_ns = 0;
            TrainerLocalStats &local = *local_stats[t];
            for (Step s = 0; s < n_steps; ++s) {
                if (trainer_dead[t].load(std::memory_order_acquire)) {
                    // Injected death: leave the barrier for good. The
                    // early arrival completes this phase; later phases
                    // expect one fewer participant.
                    step_barrier.arrive_and_drop();
                    return;
                }
                // --- the P²F gate ---
                auto gate_open = [&] {
                    return prefetch_frontier.load(
                               std::memory_order_acquire) > s &&
                           drained_steps.load(std::memory_order_acquire) >=
                               s &&
                           (config_.disable_gate_unsafe ||
                            !queue.HasPendingAtOrBelow(s));
                };
                const auto wait_start = std::chrono::steady_clock::now();
                if (!gate_open()) {
                    ++local.gate_waits;
                    // Cooperative flushing: the gate is blocked until the
                    // pending entries at or below s are applied, so apply
                    // them *here* instead of parking and paying two
                    // context switches (wake a flusher, then get woken
                    // back) per step on the critical path. The claim
                    // protocol makes this safe — whoever wins the claim
                    // owns the flush — and apply_claims keeps the per-key
                    // order canonical no matter who applies. The trainer
                    // cannot die mid-assist (trainer death fires at step
                    // boundaries), so no claim ledger is needed.
                    // Fruitless passes before escalating from yield to a
                    // timed CV park.
                    constexpr std::size_t kAssistYields = 32;
                    std::size_t idle_passes = 0;
                    while (!gate_open()) {
                        const Step floor =
                            current_step.load(std::memory_order_acquire);
                        queue.SetScanBounds(
                            floor,
                            prefetch_frontier.load(std::memory_order_acquire));
                        assist.clear();
                        // Bounded claim: only the entries blocking *this*
                        // gate (priority <= s). Later-step and deferred
                        // entries stay enqueued so their writes keep
                        // coalescing for the flush threads.
                        if (queue.DequeueClaimBelow(
                                assist,
                                // relaxed: degradation knob.
                                effective_flush_batch.load(
                                    std::memory_order_relaxed),
                                t, s) == 0) {
                            // Nothing claimable: the gate waits on the
                            // prefetcher or a peer's step registration,
                            // or the work is in flight on a flusher.
                            // Yield first — on a machine with fewer cores
                            // than threads that hands the timeslice
                            // straight to whichever thread the gate is
                            // waiting for, without a futex round trip —
                            // and only park on the CV after a streak of
                            // fruitless passes.
                            if (++idle_passes < kAssistYields) {
                                std::this_thread::yield();
                            } else {
                                std::unique_lock<std::mutex> lock(
                                    gate_mutex);
                                gate_cv.wait_for(
                                    lock, std::chrono::microseconds(200),
                                    gate_open);
                            }
                            continue;
                        }
                        idle_passes = 0;
#if FRUGAL_DCHECK_ENABLED
                        if (auditor_armed)
                            auditor.OnClaimBatch(assist, floor);
#endif
                        // relaxed: monotonic stat counter.
                        entry_claims.fetch_add(assist.size(),
                                               std::memory_order_relaxed);
                        apply_claims(assist, nullptr, &*trainer_lag[t]);
                        nudge_gate();
                    }
                }
                const auto wait_end = std::chrono::steady_clock::now();
                const double stall = Seconds(wait_start, wait_end);
                stall_seconds[t] += stall;
                stall_stats[t].Add(stall);

                // Execute every trace GPU assigned to this thread —
                // just its own while healthy, plus a dead trainer's
                // share in degraded mode.
                for (std::uint32_t tg = 0; tg < n_gpus; ++tg) {
                    const GpuId trace_gpu = static_cast<GpuId>(tg);
                    if (executor[tg].load(std::memory_order_acquire) != t)
                        continue;

                    // --- gather (forward) ---
                    const std::vector<Key> &keys =
                        trace.KeysFor(s, trace_gpu);
                    values.resize(keys.size() * dim);
                    grads.assign(keys.size() * dim, 0.0f);
                    if (config_.audit_consistency || kDcheckEnabled) {
                        for (Key key : keys) {
                            GEntry &entry = registry.GetOrCreate(key);
                            SpinGuard guard(entry.lock());
                            // Invariant (2): no pending (unflushed)
                            // update from an earlier step may exist when
                            // we read.
                            if (entry.hasWritesLocked()) {
                                // relaxed: monotonic stat counter, read
                                // after joins.
                                audit_violations.fetch_add(
                                    1, std::memory_order_relaxed);
#if FRUGAL_DCHECK_ENABLED
                                if (auditor_armed)
                                    auditor.OnReadViolation(key, s);
#endif
                            }
                        }
                    }
                    // Split the key list into cache hits (copied by
                    // TryGet) and host reads, then gather all host rows
                    // in one batched scatter call. Cache by *executing*
                    // trainer: after a remap the successor owns the dead
                    // GPU's shard, so its cache serves those keys too.
                    miss_keys.clear();
                    miss_outs.clear();
                    owned_miss.clear();
                    owned_hint.clear();
                    // Oracular hint row: next_use[i] is key i's next
                    // reading step strictly after s (kNever if none) —
                    // each hinted TryGet/Put refreshes the slot's
                    // next-use field so Belady eviction stays current.
                    const Step *hints =
                        oracular ? next_use.HintRow(s, trace_gpu).data()
                                 : nullptr;
                    for (std::size_t i = 0; i < keys.size(); ++i) {
                        const Key key = keys[i];
                        float *out = values.data() + i * dim;
                        if (ownership_.OwnerOf(key) == t) {
                            const bool hit =
                                hints ? caches[t]->TryGet(key, out,
                                                          hints[i])
                                      : caches[t]->TryGet(key, out);
                            if (!hit) {
                                owned_miss.push_back(miss_keys.size());
                                owned_hint.push_back(
                                    hints ? hints[i]
                                          : GpuCache::kNoFutureUse);
                                miss_keys.push_back(key);
                                miss_outs.push_back(out);
                            }
                        } else {
                            // Non-owned: zero-copy UVA read of host
                            // memory.
                            miss_keys.push_back(key);
                            miss_outs.push_back(out);
                        }
                    }
                    if (!miss_keys.empty()) {
                        table_->ReadRows(miss_keys.data(),
                                         miss_keys.size(),
                                         miss_outs.data());
                        local.host_reads += miss_keys.size();
                        gather_debt_ns +=
                            miss_keys.size() *
                            static_cast<std::uint64_t>(
                                std::max(0, config_.host_gather_ns));
                        if (gather_debt_ns >= kGatherSleepQuantumNs) {
                            // retry-exempt: simulated PCIe latency,
                            // not a retry backoff.
                            std::this_thread::sleep_for(
                                std::chrono::nanoseconds(
                                    gather_debt_ns));
                            gather_debt_ns = 0;
                        }
                        for (std::size_t j = 0; j < owned_miss.size();
                             ++j) {
                            const std::size_t m = owned_miss[j];
                            if (hints)
                                caches[t]->Put(miss_keys[m],
                                               miss_outs[m],
                                               owned_hint[j]);
                            else
                                caches[t]->Put(miss_keys[m],
                                               miss_outs[m]);
                        }
                    }

                    // --- model (forward+backward) ---
                    grad_fn(trace_gpu, s, keys, values, &grads);

                    // --- emit into the trace GPU's batch slot ---
                    // The swap hands the trainer the slot's previous
                    // (already registered) buffer to refill next step,
                    // so the steady state never reallocates.
                    UpdateBatch &batch = batch_slots[trace_gpu];
                    batch.step = s;
                    batch.src = trace_gpu;
                    batch.keys = &keys;
                    batch.grads.swap(grads);
                    // relaxed: gauges; registration's decrement is
                    // ordered after this by the step barrier.
                    pending_bytes.fetch_add(
                        batch.grads.size() * sizeof(float),
                        std::memory_order_relaxed);
                    // relaxed: see above.
                    pending_batches.fetch_add(1, std::memory_order_relaxed);
                    local.updates_emitted += keys.size();
                }

                // Fold the step's local counters into the shared totals
                // *before* arriving: the checkpoint barrier's quiescence
                // check (in the barrier completion) compares applied
                // against emitted and must see this step's emissions.
                // relaxed: barrier arrival orders these against the
                // completion callback's reads.
                host_reads.fetch_add(local.host_reads,
                                     std::memory_order_relaxed);
                // relaxed: see above.
                updates_emitted.fetch_add(local.updates_emitted,
                                          std::memory_order_relaxed);
                // relaxed: see above.
                gate_waits.fetch_add(local.gate_waits,
                                     std::memory_order_relaxed);
                local = TrainerLocalStats{};

                step_barrier.arrive_and_wait();
                // Register step s: every trainer has left it now. A
                // trainer killed at this boundary claims nothing; the
                // survivors take its share (parts are keyed by hash,
                // not by trainer).
                if (!trainer_dead[t].load(std::memory_order_acquire))
                    register_step(s);
            }
        });
    }

    for (auto &t : trainers)
        t.join();
    // Every step is registered (each trainer registers after its last
    // barrier); let the pipeline wind down (paper: "the system waits for
    // flushing threads to write all deferred parameter updates to host
    // memory").
    drain_done.store(true, std::memory_order_release);
    // Wake any prefetcher parked on the gate CV so teardown never waits
    // out a full 50 ms timed re-check slice.
    nudge_gate();
    prefetcher.join();
    run_complete.store(true, std::memory_order_release);

    if (watchdog != nullptr) {
        // Recovery-aware wind-down: a flusher may die on the very last
        // batch, after drain_done. Wait until every slot is quiet and
        // all updates are applied — the watchdog keeps respawning dead
        // slots and reclaiming their claims meanwhile.
        while (true) {
            bool clean = drain_done.load(std::memory_order_acquire) &&
                         queue.SizeApprox() == 0;
            if (clean) {
                for (const auto &slot : flusher_slots) {
                    if (slot->dead.load(std::memory_order_acquire) ||
                        slot->busy.load(std::memory_order_acquire)) {
                        clean = false;
                        break;
                    }
                    SpinGuard guard(slot->lock);
                    if (!slot->claimed.empty()) {
                        clean = false;
                        break;
                    }
                }
            }
            // relaxed: trainers are already joined, emitted is final;
            // acquire on applied makes the flushed writes visible.
            if (clean &&
                updates_applied.load(std::memory_order_acquire) >=
                    updates_emitted.load(std::memory_order_relaxed)) {
                break;
            }
            // retry-exempt: wind-down poll, not a retry backoff.
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        // Stop before joining the slots so recovery can't touch a slot
        // thread concurrently with the join below.
        watchdog->Stop();
    }
    for (auto &slot : flusher_slots) {
        if (slot->thread.joinable())
            slot->thread.join();
    }
    monitor_stop.store(true, std::memory_order_release);
    if (pressure_monitor.joinable())
        pressure_monitor.join();

    const auto run_end = std::chrono::steady_clock::now();

    // --- report --------------------------------------------------------
    report.wall_seconds = Seconds(run_start, run_end);
    for (std::uint32_t g = 0; g < n_gpus; ++g) {
        const GpuCacheStats s = caches[g]->stats();
        report.cache.hits += s.hits;
        report.cache.misses += s.misses;
        report.cache.insertions += s.insertions;
        report.cache.evictions += s.evictions;
        report.cache.flush_writes += s.flush_writes;
        report.cache.warm_inserts += s.warm_inserts;
        report.cache.warm_hits += s.warm_hits;
        report.cache.dead_evictions += s.dead_evictions;
        report.cache.hot_hits += s.hot_hits;
        report.cache.cold_hits += s.cold_hits;
        report.cache.admission_declines += s.admission_declines;
        report.cache.promotions += s.promotions;
        report.cache.demotions += s.demotions;
        report.prefetch.rows_warmed += s.warm_inserts;
        report.prefetch.warm_hits += s.warm_hits;
        report.prefetch.dead_evictions += s.dead_evictions;
    }
    report.prefetch.late_warms = late_warm_count.load();
    report.prefetch.warms_shed = warms_shed_count.load();
    // Safe to read without the slot locks: every flusher thread is
    // joined above, which happens-after its last histogram write.
    for (const auto &slot : flusher_slots)
        report.flush_lag.Merge(slot->lag.hist);
    for (const auto &lag : trainer_lag)
        report.flush_lag.Merge(lag->hist);
    report.stall_per_step = stall_stats[0];
    for (double s : stall_seconds)
        report.stall_seconds_total += s;
    report.stall_seconds_total /= n_gpus;
    report.host_reads = host_reads.load();
    report.updates_emitted = updates_emitted.load();
    report.updates_applied = updates_applied.load();
    report.flush_entry_claims = entry_claims.load();
    report.audit_violations = audit_violations.load();
    report.gate_waits = gate_waits.load();
    report.recovery.faults_injected =
        injector != nullptr ? injector->total_fires() : 0;
    report.recovery.write_retries = write_retries.load();
    report.recovery.flusher_deaths = flusher_deaths.load();
    report.recovery.flusher_respawns = flusher_respawns.load();
    report.recovery.claims_reclaimed = claims_reclaimed.load();
    report.recovery.trainer_deaths = trainer_death_count;
    report.recovery.ownership_remaps = ownership_remap_count;
    report.recovery.checkpoint_barriers = checkpoint_barriers;
    report.recovery.checkpoint_retries = checkpoint_retry_count;
    report.recovery.checkpoint_pause_seconds = checkpoint_pause_seconds;
    report.recovery.checkpoint_save_seconds = checkpoint_save_seconds;
    if (watchdog != nullptr)
        watchdog->Harvest(&report.recovery);
    report.overload.cache_rows_shed = cache_rows_shed.load();
    if (budget != nullptr) {
        report.overload.pressure_transitions = budget->transitions();
        report.overload.peak_stage = budget->peak_stage();
        report.overload.peak_tracked_bytes = budget->peak_total_bytes();
        report.final_pressure_stage = budget->stage();
    }

    FRUGAL_CHECK_MSG(report.updates_applied == report.updates_emitted,
                     "flush pipeline lost updates: emitted "
                         << report.updates_emitted << ", applied "
                         << report.updates_applied);
    if (config_.audit_consistency) {
        // Post-run: every g-entry fully drained.
        registry.ForEach([&](GEntry &entry) {
            SpinGuard guard(entry.lock());
            FRUGAL_CHECK(!entry.hasWritesLocked());
            FRUGAL_CHECK(!entry.enqueuedLocked());
        });
    }
#if FRUGAL_DCHECK_ENABLED
    if (auditor_armed) {
        // Quiescent accounting: queue counters exactly drained, every
        // g-entry back to the (W = ∅, dequeued, priority = ∞) state.
        auditor.OnQuiescent(queue, registry);
        auditor.ExpectClean();
        FRUGAL_DEBUG("invariant auditor: " << auditor.checks()
                                           << " checks, 0 violations");
    }
#endif
    return report;
}

}  // namespace frugal
