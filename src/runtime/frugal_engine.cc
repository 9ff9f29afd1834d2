#include "runtime/frugal_engine.h"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <semaphore>
#include <span>
#include <sstream>
#include <thread>
#include <vector>

#include "common/cacheline.h"
#include "common/logging.h"
#include "common/part_claimer.h"
#include "common/retry.h"
#include "common/rng.h"
#include "common/spinlock.h"
#include "data/next_use.h"
#include "pq/g_entry_registry.h"
#include "pq/invariant_auditor.h"
#include "pq/pq_ops.h"
#include "pq/two_level_pq.h"
#include "runtime/stall_detector.h"
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

/** Retries of one transiently failing host-table write before the flush
 *  treats the failure as permanent. */
constexpr int kHostWriteRetries = 12;

double
Seconds(std::chrono::steady_clock::time_point a,
        std::chrono::steady_clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/**
 * The P²F gate (§3.3) and the step progress it reads. Trainer t runs
 * step s once (a) step s - 1 is fully registered into the g-entries,
 * which put step s's reads in their R sets too, and (b) no update of a
 * step ≤ s is pending in the queue. Every progress change calls Nudge();
 * every wait is timed, so a lost wakeup costs one slice.
 */
class StepGate
{
  public:
    /** `check_queue` false drops condition (b): the async ablation. */
    StepGate(const TwoLevelPQ &queue, bool check_queue)
        : queue_(queue), check_queue_(check_queue)
    {
    }

    bool
    Open(Step s) const
    {
        return drained() >= s &&
               (!check_queue_ || !queue_.HasPendingAtOrBelow(s));
    }

    Step
    current() const
    {
        return current_step.load(std::memory_order_acquire);
    }
    Step
    drained() const
    {
        return drained_steps.load(std::memory_order_acquire);
    }
    bool
    complete() const
    {
        return run_complete.load(std::memory_order_acquire);
    }

    /** Wakes every gate waiter after a progress change. */
    void
    Nudge()
    {
        { std::lock_guard<std::mutex> lock(mutex_); }
        cv_.notify_all();
    }

    /** Waits up to `slice` for `pred` (checked under the gate mutex);
     *  returns its last value. */
    template <typename Rep, typename Period, typename Pred>
    bool
    WaitFor(const std::chrono::duration<Rep, Period> &slice, Pred pred)
    {
        std::unique_lock<std::mutex> lock(mutex_);
        return cv_.wait_for(lock, slice, pred);
    }

    /** Steps every trainer finished; written by the barrier completion. */
    std::atomic<Step> current_step{0};
    /** Steps fully registered into the g-entries. */
    std::atomic<Step> drained_steps{0};
    /** Every trainer returned, so every step is registered. */
    std::atomic<bool> run_complete{false};

  private:
    const TwoLevelPQ &queue_;
    const bool check_queue_;
    std::mutex mutex_;
    std::condition_variable cv_;
};

/** The run's monotonic counters; the report reads them after the joins. */
struct RunCounters
{
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
    std::atomic<std::uint64_t> cache_rows_shed{0};
    std::atomic<std::uint64_t> late_warms{0};
    std::atomic<std::uint64_t> warms_shed{0};
    // Written only by the single-threaded barrier completion; read after
    // the trainer joins, which provide the happens-before edge.
    std::uint64_t trainer_deaths = 0;
    std::uint64_t ownership_remaps = 0;
    std::uint64_t checkpoint_barriers = 0;
    std::uint64_t checkpoint_retries = 0;
    double checkpoint_pause_seconds = 0.0;
    double checkpoint_save_seconds = 0.0;

    void
    Fold(RunReport *report) const
    {
        report->host_reads = host_reads.load();
        report->updates_emitted = updates_emitted.load();
        report->updates_applied = updates_applied.load();
        report->flush_entry_claims = entry_claims.load();
        report->audit_violations = audit_violations.load();
        report->gate_waits = gate_waits.load();
        report->recovery.write_retries = write_retries.load();
        report->recovery.flusher_deaths = flusher_deaths.load();
        report->recovery.flusher_respawns = flusher_respawns.load();
        report->recovery.claims_reclaimed = claims_reclaimed.load();
        report->recovery.trainer_deaths = trainer_deaths;
        report->recovery.ownership_remaps = ownership_remaps;
        report->recovery.checkpoint_barriers = checkpoint_barriers;
        report->recovery.checkpoint_retries = checkpoint_retries;
        report->recovery.checkpoint_pause_seconds = checkpoint_pause_seconds;
        report->recovery.checkpoint_save_seconds = checkpoint_save_seconds;
        report->overload.cache_rows_shed = cache_rows_shed.load();
        report->prefetch.late_warms = late_warms.load();
        report->prefetch.warms_shed = warms_shed.load();
    }
};

/**
 * The knobs memory pressure moves (§12.2). They start at the configured
 * values and only ControlLoop writes them, on stage transitions; readers
 * take any recent value. Warming is never on without oracular prefetch.
 */
struct Degradation
{
    explicit Degradation(const EngineConfig &config)
        : lookahead(config.lookahead), flush_batch(config.flush_batch),
          warming(config.oracular_prefetch)
    {
    }

    Step
    Lookahead() const
    {
        // relaxed: degradation knob; any recent value is acceptable.
        return static_cast<Step>(lookahead.load(std::memory_order_relaxed));
    }
    std::size_t
    FlushBatch() const
    {
        // relaxed: degradation knob (coalescing width).
        return flush_batch.load(std::memory_order_relaxed);
    }
    bool
    Warming() const
    {
        // relaxed: a stale read warms (or skips) one extra step or row.
        return warming.load(std::memory_order_relaxed);
    }

    std::atomic<std::size_t> lookahead;
    std::atomic<std::size_t> flush_batch;
    std::atomic<bool> warming;
};

TwoLevelPQConfig
QueueConfig(const EngineConfig &config, Step n_steps)
{
    TwoLevelPQConfig pq_config;
    pq_config.max_step = n_steps;  // priorities are read steps < S
    pq_config.n_shards = config.pq_shards != 0
                             ? config.pq_shards
                             : std::max<std::size_t>(1, config.flush_threads);
    return pq_config;
}

/** What every component of one run reads: the engine's state, the
 *  run's queue, registry and caches, and the shared progress. */
struct RunContext
{
    RunContext(const EngineConfig &engine_config, const Trace &run_trace,
               HostEmbeddingTable &run_table, Optimizer &run_optimizer,
               KeyOwnership &run_ownership)
        : config(engine_config), trace(run_trace), table(run_table),
          optimizer(run_optimizer), ownership(run_ownership),
          injector(config.fault_injector), n_gpus(config.n_gpus),
          n_steps(trace.NumSteps()), oracular(config.oracular_prefetch),
          queue(QueueConfig(config, n_steps)),
          registry(64, config.key_space),
          gate(queue, !config.disable_gate_unsafe), degradation(config)
    {
        if (injector != nullptr) {
            // Arm the container growth fault points (kAllocFailure). Plans
            // without a rule for that site see zero behaviour change.
            registry.ArmFaultInjector(injector);
        }
        for (std::uint32_t g = 0; g < n_gpus; ++g) {
            caches.push_back(std::make_unique<GpuCache>(
                config.CacheRowsPerGpu(), config.dim, config.cache_options));
        }
        // --- the next-use oracle (DESIGN.md §13) ----------------------
        // The trace is fully materialized, so the future is known: build
        // the per-key next-use index once (one backward pass) and drive
        // cache warming, Belady-style eviction hints and dead-key
        // reclamation from it. All step values are trace-local indices —
        // exactly the coordinates current_step and the read range use.
        if (oracular) {
            next_use = trace.BuildNextUseIndex();
            for (auto &cache : caches)
                cache->SetEvictionHorizon(static_cast<Step>(config.lookahead));
        }
    }

    const EngineConfig &config;
    const Trace &trace;
    HostEmbeddingTable &table;
    Optimizer &optimizer;
    KeyOwnership &ownership;
    FaultInjector *const injector;
    const std::uint32_t n_gpus;
    const Step n_steps;
    const bool oracular;
    TwoLevelPQ queue;
    GEntryRegistry registry;
    std::vector<std::unique_ptr<GpuCache>> caches;
    NextUseIndex next_use;  // empty unless oracular
    StepGate gate;
    RunCounters counters;
    Degradation degradation;
#if FRUGAL_DCHECK_ENABLED
    // The invariant auditor (§3.3 safety argument, machine-checked).
    InvariantAuditor auditor;
    // Disarmed for the async ablation: disable_gate_unsafe *exists* to
    // break the invariant, and its violations are reported through
    // report.audit_violations instead of a shutdown panic.
    const bool auditor_armed = !config.disable_gate_unsafe;
#endif
};

struct LagSampler;
class FlushTier;

/**
 * Everything one trace GPU produced in one step: the step's
 * deduplicated key list plus one contiguous gradient buffer. Each trace
 * GPU owns one batch slot; the trainer executing it fills the slot
 * before the step barrier, and the trainers register the step's slots
 * right after it (see StepRegistration::RegisterPart). A trainer refills
 * its slot only after passing the next gate, which implies every part
 * of the previous step was registered, so a slot is never overwritten
 * while read.
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
 * Step registration (DESIGN.md §5). A trace GPU's step output waits in
 * its batch slot until the step barrier; right after it, the live
 * trainers register the step themselves. The records are split into
 * n_gpus fixed key-hash parts claimed through a PartClaimer, so an awake
 * trainer takes every part a peer still waking from the barrier has not
 * reached. Registering only after the barrier keeps R-set removal safe
 * (§5 gap 2): every trainer has left step s by then. An entry the next
 * step reads is flushed as it is registered, through the flush tier's
 * callbacks (§9). Each part first registers its keys' reads of the
 * steps that just entered the lookahead window (the sample queue, §3.2).
 */
class StepRegistration
{
  public:
    StepRegistration(RunContext &ctx, FlushTier &flush)
        : ctx_(ctx), flush_(flush), slots_(ctx.n_gpus), parts_(ctx.n_gpus)
    {
    }

    /** Hands trace GPU `src`'s output of step `s` to its batch slot. The
     *  swap gives the trainer the slot's previous (already registered)
     *  buffer to refill, so the steady state never reallocates. */
    void
    Emit(Step s, GpuId src, const std::vector<Key> &keys,
         std::vector<float> &grads)
    {
        UpdateBatch &batch = slots_[src];
        batch.step = s;
        batch.src = src;
        batch.keys = &keys;
        batch.grads.swap(grads);
        // relaxed: gauges; registration's decrement is ordered after this
        // by the step barrier.
        pending_bytes_.fetch_add(batch.grads.size() * sizeof(float),
                                 std::memory_order_relaxed);
        // relaxed: see above.
        pending_batches_.fetch_add(1, std::memory_order_relaxed);
    }

    /**
     * Claims and registers parts of step `s` until none is left. The
     * thread that finishes the last part publishes the step
     * (drained_steps), which satisfies gate condition (a) for s + 1.
     * `lag` (nullable) samples the flush lag of the entries it flushes.
     */
    void
    RegisterStep(Step s, LagSampler *lag)
    {
        for (std::uint32_t part = parts_.Claim(); part < ctx_.n_gpus;
             part = parts_.Claim()) {
            RegisterPart(s, part, lag);
            if (!parts_.Finish())
                continue;
            // Last part: read the slots' sizes before publishing, since
            // publishing lets the trainers refill them.
            std::size_t bytes = 0;
            for (const UpdateBatch &batch : slots_)
                bytes += batch.grads.size() * sizeof(float);
            // relaxed: gauges; the control loop tolerates skew.
            pending_bytes_.fetch_sub(bytes, std::memory_order_relaxed);
            // relaxed: see above.
            pending_batches_.fetch_sub(ctx_.n_gpus,
                                       std::memory_order_relaxed);
            ctx_.gate.drained_steps.store(s + 1, std::memory_order_release);
            ctx_.gate.Nudge();
            if (auto stall_ms =
                    FaultPoint(ctx_.injector, FaultSite::kStagingDrainStall,
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
    }

    /** Opens the next step's round (barrier completion only). */
    void Reset() { parts_.Reset(); }

    /** Sets the read range to the steps from the previous range's end
     *  up to `end` (exclusive); empty when the window shrank. Only the
     *  barrier completion and Run's setup call it, while no part is
     *  being registered. */
    void
    AdvanceReads(Step end)
    {
        reads_begin_ = reads_end_;
        reads_end_ = std::max(reads_end_, end);
    }
    Step reads_begin() const { return reads_begin_; }
    Step reads_end() const { return reads_end_; }

    /**
     * Registers the reads of part `part` for every step of the read
     * range, in step order, so each key's R set grows in step order.
     * A key belongs to one part, as for the writes.
     */
    void RegisterReads(std::uint32_t part);

    /** Emitted-but-unregistered batches: the stall snapshot's staging
     *  depth. */
    std::size_t
    pending_batches() const
    {
        // relaxed: gauge; skew tolerated.
        return pending_batches_.load(std::memory_order_relaxed);
    }
    /** Their gradient bytes: the kQueue pressure gauge. */
    std::size_t
    pending_bytes() const
    {
        // relaxed: gauge; skew tolerated.
        return pending_bytes_.load(std::memory_order_relaxed);
    }

    void
    Describe(std::ostream &out) const
    {
        out << pending_batches()
            << " batch(es) emitted but unregistered, registration "
            << parts_.claimed() << "/" << parts_.parts()
            << " part(s) claimed, " << parts_.done()
            << " done, registered through step " << ctx_.gate.drained()
            << "\n";
    }

  private:
    /**
     * Registers part `part` of step `s`: first its reads of the read
     * range (RegisterReads), so a step-s + 1 read is in the R set by the
     * time the writes ask whether their entry is due; then every record
     * in the batch slots whose key hashes to the part, in (key, src)
     * order, so a key's W records always *arrive* in canonical order — a
     * flush may otherwise split one step's records for a key across two
     * takes and apply them in registration order (§5 gap 4). A key belongs to exactly one part
     * and one thread registers a part, so the order holds across parts.
     * With n_gpus dividing the registry's 64 shards, a part also covers
     * whole registry shards, so concurrent parts never contend on a shard
     * lock.
     *
     * Each key's run of records is registered under one entry-lock hold
     * (RegisterUpdates). An entry that step s + 1 reads is due: it is
     * flushed right there rather than enqueued for a claim the very next
     * gate would wait on. Without the gate (the async ablation) nothing
     * is flushed here, so that mode keeps its stale reads.
     */
    void RegisterPart(Step s, std::uint32_t part, LagSampler *lag);

    RunContext &ctx_;
    FlushTier &flush_;
    std::vector<UpdateBatch> slots_;
    PartClaimer parts_;
    std::atomic<std::size_t> pending_batches_{0};
    std::atomic<std::size_t> pending_bytes_{0};
    Step reads_begin_ = 0;
    Step reads_end_ = 0;
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
 * grave and the gate would never open again. The control loop reads
 * `dead` ledgers, reclaims their tickets, and respawns the thread.
 *
 * The slot lock guards only the ticket vector and is a designed leaf
 * (rank kRecoverySlot, below kGEntry): bookkeeping happens strictly
 * before or after a flush, never around it, so the control loop can
 * sample ledgers without ever waiting on a wedged flush thread.
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

/** The flush threads (§3.4 parallel flushing) and their recovery
 *  slots. */
class FlushTier
{
  public:
    explicit FlushTier(RunContext &ctx) : ctx_(ctx)
    {
        for (std::size_t f = 0; f < ctx.config.flush_threads; ++f)
            slots_.push_back(std::make_unique<FlusherSlot>(f));
    }
    FlushTier(const FlushTier &) = delete;
    FlushTier &operator=(const FlushTier &) = delete;

    void
    Start()
    {
        for (auto &slot : slots_) {
            slot->thread =
                std::thread(&FlushTier::FlusherLoop, this, slot.get());
        }
    }

    /** Joins every flush thread; the control loop must be stopped. */
    void
    Join()
    {
        for (auto &slot : slots_) {
            if (slot->thread.joinable())
                slot->thread.join();
        }
    }

    /**
     * Applies one claim batch: the flush threads, a gate-blocked trainer
     * (cooperative flushing) and the control loop's reclaim of a dead
     * flush thread's claims all call it.
     *
     * The batch is sorted by key, after the auditor saw it in dequeue
     * (priority) order, so tickets for the same entry form one contiguous
     * run. Each run is flushed once through FlushEntry (pq_ops.h): one
     * entry-lock hold around the one flush body, with ApplyWrites and
     * RefreshCache as its callbacks. Then every ticket of the run is
     * retired and the applied count published. A second ticket for the
     * same entry finds the W set already applied and only retires its
     * claim.
     *
     * `owner` is the applying flush thread's slot, or nullptr for a
     * trainer or the control loop: its injected death may abandon the
     * batch before any run, and each applied run leaves its claim ledger.
     * `lag` (nullable) samples the flush lag.
     * @return false iff the owner died mid-batch.
     */
    bool
    ApplyClaims(std::vector<ClaimTicket> &batch, FlusherSlot *owner,
                LagSampler *lag)
    {
        std::sort(batch.begin(), batch.end(),
                  [](const ClaimTicket &a, const ClaimTicket &b) {
                      return a.entry->key() < b.entry->key();
                  });
        std::size_t i = 0;
        while (i < batch.size()) {
            std::size_t j = i + 1;
            while (j < batch.size() && batch[j].entry == batch[i].entry)
                ++j;
            if (owner != nullptr && Dies(*owner))
                return false;
            const std::size_t tickets = j - i;
            const std::size_t applied = FlushEntry(
                ctx_.queue, *batch[i].entry,
                [&](Key key, std::span<const WriteRecord> writes) {
                    ApplyWrites(key, writes, tickets, lag);
                },
                [this](Key key) { RefreshCache(key); });
            for (std::size_t k = i; k < j; ++k)
                ctx_.queue.OnFlushed(batch[k]);
            if (applied > 0) {
                // release: pairs with the checkpoint barrier's acquire
                // load. A reader observing applied == emitted must also
                // observe every row/optimizer write committed before the
                // increment.
                ctx_.counters.updates_applied.fetch_add(
                    applied, std::memory_order_release);
            }
            if (owner != nullptr) {
                SpinGuard guard(owner->lock);
                for (std::size_t k = i; k < j; ++k)
                    owner->ForgetLocked(batch[k]);
            }
            i = j;
        }
        return true;
    }

    /**
     * The engine's apply step of the one flush body (FlushEntryLocked),
     * run under the entry lock for a claim run and for an entry flushed
     * at registration alike: the per-record transient-fault sequence, the
     * injected kFlushDelay (µs per claim ticket the flush retires; a
     * flush at registration counts as one), one batched ApplyGradients
     * in the canonical order of `writes`, and a flush-lag sample into
     * `lag` (nullable).
     */
    void
    ApplyWrites(Key key, std::span<const WriteRecord> writes,
                std::size_t tickets, LagSampler *lag)
    {
        // spin-block-ok: deliberate — the retry backoff sleeps under the
        // g-entry lock so a write storm delays only this key (see
        // AwaitHostWrite); contention on one entry's lock is rare.
        for (std::size_t r = 0; r < writes.size(); ++r)
            // spin-block-ok: see rationale above the loop.
            AwaitHostWrite(key);
        if (auto delay_us =
                FaultPoint(ctx_.injector, FaultSite::kFlushDelay, key)) {
            // spin-block-ok: a slow host-memory path holds the entry
            // lock as long as the apply it slows down.
            // retry-exempt: injected delay.
            std::this_thread::sleep_for(std::chrono::microseconds(*delay_us) *
                                        tickets);
        }
        thread_local std::vector<const float *> grad_ptrs;
        grad_ptrs.clear();
        for (const WriteRecord &record : writes)
            // alloc-ok: thread_local scratch; capacity amortizes across
            // flushes (clear() keeps it), so growth is one-time.
            grad_ptrs.push_back(record.grad.data());
        ctx_.table.ApplyGradients(key, grad_ptrs.data(), writes.size(),
                                  ctx_.optimizer);
        if (Histogram *hist = lag != nullptr ? lag->Next() : nullptr) {
            hist->Add(Seconds(writes.front().staged,
                              std::chrono::steady_clock::now()));
        }
    }

    /** The post hook of the one flush body. */
    void
    RefreshCache(Key key)
    {
        // "H2D": copy the committed row into the owner's cache. Also runs
        // on the control thread when reclaiming abandoned claims, hence
        // the thread-local row buffer.
        thread_local std::vector<float> row;
        // alloc-ok: thread_local scratch; after the first call on each
        // thread this resize never reallocates (dim is run-constant).
        row.resize(ctx_.config.dim);
        const GpuId owner = ctx_.ownership.OwnerOf(key);
        ctx_.table.ReadRow(key, row.data());
        // Flush-side warm: the caller holds the g-entry lock and this row
        // is the freshly committed host value — if the key will be read
        // again inside the lookahead window, cache it even when it was
        // not resident (WarmOne update-or-cold-inserts). That turns the
        // mandatory coherence write into a free prefetch for keys the
        // trainers' batch warm skipped (they had pending writes then).
        // Fully shed with warming under memory pressure.
        if (ctx_.degradation.Warming()) {
            const Step now = ctx_.gate.current();
            const Step reuse = ctx_.next_use.NextUseAfter(key, now);
            if (reuse != NextUseIndex::kNever &&
                reuse <= now + ctx_.degradation.Lookahead()) {
                ctx_.caches[owner]->WarmOne(key, row.data(), reuse);
                return;
            }
        }
        ctx_.caches[owner]->UpdateIfPresent(key, row.data());
    }

    /** Reclaims every dead slot's abandoned claims and respawns its
     *  thread; true iff any slot was dead. */
    bool
    ReclaimDead()
    {
        bool acted = false;
        for (auto &slot : slots_) {
            if (!slot->dead.load(std::memory_order_acquire))
                continue;
            // The thread has already returned (it set `dead` on its way
            // out); join reaps it so the slot can be reused.
            if (slot->thread.joinable())
                slot->thread.join();
            std::vector<ClaimTicket> abandoned;
            {
                SpinGuard guard(slot->lock);
                abandoned.swap(slot->claimed);
            }
            // Reclaim the abandoned tickets through the flushers' own
            // batch routine: apply their entries' pending writes and
            // retire the in-flight counts. If a live flusher already took
            // the writes through the zombie re-enqueue path, the W set is
            // empty and the run just retires the claim — both outcomes
            // keep the per-key canonical order, because W records only
            // ever leave an entry through a sorted take.
            ApplyClaims(abandoned, nullptr, nullptr);
            // relaxed: monotonic stat counter, reporting only.
            ctx_.counters.claims_reclaimed.fetch_add(
                abandoned.size(), std::memory_order_relaxed);
            slot->dead.store(false, std::memory_order_release);
            slot->thread =
                std::thread(&FlushTier::FlusherLoop, this, slot.get());
            // relaxed: monotonic stat counter, reporting only.
            ctx_.counters.flusher_respawns.fetch_add(
                1, std::memory_order_relaxed);
            FRUGAL_WARN("control loop: respawned flush thread "
                        << slot->index << " after reclaiming "
                        << abandoned.size() << " claim(s)");
            acted = true;
        }
        if (acted)
            ctx_.gate.Nudge();
        return acted;
    }

    /** The wind-down condition: every update applied, and no slot dead,
     *  busy or holding claims. */
    bool
    Quiet() const
    {
        if (!ctx_.gate.complete() || ctx_.queue.SizeApprox() != 0)
            return false;
        for (const auto &slot : slots_) {
            if (slot->dead.load(std::memory_order_acquire) ||
                slot->busy.load(std::memory_order_acquire)) {
                return false;
            }
            SpinGuard guard(slot->lock);
            if (!slot->claimed.empty())
                return false;
        }
        // relaxed: trainers are already joined, emitted is final; acquire
        // on applied makes the flushed writes visible.
        return ctx_.counters.updates_applied.load(
                   std::memory_order_acquire) >=
               ctx_.counters.updates_emitted.load(std::memory_order_relaxed);
    }

    /** Adds the dead slots to a stall snapshot (atomics and leaf-ranked
     *  ledgers only). */
    void
    Sample(ProgressSnapshot *snap) const
    {
        for (const auto &slot : slots_) {
            if (slot->dead.load(std::memory_order_acquire)) {
                ++snap->dead_flushers;
                SpinGuard guard(slot->lock);
                snap->abandoned_claims += slot->claimed.size();
            }
        }
    }

    void
    Describe(std::ostream &out) const
    {
        for (const auto &slot : slots_) {
            std::size_t ledger = 0;
            {
                SpinGuard guard(slot->lock);
                ledger = slot->claimed.size();
            }
            out << "flusher " << slot->index << ": "
                << (slot->dead.load(std::memory_order_acquire) ? "DEAD"
                                                                : "alive")
                << (slot->busy.load(std::memory_order_acquire) ? " busy"
                                                                : " idle")
                << ", " << ledger << " claim(s) in ledger\n";
        }
    }

    /** Merges the slots' flush-lag samples; every flusher is joined,
     *  which happens-after its last histogram write. */
    void
    MergeLag(Histogram *out) const
    {
        for (const auto &slot : slots_)
            out->Merge(slot->lag.hist);
    }

  private:
    /** One flush thread; returns at wind-down or on injected death. */
    void
    FlusherLoop(FlusherSlot *slot)
    {
        // Consecutive zero-claim passes before the backoff stops yielding
        // and naps between rescans.
        constexpr std::size_t kParkAfterEmptyClaims = 2;
        std::size_t empty_claims = 0;
        // Idle nap; doubles (capped) while the queue stays dry, resets on
        // a successful claim.
        std::chrono::microseconds idle_sleep{500};
        std::vector<ClaimTicket> claimed;
        TwoLevelPQ &queue = ctx_.queue;
        while (true) {
            if (queue.SizeApprox() == 0) {
                if (ctx_.gate.complete())
                    return;
                // Idle: flat self-wake, off the gate CV. A step
                // registration's Nudge is a notify_all; four flushers
                // parked on it would turn every step into a thundering
                // herd whose losers wake, rescan and re-park. The
                // gate-blocked trainer claims its own blockers
                // (cooperative flush), so an idle flusher only needs to
                // wake often enough to absorb later-step and deferred
                // backlog.
                // retry-exempt: idle self-wake, not a retry.
                std::this_thread::sleep_for(idle_sleep);
                idle_sleep = std::min(idle_sleep * 2,
                                      std::chrono::microseconds(4000));
                continue;
            }
            claimed.clear();
            slot->busy.store(true, std::memory_order_release);
            if (queue.DequeueClaim(claimed, ctx_.degradation.FlushBatch(),
                                   slot->index) == 0) {
                // Entries exist but are momentarily unclaimable
                // (mid-publish or taken by a peer); back off briefly.
                slot->busy.store(false, std::memory_order_release);
                // Two-stage backoff: yield while the pipeline is merely
                // between batches, then a flat sleep after a streak of
                // empty claims. Everything visible is in flight on a peer
                // — or on a gate-blocked trainer, which self-claims in the
                // cooperative-flush path and must not have to outrace a
                // flusher for the work it is waiting on — so rescanning
                // in-flight entries only burns timeslices the applying
                // threads need.
                if (++empty_claims < kParkAfterEmptyClaims) {
                    std::this_thread::yield();
                } else {
                    // retry-exempt: contention backoff while peers hold
                    // the claims, not a retry.
                    std::this_thread::sleep_for(
                        std::chrono::microseconds(200));
                }
                continue;
            }
            empty_claims = 0;
            idle_sleep = std::chrono::microseconds{500};
#if FRUGAL_DCHECK_ENABLED
            // The gate admitted every step below the current one, and a
            // held claim keeps its own step's gate closed, so no claim may
            // carry a finite priority below the current step.
            if (ctx_.auditor_armed)
                ctx_.auditor.OnClaimBatch(claimed, ctx_.gate.current());
#endif
            // relaxed: monotonic stat counter, read after joins.
            ctx_.counters.entry_claims.fetch_add(claimed.size(),
                                                 std::memory_order_relaxed);
            // Publish the batch to the claim ledger *before* flushing:
            // from here on, death leaves a trail the control loop can
            // reclaim.
            {
                SpinGuard guard(slot->lock);
                // alloc-ok: amortized append to the claim ledger;
                // capacity persists for the flusher's lifetime.
                slot->claimed.insert(slot->claimed.end(), claimed.begin(),
                                     claimed.end());
            }
            if (!ApplyClaims(claimed, slot, &slot->lag))
                return;
            slot->busy.store(false, std::memory_order_release);
            ctx_.gate.Nudge();
        }
    }

    /**
     * Injected death of the flush thread owning `slot`, checked before
     * each run of its claim batch: the thread vanishes with the unflushed
     * tail still in its ledger. The gate stays blocked (in-flight counts
     * unretired) until the control loop reclaims them.
     */
    bool
    Dies(FlusherSlot &slot)
    {
        if (!FaultPoint(ctx_.injector, FaultSite::kFlushThreadDeath,
                        slot.index)
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
        ctx_.counters.flusher_deaths.fetch_add(1, std::memory_order_relaxed);
        slot.dead.store(true, std::memory_order_release);
        slot.busy.store(false, std::memory_order_release);
        ctx_.gate.Nudge();
        return true;
    }

    void
    AwaitHostWrite(Key key)
    {
        // Transient host-write failures retry under the unified policy
        // (common/retry.h): bounded exponential backoff, 2 µs doubling to
        // a 1 ms cap. This runs under the g-entry lock, so a retry storm
        // delays only this parameter's flush.
        RetryPolicy policy;
        policy.max_attempts = kHostWriteRetries + 1;
        policy.initial_backoff = std::chrono::microseconds(2);
        policy.max_backoff = std::chrono::microseconds(1000);
        const RetryOutcome outcome = RetryWithBackoff(
            policy, static_cast<std::uint64_t>(key), [&] {
                if (FaultPoint(ctx_.injector,
                               FaultSite::kHostWriteTransient,
                               static_cast<std::uint64_t>(key))) {
                    // relaxed: monotonic stat counter, read after joins.
                    ctx_.counters.write_retries.fetch_add(
                        1, std::memory_order_relaxed);
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
    }

    RunContext &ctx_;
    std::vector<std::unique_ptr<FlusherSlot>> slots_;
};

void
StepRegistration::RegisterReads(std::uint32_t part)
{
    // Per-thread scratch: the capacity persists across steps, so the
    // steady state allocates nothing.
    thread_local std::vector<Key> keys;
    thread_local std::vector<GEntry *> entries;
    const std::uint32_t n_gpus = ctx_.n_gpus;
    for (Step t = reads_begin_; t < reads_end_; ++t) {
        keys.clear();
        for (std::uint32_t g = 0; g < n_gpus; ++g) {
            for (const Key key : ctx_.trace.KeysFor(t, g)) {
                if (MixHash64(key) % n_gpus == part)
                    // alloc-ok: thread_local scratch; capacity amortizes
                    // across steps.
                    keys.push_back(key);
            }
        }
        // alloc-ok: thread_local scratch (see above).
        entries.resize(keys.size());
        // alloc-ok: g-entries are created once per key (arena growth);
        // the call's grouping scratch is thread_local.
        ctx_.registry.GetOrCreateBatch(keys, entries.data());
        for (GEntry *entry : entries)
            RegisterRead(ctx_.queue, *entry, t);
    }
}

void
StepRegistration::RegisterPart(Step s, std::uint32_t part, LagSampler *lag)
{
    RegisterReads(part);
    // Per-thread scratch: the capacity persists across steps, so the
    // steady state allocates nothing.
    thread_local std::vector<UpdateRow> rows;
    thread_local std::vector<Key> unique_keys;
    thread_local std::vector<GEntry *> entries;
    const std::uint32_t n_gpus = ctx_.n_gpus;
    const std::size_t dim = ctx_.config.dim;
    rows.clear();
    for (std::uint32_t g = 0; g < n_gpus; ++g) {
        FRUGAL_DCHECK(slots_[g].step == s);
        const std::vector<Key> &keys = *slots_[g].keys;
        const float *grads = slots_[g].grads.data();
        for (std::size_t r = 0; r < keys.size(); ++r) {
            if (MixHash64(keys[r]) % n_gpus != part)
                continue;
            // alloc-ok: thread_local scratch; capacity amortizes
            // across steps.
            rows.push_back(UpdateRow{keys[r], static_cast<GpuId>(g),
                                     grads + r * dim});
        }
    }
    std::sort(rows.begin(), rows.end(),
              [](const UpdateRow &a, const UpdateRow &b) {
                  return a.key != b.key ? a.key < b.key : a.src < b.src;
              });
    // Consecutive rows with equal keys hit the same g-entry; resolve
    // the part's sorted, unique key list in one batched registry call
    // — one shard lock per same-shard run instead of one per key.
    unique_keys.clear();
    for (const UpdateRow &row : rows) {
        if (unique_keys.empty() || row.key != unique_keys.back())
            // alloc-ok: thread_local scratch (see above).
            unique_keys.push_back(row.key);
    }
    // alloc-ok: thread_local scratch (see above).
    entries.resize(unique_keys.size());
    // alloc-ok: g-entries are created once per key (arena growth);
    // the call's grouping scratch is thread_local.
    ctx_.registry.GetOrCreateBatch(unique_keys, entries.data());
    // One stamp for the part's records: flush lag is measured from
    // here.
    const auto staged_at = std::chrono::steady_clock::now();
    const bool flush_due = !ctx_.config.disable_gate_unsafe;
    std::size_t applied = 0;
    std::size_t begin = 0;
    for (GEntry *entry : entries) {
        std::size_t end = begin + 1;
        while (end < rows.size() && rows[end].key == rows[begin].key)
            ++end;
        applied += RegisterUpdates(
            ctx_.queue, *entry, s,
            std::span<const UpdateRow>(rows.data() + begin, end - begin),
            dim, staged_at, flush_due,
            [&](Key key, std::span<const WriteRecord> writes) {
                flush_.ApplyWrites(key, writes, 1, lag);
            },
            [this](Key key) { flush_.RefreshCache(key); });
        begin = end;
    }
    if (applied > 0) {
        // release: as in FlushTier::ApplyClaims — pairs with the
        // checkpoint barrier's acquire load.
        ctx_.counters.updates_applied.fetch_add(
            applied, std::memory_order_release);
    }
}

/**
 * The step-barrier completion, run single-threaded while every live
 * trainer is parked: the next registration round and its read range, the
 * checkpoint barrier, trainer death with the degraded-mode remap, and
 * dead-key reclamation. It owns the execution map the trainers read.
 */
class StepBoundary
{
  public:
    /** `first_step` is the global step of the trace's first step. */
    StepBoundary(RunContext &ctx, StepRegistration &registration,
                 const StepHook &step_hook, Step first_step)
        : ctx_(ctx), registration_(registration), step_hook_(step_hook),
          first_step_(first_step), executor_(ctx.n_gpus), dead_(ctx.n_gpus)
    {
        for (std::uint32_t g = 0; g < ctx.n_gpus; ++g) {
            // relaxed: single-threaded setup before any thread is spawned.
            executor_[g].store(static_cast<GpuId>(g),
                               std::memory_order_relaxed);
            // relaxed: see above.
            dead_[g].store(false, std::memory_order_relaxed);
        }
    }
    StepBoundary(const StepBoundary &) = delete;
    StepBoundary &operator=(const StepBoundary &) = delete;

    /** The trainer executing trace GPU `g`'s work: identity while
     *  healthy, rewritten when a trainer dies. */
    GpuId
    ExecutorOf(std::uint32_t g) const
    {
        return executor_[g].load(std::memory_order_acquire);
    }
    bool
    Dead(GpuId t) const
    {
        return dead_[t].load(std::memory_order_acquire);
    }

    void
    Complete()
    {
        // relaxed: the completion is the only writer and runs
        // single-threaded between steps.
        const Step s = ctx_.gate.current_step.load(std::memory_order_relaxed);
        // Open step s's registration round (every trainer finished
        // claiming step s - 1's parts before it arrived here) and its
        // read range, re-reading the lookahead so degradation applies.
        registration_.Reset();
        registration_.AdvanceReads(std::min<Step>(
            ctx_.n_steps, s + 1 + ctx_.degradation.Lookahead()));
        // Under the gate nothing below s + 1 is pending (the async
        // ablation's stale priorities survive, so its floor stays 0).
        ctx_.queue.SetScanBounds(ctx_.config.disable_gate_unsafe ? 0 : s + 1,
                                 registration_.reads_end());
        if (step_hook_)
            step_hook_(s);
#if FRUGAL_DCHECK_ENABLED
        if (ctx_.auditor_armed)
            ctx_.auditor.OnStepBoundary(s, ctx_.queue);
#endif
        // The cadence counts global steps, so a resumed run checkpoints
        // at the same boundaries as an uninterrupted one.
        const std::size_t every = ctx_.config.checkpoint_every_steps;
        if (every > 0 && !ctx_.config.checkpoint_path.empty() &&
            static_cast<std::size_t>(first_step_ + s + 1) % every == 0) {
            Checkpoint(s);
        }
        if (auto victim = FaultPoint(ctx_.injector, FaultSite::kTrainerDeath,
                                     static_cast<std::uint64_t>(s))) {
            KillTrainer(static_cast<GpuId>(*victim % ctx_.n_gpus), s);
        }
        if (ctx_.oracular)
            ReclaimDeadKeys(s);
        ctx_.gate.current_step.store(s + 1, std::memory_order_release);
        ctx_.gate.Nudge();
    }

  private:
    /**
     * The consistent checkpoint barrier. All trainers are parked in the
     * barrier, so no new updates can be produced: register step s here
     * (the trainers then find no part left to claim), wait for the
     * flushers to apply everything, and the host table + optimizer state
     * IS the model as of the end of step s.
     */
    void
    Checkpoint(Step s)
    {
        const auto pause_start = std::chrono::steady_clock::now();
        registration_.RegisterStep(s, nullptr);
        RunCounters &counters = ctx_.counters;
        auto quiescent = [&] {
            return ctx_.gate.drained() >= s + 1 &&
                   ctx_.queue.SizeApprox() == 0 &&
                   // relaxed: trainers are parked in this barrier, so
                   // emitted is frozen; only applied needs to synchronize.
                   counters.updates_applied.load(std::memory_order_acquire) >=
                       counters.updates_emitted.load(
                           std::memory_order_relaxed);
        };
        while (!ctx_.gate.WaitFor(std::chrono::milliseconds(1), quiescent)) {
        }
        const auto save_start = std::chrono::steady_clock::now();
        CheckpointExtras extras;
        extras.optimizer_name = ctx_.optimizer.Name();
        extras.optimizer_state = ctx_.optimizer.ExportState();
        extras.next_step = first_step_ + s + 1;
        // Unified retry policy (common/retry.h): transient checkpoint
        // failures (injected I/O errors, torn writes) get a few backed-off
        // attempts before the barrier gives up. The previous checkpoint
        // survives either way — the tmp-file + rename protocol never
        // touches it until a replacement is durable.
        RetryPolicy policy;
        policy.max_attempts = 3;
        policy.initial_backoff = std::chrono::microseconds(100);
        policy.max_backoff = std::chrono::microseconds(2000);
        const RetryOutcome saved =
            RetryWithBackoff(policy, static_cast<std::uint64_t>(s), [&] {
                if (SaveCheckpoint(ctx_.table, extras,
                                   ctx_.config.checkpoint_path,
                                   ctx_.injector)) {
                    return true;
                }
                ++counters.checkpoint_retries;
                return false;
            });
        if (!saved.ok()) {
            FRUGAL_WARN("checkpoint barrier after step "
                        << s << " failed to persist (" << saved.attempts
                        << " attempts); training continues");
        }
        ++counters.checkpoint_barriers;
        const auto save_end = std::chrono::steady_clock::now();
        counters.checkpoint_pause_seconds += Seconds(pause_start, save_start);
        counters.checkpoint_save_seconds += Seconds(save_start, save_end);
    }

    /** Trainer death → degraded mode: the first live peer takes over
     *  the victim's trace share and ownership shards. */
    void
    KillTrainer(GpuId victim, Step s)
    {
        // relaxed: this single-threaded completion is the only writer of
        // dead_ and executor_ (every relaxed load below).
        if (dead_[victim].load(std::memory_order_relaxed)) {
            FRUGAL_WARN("fault injection: trainer "
                        << victim << " is already dead; ignored");
            return;
        }
        std::uint32_t live = 0;
        GpuId successor = victim;
        for (std::uint32_t c = 0; c < ctx_.n_gpus; ++c) {
            // relaxed: see above.
            if (dead_[c].load(std::memory_order_relaxed))
                continue;
            ++live;
            if (successor == victim && c != victim)
                successor = static_cast<GpuId>(c);
        }
        if (live < 2) {
            FRUGAL_WARN("fault injection: refusing to kill the last live "
                        "trainer");
            return;
        }
        FRUGAL_WARN("fault injection: trainer "
                    << victim << " dies after step " << s
                    << "; degraded mode, successor " << successor);
        // Rewire execution and ownership before publishing the death: a
        // trainer that observes its dead flag (acquire) must also observe
        // the rewired map.
        for (std::uint32_t g = 0; g < ctx_.n_gpus; ++g) {
            // relaxed: see above.
            if (executor_[g].load(std::memory_order_relaxed) == victim)
                executor_[g].store(successor, std::memory_order_release);
        }
        // The victim's cache is dropped, not migrated: its rows are all
        // committed (gate invariant), so the successor re-fills from host
        // memory on demand.
        ctx_.caches[victim]->Clear();
        ctx_.counters.ownership_remaps +=
            ctx_.ownership.Remap(victim, successor);
        dead_[victim].store(true, std::memory_order_release);
        ++ctx_.counters.trainer_deaths;
    }

    /**
     * Dead-key reclamation + eviction-horizon advance. Step s is complete
     * on every trainer, so a key whose last reader is s will never be
     * read again: drop its cached row now (zero cost — the cache is
     * write-through). A flush for such a key may still be in flight, but
     * its cache-refresh side is harmless: UpdateIfPresent on the evicted
     * key is a no-op and the flush-side warm skips keys with no next use
     * inside the window.
     */
    void
    ReclaimDeadKeys(Step s)
    {
        for (const Key key : ctx_.next_use.DeadAfter(s))
            ctx_.caches[ctx_.ownership.OwnerOf(key)]->EvictIfDead(key);
        const Step horizon = s + 1 + ctx_.degradation.Lookahead();
        for (auto &cache : ctx_.caches)
            cache->SetEvictionHorizon(horizon);
    }

    RunContext &ctx_;
    StepRegistration &registration_;
    const StepHook &step_hook_;
    const Step first_step_;
    std::vector<std::atomic<GpuId>> executor_;
    std::vector<std::atomic<bool>> dead_;
};

/** std::barrier's completion must be a nothrow callable type. */
struct BoundaryCompletion
{
    StepBoundary *boundary;
    void operator()() noexcept { boundary->Complete(); }
};
using StepBarrier = std::barrier<BoundaryCompletion>;

/**
 * Per-trainer hot-loop counters, folded into the shared atomics right
 * before each step-barrier arrival. Bumping shared atomics per key is
 * pure cache-line ping-pong with several trainers.
 */
struct TrainerLocalStats
{
    std::uint64_t host_reads = 0;
    std::uint64_t updates_emitted = 0;
    std::uint64_t gate_waits = 0;
};

/** One simulated GPU. Line-aligned so neighbouring trainers' hot fields
 *  never share a cache line. */
class alignas(kCacheLineSize) Trainer
{
  public:
    Trainer(GpuId id, RunContext &ctx, StepRegistration &registration,
            FlushTier &flush, const StepBoundary &boundary,
            StepBarrier &barrier, const GradFn &grad_fn)
        : id_(id), ctx_(ctx), registration_(registration), flush_(flush),
          boundary_(boundary), barrier_(barrier), grad_fn_(grad_fn)
    {
    }
    Trainer(const Trainer &) = delete;
    Trainer &operator=(const Trainer &) = delete;

    void
    Loop()
    {
        WarmAhead(0);
        for (Step s = 0; s < ctx_.n_steps; ++s) {
            if (boundary_.Dead(id_)) {
                // Injected death: leave the barrier for good. The early
                // arrival completes this phase; later phases expect one
                // fewer participant.
                barrier_.arrive_and_drop();
                return;
            }
            AwaitGate(s);
            // Execute every trace GPU assigned to this thread — just its
            // own while healthy, plus a dead trainer's share in degraded
            // mode.
            for (std::uint32_t g = 0; g < ctx_.n_gpus; ++g) {
                if (boundary_.ExecutorOf(g) == id_)
                    Execute(s, static_cast<GpuId>(g));
            }
            // Fold the step's local counters into the shared totals
            // *before* arriving: the checkpoint barrier's quiescence check
            // (in the barrier completion) compares applied against
            // emitted and must see this step's emissions.
            RunCounters &counters = ctx_.counters;
            // relaxed: barrier arrival orders these against the
            // completion callback's reads.
            counters.host_reads.fetch_add(local_.host_reads,
                                          std::memory_order_relaxed);
            // relaxed: see above.
            counters.updates_emitted.fetch_add(local_.updates_emitted,
                                               std::memory_order_relaxed);
            // relaxed: see above.
            counters.gate_waits.fetch_add(local_.gate_waits,
                                          std::memory_order_relaxed);
            local_ = TrainerLocalStats{};
            barrier_.arrive_and_wait();
            // Register step s: every trainer has left it now. A trainer
            // killed at this boundary claims nothing; the survivors take
            // its share (parts are keyed by hash, not by trainer).
            if (!boundary_.Dead(id_)) {
                registration_.RegisterStep(s, &lag_);
                WarmAhead(s + 1);
            }
        }
    }

    double stall_seconds() const { return stall_seconds_; }
    const StatAccumulator &stall_stats() const { return stall_stats_; }
    const Histogram &lag() const { return lag_.hist; }

  private:
    /** The P²F gate for step `s`, flushing its blockers meanwhile. */
    void
    AwaitGate(Step s)
    {
        StepGate &gate = ctx_.gate;
        const auto wait_start = std::chrono::steady_clock::now();
        if (!gate.Open(s)) {
            ++local_.gate_waits;
            // Cooperative flushing: the gate is blocked until the pending
            // entries at or below s are applied, so apply them *here*
            // instead of parking and paying two context switches (wake a
            // flusher, then get woken back) per step on the critical
            // path. The claim protocol makes this safe — whoever wins the
            // claim owns the flush — and ApplyClaims keeps the per-key
            // order canonical no matter who applies. The trainer cannot
            // die mid-assist (trainer death fires at step boundaries), so
            // no claim ledger is needed.
            // Fruitless passes before escalating from yield to a timed CV
            // park.
            constexpr std::size_t kAssistYields = 32;
            std::size_t idle_passes = 0;
            while (!gate.Open(s)) {
                assist_.clear();
                // Bounded claim: only the entries blocking *this* gate
                // (priority <= s). Later-step and deferred entries stay
                // enqueued so their writes keep coalescing for the flush
                // threads.
                if (ctx_.queue.DequeueClaimBelow(
                        assist_, ctx_.degradation.FlushBatch(), id_, s) ==
                    0) {
                    // Nothing claimable: the gate waits on a peer's step
                    // registration, or the work is in flight on a
                    // flusher. Yield first — on a machine
                    // with fewer cores than threads that hands the
                    // timeslice straight to whichever thread the gate is
                    // waiting for, without a futex round trip — and only
                    // park on the CV after a streak of fruitless passes.
                    if (++idle_passes < kAssistYields) {
                        std::this_thread::yield();
                    } else {
                        gate.WaitFor(std::chrono::microseconds(200),
                                     [&] { return gate.Open(s); });
                    }
                    continue;
                }
                idle_passes = 0;
#if FRUGAL_DCHECK_ENABLED
                if (ctx_.auditor_armed)
                    ctx_.auditor.OnClaimBatch(assist_, gate.current());
#endif
                // relaxed: monotonic stat counter.
                ctx_.counters.entry_claims.fetch_add(
                    assist_.size(), std::memory_order_relaxed);
                flush_.ApplyClaims(assist_, nullptr, &lag_);
                gate.Nudge();
            }
        }
        const double stall =
            Seconds(wait_start, std::chrono::steady_clock::now());
        stall_seconds_ += stall;
        stall_stats_.Add(stall);
    }

    /** Oracular warming (DESIGN.md §13.2) of this trainer's cache for
     *  the last round's read range. A step at or before `next`, the one
     *  it runs next, is left to the demand path: a late warm. */
    void
    WarmAhead(Step next)
    {
        if (!ctx_.degradation.Warming())
            return;
        for (Step t = registration_.reads_begin();
             t < registration_.reads_end(); ++t) {
            if (t > next) {
                WarmStep(t);
            } else {
                // relaxed: monotonic stat counter.
                ctx_.counters.late_warms.fetch_add(1,
                                                   std::memory_order_relaxed);
            }
        }
    }

    /**
     * Gathers from the host table the rows step `target` will read on
     * this trainer that it owns, and inserts them cold into its cache
     * (GpuCache::WarmBatch: stamped two-phase, so a racing flush always
     * wins). The gathers model asynchronous DMA issued a window ahead, so
     * unlike demand reads they pay no host_gather_ns.
     */
    void
    WarmStep(Step target)
    {
        for (std::uint32_t g = 0; g < ctx_.n_gpus; ++g) {
            if (boundary_.ExecutorOf(g) != id_)
                continue;
            warm_keys_.clear();
            warm_hints_.clear();
            for (const Key key : ctx_.trace.KeysFor(target, g)) {
                if (ctx_.ownership.OwnerOf(key) == id_) {
                    // alloc-ok: member scratch; capacity amortizes.
                    warm_keys_.push_back(key);
                    // The row's next read is `target` itself; the hinted
                    // TryGet then refreshes it to the next use after.
                    // alloc-ok: member scratch (see above).
                    warm_hints_.push_back(target);
                }
            }
            // alloc-ok: WarmBatch's scratch is thread_local; its capacity
            // amortizes across steps.
            ctx_.caches[id_]->WarmBatch(
                warm_keys_.data(), warm_hints_.data(), warm_keys_.size(),
                [this](const Key *fill, std::size_t m, float *rows) {
                    ctx_.table.ReadRows(fill, m, rows);
                });
        }
    }

    /** Gather, model and emit of trace GPU `g`'s share of step `s`. */
    void
    Execute(Step s, GpuId g)
    {
        const std::size_t dim = ctx_.config.dim;
        GpuCache &cache = *ctx_.caches[id_];
        // --- gather (forward) ---
        const std::vector<Key> &keys = ctx_.trace.KeysFor(s, g);
        values_.resize(keys.size() * dim);
        grads_.assign(keys.size() * dim, 0.0f);
        if (ctx_.config.audit_consistency || kDcheckEnabled)
            AuditReads(s, keys);
        // Split the key list into cache hits (copied by TryGet) and host
        // reads, then gather all host rows in one batched scatter call.
        // Cache by *executing* trainer: after a remap the successor owns
        // the dead GPU's shard, so its cache serves those keys too.
        miss_keys_.clear();
        miss_outs_.clear();
        owned_miss_.clear();
        owned_hint_.clear();
        // Oracular hint row: next_use[i] is key i's next reading step
        // strictly after s (kNever if none) — each hinted TryGet/Put
        // refreshes the slot's next-use field so Belady eviction stays
        // current.
        const Step *hints =
            ctx_.oracular ? ctx_.next_use.HintRow(s, g).data() : nullptr;
        for (std::size_t i = 0; i < keys.size(); ++i) {
            const Key key = keys[i];
            float *out = values_.data() + i * dim;
            if (ctx_.ownership.OwnerOf(key) == id_) {
                const bool hit = hints ? cache.TryGet(key, out, hints[i])
                                       : cache.TryGet(key, out);
                if (!hit) {
                    owned_miss_.push_back(miss_keys_.size());
                    owned_hint_.push_back(hints ? hints[i]
                                                : GpuCache::kNoFutureUse);
                    miss_keys_.push_back(key);
                    miss_outs_.push_back(out);
                }
            } else {
                // Non-owned: zero-copy UVA read of host memory.
                miss_keys_.push_back(key);
                miss_outs_.push_back(out);
            }
        }
        if (!miss_keys_.empty()) {
            ctx_.table.ReadRows(miss_keys_.data(), miss_keys_.size(),
                                miss_outs_.data());
            local_.host_reads += miss_keys_.size();
            gather_debt_ns_ +=
                miss_keys_.size() * static_cast<std::uint64_t>(std::max(
                                        0, ctx_.config.host_gather_ns));
            if (gather_debt_ns_ >= kGatherSleepQuantumNs) {
                // retry-exempt: simulated PCIe latency, not a retry
                // backoff.
                std::this_thread::sleep_for(
                    std::chrono::nanoseconds(gather_debt_ns_));
                gather_debt_ns_ = 0;
            }
            for (std::size_t j = 0; j < owned_miss_.size(); ++j) {
                const std::size_t m = owned_miss_[j];
                if (hints)
                    cache.Put(miss_keys_[m], miss_outs_[m], owned_hint_[j]);
                else
                    cache.Put(miss_keys_[m], miss_outs_[m]);
            }
        }

        // --- model (forward+backward) ---
        grad_fn_(g, s, keys, values_, &grads_);

        // --- emit into the trace GPU's batch slot ---
        registration_.Emit(s, g, keys, grads_);
        local_.updates_emitted += keys.size();
    }

    void
    AuditReads([[maybe_unused]] Step s, const std::vector<Key> &keys)
    {
        for (Key key : keys) {
            GEntry &entry = ctx_.registry.GetOrCreate(key);
            bool pending = false;
            {
                SpinGuard guard(entry.lock());
                // Invariant (2): no pending (unflushed) update from an
                // earlier step may exist when we read.
                pending = entry.hasWritesLocked();
            }
            if (!pending)
                continue;
            // relaxed: monotonic stat counter, read after joins.
            ctx_.counters.audit_violations.fetch_add(
                1, std::memory_order_relaxed);
#if FRUGAL_DCHECK_ENABLED
            if (ctx_.auditor_armed)
                ctx_.auditor.OnReadViolation(key, s);
#endif
        }
    }

    const GpuId id_;
    RunContext &ctx_;
    StepRegistration &registration_;
    FlushTier &flush_;
    const StepBoundary &boundary_;
    StepBarrier &barrier_;
    const GradFn &grad_fn_;
    std::vector<float> values_;
    std::vector<float> grads_;
    std::vector<Key> miss_keys_;
    std::vector<float *> miss_outs_;
    std::vector<std::size_t> owned_miss_;
    std::vector<Step> owned_hint_;
    /** Claim buffer for cooperative flushing at the gate. */
    std::vector<ClaimTicket> assist_;
    /** Warm scratch: a future step's keys this trainer owns, and their
     *  hints. */
    std::vector<Key> warm_keys_;
    std::vector<Step> warm_hints_;
    /** Simulated-PCIe debt for demand gathers, amortized into sleep
     *  quanta (EngineConfig::host_gather_ns). */
    std::uint64_t gather_debt_ns_ = 0;
    TrainerLocalStats local_;
    double stall_seconds_ = 0.0;
    StatAccumulator stall_stats_;
    /** Flush lag of cooperative-flush applies and of entries flushed at
     *  registration; merged after the joins. */
    LagSampler lag_;
};

/**
 * The runtime's one control thread (DESIGN.md §7). Every
 * `control_poll_ms` it samples a ProgressSnapshot and acts on the
 * StallDetector's verdict: a dead flush thread is reclaimed and
 * respawned at once; a timed stall is classified, logged and diagnosed,
 * once per stall. With a memory budget the same tick publishes the
 * component gauges and applies the staged degradation reactions
 * (§12.2).
 */
class ControlLoop
{
  public:
    /** Takes the stall baseline here, on the calling thread, so the
     *  stall clock starts before the work it watches. */
    ControlLoop(RunContext &ctx, StepRegistration &registration,
                FlushTier &flush)
        : ctx_(ctx), registration_(registration), flush_(flush),
          budget_(ctx.config.memory_budget),
          detector_(std::chrono::milliseconds(
                        std::max(ctx.config.control_poll_ms,
                                 ctx.config.watchdog_stall_ms)),
                    Sample(), StallDetector::Clock::now())
    {
    }

    /** The thread body; returns once RequestStop was called. */
    void
    Loop()
    {
        const auto poll = std::chrono::milliseconds(
            std::max(1, ctx_.config.control_poll_ms));
        while (!stop_.try_acquire_for(poll)) {
            if (budget_ != nullptr)
                ReactToPressure();
            const ProgressSnapshot snap = Sample();
            const auto now = StallDetector::Clock::now();
            const StallKind stall = detector_.Observe(snap, now);
            if (stall == StallKind::kDeadFlusher)
                ReclaimDeadFlushers(snap);
            else if (stall != StallKind::kNone)
                ReportStall(stall, detector_.Idle(now), snap);
        }
    }

    void RequestStop() { stop_.release(); }

    /** Folds the stall and recovery counters (after the join). */
    void
    Harvest(RecoveryCounters *out) const
    {
        out->stalls_detected += detector_.stalls_detected();
        out->watchdog_recoveries += detector_.recoveries();
        out->watchdog_polls += detector_.polls();
        out->recovery_seconds += recovery_seconds_;
    }

  private:
    // Sampling reads atomics and leaf-ranked slot ledgers only — never a
    // lock of rank ≥ kGEntry (a wedged flush thread may hold those; the
    // diagnoser must not join it in the wedge).
    ProgressSnapshot
    Sample() const
    {
        ProgressSnapshot snap;
        snap.current_step = ctx_.gate.current();
        snap.drained_steps = ctx_.gate.drained();
        // relaxed: diagnostic snapshot; the two counters may be mutually
        // skewed, which Classify tolerates.
        snap.updates_emitted =
            ctx_.counters.updates_emitted.load(std::memory_order_relaxed);
        // relaxed: diagnostic snapshot (see above).
        snap.updates_applied =
            ctx_.counters.updates_applied.load(std::memory_order_relaxed);
        snap.staging_size = registration_.pending_batches();
        snap.pq_size = ctx_.queue.SizeApprox();
        flush_.Sample(&snap);
        snap.run_complete = ctx_.gate.complete();
        return snap;
    }

    void
    ReclaimDeadFlushers(const ProgressSnapshot &snap)
    {
        FRUGAL_WARN("control loop: dead flush thread(s) detected ("
                    << snap.dead_flushers << " dead, "
                    << snap.abandoned_claims << " abandoned claims)");
        const auto t0 = StallDetector::Clock::now();
        const bool acted = flush_.ReclaimDead();
        const auto t1 = StallDetector::Clock::now();
        recovery_seconds_ += Seconds(t0, t1);
        if (acted)
            detector_.Recovered(Sample(), t1);
    }

    void
    ReportStall(StallKind stall, StallDetector::Clock::duration idle,
                const ProgressSnapshot &snap)
    {
        std::ostringstream dump;
        dump << ctx_.queue.DebugDump();
        registration_.Describe(dump);
        flush_.Describe(dump);
        if (budget_ != nullptr) {
            dump << "memory pressure stage "
                 << PressureStageName(budget_->stage()) << ", tracked "
                 << budget_->TotalBytes() << " of "
                 << budget_->budget_bytes() << " budget bytes\n";
        }
        FRUGAL_WARN(
            "control loop: no progress for "
            << std::chrono::duration_cast<std::chrono::milliseconds>(idle)
                   .count()
            << " ms, classified as " << StallKindName(stall)
            << " (step=" << snap.current_step
            << " drained=" << snap.drained_steps
            << " emitted=" << snap.updates_emitted
            << " applied=" << snap.updates_applied
            << " staging=" << snap.staging_size << " pq=" << snap.pq_size
            << ")\nstall diagnosis:\n"
            << dump.str());
    }

    /** Publishes the component gauges and reacts to a stage change. */
    void
    ReactToPressure()
    {
        budget_->Publish(MemoryComponent::kArena, ctx_.registry.ArenaBytes());
        budget_->Publish(MemoryComponent::kFlatMap,
                         ctx_.registry.IndexBytes());
        std::size_t cache_total = 0;
        for (const auto &cache : ctx_.caches)
            cache_total += cache->MemoryBytes();
        budget_->Publish(MemoryComponent::kCache, cache_total);
        budget_->Publish(MemoryComponent::kQueue,
                         registration_.pending_bytes());
        const PressureStage stage = budget_->Evaluate();
        if (stage == reacted_)
            return;
        // Staged reactions. Oracular warming is pure optimism (extra host
        // gathers + cold-end inserts), so it is the FIRST mechanism shed
        // — at elevated, before the prefetch window narrows and long
        // before caches shrink. Elevated also sheds the prefetch window
        // (fewer R sets in flight) and the flush coalescing width;
        // critical additionally halves the GPU caches — safe at any moment
        // because the cache is write-through, so eviction changes
        // throughput, never table contents. Returning to normal restores
        // every knob, including warming and the cache capacity.
        const EngineConfig &config = ctx_.config;
        const std::size_t healthy_rows = config.CacheRowsPerGpu();
        std::size_t lookahead = config.lookahead;
        std::size_t flush_batch = config.flush_batch;
        std::size_t cache_rows = healthy_rows;
        bool warm = ctx_.oracular;
        if (stage == PressureStage::kElevated) {
            warm = false;
            lookahead = std::max<std::size_t>(1, config.lookahead / 2);
            flush_batch = 1;
        } else if (stage == PressureStage::kCritical) {
            warm = false;
            lookahead = 1;
            flush_batch = 1;
            cache_rows = std::max<std::size_t>(1, healthy_rows / 2);
        }
        Degradation &knobs = ctx_.degradation;
        // relaxed: degradation knobs; readers tolerate any recent value.
        knobs.lookahead.store(lookahead, std::memory_order_relaxed);
        // relaxed: see above.
        knobs.flush_batch.store(flush_batch, std::memory_order_relaxed);
        // relaxed: see above.
        if (knobs.warming.exchange(warm, std::memory_order_relaxed) &&
            !warm) {
            // relaxed: monotonic stat counter.
            ctx_.counters.warms_shed.fetch_add(1, std::memory_order_relaxed);
        }
        std::uint64_t shed = 0;
        for (const auto &cache : ctx_.caches) {
            if (cache->capacity() != cache_rows)
                shed += cache->Resize(cache_rows);
        }
        // relaxed: monotonic stat counter.
        ctx_.counters.cache_rows_shed.fetch_add(shed,
                                                std::memory_order_relaxed);
        FRUGAL_WARN("memory pressure: "
                    << PressureStageName(reacted_) << " -> "
                    << PressureStageName(stage) << " ("
                    << budget_->TotalBytes() << " of "
                    << budget_->budget_bytes() << " budget bytes; warming "
                    << (warm ? "on" : "shed") << ", lookahead " << lookahead
                    << ", flush batch " << flush_batch << ", " << shed
                    << " cache row(s) shed)");
        reacted_ = stage;
    }

    RunContext &ctx_;
    StepRegistration &registration_;
    FlushTier &flush_;
    MemoryBudget *const budget_;
    StallDetector detector_;
    PressureStage reacted_ = PressureStage::kNormal;
    double recovery_seconds_ = 0.0;
    std::binary_semaphore stop_{0};
};

/** Sums the per-GPU cache counters into the report. */
void
FoldCacheStats(const std::vector<std::unique_ptr<GpuCache>> &caches,
               RunReport *report)
{
    for (const auto &cache : caches) {
        const GpuCacheStats s = cache->stats();
        report->cache.hits += s.hits;
        report->cache.misses += s.misses;
        report->cache.insertions += s.insertions;
        report->cache.evictions += s.evictions;
        report->cache.flush_writes += s.flush_writes;
        report->cache.warm_inserts += s.warm_inserts;
        report->cache.warm_hits += s.warm_hits;
        report->cache.dead_evictions += s.dead_evictions;
        report->cache.hot_hits += s.hot_hits;
        report->cache.cold_hits += s.cold_hits;
        report->cache.admission_declines += s.admission_declines;
        report->cache.promotions += s.promotions;
        report->cache.demotions += s.demotions;
        report->prefetch.rows_warmed += s.warm_inserts;
        report->prefetch.warm_hits += s.warm_hits;
        report->prefetch.dead_evictions += s.dead_evictions;
    }
}

}  // namespace

FrugalEngine::FrugalEngine(const EngineConfig &config) : Engine(config)
{
    // A zero window registers no step's reads before its gate; without
    // flush threads, or with empty claims, deferred updates never apply.
    FRUGAL_CHECK_MSG(config.lookahead >= 1, "EngineConfig::lookahead is 0");
    FRUGAL_CHECK_MSG(config.flush_threads >= 1,
                     "EngineConfig::flush_threads is 0");
    FRUGAL_CHECK_MSG(config.flush_batch >= 1, "EngineConfig::flush_batch is 0");
}

RunReport
FrugalEngine::Run(const Trace &trace, const GradFn &grad_fn,
                  const StepHook &step_hook)
{
    const std::uint32_t n_gpus = config_.n_gpus;
    FRUGAL_CHECK_MSG(trace.n_gpus() == n_gpus,
                     "trace built for " << trace.n_gpus()
                                        << " GPUs, engine has " << n_gpus);
    FRUGAL_CHECK_MSG(trace.key_space() <= config_.key_space,
                     "trace key space exceeds the table");
    FaultInjector *const injector = config_.fault_injector;
    FRUGAL_CHECK_MSG(
        injector == nullptr ||
            !injector->plan().HasRuleFor(FaultSite::kTrainerDeath) ||
            n_gpus >= 2,
        "trainer-death fault plans require at least 2 GPUs");

    RunContext ctx(config_, trace, *table_, *optimizer_, ownership_);
    FlushTier flush(ctx);
    StepRegistration registration(ctx, flush);
    StepBoundary boundary(ctx, registration, step_hook, first_step_);
    StepBarrier barrier(static_cast<std::ptrdiff_t>(n_gpus),
                        BoundaryCompletion{&boundary});
    std::vector<std::unique_ptr<Trainer>> trainers;
    for (std::uint32_t g = 0; g < n_gpus; ++g) {
        trainers.push_back(std::make_unique<Trainer>(
            static_cast<GpuId>(g), ctx, registration, flush, boundary,
            barrier, grad_fn));
    }
    ControlLoop control(ctx, registration, flush);

    const auto run_start = std::chrono::steady_clock::now();
    // The first lookahead window's reads, before any thread starts; each
    // step boundary registers the steps entering the window after it.
    registration.AdvanceReads(
        std::min<Step>(ctx.n_steps, ctx.degradation.Lookahead()));
    for (std::uint32_t part = 0; part < n_gpus; ++part)
        registration.RegisterReads(part);
    ctx.queue.SetScanBounds(0, registration.reads_end());
    flush.Start();
    std::thread control_thread(&ControlLoop::Loop, &control);
    std::vector<std::thread> trainer_threads;
    for (auto &trainer : trainers)
        trainer_threads.emplace_back(&Trainer::Loop, trainer.get());
    for (auto &thread : trainer_threads)
        thread.join();
    // Every step is registered: each trainer registers after its last
    // barrier. Let the pipeline wind down (paper: "the system waits for
    // flushing threads to write all deferred parameter updates to host
    // memory").
    ctx.gate.run_complete.store(true, std::memory_order_release);
    // Recovery-aware wind-down: a flusher may die on the very last batch.
    // Wait until every slot is quiet and all updates are applied — the
    // control loop keeps respawning dead slots and reclaiming their
    // claims meanwhile — and stop it before joining the slots, so a
    // respawn can't race the join.
    while (!flush.Quiet()) {
        // retry-exempt: wind-down poll, not a retry backoff.
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    control.RequestStop();
    control_thread.join();
    flush.Join();
    const auto run_end = std::chrono::steady_clock::now();

    RunReport report;
    report.engine = Name();
    report.steps = ctx.n_steps;
    report.n_gpus = n_gpus;
    report.wall_seconds = Seconds(run_start, run_end);
    FoldCacheStats(ctx.caches, &report);
    ctx.counters.Fold(&report);
    control.Harvest(&report.recovery);
    flush.MergeLag(&report.flush_lag);
    for (const auto &trainer : trainers) {
        report.flush_lag.Merge(trainer->lag());
        report.stall_seconds_total += trainer->stall_seconds();
    }
    report.stall_seconds_total /= n_gpus;
    report.stall_per_step = trainers[0]->stall_stats();
    report.recovery.faults_injected =
        injector != nullptr ? injector->total_fires() : 0;
    if (MemoryBudget *budget = config_.memory_budget) {
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
        ctx.registry.ForEach([&](GEntry &entry) {
            SpinGuard guard(entry.lock());
            FRUGAL_CHECK(!entry.hasWritesLocked());
            FRUGAL_CHECK(!entry.enqueuedLocked());
        });
    }
#if FRUGAL_DCHECK_ENABLED
    if (ctx.auditor_armed) {
        // Quiescent accounting: queue counters exactly drained, every
        // g-entry back to the (W = ∅, dequeued, priority = ∞) state.
        ctx.auditor.OnQuiescent(ctx.queue, ctx.registry);
        ctx.auditor.ExpectClean();
        FRUGAL_DEBUG("invariant auditor: " << ctx.auditor.checks()
                                           << " checks, 0 violations");
    }
#endif
    return report;
}

}  // namespace frugal
