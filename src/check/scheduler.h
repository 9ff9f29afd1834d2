/**
 * @file
 * Deterministic interleaving explorer — a Relacy/Loom-style cooperative
 * scheduler that runs small concurrency scenarios under *systematically
 * chosen* thread interleavings instead of whatever the OS happens to
 * produce.
 *
 * Why it exists: the flush path's correctness properties (the P²F
 * invariant, exactly-once claims, monotone claim priorities) are
 * checked today by TSan stress tests, which sample a vanishingly small
 * fraction of interleavings — the schedules a loaded CI box produces
 * are heavily clustered, and the adversarial ones (a preemption exactly
 * between "publish pointer" and "announce counter") may never occur in
 * millions of iterations. This explorer *controls* the schedule: every
 * shared-memory operation in a scenario (each `frugal::model_atomic`
 * access, each model `Spinlock` acquire) is a schedule point where
 * exactly one runnable thread is chosen to proceed, so a scenario's
 * entire bounded interleaving space can be enumerated and each explored
 * schedule replayed bit-for-bit from its decision trace.
 *
 * Execution model
 * ---------------
 * Scenario threads are real OS threads, but only ONE ever runs at a
 * time: a baton (binary semaphores) passes between the scheduler and
 * the chosen thread, and control returns to the scheduler at every
 * schedule point. That serialisation makes runs deterministic — given
 * the same decision sequence, a scenario reproduces exactly — and makes
 * the explored semantics *sequential consistency over interleavings*.
 * Weak-memory reorderings are NOT modelled (TSan and the `// relaxed:`
 * lint own that axis); protocol bugs in announce/claim orderings are
 * program-order bugs and are visible under SC interleavings.
 *
 * Exploration strategies
 * ----------------------
 *  - Bounded-preemption DFS (exhaustive): stateless depth-first search
 *    over scheduling decisions, replaying a decision prefix and
 *    diverging at the deepest untried branch. A *preemption* is
 *    scheduling away from a thread that could have continued; bounding
 *    preemptions (default 2) keeps the space tractable while covering
 *    the bug-revealing schedules (empirically almost all concurrency
 *    bugs need ≤ 2 preemptions — the PCT paper's observation).
 *  - PCT (probabilistic concurrency testing): randomised priority
 *    schedules with d priority-change points, from fixed seeds, used
 *    past the DFS budget so large scenarios still get diverse
 *    adversarial coverage. Every run is seed-reproducible.
 *  - Seeded uniform random walk: past the PCT budget, each decision
 *    picks uniformly among the runnable threads. PCT biases towards
 *    few-switch (bug-revealing) schedules but can only reach those; the
 *    walk samples the whole interleaving space, so distinct-schedule
 *    counts keep growing to the coverage target on small scenarios.
 *
 * The explorer is deliberately standalone: it includes nothing from the
 * rest of Frugal, so `common/spinlock.h` can call into it (via
 * check/model_sync.h) without an include or link cycle. Header-only;
 * FRUGAL_MODELCHECK builds select the instrumented shims, and in normal
 * builds nothing here is referenced.
 *
 * See DESIGN.md §10 for the scenario-writing guide.
 */
#ifndef FRUGAL_CHECK_SCHEDULER_H_
#define FRUGAL_CHECK_SCHEDULER_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <semaphore>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

namespace frugal {
namespace check {

/** Exploration budget and strategy knobs for one Explore() call. */
struct Options
{
    /** Hard cap on scenario threads (workers are created lazily). */
    int max_threads = 8;
    /** Total run budget across both phases. */
    std::uint64_t max_schedules = 60000;
    /** Stop once this many *distinct* schedules were explored (the DFS
     *  phase may exhaust first — that is full bounded coverage). */
    std::uint64_t target_distinct = 10000;
    /** DFS preemption bound (forced switches away from a runnable
     *  thread); voluntary yields/blocks are free. */
    int max_preemptions = 2;
    /** DFS run budget before falling back to PCT (the DFS frontier can
     *  be large for wide scenarios; PCT diversifies better per run). */
    std::uint64_t max_dfs_schedules = 40000;
    /** PCT run budget before falling back to the uniform random walk.
     *  PCT only reaches schedules with ≤ pct_depth priority switches,
     *  so on small scenarios its distinct-schedule yield saturates; the
     *  random walk then samples the full interleaving space. */
    std::uint64_t max_pct_schedules = 8000;
    /** PCT priority-change points per run (the classic `d`). */
    int pct_depth = 3;
    /** Seed for the PCT phase (mixed with the run index — fixed seed,
     *  fully reproducible exploration). */
    std::uint64_t seed = 0x5eed5eed5eedULL;
    /** Per-run schedule-point bound; exceeding it is reported as a
     *  livelock violation. */
    std::uint64_t max_points_per_run = 100000;
    /** Stop exploring after the first violating schedule (used by
     *  tests that *expect* a bug, to terminate quickly). */
    bool stop_on_violation = false;
};

/** Aggregate outcome of one Explore() call. */
struct Result
{
    std::uint64_t schedules_run = 0;
    std::uint64_t distinct_schedules = 0;
    std::uint64_t schedule_points = 0;
    /** Runs in which at least one assertion failed (plus deadlocks and
     *  livelocks, which count as violations of their own kind). */
    std::uint64_t violations = 0;
    /** The bounded-DFS space was fully enumerated. */
    bool dfs_exhausted = false;
    /** First failure: message plus the decision trace that reproduces
     *  it (thread index per schedule point). */
    std::string first_violation;

    bool clean() const { return violations == 0; }

    std::string
    Summary() const
    {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "runs=%llu distinct=%llu points=%llu "
                      "violations=%llu dfs_exhausted=%d",
                      static_cast<unsigned long long>(schedules_run),
                      static_cast<unsigned long long>(distinct_schedules),
                      static_cast<unsigned long long>(schedule_points),
                      static_cast<unsigned long long>(violations),
                      dfs_exhausted ? 1 : 0);
        return buf;
    }
};

class Explorer;

namespace internal {

/** Thrown through a scenario thread to unwind it when the run aborts
 *  (violation, deadlock, or livelock elsewhere). Worker loops catch it;
 *  scenario code must stay exception-safe (RAII guards only). */
struct RunAborted
{
};

inline thread_local Explorer *tls_explorer = nullptr;
inline thread_local int tls_tid = -1;

/** SplitMix64 — tiny self-contained RNG so the explorer stays free of
 *  frugal includes. */
inline std::uint64_t
Mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

}  // namespace internal

/**
 * The cooperative scheduler + exploration engine. One Explorer persists
 * across every run of one Explore() call (worker threads are reused);
 * scenarios interact with it through Thread()/Go()/Check().
 */
class Explorer
{
  public:
    explicit Explorer(const Options &options) : options_(options)
    {
        tstate_.resize(static_cast<std::size_t>(options_.max_threads));
        priorities_.resize(static_cast<std::size_t>(options_.max_threads));
    }

    Explorer(const Explorer &) = delete;
    Explorer &operator=(const Explorer &) = delete;

    ~Explorer()
    {
        quit_ = true;
        for (auto &worker : workers_) {
            worker->resume.release();
            worker->os_thread.join();
        }
    }

    // --- scenario-facing API ------------------------------------------

    /** Registers one scenario thread for the current run. */
    void
    Thread(std::function<void()> body)
    {
        if (static_cast<int>(bodies_.size()) >= options_.max_threads) {
            std::fprintf(stderr,
                         "check::Explorer: scenario exceeds max_threads "
                         "(%d)\n",
                         options_.max_threads);
            std::abort();
        }
        bodies_.push_back(std::move(body));
    }

    /** Executes one schedule of the registered threads to completion
     *  (or to abort on a violation), then clears the registration. */
    void
    Go()
    {
        EnsureWorkers(bodies_.size());
        ExecuteSchedule();
        bodies_.clear();
    }

    /** Quiescent assertion, called after Go() on the driving thread. */
    void
    Check(bool ok, const char *what)
    {
        if (!ok)
            RecordViolation(std::string("quiescent check failed: ") + what);
    }

    // --- model-op hooks (called from scenario threads through the
    //     model_atomic / model-lock shims; no-ops off-scenario) --------

    /** One schedule point: hands the baton to the scheduler, which
     *  decides who runs next. Throws RunAborted when the run is being
     *  torn down. */
    void
    SchedulePoint()
    {
        ThreadState &self = tstate_[internal::tls_tid];
        if (self.abort_delivered)
            return;  // unwinding; never yield again
        if (aborting_) {
            self.abort_delivered = true;
            throw internal::RunAborted{};
        }
        ++points_this_run_;
        if (points_this_run_ > options_.max_points_per_run) {
            RecordViolation("schedule-point bound exceeded (livelock?)");
            aborting_ = true;
            self.abort_delivered = true;
            throw internal::RunAborted{};
        }
        YieldToScheduler();
    }

    /** Marks the calling thread blocked on `addr` (a held model lock)
     *  and yields; the scheduler re-enables it on ModelUnlock(addr). */
    void
    BlockOnLock(const void *addr)
    {
        ThreadState &self = tstate_[internal::tls_tid];
        if (self.abort_delivered)
            return;
        self.state = ThreadState::kBlocked;
        self.blocked_on = addr;
        YieldToScheduler();
    }

    /** Re-enables every thread blocked on `addr`. Pure bookkeeping —
     *  runs on the releasing thread, which holds the baton. */
    void
    NotifyUnlock(const void *addr)
    {
        for (std::size_t i = 0; i < n_threads_; ++i) {
            ThreadState &t = tstate_[i];
            if (t.state == ThreadState::kBlocked && t.blocked_on == addr) {
                t.state = ThreadState::kReady;
                t.blocked_on = nullptr;
            }
        }
    }

    /** Mid-run assertion from a scenario thread: records the violation
     *  and aborts the current run (all threads unwind). */
    void
    FailFromThread(const char *what)
    {
        RecordViolation(std::string("in-run assertion failed: ") + what);
        aborting_ = true;
        tstate_[internal::tls_tid].abort_delivered = true;
        throw internal::RunAborted{};
    }

    // --- exploration driver (used by Explore()) -----------------------

    enum class Mode { kDfs, kPct, kRandom };

    Mode mode_ = Mode::kDfs;
    std::uint64_t pct_run_seed_ = 0;

    /** One full scenario run under the current strategy state. */
    void
    RunOnce(const std::function<void(Explorer &)> &scenario)
    {
        violation_this_run_ = false;
        scenario(*this);
        ++runs_;
        std::uint64_t hash = 1469598103934665603ULL;  // FNV offset
        for (const Decision &d : trace_) {
            hash ^= static_cast<std::uint64_t>(d.chosen_tid);
            hash *= 1099511628211ULL;
        }
        distinct_.insert(hash);
        if (violation_this_run_)
            ++violating_runs_;
        if (mode_ == Mode::kDfs)
            dfs_exhausted_ = !AdvanceDfsFrontier();
    }

    std::uint64_t runs() const { return runs_; }
    std::uint64_t distinct() const { return distinct_.size(); }
    std::uint64_t violating_runs() const { return violating_runs_; }
    bool dfs_exhausted() const { return dfs_exhausted_; }

    Result
    MakeResult() const
    {
        Result result;
        result.schedules_run = runs_;
        result.distinct_schedules = distinct_.size();
        result.schedule_points = total_points_;
        result.violations = violating_runs_;
        result.dfs_exhausted = dfs_exhausted_;
        result.first_violation = first_violation_;
        return result;
    }

  private:
    struct ThreadState
    {
        enum State { kReady, kBlocked, kFinished };
        State state = kFinished;
        const void *blocked_on = nullptr;
        bool abort_delivered = false;
    };

    /**
     * One scheduling decision, recorded for replay and backtracking.
     * `order` holds the runnable thread ids in *canonical* order —
     * continuation (the previously running thread) first, then the rest
     * ascending — so the DFS default choice is always index 0 and
     * backtracking over indices order_index+1..n-1 visits every child
     * of the decision node exactly once.
     */
    struct Decision
    {
        std::vector<int> order;  ///< runnable tids, canonical order
        int order_index = 0;     ///< index into `order`
        int chosen_tid = 0;
        int prev_running = -1;   ///< thread that ran into this point
    };

    struct Worker
    {
        std::binary_semaphore resume{0};
        std::thread os_thread;
    };

    // --- baton passing ------------------------------------------------

    void
    YieldToScheduler()
    {
        const int tid = internal::tls_tid;
        scheduler_sem_.release();
        workers_[tid]->resume.acquire();
        ThreadState &self = tstate_[tid];
        if (aborting_ && !self.abort_delivered) {
            self.abort_delivered = true;
            throw internal::RunAborted{};
        }
    }

    void
    EnsureWorkers(std::size_t n)
    {
        while (workers_.size() < n) {
            const int tid = static_cast<int>(workers_.size());
            workers_.push_back(std::make_unique<Worker>());
            // The thread gets its Worker directly: indexing workers_
            // from the new thread would race the next push_back, which
            // may reallocate the vector.
            Worker *const worker = workers_.back().get();
            worker->os_thread = std::thread(
                [this, tid, worker] { WorkerLoop(tid, *worker); });
        }
    }

    void
    WorkerLoop(int tid, Worker &self)
    {
        for (;;) {
            self.resume.acquire();
            if (quit_)
                return;
            internal::tls_explorer = this;
            internal::tls_tid = tid;
            try {
                bodies_[tid]();
            } catch (const internal::RunAborted &) {
                // Deliberate unwind; state already recorded.
            }
            internal::tls_explorer = nullptr;
            internal::tls_tid = -1;
            tstate_[tid].state = ThreadState::kFinished;
            scheduler_sem_.release();
        }
    }

    // --- one schedule -------------------------------------------------

    void
    ExecuteSchedule()
    {
        n_threads_ = bodies_.size();
        if (n_threads_ == 0)
            return;
        points_this_run_ = 0;
        aborting_ = false;
        trace_.clear();
        current_ = -1;
        for (std::size_t i = 0; i < n_threads_; ++i)
            tstate_[i] = ThreadState{ThreadState::kReady, nullptr, false};
        if (mode_ == Mode::kPct)
            InitPctRun();

        std::size_t finished = 0;
        // First grant to a thread starts its body; subsequent grants
        // resume it from its last schedule point. Either way the baton
        // comes back via scheduler_sem_.
        while (finished < n_threads_) {
            std::vector<int> enabled;
            for (std::size_t i = 0; i < n_threads_; ++i) {
                if (tstate_[i].state == ThreadState::kReady)
                    enabled.push_back(static_cast<int>(i));
            }
            if (aborting_ || enabled.empty()) {
                if (!aborting_) {
                    // Live threads, none runnable: a model-lock deadlock.
                    RecordViolation("deadlock: all live threads blocked "
                                    "on model locks");
                    aborting_ = true;
                }
                AbortRemaining(&finished);
                break;
            }
            std::vector<int> order = CanonicalOrder(enabled, current_);
            const int order_index = ChooseNext(order);
            const int tid = order[static_cast<std::size_t>(order_index)];
            trace_.push_back(
                Decision{std::move(order), order_index, tid, current_});
            current_ = tid;
            StepThread(tid);
            if (tstate_[tid].state == ThreadState::kFinished)
                ++finished;
        }
        total_points_ += points_this_run_;
    }

    /** Grants the baton to `tid` and waits for it to come back. */
    void
    StepThread(int tid)
    {
        workers_[tid]->resume.release();
        scheduler_sem_.acquire();
    }

    /** Runs every not-yet-finished thread until it unwinds. */
    void
    AbortRemaining(std::size_t *finished)
    {
        for (std::size_t i = 0; i < n_threads_; ++i) {
            while (tstate_[i].state != ThreadState::kFinished) {
                StepThread(static_cast<int>(i));
            }
        }
        *finished = n_threads_;
    }

    // --- strategies ---------------------------------------------------

    /** Canonical child order: continuation first, then ascending ids. */
    static std::vector<int>
    CanonicalOrder(const std::vector<int> &enabled, int current)
    {
        std::vector<int> order;
        order.reserve(enabled.size());
        for (const int tid : enabled) {
            if (tid == current)
                order.push_back(tid);
        }
        for (const int tid : enabled) {
            if (tid != current)
                order.push_back(tid);
        }
        return order;
    }

    int
    ChooseNext(const std::vector<int> &order)
    {
        const std::size_t depth = trace_.size();
        if (mode_ == Mode::kDfs) {
            if (depth < dfs_prefix_.size()) {
                // Replay: the scenario is deterministic, so the forced
                // tid must be enabled again. A miss means the scenario
                // itself is nondeterministic — report, don't hang.
                const int forced = dfs_prefix_[depth];
                for (std::size_t i = 0; i < order.size(); ++i) {
                    if (order[i] == forced)
                        return static_cast<int>(i);
                }
                RecordViolation("nondeterministic scenario: replayed "
                                "choice not enabled");
                return 0;
            }
            // Default: index 0 is the continuation when the current
            // thread is still runnable, the lowest live id otherwise.
            return 0;
        }
        if (mode_ == Mode::kRandom) {
            // Seeded uniform walk over the full interleaving space.
            return static_cast<int>(
                internal::Mix64(pct_run_seed_ ^
                                (depth * 0x9e3779b97f4a7c15ULL)) %
                order.size());
        }
        // PCT: highest-priority enabled thread; at each of the d change
        // points the running thread's priority drops below everything.
        for (const std::uint64_t point : pct_change_points_) {
            if (point == depth && current_ >= 0) {
                priorities_[current_] = next_low_priority_--;
                break;
            }
        }
        int best = 0;
        for (std::size_t i = 1; i < order.size(); ++i) {
            if (priorities_[order[i]] > priorities_[order[best]])
                best = static_cast<int>(i);
        }
        return best;
    }

    void
    InitPctRun()
    {
        std::uint64_t s = pct_run_seed_;
        for (std::size_t i = 0; i < n_threads_; ++i)
            priorities_[i] =
                static_cast<std::int64_t>(internal::Mix64(s += i + 1) >> 1);
        next_low_priority_ = -1;
        pct_change_points_.clear();
        // Change points land in the estimated run length; the estimate
        // is the previous run's point count (PCT's standard trick).
        const std::uint64_t horizon =
            last_run_points_ > 0 ? last_run_points_ : 64;
        for (int d = 0; d < options_.pct_depth; ++d) {
            pct_change_points_.push_back(internal::Mix64(s + 1000 + d) %
                                         horizon);
        }
    }

    /**
     * DFS backtracking: finds the deepest decision with an untried
     * alternative inside the preemption budget, fixes the prefix, and
     * returns true; false when the bounded space is exhausted.
     */
    bool
    AdvanceDfsFrontier()
    {
        last_run_points_ = points_this_run_;
        // Cumulative preemptions before each depth.
        std::vector<int> preemptions(trace_.size() + 1, 0);
        for (std::size_t i = 0; i < trace_.size(); ++i)
            preemptions[i + 1] =
                preemptions[i] + DecisionPreempts(trace_[i]);
        for (std::size_t i = trace_.size(); i-- > 0;) {
            const Decision &d = trace_[i];
            for (std::size_t alt =
                     static_cast<std::size_t>(d.order_index) + 1;
                 alt < d.order.size(); ++alt) {
                const int alt_tid = d.order[alt];
                const int cost =
                    (d.prev_running >= 0 && alt_tid != d.prev_running &&
                     Contains(d.order, d.prev_running))
                        ? 1
                        : 0;
                if (preemptions[i] + cost > options_.max_preemptions)
                    continue;
                dfs_prefix_.clear();
                for (std::size_t j = 0; j < i; ++j)
                    dfs_prefix_.push_back(trace_[j].chosen_tid);
                dfs_prefix_.push_back(alt_tid);
                return true;
            }
        }
        return false;
    }

    int
    DecisionPreempts(const Decision &d) const
    {
        return (d.prev_running >= 0 && d.chosen_tid != d.prev_running &&
                Contains(d.order, d.prev_running))
                   ? 1
                   : 0;
    }

    static bool
    Contains(const std::vector<int> &v, int x)
    {
        for (const int e : v) {
            if (e == x)
                return true;
        }
        return false;
    }

    // --- bookkeeping --------------------------------------------------

    void
    RecordViolation(const std::string &what)
    {
        violation_this_run_ = true;
        if (first_violation_.empty()) {
            first_violation_ = what + " [trace:";
            const std::size_t cap = 200;
            for (std::size_t i = 0;
                 i < trace_.size() && i < cap; ++i) {
                first_violation_ += ' ';
                first_violation_ += std::to_string(trace_[i].chosen_tid);
            }
            if (trace_.size() > cap)
                first_violation_ += " ...";
            first_violation_ += ']';
        }
    }

    const Options options_;

    std::vector<std::unique_ptr<Worker>> workers_;
    std::binary_semaphore scheduler_sem_{0};
    bool quit_ = false;

    // Per-run state (only touched while holding the baton).
    std::vector<std::function<void()>> bodies_;
    std::size_t n_threads_ = 0;
    std::vector<ThreadState> tstate_;
    std::vector<Decision> trace_;
    int current_ = -1;
    bool aborting_ = false;
    bool violation_this_run_ = false;
    std::uint64_t points_this_run_ = 0;
    std::uint64_t last_run_points_ = 0;

    // DFS frontier.
    std::vector<int> dfs_prefix_;
    bool dfs_exhausted_ = false;

    // PCT state.
    std::vector<std::int64_t> priorities_;
    std::vector<std::uint64_t> pct_change_points_;
    std::int64_t next_low_priority_ = -1;

    // Aggregates.
    std::uint64_t runs_ = 0;
    std::uint64_t violating_runs_ = 0;
    std::uint64_t total_points_ = 0;
    std::unordered_set<std::uint64_t> distinct_;
    std::string first_violation_;
};

// --- free-function hooks (used by check/model_sync.h and Spinlock) ----

/** True when the calling thread is a scenario thread inside Go(). */
inline bool
InModelRun()
{
    return internal::tls_explorer != nullptr;
}

inline void
ModelSchedulePoint()
{
    if (internal::tls_explorer != nullptr)
        internal::tls_explorer->SchedulePoint();
}

/** Mid-run assertion usable from scenario thread bodies. */
inline void
ModelAssert(bool ok, const char *what)
{
    if (ok)
        return;
    if (internal::tls_explorer != nullptr) {
        internal::tls_explorer->FailFromThread(what);
    } else {
        std::fprintf(stderr, "check::ModelAssert failed: %s\n", what);
        std::abort();
    }
}

/**
 * Runs `scenario` under systematic schedule exploration: a bounded-
 * preemption exhaustive DFS phase first, then seeded-PCT randomisation,
 * then a seeded uniform random walk, until `target_distinct` distinct
 * schedules were covered or the run budget ran out. The scenario is
 * called once per schedule; it must
 * build fresh state, register threads via `Thread()`, execute the
 * interleaving via `Go()`, and assert quiescent properties via
 * `Check()`.
 */
inline Result
Explore(const Options &options,
        const std::function<void(Explorer &)> &scenario)
{
    Explorer explorer(options);
    explorer.mode_ = Explorer::Mode::kDfs;
    while (!explorer.dfs_exhausted() &&
           explorer.runs() < options.max_dfs_schedules &&
           explorer.runs() < options.max_schedules) {
        explorer.RunOnce(scenario);
        if (options.stop_on_violation && explorer.violating_runs() > 0)
            return explorer.MakeResult();
    }
    explorer.mode_ = Explorer::Mode::kPct;
    const std::uint64_t pct_budget = explorer.runs() + options.max_pct_schedules;
    while (explorer.distinct() < options.target_distinct &&
           explorer.runs() < pct_budget &&
           explorer.runs() < options.max_schedules) {
        explorer.pct_run_seed_ =
            internal::Mix64(options.seed ^ (explorer.runs() * 2654435761ULL));
        explorer.RunOnce(scenario);
        if (options.stop_on_violation && explorer.violating_runs() > 0)
            return explorer.MakeResult();
    }
    explorer.mode_ = Explorer::Mode::kRandom;
    while (explorer.distinct() < options.target_distinct &&
           explorer.runs() < options.max_schedules) {
        explorer.pct_run_seed_ =
            internal::Mix64(options.seed ^ ~(explorer.runs() * 0x9e3779b9ULL));
        explorer.RunOnce(scenario);
        if (options.stop_on_violation && explorer.violating_runs() > 0)
            break;
    }
    return explorer.MakeResult();
}

}  // namespace check
}  // namespace frugal

#endif  // FRUGAL_CHECK_SCHEDULER_H_
