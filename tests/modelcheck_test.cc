/**
 * @file
 * Systematic-interleaving scenarios for the flush path, run under the
 * deterministic explorer (src/check/scheduler.h). Each scenario is a
 * small fixed cast of threads driving the REAL production types
 * (AtomicSlotSet, TwoLevelPQ, GEntry, the pq_ops transitions); the
 * explorer enumerates a bounded-preemption DFS of their interleavings
 * and then diversifies with seeded PCT until ≥ 10k distinct schedules
 * were covered, asserting on every one:
 *
 *  - the P²F invariant: when the gate for step s reports clear, every
 *    update produced for a step < s (and registered before gating
 *    began) is already in host memory;
 *  - exactly-once claims: no g-entry is claimed by two flush threads
 *    for the same enqueue;
 *  - monotone priorities: a DequeueClaim batch is priority-sorted and
 *    DequeueClaimBelow never exceeds its ceiling;
 *  - slot-set accounting: per segment, popped ≤ published at every
 *    instant (the announce-before-publish protocol).
 *
 *  - step registration: the gate for the next step never opens while a
 *    registration part is unregistered, and every part is registered
 *    exactly once (PartClaimer, the protocol FrugalEngine's trainers
 *    run right after the step barrier).
 *  - due flush at registration: an entry the next step reads, flushed
 *    in place by RegisterUpdates past a flush thread's pending claim,
 *    applies every write once in (step, src) order before that step's
 *    gate can open, and leaves the queue counts drained.
 *
 * The *Caught tests are negative controls. *_ReorderBugCaught runs the
 * exact announce/publish protocol of AtomicSlotSet::Insert with the
 * PR 1 bug shape deliberately re-introduced (pointer published before
 * the counter announcement) and requires the explorer to find the
 * violating schedule. If the explorer ever loses the power to catch
 * that bug class, this test fails. *_RetireBeforeApplyCaught does the
 * same for a flush that retires the standing enqueue before applying
 * the writes, and *_ClaimedNotDoneGateCaught for a gate that opens on
 * claimed rather than registered parts.
 *
 * These tests are meaningful only when the model_atomic shims are live
 * (FRUGAL_MODELCHECK builds — the `modelcheck` preset); elsewhere they
 * skip, so the tier-1 suite carries them at zero cost.
 */
#include <array>
#include <cstdio>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "check/model_sync.h"
#include "check/scheduler.h"
#include "common/part_claimer.h"
#include "common/spinlock.h"
#include "common/types.h"
#include "pq/atomic_slot_set.h"
#include "pq/g_entry.h"
#include "pq/pq_ops.h"
#include "pq/two_level_pq.h"

namespace frugal {
namespace {

#if FRUGAL_MODELCHECK
#define FRUGAL_REQUIRE_MODELCHECK() (void)0
#else
#define FRUGAL_REQUIRE_MODELCHECK()                                       \
    GTEST_SKIP() << "built without FRUGAL_MODELCHECK shims; run via the " \
                    "'modelcheck' preset"
#endif

/** Every scenario must clear this many distinct schedules (acceptance
 *  bar; the explorer reports the exact count in the test output). */
constexpr std::uint64_t kDistinctTarget = 10000;

/** Prints and records the exploration outcome for one scenario. */
void
ReportExploration(const char *scenario, const check::Result &result)
{
    std::printf("[ modelcheck ] %s: %s\n", scenario,
                result.Summary().c_str());
    ::testing::Test::RecordProperty(
        std::string(scenario) + "_distinct_schedules",
        static_cast<int>(result.distinct_schedules));
}

check::Options
DefaultOptions()
{
    check::Options options;
    options.target_distinct = kDistinctTarget;
    options.max_dfs_schedules = 4000;
    options.max_schedules = 60000;
    return options;
}

// --------------------------------------------------------------------
// Scenario: AtomicSlotSet announce/claim with a concurrent auditor.
// --------------------------------------------------------------------

TEST(ModelCheckSlotSet, AnnounceClaimAudit)
{
    FRUGAL_REQUIRE_MODELCHECK();
    static int items[2];

    // Full bounded-DFS coverage: the announce/publish reorder needs an
    // early divergence (preempting the inserter mid-insert), which DFS
    // reaches last — so this scenario gets a budget that exhausts the
    // whole ≤2-preemption space, making detection deterministic rather
    // than probabilistic.
    check::Options options = DefaultOptions();
    options.max_dfs_schedules = 120000;
    options.max_schedules = 150000;

    const check::Result result = check::Explore(
        options, [](check::Explorer &ex) {
            auto set = std::make_shared<AtomicSlotSet<int>>(4);
            auto tally =
                std::make_shared<std::array<model_atomic<int>, 2>>();

            // Two competing poppers matter: the announce-before-publish
            // reorder only becomes observable when one popper drains the
            // announced population while another — already past the
            // occupancy gate — claims a slot whose counters were not yet
            // announced (popped overtakes published). A lone popper
            // re-checks the gate per attempt and never reaches that
            // window, and the schedule needs just two preemptions, so
            // the bounded DFS finds it deterministically.
            auto pop_once = [set, tally] {
                int *item = set->PopAny();
                if (item != nullptr)
                    (*tally)[item - items].fetch_add(1);
            };
            ex.Thread([set] {
                set->Insert(&items[0]);
                set->Insert(&items[1]);
            });
            ex.Thread(pop_once);
            ex.Thread(pop_once);
            ex.Thread([set] {
                for (int i = 0; i < 2; ++i) {
                    const auto snap = set->AuditAccounting();
                    check::ModelAssert(
                        snap.per_segment_consistent,
                        "slot-set audit: popped > published mid-run");
                    check::ModelAssert(snap.popped <= snap.announced,
                                       "slot-set audit: total popped > "
                                       "total announced");
                }
            });
            ex.Go();

            // Quiescence: whatever the popper missed is still present;
            // drain it and require each item claimed exactly once.
            for (int *item = set->PopAny(); item != nullptr;
                 item = set->PopAny()) {
                (*tally)[item - items].fetch_add(1);
            }
            ex.Check((*tally)[0].load() == 1, "item 0 claimed once");
            ex.Check((*tally)[1].load() == 1, "item 1 claimed once");
            const auto snap = set->AuditAccounting();
            ex.Check(snap.per_segment_consistent,
                     "quiescent slot-set accounting consistent");
            ex.Check(snap.announced == snap.popped,
                     "quiescent: announced == popped");
            ex.Check(set->empty(), "quiescent: set drained");
        });

    ReportExploration("SlotSetAnnounceClaimAudit", result);
    EXPECT_TRUE(result.clean()) << result.first_violation;
    EXPECT_GE(result.distinct_schedules, kDistinctTarget);
}

// --------------------------------------------------------------------
// Negative control: the PR 1 announce-before-publish reorder bug.
//
// MiniInsert replicates the exact protocol of AtomicSlotSet::Insert
// (announce the published counter, then store the pointer); the buggy
// variant restores the pre-PR 1 ordering (store the pointer first).
// Under that ordering a popper can claim the pointer and bump `popped`
// before `published` was announced, so a concurrent audit observes
// popped > published — the explorer must find such a schedule.
// --------------------------------------------------------------------

struct MiniSlotSet
{
    std::array<model_atomic<int *>, 2> slots{};
    model_atomic<std::size_t> published{0};
    model_atomic<std::size_t> popped{0};
};

void
MiniInsert(MiniSlotSet &set, std::size_t slot, int *item,
           bool announce_first)
{
    if (announce_first) {
        set.published.fetch_add(1);
        set.slots[slot].store(item);
    } else {
        // The bug shape: pointer visible before its announcement.
        set.slots[slot].store(item);
        set.published.fetch_add(1);
    }
}

void
MiniPop(MiniSlotSet &set, std::size_t slot)
{
    int *item = set.slots[slot].load();
    if (item != nullptr &&
        set.slots[slot].compare_exchange_strong(item, nullptr)) {
        set.popped.fetch_add(1);
    }
}

void
MiniAudit(MiniSlotSet &set)
{
    // Same load order as AtomicSlotSet::AuditAccounting: popped first,
    // so a racing insert can only make the check conservative.
    const std::size_t popped = set.popped.load();
    const std::size_t published = set.published.load();
    check::ModelAssert(popped <= published,
                       "audit observed popped > published");
}

check::Result
ExploreMiniProtocol(bool announce_first, const check::Options &options)
{
    static int items[2];
    return check::Explore(options, [announce_first](check::Explorer &ex) {
        auto set = std::make_shared<MiniSlotSet>();
        ex.Thread([set, announce_first] {
            MiniInsert(*set, 0, &items[0], announce_first);
            MiniInsert(*set, 1, &items[1], announce_first);
        });
        ex.Thread([set] {
            MiniPop(*set, 0);
            MiniPop(*set, 1);
            MiniPop(*set, 0);
        });
        ex.Thread([set] {
            MiniAudit(*set);
            MiniAudit(*set);
            MiniAudit(*set);
        });
        ex.Go();
        // Quiescent audit only for the expected-clean variant: a run
        // aborted by an in-run violation (the buggy variant's whole
        // point) unwinds the inserter mid-protocol, legitimately
        // leaving popped > published at rest.
        if (announce_first)
            MiniAudit(*set);
    });
}

TEST(ModelCheckSlotSet, AnnounceFirstOrderingHolds)
{
    FRUGAL_REQUIRE_MODELCHECK();
    const check::Result result =
        ExploreMiniProtocol(/*announce_first=*/true, DefaultOptions());
    ReportExploration("AnnounceFirstOrderingHolds", result);
    EXPECT_TRUE(result.clean()) << result.first_violation;
    EXPECT_GE(result.distinct_schedules, kDistinctTarget);
}

TEST(ModelCheckSlotSet, ReorderBugCaught)
{
    FRUGAL_REQUIRE_MODELCHECK();
    check::Options options = DefaultOptions();
    options.stop_on_violation = true;
    const check::Result result =
        ExploreMiniProtocol(/*announce_first=*/false, options);
    ReportExploration("ReorderBugCaught", result);
    ASSERT_GT(result.violations, 0u)
        << "the explorer failed to catch the announce-before-publish "
           "reorder bug: "
        << result.Summary();
    EXPECT_NE(result.first_violation.find("popped > published"),
              std::string::npos)
        << result.first_violation;
}

// --------------------------------------------------------------------
// TwoLevelPQ scenarios.
// --------------------------------------------------------------------

/** Per-run PQ fixture: a small sharded queue plus per-entry claim
 *  counters; built fresh by every schedule (off-model, on the driving
 *  thread, so construction adds no schedule points). */
struct PQState
{
    static constexpr std::size_t kEntries = 4;

    TwoLevelPQ queue;
    std::vector<std::unique_ptr<GEntry>> entries;
    std::array<model_atomic<int>, kEntries> claims{};

    explicit PQState(std::size_t n_shards)
        : queue(TwoLevelPQConfig{/*max_step=*/3, /*segment_slots=*/4,
                                 n_shards})
    {
        for (std::size_t i = 0; i < kEntries; ++i)
            entries.push_back(std::make_unique<GEntry>(static_cast<Key>(i)));
        queue.SetScanBounds(0, 3);
    }

    GEntry &entry(std::size_t i) { return *entries[i]; }

    /** Seeds entry `i` with R = {read_step} and one pending write, so
     *  its priority is `read_step` (Equation (1)). */
    void
    SeedPending(std::size_t i, Step read_step)
    {
        RegisterRead(queue, entry(i), read_step);
        RegisterUpdate(queue, entry(i), WriteRecord{/*step=*/0, 0, {}, {}});
    }

    /** Seeds entry `i` with a write but no reads: priority ∞. */
    void
    SeedDeferred(std::size_t i)
    {
        RegisterUpdate(queue, entry(i), WriteRecord{/*step=*/0, 0, {}, {}});
    }

    /** Records a claim, requiring it to be the first for its entry
     *  (exactly-once: nothing in these scenarios re-enqueues after a
     *  claim, so a second claim is always a duplicate). */
    void
    RecordClaim(const ClaimTicket &ticket)
    {
        const auto index = static_cast<std::size_t>(ticket.entry->key());
        const int prior = claims[index].fetch_add(1);
        check::ModelAssert(prior == 0, "entry claimed twice");
    }

    /** Claim + flush body of one model flush thread. */
    void
    FlushBatch(const std::vector<ClaimTicket> &batch)
    {
        for (std::size_t i = 0; i < batch.size(); ++i) {
            if (i + 1 < batch.size()) {
                check::ModelAssert(
                    batch[i].priority <= batch[i + 1].priority,
                    "claim batch priorities not monotone");
            }
            RecordClaim(batch[i]);
            FlushClaimed(queue, batch[i], [](Key, const WriteRecord &) {});
        }
    }

    /** Drains everything left at quiescence and asserts the terminal
     *  invariants. Called on the driving thread after Go(). */
    void
    CheckDrainedExactlyOnce(check::Explorer &ex, std::size_t expect_claims)
    {
        std::vector<ClaimTicket> rest;
        queue.DequeueClaim(rest, kEntries * 2, 0);
        for (const ClaimTicket &ticket : rest) {
            RecordClaim(ticket);
            FlushClaimed(queue, ticket, [](Key, const WriteRecord &) {});
        }
        std::size_t total = 0;
        for (const auto &count : claims)
            total += static_cast<std::size_t>(count.load());
        ex.Check(total == expect_claims,
                 "every pending entry claimed exactly once");
        ex.Check(queue.AuditInvariants(/*quiescent=*/true) == 0,
                 "quiescent queue audit clean");
        ex.Check(!queue.HasPendingAtOrBelow(3), "gate clear at quiescence");
        ex.Check(queue.SizeApprox() == 0, "queue drained");
    }
};

// Two dequeuers with distinct shard hints race an updater that enqueues
// a fresh entry mid-run; sharded fast paths and the work-stealing
// fallback interleave freely. Checks: exactly-once claims, monotone
// batches, exact quiescent accounting.
TEST(ModelCheckTwoLevelPQ, ShardedDequeueExactlyOnce)
{
    FRUGAL_REQUIRE_MODELCHECK();
    const check::Result result = check::Explore(
        DefaultOptions(), [](check::Explorer &ex) {
            auto st = std::make_shared<PQState>(/*n_shards=*/2);
            st->SeedPending(0, /*read_step=*/1);
            st->SeedPending(1, /*read_step=*/2);
            st->SeedDeferred(2);

            ex.Thread([st] {
                // Staging drain registers a new update concurrently.
                RegisterRead(st->queue, st->entry(3), /*step=*/1);
                RegisterUpdate(st->queue, st->entry(3),
                               WriteRecord{/*step=*/0, 0, {}, {}});
            });
            ex.Thread([st] {
                std::vector<ClaimTicket> batch;
                st->queue.DequeueClaim(batch, 2, /*shard_hint=*/0);
                st->FlushBatch(batch);
            });
            ex.Thread([st] {
                std::vector<ClaimTicket> batch;
                st->queue.DequeueClaim(batch, 2, /*shard_hint=*/1);
                st->FlushBatch(batch);
            });
            ex.Go();
            st->CheckDrainedExactlyOnce(ex, /*expect_claims=*/4);
        });

    ReportExploration("ShardedDequeueExactlyOnce", result);
    EXPECT_TRUE(result.clean()) << result.first_violation;
    EXPECT_GE(result.distinct_schedules, kDistinctTarget);
}

// A cooperative (gate-blocked trainer) DequeueClaimBelow with the
// ceiling equal to the minimum live priority races a general flusher
// drain with a different shard hint (so the flusher reaches the
// cooperative claimer's shard only by stealing). Checks: the ceiling is
// honoured (the ∞ entry is never claimed by the cooperative path),
// batches stay monotone, claims stay exactly-once.
TEST(ModelCheckTwoLevelPQ, DequeueClaimBelowRacesFlusher)
{
    FRUGAL_REQUIRE_MODELCHECK();
    const check::Result result = check::Explore(
        DefaultOptions(), [](check::Explorer &ex) {
            auto st = std::make_shared<PQState>(/*n_shards=*/2);
            st->SeedPending(0, /*read_step=*/1);
            st->SeedPending(1, /*read_step=*/2);
            st->SeedDeferred(2);

            ex.Thread([st] {
                // Cooperative path: claim exactly the gate-blocking
                // entries (priority ≤ 1), leave the rest batching.
                std::vector<ClaimTicket> batch;
                st->queue.DequeueClaimBelow(batch, 4, /*shard_hint=*/0,
                                            /*ceiling=*/1);
                for (const ClaimTicket &ticket : batch) {
                    check::ModelAssert(
                        ticket.priority <= 1,
                        "cooperative claim exceeded its ceiling");
                }
                st->FlushBatch(batch);
            });
            ex.Thread([st] {
                std::vector<ClaimTicket> batch;
                st->queue.DequeueClaim(batch, 4, /*shard_hint=*/1);
                st->FlushBatch(batch);
            });
            ex.Go();
            st->CheckDrainedExactlyOnce(ex, /*expect_claims=*/3);
        });

    ReportExploration("DequeueClaimBelowRacesFlusher", result);
    EXPECT_TRUE(result.clean()) << result.first_violation;
    EXPECT_GE(result.distinct_schedules, kDistinctTarget);
}

// The P²F gate races the flusher and a concurrent enqueue. Entry 0 has
// a pending write read by step 1, seeded before the run, so whenever
// the gate for step 1 reports clear the write MUST already be in host
// memory — in particular during the claimed-but-not-yet-applied window,
// which only the in-flight accounting covers. A third thread enqueues
// an unrelated priority-2 entry mid-run to exercise the gate's bucket
// scan against concurrent logical-count updates.
TEST(ModelCheckTwoLevelPQ, GateVsEnqueueAndFlush)
{
    FRUGAL_REQUIRE_MODELCHECK();
    const check::Result result = check::Explore(
        DefaultOptions(), [](check::Explorer &ex) {
            auto st = std::make_shared<PQState>(/*n_shards=*/2);
            auto host = std::make_shared<model_atomic<int>>(0);
            st->SeedPending(0, /*read_step=*/1);

            ex.Thread([st, host] {
                // Flush thread: claim the gate-blocking entry and apply
                // its write to "host memory".
                std::vector<ClaimTicket> batch;
                st->queue.DequeueClaimBelow(batch, 2, /*shard_hint=*/0,
                                            /*ceiling=*/1);
                for (const ClaimTicket &ticket : batch) {
                    st->RecordClaim(ticket);
                    FlushClaimed(st->queue, ticket,
                                 [host](Key, const WriteRecord &) {
                                     host->store(1);
                                 });
                }
            });
            ex.Thread([st, host] {
                // Trainer at step 1: polls the gate a bounded number of
                // times; every "clear" observation asserts the P²F
                // invariant (never claimed-but-unapplied).
                for (int attempt = 0; attempt < 3; ++attempt) {
                    if (!st->queue.HasPendingAtOrBelow(1)) {
                        check::ModelAssert(
                            host->load() == 1,
                            "gate opened before the pending write "
                            "reached host memory");
                    }
                }
            });
            ex.Thread([st] {
                // Staging drain enqueues an unrelated later-step entry
                // while the gate scans the bucket counters.
                RegisterRead(st->queue, st->entry(1), /*step=*/2);
                RegisterUpdate(st->queue, st->entry(1),
                               WriteRecord{/*step=*/0, 0, {}, {}});
            });
            ex.Go();
            ex.Check(host->load() == 1 || st->claims[0].load() == 0,
                     "claimed write applied by run end");
            st->CheckDrainedExactlyOnce(ex, /*expect_claims=*/2);
            ex.Check(host->load() == 1, "host memory holds the update");
        });

    ReportExploration("GateVsEnqueueAndFlush", result);
    EXPECT_TRUE(result.clean()) << result.first_violation;
    EXPECT_GE(result.distinct_schedules, kDistinctTarget);
}

// A read registered while the entry's writes are claimed re-enqueues it
// at that read's step (a "zombie" standing enqueue), while the claim's
// in-flight count stays at the claim priority (∞ here). The flush that
// takes the writes must keep the standing enqueue — and with it the gate
// for step 1 — in place until the writes reach host memory; retiring it
// before the apply lets a step-1 reader through with the update still
// unapplied.
TEST(ModelCheckTwoLevelPQ, ZombieEnqueueKeepsGateClosedUntilApplied)
{
    FRUGAL_REQUIRE_MODELCHECK();
    const check::Result result = check::Explore(
        DefaultOptions(), [](check::Explorer &ex) {
            auto st = std::make_shared<PQState>(/*n_shards=*/2);
            auto host = std::make_shared<model_atomic<int>>(0);
            st->SeedDeferred(0);
            std::vector<ClaimTicket> claimed;
            st->queue.DequeueClaim(claimed, 1, /*shard_hint=*/0);
            ex.Check(claimed.size() == 1, "seed: deferred entry claimed");
            st->RecordClaim(claimed[0]);
            RegisterRead(st->queue, st->entry(0), /*step=*/1);
            const ClaimTicket ticket = claimed[0];

            ex.Thread([st, host, ticket] {
                FlushClaimed(st->queue, ticket,
                             [host](Key, const WriteRecord &) {
                                 host->store(1);
                             });
            });
            ex.Thread([st, host] {
                for (int attempt = 0; attempt < 3; ++attempt) {
                    if (!st->queue.HasPendingAtOrBelow(1)) {
                        check::ModelAssert(
                            host->load() == 1,
                            "gate opened before the re-enqueued write "
                            "reached host memory");
                    }
                }
            });
            ex.Go();
            st->CheckDrainedExactlyOnce(ex, /*expect_claims=*/1);
            ex.Check(host->load() == 1, "host memory holds the update");
        });

    ReportExploration("ZombieEnqueueKeepsGateClosedUntilApplied", result);
    EXPECT_TRUE(result.clean()) << result.first_violation;
    EXPECT_GE(result.distinct_schedules, kDistinctTarget);
}

// --------------------------------------------------------------------
// Register-and-flush-due: step registration flushes an entry the next
// step reads in place (RegisterUpdates) through the same locked body as
// a claim (FlushEntryLocked), instead of enqueueing it.
// --------------------------------------------------------------------

/** Where a model flush retires the entry's standing enqueue. */
enum class StandingRetire {
    /** FlushEntryLocked's order: after the apply and the post hook. */
    kAfterApply,
    /** The bug shape: before the apply. */
    kBeforeApply,
};

/** Per-run fixture: entry 0 holds a step-0 write that a flush thread has
 *  claimed at ∞ (ticket held, not yet applied); step 1 is about to
 *  register two more rows for it. */
struct DueFlushState
{
    static constexpr Step kStep = 1;
    static constexpr int kRecords = 3;

    explicit DueFlushState(check::Explorer &ex) : pq(/*n_shards=*/2)
    {
        pq.SeedDeferred(0);
        std::vector<ClaimTicket> claimed;
        pq.queue.DequeueClaim(claimed, 1, /*shard_hint=*/0);
        ex.Check(claimed.size() == 1, "seed: deferred entry claimed");
        ticket = claimed.front();
    }

    GEntry &entry() { return pq.entry(0); }

    /** The apply callback: records (step, src) in apply order. Runs
     *  under the entry lock. */
    void
    Apply(std::span<const WriteRecord> writes)
    {
        for (const WriteRecord &record : writes) {
            log.emplace_back(record.step, record.src);
            applied.fetch_add(1);
        }
    }

    /** The flush thread's body for its claim. */
    std::size_t
    FlushClaim(StandingRetire retire)
    {
        if (retire == StandingRetire::kAfterApply) {
            return FlushClaimed(pq.queue, ticket,
                                [this](Key, const WriteRecord &record) {
                                    Apply({&record, 1});
                                });
        }
        std::size_t n = 0;
        {
            SpinGuard guard(entry().lock());
            if (entry().enqueuedLocked()) {
                entry().setEnqueuedLocked(false);
                pq.queue.Unenqueue(&entry(), entry().priorityLocked());
            }
            const std::span<WriteRecord> writes = entry().writesLocked();
            SortCanonical(writes);
            Apply(writes);
            n = writes.size();
            entry().ClearWritesLocked();
        }
        pq.queue.OnFlushed(ticket);
        return n;
    }

    PQState pq;
    ClaimTicket ticket;
    /** Applied (step, src) pairs in apply order. */
    std::vector<std::pair<Step, GpuId>> log;
    model_atomic<int> applied{0};
    /** drained_steps past kStep: step 1 fully registered. */
    model_atomic<int> published{0};
    /** Step 2's read registered: its R sets are in place. */
    model_atomic<int> read_registered{0};
    std::size_t registration_applied = 0;
    std::size_t claim_applied = 0;
};

/** `past_claim` (nullable) counts the schedules in which registration
 *  flushed the claimed write too. */
check::Result
ExploreDueFlush(StandingRetire retire, const check::Options &options,
                std::uint64_t *past_claim)
{
    return check::Explore(options, [retire, past_claim](check::Explorer &ex) {
        auto st = std::make_shared<DueFlushState>(ex);
        ex.Thread([st] {
            // A trainer registers step 1's two rows for the key, then
            // publishes the step.
            const UpdateRow rows[2] = {{0, 0, nullptr}, {0, 1, nullptr}};
            st->registration_applied = RegisterUpdates(
                st->pq.queue, st->entry(), DueFlushState::kStep, rows,
                /*dim=*/0, {}, /*flush_due=*/true,
                [st](Key, std::span<const WriteRecord> writes) {
                    st->Apply(writes);
                },
                [](Key) {});
            st->published.store(1);
        });
        ex.Thread([st] {
            // Step 2's read of the key. The engine registers it in the
            // same part, just before the writes; a separate thread covers
            // every order of the two.
            RegisterRead(st->pq.queue, st->entry(), /*step=*/2);
            st->read_registered.store(1);
        });
        ex.Thread([st, retire] { st->claim_applied = st->FlushClaim(retire); });
        ex.Thread([st] {
            // A trainer at the step-2 gate: every "open" observation
            // requires all three writes in host memory.
            for (int attempt = 0; attempt < 3; ++attempt) {
                if (st->published.load() == 1 &&
                    st->read_registered.load() == 1 &&
                    !st->pq.queue.HasPendingAtOrBelow(2)) {
                    check::ModelAssert(
                        st->applied.load() == DueFlushState::kRecords,
                        "step-2 gate opened before every write reached "
                        "host memory");
                }
            }
        });
        ex.Go();
        if (retire != StandingRetire::kAfterApply)
            return;  // an aborted run may stop mid-flush

        // Quiescent: drain what the run left queued, then every record
        // was applied exactly once, in (step, src) order.
        std::vector<ClaimTicket> rest;
        st->pq.queue.DequeueClaim(rest, 4, 0);
        for (const ClaimTicket &ticket : rest) {
            FlushClaimed(st->pq.queue, ticket,
                         [&st](Key, const WriteRecord &record) {
                             st->Apply({&record, 1});
                         });
        }
        const std::vector<std::pair<Step, GpuId>> canonical = {
            {0, 0}, {1, 0}, {1, 1}};
        ex.Check(st->log == canonical,
                 "every write applied once, in (step, src) order");
        if (st->registration_applied == DueFlushState::kRecords) {
            ex.Check(st->claim_applied == 0,
                     "a claim whose write the due flush took retires with "
                     "0 records");
            if (past_claim != nullptr)
                ++*past_claim;
        }
        ex.Check(st->pq.queue.AuditInvariants(/*quiescent=*/true) == 0,
                 "logical and in-flight counts drained to zero");
        ex.Check(!st->pq.queue.HasPendingAtOrBelow(3),
                 "gate clear at quiescence");
        ex.Check(st->pq.queue.SizeApprox() == 0, "queue drained");
        SpinGuard guard(st->entry().lock());
        ex.Check(!st->entry().hasWritesLocked() &&
                     !st->entry().enqueuedLocked(),
                 "entry drained and dequeued");
    });
}

TEST(ModelCheckDueFlush, RegistrationFlushesDueEntryPastAClaim)
{
    FRUGAL_REQUIRE_MODELCHECK();
    std::uint64_t past_claim = 0;
    const check::Result result = ExploreDueFlush(
        StandingRetire::kAfterApply, DefaultOptions(), &past_claim);
    ReportExploration("DueFlush", result);
    EXPECT_TRUE(result.clean()) << result.first_violation;
    EXPECT_GE(result.distinct_schedules, kDistinctTarget);
    // The scenario's point: some schedules flush the claimed write at
    // registration.
    EXPECT_GT(past_claim, 0u);
}

TEST(ModelCheckDueFlush, RetireBeforeApplyCaught)
{
    FRUGAL_REQUIRE_MODELCHECK();
    check::Options options = DefaultOptions();
    options.stop_on_violation = true;
    const check::Result result =
        ExploreDueFlush(StandingRetire::kBeforeApply, options, nullptr);
    ReportExploration("DueFlushRetireBeforeApplyCaught", result);
    ASSERT_GT(result.violations, 0u)
        << "the explorer failed to catch a flush that retires the "
           "standing enqueue before the apply: "
        << result.Summary();
    EXPECT_NE(result.first_violation.find("before every write"),
              std::string::npos)
        << result.first_violation;
}

// --------------------------------------------------------------------
// Step registration: right after the step barrier, trainers claim the
// step's registration parts through PartClaimer while a trainer already
// at the next gate polls it. Each part registers its keys' reads of the
// steps entering the lookahead window, then the step's writes. The gate
// must open only once every part's reads and writes are registered, and
// each part must be registered exactly once.
// --------------------------------------------------------------------

/** What the model gate tests to decide that a step is registered. */
enum class RegistrationGate {
    /** The engine's predicate: the last finisher's publication
     *  (drained_steps). */
    kLastFinisherPublished,
    /** The bug shape: every part merely claimed. */
    kAllPartsClaimed,
};

/** Where a part's read records go relative to finishing the part. */
enum class ReadOrder {
    /** The engine's order: reads, writes, then Finish (and publish). */
    kBeforeFinish,
    /** The bug shape: the reads after Finish, so the last finisher
     *  publishes before its own part's reads are registered. */
    kAfterPublish,
};

/** Per-run registration fixture: one step, three parts (more parts than
 *  the two trainers, as after a trainer death). */
struct RegistrationState
{
    static constexpr std::uint32_t kParts = 3;
    /** Read records per part: one, for a key of a step entering the
     *  window. */
    static constexpr int kReadsPerPart = 1;
    /** Write records per part: two, so a claimer can be preempted
     *  mid-part. */
    static constexpr int kRecordsPerPart = 2;

    PartClaimer claimer{kParts};
    std::array<model_atomic<int>, kParts> claims{};
    std::array<model_atomic<int>, kParts> reads{};
    std::array<model_atomic<int>, kParts> records{};
    /** The engine's drained_steps, for one step. */
    model_atomic<int> published{0};

    /** A trainer's post-barrier loop (StepRegistration::RegisterStep). */
    void
    RegisterClaimedParts(ReadOrder order)
    {
        for (std::uint32_t part = claimer.Claim(); part < kParts;
             part = claimer.Claim()) {
            check::ModelAssert(claims[part].fetch_add(1) == 0,
                               "registration part claimed twice");
            if (order == ReadOrder::kBeforeFinish)
                RegisterReads(part);
            for (int r = 0; r < kRecordsPerPart; ++r)
                records[part].fetch_add(1);
            if (claimer.Finish()) {
                check::ModelAssert(published.load() == 0,
                                   "step published twice");
                published.store(1);
            }
            if (order == ReadOrder::kAfterPublish)
                RegisterReads(part);
        }
    }

    void
    RegisterReads(std::uint32_t part)
    {
        for (int r = 0; r < kReadsPerPart; ++r)
            reads[part].fetch_add(1);
    }

    bool
    GateOpen(RegistrationGate gate) const
    {
        return gate == RegistrationGate::kLastFinisherPublished
                   ? published.load() == 1
                   : claimer.claimed() == kParts;
    }
};

check::Result
ExploreStepRegistration(RegistrationGate gate, ReadOrder order,
                        const check::Options &options)
{
    return check::Explore(options, [gate, order](check::Explorer &ex) {
        auto state = std::make_shared<RegistrationState>();
        state->claimer.Reset();  // the barrier completion's reset
        ex.Thread([state, order] { state->RegisterClaimedParts(order); });
        ex.Thread([state, order] { state->RegisterClaimedParts(order); });
        ex.Thread([state, gate] {
            for (int i = 0; i < 3; ++i) {
                if (!state->GateOpen(gate))
                    continue;
                for (std::uint32_t p = 0; p < RegistrationState::kParts;
                     ++p) {
                    check::ModelAssert(
                        state->records[p].load() ==
                            RegistrationState::kRecordsPerPart,
                        "gate opened with a part unregistered");
                    check::ModelAssert(
                        state->reads[p].load() ==
                            RegistrationState::kReadsPerPart,
                        "gate opened with a part's reads unregistered");
                }
            }
        });
        ex.Go();

        // Quiescent: only for the expected-clean variant (a
        // violation-aborted run unwinds the claimers mid-part).
        if (gate == RegistrationGate::kLastFinisherPublished &&
            order == ReadOrder::kBeforeFinish) {
            for (std::uint32_t p = 0; p < RegistrationState::kParts; ++p) {
                ex.Check(state->claims[p].load() == 1,
                         "every part claimed exactly once");
                ex.Check(state->reads[p].load() ==
                             RegistrationState::kReadsPerPart,
                         "every part's reads registered once");
                ex.Check(state->records[p].load() ==
                             RegistrationState::kRecordsPerPart,
                         "every part fully registered");
            }
            ex.Check(state->claimer.done() == RegistrationState::kParts,
                     "every part finished");
            ex.Check(state->published.load() == 1,
                     "the step was published");
        }
    });
}

TEST(ModelCheckStepRegistration, GateOpensOnlyWhenEveryPartRegistered)
{
    FRUGAL_REQUIRE_MODELCHECK();
    const check::Result result = ExploreStepRegistration(
        RegistrationGate::kLastFinisherPublished, ReadOrder::kBeforeFinish,
        DefaultOptions());
    ReportExploration("StepRegistration", result);
    EXPECT_TRUE(result.clean()) << result.first_violation;
    EXPECT_GE(result.distinct_schedules, kDistinctTarget);
}

TEST(ModelCheckStepRegistration, ClaimedNotDoneGateCaught)
{
    FRUGAL_REQUIRE_MODELCHECK();
    check::Options options = DefaultOptions();
    options.stop_on_violation = true;
    const check::Result result = ExploreStepRegistration(
        RegistrationGate::kAllPartsClaimed, ReadOrder::kBeforeFinish,
        options);
    ReportExploration("StepRegistrationClaimedGateCaught", result);
    ASSERT_GT(result.violations, 0u)
        << "the explorer failed to catch a gate that opens on claimed "
           "(not registered) parts: "
        << result.Summary();
    EXPECT_NE(result.first_violation.find("part unregistered"),
              std::string::npos)
        << result.first_violation;
}

TEST(ModelCheckStepRegistration, ReadsAfterPublishCaught)
{
    FRUGAL_REQUIRE_MODELCHECK();
    check::Options options = DefaultOptions();
    options.stop_on_violation = true;
    const check::Result result = ExploreStepRegistration(
        RegistrationGate::kLastFinisherPublished, ReadOrder::kAfterPublish,
        options);
    ReportExploration("StepRegistrationReadsAfterPublishCaught", result);
    ASSERT_GT(result.violations, 0u)
        << "the explorer failed to catch a last finisher that publishes "
           "the step before its part's reads are registered: "
        << result.Summary();
    EXPECT_NE(result.first_violation.find("reads unregistered"),
              std::string::npos)
        << result.first_violation;
}

}  // namespace
}  // namespace frugal
