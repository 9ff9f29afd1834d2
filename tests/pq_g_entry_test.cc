/** Tests for the g-entry metadata record and the Equation (1) priority. */
#include "pq/g_entry.h"

#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "pq/g_entry_registry.h"
#include "pq/pq_ops.h"
#include "pq/two_level_pq.h"

namespace frugal {
namespace {

/** Convenience: run `fn` with the entry lock held. */
template <typename Fn>
auto
WithLock(GEntry &e, Fn &&fn)
{
    SpinGuard guard(e.lock());
    return fn();
}

TEST(GEntryTest, FreshEntryIsIdle)
{
    GEntry e(7);
    EXPECT_EQ(e.key(), 7u);
    WithLock(e, [&] {
        EXPECT_EQ(e.priorityLocked(), kInfiniteStep);
        EXPECT_FALSE(e.hasWritesLocked());
        EXPECT_FALSE(e.hasReadsLocked());
        EXPECT_FALSE(e.enqueuedLocked());
        return 0;
    });
}

TEST(GEntryTest, ReadAloneKeepsInfinitePriority)
{
    // Equation (1): priority is ∞ while the W set is empty.
    GEntry e(1);
    WithLock(e, [&] {
        auto [old_p, new_p] = e.AddReadLocked(5);
        EXPECT_EQ(old_p, kInfiniteStep);
        EXPECT_EQ(new_p, kInfiniteStep);
        return 0;
    });
}

TEST(GEntryTest, WriteWithPendingReadSetsPriorityToMinRead)
{
    GEntry e(1);
    WithLock(e, [&] {
        e.AddReadLocked(3);
        e.AddReadLocked(8);
        auto [old_p, new_p] = e.AddWriteLocked({2, 0, {}});
        EXPECT_EQ(old_p, kInfiniteStep);
        EXPECT_EQ(new_p, 3u);
        return 0;
    });
}

TEST(GEntryTest, WriteWithoutReadsIsInfinite)
{
    GEntry e(1);
    WithLock(e, [&] {
        auto [old_p, new_p] = e.AddWriteLocked({2, 0, {}});
        EXPECT_EQ(new_p, kInfiniteStep);
        (void)old_p;
        return 0;
    });
}

TEST(GEntryTest, RemoveReadAdvancesPriority)
{
    GEntry e(1);
    WithLock(e, [&] {
        e.AddReadLocked(3);
        e.AddReadLocked(8);
        e.AddWriteLocked({2, 0, {}});
        auto [old_p, new_p] = e.RemoveReadLocked(3);
        EXPECT_EQ(old_p, 3u);
        EXPECT_EQ(new_p, 8u);
        return 0;
    });
}

TEST(GEntryTest, RemoveLastReadGoesInfinite)
{
    GEntry e(1);
    WithLock(e, [&] {
        e.AddReadLocked(3);
        e.AddWriteLocked({2, 0, {}});
        auto [old_p, new_p] = e.RemoveReadLocked(3);
        EXPECT_EQ(old_p, 3u);
        EXPECT_EQ(new_p, kInfiniteStep);
        return 0;
    });
}

TEST(GEntryTest, RemoveMiddleRead)
{
    GEntry e(1);
    WithLock(e, [&] {
        e.AddReadLocked(3);
        e.AddReadLocked(5);
        e.AddReadLocked(9);
        e.AddWriteLocked({1, 0, {}});
        e.RemoveReadLocked(5);  // not the front
        EXPECT_EQ(e.priorityLocked(), 3u);
        EXPECT_EQ(e.readCountLocked(), 2u);
        e.RemoveReadLocked(3);
        EXPECT_EQ(e.priorityLocked(), 9u);
        return 0;
    });
}

TEST(GEntryTest, RemoveAbsentReadIsNoOp)
{
    GEntry e(1);
    WithLock(e, [&] {
        e.AddReadLocked(4);
        e.AddWriteLocked({1, 0, {}});
        e.RemoveReadLocked(99);
        EXPECT_EQ(e.priorityLocked(), 4u);
        EXPECT_EQ(e.readCountLocked(), 1u);
        return 0;
    });
}

TEST(GEntryTest, DuplicateReadInSameStepDeduped)
{
    GEntry e(1);
    WithLock(e, [&] {
        e.AddReadLocked(4);
        e.AddReadLocked(4);
        EXPECT_EQ(e.readCountLocked(), 1u);
        return 0;
    });
}

TEST(GEntryTest, TakeWritesEmptiesAndRecomputes)
{
    GEntry e(1);
    WithLock(e, [&] {
        e.AddReadLocked(6);
        e.AddWriteLocked({2, 0, {1.0f, 2.0f}});
        e.AddWriteLocked({4, 1, {3.0f}});
        auto writes = e.TakeWritesLocked();
        EXPECT_EQ(writes.size(), 2u);
        EXPECT_EQ(writes[0].step, 2u);
        EXPECT_EQ(writes[0].grad.size(), 2u);
        EXPECT_EQ(writes[1].src, 1u);
        EXPECT_FALSE(e.hasWritesLocked());
        // W empty ⇒ priority back to ∞ even with reads pending.
        EXPECT_EQ(e.priorityLocked(), kInfiniteStep);
        return 0;
    });
}

TEST(GEntryTest, FlushCycleReusesWriteSlots)
{
    // The W set lives in slots the entry keeps across flushes: a second
    // register/flush cycle reuses the same slot buffer and rows without
    // growing them, and the copying take still reports arrival order.
    TwoLevelPQ queue(TwoLevelPQConfig{/*max_step=*/16});
    GEntry e(1);
    const float row_a[2] = {1.0f, 2.0f};
    const float row_b[2] = {3.0f, 4.0f};
    RegisterRead(queue, e, 9);
    RegisterUpdate(queue, e, 3, 0, row_a, 2, {});
    RegisterUpdate(queue, e, 3, 1, row_b, 2, {});
    const WriteRecord *slots = nullptr;
    const float *first_row = nullptr;
    std::size_t kept = 0;
    WithLock(e, [&] {
        slots = e.writesLocked().data();
        first_row = e.writesLocked()[0].grad.data();
        kept = e.writeSlotsLocked();
        return 0;
    });
    std::size_t seen = 0;
    EXPECT_EQ(FlushEntry(
                  queue, e,
                  [&](Key, std::span<const WriteRecord> writes) {
                      seen = writes.size();
                  },
                  [](Key) {}),
              2u);
    EXPECT_EQ(seen, 2u);

    RegisterUpdate(queue, e, 4, 1, row_b, 2, {});
    RegisterUpdate(queue, e, 4, 0, row_a, 2, {});
    WithLock(e, [&] {
        EXPECT_EQ(e.writesLocked().data(), slots);
        EXPECT_EQ(e.writeSlotsLocked(), kept);
        EXPECT_EQ(e.writesLocked()[0].grad.data(), first_row);
        const std::vector<WriteRecord> taken = e.TakeWritesLocked();
        EXPECT_EQ(taken.size(), 2u);
        if (taken.size() != 2)
            return 0;
        EXPECT_EQ(taken[0].step, 4u);
        EXPECT_EQ(taken[0].src, 1u);  // arrival order, not canonical
        EXPECT_EQ(taken[0].grad, std::vector<float>(row_b, row_b + 2));
        EXPECT_EQ(taken[1].src, 0u);
        EXPECT_EQ(taken[1].grad, std::vector<float>(row_a, row_a + 2));
        EXPECT_FALSE(e.hasWritesLocked());
        // The take copies out; the slots stay for the next writes.
        EXPECT_EQ(e.writeSlotsLocked(), kept);
        // Still enqueued from the second cycle: retire it by hand.
        EXPECT_TRUE(e.enqueuedLocked());
        e.setEnqueuedLocked(false);
        queue.Unenqueue(&e, 9);
        return 0;
    });
    EXPECT_EQ(queue.AuditInvariants(/*quiescent=*/true), 0u);
}

TEST(GEntryTest, ReadFifoReusesConsumedPrefix)
{
    // The R set keeps its capacity: reads consumed from the front make
    // room for later ones without the steps ever moving out of order.
    GEntry e(1);
    WithLock(e, [&] {
        for (Step s = 0; s < 64; ++s) {
            e.AddReadLocked(s + 4);
            e.RemoveReadLocked(s);  // absent for s < 4: a no-op
            EXPECT_EQ(e.nextReadLocked(), s < 3 ? 4u : s + 1);
        }
        EXPECT_EQ(e.readCountLocked(), 4u);
        e.RemoveReadLocked(66);  // from the middle
        EXPECT_EQ(e.readCountLocked(), 3u);
        EXPECT_EQ(e.nextReadLocked(), 64u);
        return 0;
    });
}

TEST(GEntryTest, NextReadReported)
{
    GEntry e(1);
    WithLock(e, [&] {
        EXPECT_EQ(e.nextReadLocked(), kInfiniteStep);
        e.AddReadLocked(11);
        EXPECT_EQ(e.nextReadLocked(), 11u);
        return 0;
    });
}

TEST(GEntryRegistryTest, GetOrCreateIsStable)
{
    GEntryRegistry registry(8);
    GEntry &a = registry.GetOrCreate(42);
    GEntry &b = registry.GetOrCreate(42);
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(registry.size(), 1u);
    EXPECT_EQ(registry.Find(42), &a);
    EXPECT_EQ(registry.Find(43), nullptr);
}

TEST(GEntryRegistryTest, ForEachVisitsAll)
{
    GEntryRegistry registry(4);
    for (Key k = 0; k < 100; ++k)
        registry.GetOrCreate(k);
    int visited = 0;
    registry.ForEach([&](GEntry &) { ++visited; });
    EXPECT_EQ(visited, 100);
    EXPECT_EQ(registry.size(), 100u);
}

TEST(GEntryRegistryTest, GetOrCreateBatchMatchesSingles)
{
    GEntryRegistry batched(8), singles(8);
    // Unsorted keys with duplicates and a key that already exists.
    batched.GetOrCreate(17);
    singles.GetOrCreate(17);
    const std::vector<Key> keys = {42, 7, 17, 42, 1000, 7, 3};
    std::vector<GEntry *> out(keys.size(), nullptr);
    batched.GetOrCreateBatch(keys, out.data());
    for (std::size_t i = 0; i < keys.size(); ++i) {
        ASSERT_NE(out[i], nullptr) << i;
        EXPECT_EQ(out[i]->key(), keys[i]) << i;
        // Duplicates resolve to the same entry, and a later single-call
        // lookup agrees with the batch result.
        EXPECT_EQ(out[i], &batched.GetOrCreate(keys[i])) << i;
        singles.GetOrCreate(keys[i]);
    }
    EXPECT_EQ(out[0], out[3]);
    EXPECT_EQ(out[1], out[5]);
    EXPECT_EQ(batched.size(), singles.size());
}

TEST(GEntryRegistryTest, GetOrCreateBatchEmptyAndLarge)
{
    GEntryRegistry registry(8);
    registry.GetOrCreateBatch(std::span<const Key>{}, nullptr);
    EXPECT_EQ(registry.size(), 0u);

    // Enough keys to span every shard and force arena block growth.
    std::vector<Key> keys;
    for (Key k = 0; k < 600; ++k)
        keys.push_back(k * 31 + 5);
    std::vector<GEntry *> out(keys.size(), nullptr);
    registry.GetOrCreateBatch(keys, out.data());
    EXPECT_EQ(registry.size(), keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i)
        EXPECT_EQ(out[i], registry.Find(keys[i])) << i;
}

}  // namespace
}  // namespace frugal
