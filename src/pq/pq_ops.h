/**
 * @file
 * Composite g-entry/queue operations — the three transitions of the P²F
 * algorithm (§3.3), shared by the controller threads and the tests:
 *
 *  - RegisterRead: a step boundary's registration saw `key` in the
 *    sample queue for a step s entering the lookahead window ⇒ insert s
 *    into the R set (and re-prioritise if enqueued).
 *  - RegisterUpdates: a trainer registers one key's ⟨key, s, Δ⟩ rows
 *    after step s's barrier ⇒ remove s from the R set, copy the rows into
 *    the W set's slots, then either flush the entry in place if step
 *    s + 1 reads it (it is *due*) or enqueue / re-prioritise it.
 *    RegisterUpdate is the one-row form that always enqueues.
 *  - FlushEntry: a flush thread owns a claimed entry ⇒ apply its W set
 *    in canonical (step, src) order to host memory (FlushClaimed wraps it
 *    for per-record appliers; TakeClaimedWrites only detaches a sorted
 *    copy, for callers that apply elsewhere).
 *
 * Both flushes — of a claim and of a due entry — run one locked body,
 * FlushEntryLocked. Each helper takes the entry lock internally; the
 * FlushQueue methods it calls are specified to run under that lock.
 */
#ifndef FRUGAL_PQ_PQ_OPS_H_
#define FRUGAL_PQ_PQ_OPS_H_

#include <algorithm>
#include <chrono>
#include <span>
#include <utility>
#include <vector>

#include "pq/flush_queue.h"
#include "pq/g_entry.h"

namespace frugal {

/** Applies a priority transition to the queue; entry lock held. */
inline void
PropagatePriorityLocked(FlushQueue &queue, GEntry &entry, Priority before,
                        Priority after) FRUGAL_REQUIRES(entry.lock())
{
    if (!entry.hasWritesLocked()) {
        // Entries without pending writes are never enqueued; nothing to
        // propagate (they are re-enqueued when a write arrives).
        return;
    }
    if (!entry.enqueuedLocked()) {
        entry.setEnqueuedLocked(true);
        queue.Enqueue(&entry, after);
    } else if (before != after) {
        queue.OnPriorityChange(&entry, before, after);
    }
}

/** Prefetch-side transition: step `s` will read `entry`'s parameter. */
inline void
RegisterRead(FlushQueue &queue, GEntry &entry, Step step)
{
    SpinGuard guard(entry.lock());
    const Priority before = entry.priorityLocked();
    entry.AddReadLocked(step);
    PropagatePriorityLocked(queue, entry, before, entry.priorityLocked());
}

/**
 * The canonical per-parameter application order, (step, src): every
 * consumer applies a given parameter's updates in this one order, which
 * keeps stateful optimizers deterministic and lets tests compare against
 * an oracle bit-for-bit.
 */
inline void
SortCanonical(std::span<WriteRecord> writes)
{
    std::sort(writes.begin(), writes.end(),
              [](const WriteRecord &a, const WriteRecord &b) {
                  return a.step != b.step ? a.step < b.step : a.src < b.src;
              });
}

/**
 * The one flush body, whoever runs it (§3.3 "flush the parameter updates
 * recorded in its W set to host memory"), with the entry lock held: sorts
 * the W set canonically in place, hands it to `apply(key, writes)` (a
 * std::span<const WriteRecord>), runs `post(key)`, empties the W set —
 * its slots stay for the next writes — and only then retires any standing
 * enqueue, which the queue holds at `standing_priority`. Both callbacks
 * run only when there was something to apply. Frugal's post hook copies
 * the committed host row into the owner GPU's cache ("H2D"), which must
 * complete before the gate may open.
 *
 * Applying the writes inside the entry-lock hold also pins the per-key
 * application order to lock-acquisition order: a second flush of the
 * entry's newer writes can only apply them after this one releases the
 * lock, so a row's update sequence is always the canonical (step, src)
 * order.
 *
 * A read or a write may have re-enqueued the entry after it was claimed.
 * Its newer writes are applied here as well, so the standing enqueue must
 * be retired — otherwise it would survive as a zombie whose logical count
 * never drains (the queue would never look empty again). It is retired
 * only after the apply and the post hook: its count is what keeps the
 * gate closed for the step that re-enqueued it, while a claim's in-flight
 * count may sit at a later priority (or ∞).
 *
 * Claims are not retired here: the caller reports each of its tickets on
 * the entry to FlushQueue::OnFlushed afterwards.
 *
 * @return the number of records applied.
 */
template <typename ApplyFn, typename PostFn>
std::size_t
FlushEntryLocked(FlushQueue &queue, GEntry &entry, Priority standing_priority,
                 ApplyFn &&apply, PostFn &&post) FRUGAL_REQUIRES(entry.lock())
{
    const std::span<WriteRecord> writes = entry.writesLocked();
    if (!writes.empty()) {
        SortCanonical(writes);
        apply(entry.key(), std::span<const WriteRecord>(writes));
        post(entry.key());
        entry.ClearWritesLocked();
    }
    if (entry.enqueuedLocked()) {
        entry.setEnqueuedLocked(false);
        queue.Unenqueue(&entry, standing_priority);
    }
    return writes.size();
}

/** Flushes one claimed entry through FlushEntryLocked under the entry
 *  lock. @return the number of records applied. */
template <typename ApplyFn, typename PostFn>
std::size_t
FlushEntry(FlushQueue &queue, GEntry &entry, ApplyFn &&apply, PostFn &&post)
{
    SpinGuard guard(entry.lock());
    return FlushEntryLocked(queue, entry, entry.priorityLocked(),
                            std::forward<ApplyFn>(apply),
                            std::forward<PostFn>(post));
}

/** One GPU's gradient row for one key of one step. Registration copies
 *  the row, so `grad` need only outlive the call. */
struct UpdateRow
{
    Key key = 0;
    GpuId src = 0;
    const float *grad = nullptr;
};

/**
 * Registration-side transition for one key's run of step-`step` rows
 * (all with `entry`'s key, in src order), under one entry-lock hold:
 * removes `step` from the R set and copies each `dim`-float row into the
 * W set. If `flush_due` and the entry is then *due* — its priority is at
 * most step + 1, so the very next step reads it — it is flushed right
 * here through FlushEntryLocked with the caller's `apply` and `post`,
 * instead of being enqueued for a claim the next gate would wait on.
 * Otherwise it is enqueued or re-prioritised. A standing enqueue of the
 * entry sits at the priority it had before this call, which is what the
 * flush retires.
 *
 * The caller must not let step + 1 start before this returns (the engine
 * publishes the step as registered only afterwards): that, not a queue
 * count, keeps the next gate closed while a due entry is applied.
 *
 * @return the number of records applied (0 when the entry was queued).
 */
template <typename ApplyFn, typename PostFn>
std::size_t
RegisterUpdates(FlushQueue &queue, GEntry &entry, Step step,
                std::span<const UpdateRow> rows, std::size_t dim,
                std::chrono::steady_clock::time_point staged, bool flush_due,
                ApplyFn &&apply, PostFn &&post)
{
    SpinGuard guard(entry.lock());
    const Priority before = entry.priorityLocked();
    entry.RemoveReadLocked(step);
    for (const UpdateRow &row : rows) {
        FRUGAL_DCHECK(row.key == entry.key());
        entry.AddWriteLocked(step, row.src, row.grad, dim, staged);
    }
    if (flush_due && entry.priorityLocked() <= step + 1) {
        return FlushEntryLocked(queue, entry, before,
                                std::forward<ApplyFn>(apply),
                                std::forward<PostFn>(post));
    }
    PropagatePriorityLocked(queue, entry, before, entry.priorityLocked());
    return 0;
}

/** Registers one row of step `step` and enqueues or re-prioritises the
 *  entry (RegisterUpdates without the due flush). */
inline void
RegisterUpdate(FlushQueue &queue, GEntry &entry, Step step, GpuId src,
               const float *grad, std::size_t dim,
               std::chrono::steady_clock::time_point staged)
{
    const UpdateRow row{entry.key(), src, grad};
    RegisterUpdates(
        queue, entry, step, std::span<const UpdateRow>(&row, 1), dim, staged,
        /*flush_due=*/false, [](Key, std::span<const WriteRecord>) {},
        [](Key) {});
}

/** RegisterUpdate for a whole record: step `record.step` updated the
 *  parameter. */
inline void
RegisterUpdate(FlushQueue &queue, GEntry &entry, const WriteRecord &record)
{
    RegisterUpdate(queue, entry, record.step, record.src, record.grad.data(),
                   record.grad.size(), record.staged);
}

/**
 * Flushes the entry of one claim through FlushEntry, calling
 * `apply(key, record)` once per record and `post(key)` after the last,
 * then retires the claim.
 *
 * @return the number of records applied.
 */
template <typename ApplyFn, typename PostFn>
std::size_t
FlushClaimed(FlushQueue &queue, const ClaimTicket &ticket, ApplyFn &&apply,
             PostFn &&post)
{
    const std::size_t applied = FlushEntry(
        queue, *ticket.entry,
        [&apply](Key key, std::span<const WriteRecord> writes) {
            for (const WriteRecord &record : writes)
                apply(key, record);
        },
        post);
    queue.OnFlushed(ticket);
    return applied;
}

/** Flush without a post hook. */
template <typename ApplyFn>
std::size_t
FlushClaimed(FlushQueue &queue, const ClaimTicket &ticket, ApplyFn &&apply)
{
    return FlushClaimed(queue, ticket, std::forward<ApplyFn>(apply),
                        [](Key) {});
}

/**
 * Flush-side transition: detaches a copy of the claimed entry's pending
 * writes in canonical order (SortCanonical) for the caller to apply.
 */
inline std::vector<WriteRecord>
TakeClaimedWrites(GEntry &entry)
{
    SpinGuard guard(entry.lock());
    std::vector<WriteRecord> writes = entry.TakeWritesLocked();
    SortCanonical(writes);
    return writes;
}

}  // namespace frugal

#endif  // FRUGAL_PQ_PQ_OPS_H_
