/**
 * @file
 * Composite g-entry/queue operations — the three transitions of the P²F
 * algorithm (§3.3), shared by the controller threads and the tests:
 *
 *  - RegisterRead: the prefetch thread saw `key` in the sample queue for
 *    step s ⇒ insert s into the R set (and re-prioritise if enqueued).
 *  - RegisterUpdate: a trainer registers ⟨key, s, Δ⟩ after step s's
 *    barrier ⇒ remove s from the R set, append to the W set, enqueue or
 *    re-prioritise.
 *  - FlushEntry: a flush thread owns a claimed entry ⇒ detach its W set
 *    in canonical (step, src) order and apply it to host memory
 *    (FlushClaimed wraps it for per-record appliers; TakeClaimedWrites
 *    only detaches the sorted W set, for callers that apply elsewhere).
 *
 * Each helper takes the entry lock internally; the FlushQueue methods it
 * calls are specified to run under that lock.
 */
#ifndef FRUGAL_PQ_PQ_OPS_H_
#define FRUGAL_PQ_PQ_OPS_H_

#include <algorithm>
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

/** Drain-side transition: step `record.step` updated the parameter. */
inline void
RegisterUpdate(FlushQueue &queue, GEntry &entry, WriteRecord record)
{
    SpinGuard guard(entry.lock());
    const Priority before = entry.priorityLocked();
    entry.RemoveReadLocked(record.step);
    entry.AddWriteLocked(std::move(record));
    PropagatePriorityLocked(queue, entry, before, entry.priorityLocked());
}

/**
 * The canonical per-parameter application order, (step, src): every
 * consumer applies a given parameter's updates in this one order, which
 * keeps stateful optimizers deterministic and lets tests compare against
 * an oracle bit-for-bit.
 */
inline void
SortCanonical(std::vector<WriteRecord> &writes)
{
    std::sort(writes.begin(), writes.end(),
              [](const WriteRecord &a, const WriteRecord &b) {
                  return a.step != b.step ? a.step < b.step : a.src < b.src;
              });
}

/**
 * Flushes one claimed entry — the body of every flush, whoever runs it
 * (§3.3 "flush the parameter updates recorded in its W set to host
 * memory"). Under a single entry-lock hold it detaches the W set, sorts
 * it canonically, hands it to `apply(key, writes)`, runs `post(key)`,
 * then retires any standing enqueue. Both callbacks run only when there
 * was something to apply. Frugal's post hook copies the committed host
 * row into the owner GPU's cache ("H2D"), which must complete before the
 * gate may open.
 *
 * Taking and applying the writes in one critical section also pins the
 * per-key application order to lock-acquisition order: if a second flush
 * thread claims the entry's newer writes concurrently, it can only apply
 * them after this one releases the lock, so a row's update sequence is
 * always the canonical (step, src) order.
 *
 * A read or a write may have re-enqueued the entry after it was claimed.
 * Its newer writes are applied here as well, so the standing enqueue must
 * be retired — otherwise it would survive as a zombie whose logical count
 * never drains (the queue would never look empty again). It is retired
 * only after the apply and the post hook: its count is what keeps the
 * gate closed for the step that re-enqueued it, while the claim's
 * in-flight count may sit at a later priority (or ∞).
 *
 * The claims themselves are not retired here: the caller reports each of
 * its tickets on the entry to FlushQueue::OnFlushed afterwards.
 *
 * @return the number of records applied.
 */
template <typename ApplyFn, typename PostFn>
std::size_t
FlushEntry(FlushQueue &queue, GEntry &entry, ApplyFn &&apply, PostFn &&post)
{
    SpinGuard guard(entry.lock());
    const bool standing = entry.enqueuedLocked();
    const Priority standing_priority = entry.priorityLocked();
    std::vector<WriteRecord> writes = entry.TakeWritesLocked();
    SortCanonical(writes);
    if (!writes.empty()) {
        apply(entry.key(), writes);
        post(entry.key());
    }
    if (standing) {
        entry.setEnqueuedLocked(false);
        queue.Unenqueue(&entry, standing_priority);
    }
    return writes.size();
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
        [&apply](Key key, const std::vector<WriteRecord> &writes) {
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
 * Flush-side transition: detaches the claimed entry's pending writes in
 * canonical order (SortCanonical) for the caller to apply.
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
