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
 *  - TakeClaimedWrites: a flush thread owns a claimed entry ⇒ detach its
 *    W set (ordered deterministically) for application to host memory.
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
 * Full flush of one claimed entry: detaches its pending writes, applies
 * them through `apply` (called once per record, in canonical order), then
 * reports completion to the queue so the gate can open. This is the body
 * of a flush thread's per-entry work (§3.3 "flush the parameter updates
 * recorded in its W set to host memory").
 *
 * @return the number of records applied.
 */
/**
 * As the two-argument overload below, with a `post(key)` hook invoked
 * once after all records were applied but before the queue learns of
 * completion — still under the entry lock. Frugal's flush threads use it
 * to copy the committed host row into the owner GPU's cache ("H2D"),
 * which must complete before the gate may open.
 *
 * Taking and applying the writes in one critical section also pins the
 * per-key application order to lock-acquisition order: if a second flush
 * thread claims the entry's newer writes concurrently, it can only apply
 * them after this one releases the lock, so a row's update sequence is
 * always the canonical (step, src) order.
 */
template <typename ApplyFn, typename PostFn>
std::size_t
FlushClaimed(FlushQueue &queue, const ClaimTicket &ticket, ApplyFn &&apply,
             PostFn &&post)
{
    GEntry &entry = *ticket.entry;
    std::size_t applied = 0;
    {
        SpinGuard guard(entry.lock());
        // A read or a write may have re-enqueued the entry between our
        // claim and this point. We are about to apply its newer writes
        // as well, so the standing enqueue must be retired — otherwise
        // it would survive as a zombie whose logical count never drains
        // (the queue would never look empty again). Retire it only after
        // the writes are applied: its count is what keeps the gate
        // closed for the step that re-enqueued it, while our claim's
        // in-flight count may sit at a later priority (or ∞).
        const bool standing = entry.enqueuedLocked();
        const Priority standing_priority = entry.priorityLocked();
        std::vector<WriteRecord> writes = entry.TakeWritesLocked();
        std::sort(writes.begin(), writes.end(),
                  [](const WriteRecord &a, const WriteRecord &b) {
                      return a.step != b.step ? a.step < b.step
                                              : a.src < b.src;
                  });
        for (const WriteRecord &record : writes) {
            apply(entry.key(), record);
            ++applied;
        }
        if (applied > 0)
            post(entry.key());
        if (standing) {
            entry.setEnqueuedLocked(false);
            queue.Unenqueue(&entry, standing_priority);
        }
    }
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
 * Flush-side transition: detaches the claimed entry's pending writes,
 * sorted by (step, src) so every consumer applies a given parameter's
 * updates in one canonical order (keeps stateful optimizers
 * deterministic and lets tests compare against an oracle bit-for-bit).
 */
inline std::vector<WriteRecord>
TakeClaimedWrites(GEntry &entry)
{
    SpinGuard guard(entry.lock());
    std::vector<WriteRecord> writes = entry.TakeWritesLocked();
    std::sort(writes.begin(), writes.end(),
              [](const WriteRecord &a, const WriteRecord &b) {
                  return a.step != b.step ? a.step < b.step
                                          : a.src < b.src;
              });
    return writes;
}

}  // namespace frugal

#endif  // FRUGAL_PQ_PQ_OPS_H_
