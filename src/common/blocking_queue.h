/**
 * @file
 * A bounded multi-producer multi-consumer blocking queue, the shape of the
 * controller's queues in Fig. 5. bench_hotpath's update-pipeline
 * comparison runs its producer/consumer shapes through it.
 *
 * Locking goes through the annotated Mutex wrapper (common/mutex.h) so
 * Clang TSA sees every critical section; condition-variable waits use
 * Mutex::Wait/WaitUntil predicate loops, which keep the release/reacquire
 * inside one REQUIRES(this) method the analysis accepts.
 */
#ifndef FRUGAL_COMMON_BLOCKING_QUEUE_H_
#define FRUGAL_COMMON_BLOCKING_QUEUE_H_

#include <chrono>
#include <condition_variable>
#include <deque>
#include <optional>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/mutex.h"
#include "frugal/thread_safety.h"

namespace frugal {

/**
 * Bounded FIFO with blocking push/pop and a close() signal that wakes all
 * waiters; after close, pushes are rejected and pops drain then return
 * nullopt.
 */
template <typename T>
class BlockingQueue
{
  public:
    explicit BlockingQueue(std::size_t capacity) : capacity_(capacity)
    {
        FRUGAL_CHECK_MSG(capacity > 0, "queue capacity must be positive");
    }

    /** Blocks while full. Returns false iff the queue was closed. */
    bool
    Push(T item)
    {
        {
            MutexLock lock(mutex_);
            while (items_.size() >= capacity_ && !closed_)
                mutex_.Wait(not_full_);
            if (closed_)
                return false;
            items_.push_back(std::move(item));
        }
        not_empty_.notify_one();
        return true;
    }

    /**
     * Pushes one element, waiting at most `timeout` for space. `item`
     * is taken by reference and consumed only on success, so a caller
     * under backpressure can loop — counting throttle time per retry —
     * without losing the element. Returns false on timeout *or* when
     * the queue is closed; callers that must distinguish (give up vs.
     * keep throttling) check closed() on false.
     */
    template <typename Rep, typename Period>
    [[nodiscard]] bool
    PushFor(T &item, std::chrono::duration<Rep, Period> timeout)
    {
        const auto deadline = std::chrono::steady_clock::now() + timeout;
        {
            MutexLock lock(mutex_);
            if (!WaitNotFullUntil(deadline))
                return false;  // timed out
            if (closed_)
                return false;
            items_.push_back(std::move(item));
        }
        not_empty_.notify_one();
        return true;
    }

    /** Non-blocking push; returns false when full or closed. */
    [[nodiscard]] bool
    TryPush(T item)
    {
        {
            MutexLock lock(mutex_);
            if (closed_ || items_.size() >= capacity_)
                return false;
            items_.push_back(std::move(item));
        }
        not_empty_.notify_one();
        return true;
    }

    /** Blocks while empty. Returns nullopt iff closed and drained. */
    std::optional<T>
    Pop()
    {
        std::optional<T> item;
        {
            MutexLock lock(mutex_);
            while (items_.empty() && !closed_)
                mutex_.Wait(not_empty_);
            if (items_.empty())
                return std::nullopt;
            item = std::move(items_.front());
            items_.pop_front();
        }
        not_full_.notify_one();
        return item;
    }

    /**
     * Pops one element, waiting at most `timeout`. Returns nullopt on
     * timeout *or* when the queue is closed and drained — callers that
     * must distinguish the two (e.g. a watchdog deciding between "no
     * work yet" and "producer gone") check closed() on nullopt. A Close
     * racing the wait wakes it immediately rather than running out the
     * deadline.
     */
    template <typename Rep, typename Period>
    std::optional<T>
    PopFor(std::chrono::duration<Rep, Period> timeout)
    {
        const auto deadline = std::chrono::steady_clock::now() + timeout;
        std::optional<T> item;
        {
            MutexLock lock(mutex_);
            if (!WaitNotEmptyUntil(deadline))
                return std::nullopt;  // timed out
            if (items_.empty())
                return std::nullopt;  // closed and drained
            item = std::move(items_.front());
            items_.pop_front();
        }
        not_full_.notify_one();
        return item;
    }

    /**
     * Pops up to `max_items` elements, waiting at most `timeout` for the
     * first. An empty result means timeout or closed-and-drained (check
     * closed()); a timed drain loop built on this cannot hang on a dead
     * producer the way PopBatch can.
     */
    template <typename Rep, typename Period>
    std::vector<T>
    PopBatchFor(std::size_t max_items,
                std::chrono::duration<Rep, Period> timeout)
    {
        const auto deadline = std::chrono::steady_clock::now() + timeout;
        std::vector<T> batch;
        {
            MutexLock lock(mutex_);
            if (!WaitNotEmptyUntil(deadline))
                return batch;  // timed out
            while (!items_.empty() && batch.size() < max_items) {
                batch.push_back(std::move(items_.front()));
                items_.pop_front();
            }
        }
        if (!batch.empty())
            not_full_.notify_all();
        return batch;
    }

    /** Non-blocking pop. */
    [[nodiscard]] std::optional<T>
    TryPop()
    {
        std::optional<T> item;
        {
            MutexLock lock(mutex_);
            if (items_.empty())
                return std::nullopt;
            item = std::move(items_.front());
            items_.pop_front();
        }
        not_full_.notify_one();
        return item;
    }

    /**
     * Pops up to `max_items` elements in one critical section; blocks for
     * at least one unless closed. Batching keeps a consumer from paying
     * one lock round-trip per element.
     */
    std::vector<T>
    PopBatch(std::size_t max_items)
    {
        std::vector<T> batch;
        {
            MutexLock lock(mutex_);
            while (items_.empty() && !closed_)
                mutex_.Wait(not_empty_);
            while (!items_.empty() && batch.size() < max_items) {
                batch.push_back(std::move(items_.front()));
                items_.pop_front();
            }
        }
        not_full_.notify_all();
        return batch;
    }

    /** Marks the queue closed and wakes every waiter. */
    void
    Close()
    {
        {
            MutexLock lock(mutex_);
            closed_ = true;
        }
        not_empty_.notify_all();
        not_full_.notify_all();
    }

    bool
    closed() const
    {
        MutexLock lock(mutex_);
        return closed_;
    }

    std::size_t
    size() const
    {
        MutexLock lock(mutex_);
        return items_.size();
    }

    std::size_t capacity() const { return capacity_; }

  private:
    /** Waits until items/closed or `deadline`; true iff the predicate
     *  held on return. Mirrors wait_until-with-predicate semantics: a
     *  timeout still re-checks the predicate once before giving up. */
    template <typename Clock, typename Duration>
    bool
    WaitNotEmptyUntil(
        const std::chrono::time_point<Clock, Duration> &deadline)
        FRUGAL_REQUIRES(mutex_)
    {
        while (items_.empty() && !closed_) {
            if (mutex_.WaitUntil(not_empty_, deadline) ==
                std::cv_status::timeout) {
                return !items_.empty() || closed_;
            }
        }
        return true;
    }

    /** Waits until space/closed or `deadline`; true iff the predicate
     *  held on return (same timeout-re-check contract as
     *  WaitNotEmptyUntil). */
    template <typename Clock, typename Duration>
    bool
    WaitNotFullUntil(const std::chrono::time_point<Clock, Duration> &deadline)
        FRUGAL_REQUIRES(mutex_)
    {
        while (items_.size() >= capacity_ && !closed_) {
            if (mutex_.WaitUntil(not_full_, deadline) ==
                std::cv_status::timeout) {
                return items_.size() < capacity_ || closed_;
            }
        }
        return true;
    }

    const std::size_t capacity_;
    mutable Mutex mutex_;
    std::condition_variable not_empty_;
    std::condition_variable not_full_;
    std::deque<T> items_ FRUGAL_GUARDED_BY(mutex_);
    bool closed_ FRUGAL_GUARDED_BY(mutex_) = false;
};

}  // namespace frugal

#endif  // FRUGAL_COMMON_BLOCKING_QUEUE_H_
