/**
 * @file
 * Cache-line alignment helpers for per-thread hot-path state.
 *
 * The trainer and flusher loops used to bump shared atomics once per
 * key; with several threads doing that, the counter cache lines
 * ping-pong between cores (true sharing) and adjacent counters packed
 * into one line drag each other along (false sharing). The fix is
 * per-thread accumulation in a line-aligned, line-padded slot, folded
 * into the shared totals at a natural synchronisation point (the step
 * barrier / thread exit).
 */
#ifndef FRUGAL_COMMON_CACHELINE_H_
#define FRUGAL_COMMON_CACHELINE_H_

#include <cstddef>
#include <new>
#include <utility>

namespace frugal {

/** Destructive-interference granularity. Hard-coded 64: the constant
 *  must agree across translation units, and
 *  std::hardware_destructive_interference_size is not guaranteed to
 *  (GCC even warns about exactly that). x86-64 and most AArch64 parts
 *  use 64-byte lines. */
inline constexpr std::size_t kCacheLineSize = 64;

/**
 * A T alone on its own cache line(s): aligned to a line boundary and
 * padded out to a line multiple, so two adjacent CacheAligned<T> in an
 * array never share a line.
 */
template <typename T>
struct alignas(kCacheLineSize) CacheAligned
{
    CacheAligned() = default;

    template <typename... Args>
    explicit CacheAligned(Args &&...args)
        : value(std::forward<Args>(args)...)
    {
    }

    T value{};

    T *operator->() { return &value; }
    const T *operator->() const { return &value; }
    T &operator*() { return value; }
    const T &operator*() const { return value; }
};

/**
 * An allocator whose blocks start on a cache line and span whole lines,
 * so a container's storage never shares a line with another allocation
 * — whatever the heap placed next to it, and whichever thread writes
 * there.
 */
template <typename T>
struct CacheLineAllocator
{
    using value_type = T;

    CacheLineAllocator() = default;
    template <typename U>
    CacheLineAllocator(const CacheLineAllocator<U> &) noexcept
    {
    }

    T *
    allocate(std::size_t n)
    {
        return static_cast<T *>(
            ::operator new(Bytes(n), std::align_val_t{kCacheLineSize}));
    }
    void
    deallocate(T *p, std::size_t n) noexcept
    {
        ::operator delete(p, Bytes(n), std::align_val_t{kCacheLineSize});
    }

    template <typename U>
    bool
    operator==(const CacheLineAllocator<U> &) const noexcept
    {
        return true;
    }

  private:
    static std::size_t
    Bytes(std::size_t n)
    {
        return (n * sizeof(T) + kCacheLineSize - 1) / kCacheLineSize *
               kCacheLineSize;
    }
};

}  // namespace frugal

#endif  // FRUGAL_COMMON_CACHELINE_H_
