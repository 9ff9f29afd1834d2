/**
 * @file
 * Clang Thread Safety Analysis annotations for Frugal's lock discipline.
 *
 * These macros put the repo's locking contracts — "callers of *Locked
 * methods must hold the entry lock", "the shard map is guarded by the
 * shard lock" — into a form the compiler can *prove* instead of a form
 * reviewers can only read. Under Clang with `-Wthread-safety` (the
 * `tsa` CMake preset turns it into `-Werror=thread-safety`), touching a
 * FRUGAL_GUARDED_BY field without holding its capability, or calling a
 * FRUGAL_REQUIRES function outside the lock, is a compile error. Under
 * GCC (which has no thread-safety analysis) every macro expands to
 * nothing, so the annotations cost zero and the code stays portable.
 *
 * Conventions in this repo (see DESIGN.md §10):
 *  - `Spinlock` is a CAPABILITY type; acquire it through the scoped
 *    guard (`SpinGuard`) so the analysis sees the critical-section
 *    extent. Raw lock()/unlock() pairs are reserved for the few sites a
 *    scope cannot express.
 *  - Methods named *Locked carry FRUGAL_REQUIRES(lock) — the annotation
 *    and the suffix must agree; drop neither.
 *  - Lock-getter accessors (`GEntry::lock()`) carry
 *    FRUGAL_RETURN_CAPABILITY so `FRUGAL_REQUIRES(entry.lock())`
 *    resolves to the same capability as the private member.
 *  - Data guarded by a *dynamically chosen* lock (StripedLocks stripes)
 *    cannot be expressed statically; such fields stay unannotated with
 *    a comment naming the stripe discipline, and the interleaving
 *    explorer (src/check/) covers them dynamically instead.
 */
#ifndef FRUGAL_FRUGAL_THREAD_SAFETY_H_
#define FRUGAL_FRUGAL_THREAD_SAFETY_H_

#if defined(__clang__)
#define FRUGAL_TSA_ATTR(x) __attribute__((x))
#else
#define FRUGAL_TSA_ATTR(x)  // no-op: GCC has no thread-safety analysis
#endif

/** Marks a class as a lockable capability ("spinlock", "mutex", ...). */
#define FRUGAL_CAPABILITY(x) FRUGAL_TSA_ATTR(capability(x))

/** Marks a RAII guard whose ctor acquires and dtor releases. */
#define FRUGAL_SCOPED_CAPABILITY FRUGAL_TSA_ATTR(scoped_lockable)

/** Field access requires holding `x`. */
#define FRUGAL_GUARDED_BY(x) FRUGAL_TSA_ATTR(guarded_by(x))

/** Pointee access requires holding `x` (the pointer itself is free). */
#define FRUGAL_PT_GUARDED_BY(x) FRUGAL_TSA_ATTR(pt_guarded_by(x))

/** Function acquires the capability (its own for lock members). */
#define FRUGAL_ACQUIRE(...) \
    FRUGAL_TSA_ATTR(acquire_capability(__VA_ARGS__))

/** Function releases the capability. */
#define FRUGAL_RELEASE(...) \
    FRUGAL_TSA_ATTR(release_capability(__VA_ARGS__))

/** Function acquires the capability iff it returns `result`. */
#define FRUGAL_TRY_ACQUIRE(result, ...) \
    FRUGAL_TSA_ATTR(try_acquire_capability(result, ##__VA_ARGS__))

/** Caller must hold every listed capability (exclusively). */
#define FRUGAL_REQUIRES(...) \
    FRUGAL_TSA_ATTR(requires_capability(__VA_ARGS__))

/** Caller must NOT hold the listed capabilities (deadlock guard). */
#define FRUGAL_EXCLUDES(...) FRUGAL_TSA_ATTR(locks_excluded(__VA_ARGS__))

/** Declares that the returned reference IS the capability `x`. */
#define FRUGAL_RETURN_CAPABILITY(x) FRUGAL_TSA_ATTR(lock_returned(x))

/** Tells the analysis the capability is held here without acquiring it
 *  (used after external handoffs the analysis cannot see). */
#define FRUGAL_ASSERT_CAPABILITY(x) \
    FRUGAL_TSA_ATTR(assert_capability(x))

/** Opts one function out of the analysis. Reserved for init/teardown
 *  paths that are single-threaded by construction; never to silence a
 *  warning on a genuinely concurrent path (the repo's zero-suppression
 *  rule from frugal/annotations.h applies here too). */
#define FRUGAL_NO_THREAD_SAFETY_ANALYSIS \
    FRUGAL_TSA_ATTR(no_thread_safety_analysis)

#endif  // FRUGAL_FRUGAL_THREAD_SAFETY_H_
