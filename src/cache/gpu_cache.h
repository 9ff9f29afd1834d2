/**
 * @file
 * The per-GPU embedding cache.
 *
 * Every trainer holds a private cache of hot parameters (Fig. 5). Frugal
 * "pertains to a sharding policy in essence" (§5): the global key space is
 * partitioned by ownership (`owner(k) = hash(k) % n_gpus`), and GPU *i*
 * caches only keys it owns, so no two caches ever replicate a parameter
 * and no replica-synchronisation traffic exists.
 *
 * Replacement (DESIGN.md §14) is frequency-aware tiered LRU. The slot
 * population is split into two intrusive lists threaded through the
 * same u32 prev/next arrays: a *probationary cold segment* where every
 * insert lands, and a *protected hot segment* holding rows that proved
 * themselves by a re-reference. A cold hit promotes to the hot MRU;
 * hot overflow demotes the hot LRU back to the cold MRU; eviction
 * always takes the cold tail first, so scan-ish traffic churns the
 * probationary segment without flushing the proven working set. On top
 * of that sits TinyLFU-style admission (arXiv:2208.05321): a decayed
 * FreqSketch observes the access stream, and a miss-driven insert at
 * full capacity is admitted only if the incoming key's estimated
 * frequency beats the would-be victim's — one-hit wonders bounce off
 * the cache instead of displacing residents. Both knobs default on and
 * can be disabled via GpuCacheOptions, which restores the exact legacy
 * single-list LRU (the HugeCTR-style baseline of §4.1).
 *
 * The oracular mode (DESIGN.md §13) composes with, not replaces, this:
 * callers that know the trace attach *next-use hints* (the next step
 * that will read a key, kInfiniteStep for never) to lookups and
 * inserts, and eviction stays Belady-style — the victim is the
 * resident with the farthest next use within a bounded scan (cold tail
 * first, then hot tail). Only for residents whose next use lies beyond
 * the published eviction horizon — where Belady has nothing to say —
 * does decayed frequency rank the candidates and break admission ties.
 *
 * Warming (WarmBatch / WarmBegin / WarmCommit) inserts rows for future
 * steps *without promoting past hot residents*: warmed rows enter at
 * the cold (LRU-tail) end and only move up when a trainer actually
 * hits them. The warm path is two-phase so the host-table gather runs
 * outside the cache lock: WarmBegin reserves "filling" slots (invisible
 * to TryGet) and records a per-slot fill stamp; every row write bumps
 * the stamp, so if a flush thread lands a fresher value between the
 * phases, WarmCommit observes the stamp mismatch and yields — the flush
 * value wins and stale warm data can never surface. EvictIfDead drops a
 * row with no future reader at zero cost (no copy, no write-back —
 * the cache is write-through).
 *
 * Concurrency: the owning trainer reads and refills; Frugal's flush
 * threads write committed values into cached rows ("H2D" in the real
 * system), and the owning trainer warms. A single cache lock arbitrates —
 * adequate because each cache has exactly one reader thread and writers
 * touch disjoint keys. The sketch lives under the same lock.
 *
 * Layout (data-plane overhaul): the index is a FlatMap Key → slot
 * (open addressing, no per-entry heap node), both segment lists are
 * intrusive doubly linked lists threaded through two u32 arrays indexed
 * by slot, and the sketch is a fixed table of packed nibbles — a
 * recency refresh is four array stores, a sketch probe four nibble
 * reads, and the whole cache performs zero allocations after
 * construction.
 */
#ifndef FRUGAL_CACHE_GPU_CACHE_H_
#define FRUGAL_CACHE_GPU_CACHE_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "common/flat_map.h"
#include "common/freq_sketch.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/spinlock.h"
#include "common/types.h"

namespace frugal {

/**
 * Replacement-policy knobs. The defaults are the frequency-aware
 * tiered policy; disabling both flags restores the exact legacy
 * single-list LRU (what the competitor engines of §4.1 model, and what
 * the policy-replay bench scores the new policy against).
 */
struct GpuCacheOptions
{
    /** Hot/cold segmented eviction (promotion on re-reference,
     *  demotion on hot overflow, victims from the cold tail). */
    bool segmented = true;
    /** TinyLFU admission gate + beyond-horizon frequency ranking,
     *  backed by the decayed FreqSketch. */
    bool freq_admission = true;
    /** Fraction of capacity protected as the hot segment. The classic
     *  SLRU split: large enough to hold the proven working set, small
     *  enough that probation stays meaningful. */
    double hot_fraction = 0.8;
    /** Seed for the sketch's row hashes (determinism across runs). */
    std::uint64_t sketch_seed = 0x5eedf4e95eedf4e9ULL;
};

/** Statistics counters of one cache. */
struct GpuCacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
    std::uint64_t flush_writes = 0;  ///< rows updated by flush threads
    std::uint64_t warm_inserts = 0;  ///< rows inserted by the warm paths
    std::uint64_t warm_hits = 0;     ///< first hit on a still-warm row
    std::uint64_t dead_evictions = 0;  ///< EvictIfDead reclamations
    std::uint64_t hot_hits = 0;   ///< hits served from the hot segment
    std::uint64_t cold_hits = 0;  ///< hits from the cold (probation)
                                  ///< segment; == hits when unsegmented
    std::uint64_t admission_declines = 0;  ///< inserts the policy
                                           ///< (frequency or Belady)
                                           ///< refused at full capacity
    std::uint64_t promotions = 0;  ///< cold→hot on re-reference
    std::uint64_t demotions = 0;   ///< hot→cold on hot-segment overflow

    double
    HitRatio() const
    {
        const std::uint64_t total = hits + misses;
        return total == 0 ? 0.0
                          : static_cast<double>(hits) /
                                static_cast<double>(total);
    }
};

/** Fixed-capacity cache of embedding rows: frequency-aware tiered LRU
 *  base policy plus next-use-aware (Belady-style) eviction and
 *  trace-driven warming for oracular callers. */
class GpuCache
{
  public:
    /** Next-use hint meaning "never read again" (== NextUseIndex::kNever)
     *  — also what unhinted operations record for a slot. */
    static constexpr Step kNoFutureUse = kInfiniteStep;

    /** A slot reserved by WarmBegin, awaiting its row via WarmCommit.
     *  `batch_index` addresses the caller's key array; `stamp` is the
     *  fill stamp the commit must match for its row to still be wanted. */
    struct WarmPending
    {
        std::uint32_t batch_index;
        std::uint32_t stamp;
    };

    /**
     * @param capacity_rows maximum number of cached rows (> 0)
     * @param dim embedding dimension
     * @param options replacement-policy knobs (defaults: tiered +
     *        frequency admission on)
     */
    GpuCache(std::size_t capacity_rows, std::size_t dim,
             const GpuCacheOptions &options = GpuCacheOptions{});

    GpuCache(const GpuCache &) = delete;
    GpuCache &operator=(const GpuCache &) = delete;

    /**
     * Looks up `key`; on hit copies the row into `out` and refreshes
     * recency (promoting a re-referenced cold row into the hot
     * segment). Every lookup — hit or miss — feeds the frequency
     * sketch. Slots mid-warm (reserved by WarmBegin, row not yet
     * committed) read as misses. @return true on hit.
     */
    bool TryGet(Key key, float *out);

    /** TryGet that also records `next_use` (the next step that will read
     *  `key`) as the slot's eviction hint on hit. */
    bool TryGet(Key key, float *out, Step next_use);

    /**
     * Inserts (or overwrites) `key` with `row` at the cold-segment MRU.
     * At full capacity the cold-tail victim is evicted — unless the
     * admission gate is on and the incoming key's estimated frequency
     * does not beat the victim's, in which case the insert is declined
     * (nothing evicted, kInvalidKey returned); the cache is
     * write-through, so a declined insert loses no state.
     * @return the evicted key or kInvalidKey.
     */
    Key Put(Key key, const float *row);

    /**
     * Hinted insert: records `next_use` and, when full, picks the victim
     * by next use (see PickVictimLocked). Admission-controlled — if every
     * scanned victim candidate is needed sooner than `next_use` (with
     * decayed frequency breaking ties beyond the horizon), the insert
     * is declined (the row would be the best victim itself) and
     * kInvalidKey is returned with nothing evicted.
     */
    Key Put(Key key, const float *row, Step next_use);

    /**
     * Overwrites the cached row for `key` with `row` if present (used by
     * flush threads to keep the owner's copy coherent with host memory).
     * Does not touch recency order. Also completes a mid-warm slot: the
     * flushed value is authoritative, so the slot becomes readable and
     * the pending WarmCommit for it is invalidated via the fill stamp.
     * @return true if the key was cached.
     */
    bool UpdateIfPresent(Key key, const float *row);

    /**
     * Phase 1 of the batched warm: for each of the `n` keys, refresh the
     * hint if resident, otherwise reserve a cold-end "filling" slot
     * (admission-controlled, never promoting past hot residents).
     * Reserved slots are recorded in `pending` (caller-sized to `n`).
     * Keys hinted kNoFutureUse are skipped — dead on arrival.
     * @return the number of pending fills written.
     */
    std::size_t WarmBegin(const Key *keys, const Step *next_use,
                          std::size_t n, WarmPending *pending);

    /**
     * Phase 2: commits gathered rows (`rows[j]` for `pending[j]`, packed
     * `dim()` floats each) into their reserved slots. A slot whose fill
     * stamp moved on — evicted, resized away, or refreshed by a flush —
     * is skipped: the newer value wins.
     */
    void WarmCommit(const Key *keys, const WarmPending *pending,
                    std::size_t m, const float *rows);

    /**
     * Convenience wrapper over WarmBegin/WarmCommit: `gather(keys, m,
     * rows)` is invoked *outside* the cache lock to fetch the rows that
     * actually need filling. @return rows warmed (i.e. pending fills).
     */
    template <typename GatherFn>
    std::size_t
    WarmBatch(const Key *keys, const Step *next_use, std::size_t n,
              GatherFn &&gather)
    {
        // alloc-ok: thread_local scratch amortises to zero steady-state
        // allocations; the warm path runs on the owning trainer between
        // its step registration and its next gate.
        thread_local std::vector<WarmPending> pending;
        thread_local std::vector<Key> fill_keys;
        thread_local std::vector<float> rows;
        pending.resize(n);
        const std::size_t m = WarmBegin(keys, next_use, n, pending.data());
        if (m == 0)
            return 0;
        fill_keys.resize(m);
        rows.resize(m * dim_);
        for (std::size_t j = 0; j < m; ++j)
            fill_keys[j] = keys[pending[j].batch_index];
        gather(fill_keys.data(), m, rows.data());
        WarmCommit(keys, pending.data(), m, rows.data());
        return m;
    }

    /**
     * Single-row warm used by the flush path (caller holds the g-entry
     * lock, so `row` is the committed host value): refreshes in place if
     * resident, otherwise admission-inserts at the cold end as a
     * complete (readable) row. @return true if the row is now cached.
     */
    bool WarmOne(Key key, const float *row, Step next_use);

    /**
     * Drops `key` without any write-back or copy — the zero-cost
     * reclamation for keys whose last reader has passed (the cache is
     * write-through, so no state is lost). @return true if present.
     */
    bool EvictIfDead(Key key);

    /**
     * Publishes the Belady window boundary: residents with a next use at
     * or before `horizon` are ranked by next use; anything beyond it (or
     * unhinted) is ranked by decayed frequency, falling back to
     * recency order. Typically current step + effective lookahead,
     * refreshed at step boundaries.
     */
    void SetEvictionHorizon(Step horizon);

    /** Whether `key` is currently cached (no recency effect). */
    bool Contains(Key key) const;

    /**
     * Drops every cached row (stats are kept). Used when ownership is
     * remapped away from a dead trainer: the survivor must not serve
     * the victim's stale copies, and the victim's cache is simply
     * emptied rather than migrated. The frequency sketch is kept — the
     * workload's hotness distribution outlives any one residency.
     */
    void Clear();

    /**
     * Changes the row capacity online (memory-pressure reactions,
     * DESIGN.md §12.2). Shrinking emergency-evicts from the cold tail
     * first — hot (proven) residents are retained preferentially and
     * keep their segment membership, recency order, next-use hints and
     * fill stamps — then reallocates every array at the new size so
     * the freed bytes actually return to the allocator; growing back
     * restores headroom the same way. Write-through coherence makes
     * this correctness-free — an evicted row is refetched from host
     * memory on next use. Runs under the cache lock; O(capacity),
     * intended for rare stage transitions, never the hot path.
     *
     * @return the number of rows evicted (0 when growing).
     */
    std::size_t Resize(std::size_t new_capacity_rows);

    /** Bytes held: row storage + index + list bookkeeping + sketch. */
    std::size_t MemoryBytes() const;

    std::size_t
    capacity() const
    {
        SpinGuard guard(lock_);
        return capacity_;
    }

    std::size_t dim() const { return dim_; }

    std::size_t
    size() const
    {
        SpinGuard guard(lock_);
        return map_.size();
    }

    /** Rows currently in the protected (hot) segment. */
    std::size_t
    hot_size() const
    {
        SpinGuard guard(lock_);
        return seg_size_[kHot];
    }

    /** Snapshot of the counters. */
    GpuCacheStats
    stats() const
    {
        SpinGuard guard(lock_);
        return stats_;
    }

    void
    ResetStats()
    {
        SpinGuard guard(lock_);
        stats_ = GpuCacheStats{};
    }

  private:
    /** Slot index sentinel (list end / no free slot). */
    static constexpr std::uint32_t kNilSlot = 0xFFFFFFFFu;

    /** Victim scan is bounded: Belady *within the scan window* keeps
     *  eviction O(1); beyond it the policy degrades gracefully to
     *  frequency/recency order. */
    static constexpr std::size_t kVictimScanDepth = 8;

    /** Slot flag: row inserted by a warm path, not yet hit. */
    static constexpr std::uint8_t kWarmFlag = 0x1;
    /** Slot flag: reserved by WarmBegin, row content not yet valid. */
    static constexpr std::uint8_t kFillingFlag = 0x2;
    /** Slot flag: row lives in the protected (hot) segment list. */
    static constexpr std::uint8_t kHotFlag = 0x4;

    /** Segment list ids (indices into seg_head_/seg_tail_/seg_size_). */
    enum Segment : std::size_t { kCold = 0, kHot = 1 };

    Segment
    SegmentOf(std::uint32_t slot) const FRUGAL_REQUIRES(lock_)
    {
        return (flags_[slot] & kHotFlag) != 0 ? kHot : kCold;
    }

    // Intrusive-list helpers; cache lock held. Push* maintain the
    // slot's kHotFlag so segment membership is always readable from
    // flags_ alone.
    void DetachLocked(std::uint32_t slot) FRUGAL_REQUIRES(lock_);
    void PushFrontLocked(Segment seg, std::uint32_t slot)
        FRUGAL_REQUIRES(lock_);
    void PushBackLocked(Segment seg, std::uint32_t slot)
        FRUGAL_REQUIRES(lock_);

    void
    MoveToFrontLocked(Segment seg, std::uint32_t slot)
        FRUGAL_REQUIRES(lock_)
    {
        if (seg_head_[seg] == slot)
            return;
        DetachLocked(slot);
        PushFrontLocked(seg, slot);
    }

    /** Hit-path segment maintenance: hot hits refresh in place, cold
     *  hits promote (re-reference proof), demoting the hot tail when
     *  the protected segment overflows. */
    void PromoteOnHitLocked(std::uint32_t slot) FRUGAL_REQUIRES(lock_);

    /** Demotes hot-tail rows to the cold MRU until the hot segment
     *  fits hot_capacity_ again. */
    void EnforceHotCapLocked() FRUGAL_REQUIRES(lock_);

    bool TryGetLocked(Key key, float *out, const Step *next_use)
        FRUGAL_REQUIRES(lock_);
    Key PutLocked(Key key, const float *row, Step next_use, bool hinted)
        FRUGAL_REQUIRES(lock_);

    /** The unhinted eviction victim: cold tail, falling back to the
     *  hot tail when the probationary segment is empty. */
    std::uint32_t TailVictimLocked() const FRUGAL_REQUIRES(lock_);

    /**
     * Picks the eviction victim for an incoming `key` whose next use is
     * `incoming_next_use`: scans up to kVictimScanDepth slots — cold
     * tail first, then hot tail. Within the eviction horizon the
     * farthest next use wins (Belady); beyond it (or unhinted/never
     * used) the lowest decayed frequency wins, in recency order when
     * the sketch is off. Returns kNilSlot when the incoming row itself
     * is the best victim — needed no sooner and no hotter than every
     * candidate — and the caller should decline admission.
     */
    std::uint32_t PickVictimLocked(Key key, Step incoming_next_use)
        FRUGAL_REQUIRES(lock_);

    /** Takes a free slot, or evicts per `hinted` policy (frequency-
     *  gated cold tail vs PickVictimLocked). kNilSlot = admission
     *  declined (stats_.admission_declines already bumped). */
    std::uint32_t AcquireSlotLocked(Key key, Step incoming_next_use,
                                    bool hinted, Key *evicted)
        FRUGAL_REQUIRES(lock_);

    /** Hot-segment row budget for `capacity` rows under options_. */
    std::size_t HotCapacityFor(std::size_t capacity) const;

    /** Row capacity; mutable for online Resize. */
    std::size_t capacity_ FRUGAL_GUARDED_BY(lock_);
    const std::size_t dim_;
    const GpuCacheOptions options_;
    mutable Spinlock lock_{LockRank::kGpuCache};
    /** capacity_ × dim_ rows. */
    std::vector<float> storage_ FRUGAL_GUARDED_BY(lock_);
    /** key → slot. */
    FlatMap<Key, std::uint32_t> map_ FRUGAL_GUARDED_BY(lock_);
    /** slot → key (for eviction). */
    std::vector<Key> slot_key_ FRUGAL_GUARDED_BY(lock_);
    /** towards MRU (shared by both segment lists). */
    std::vector<std::uint32_t> lru_prev_ FRUGAL_GUARDED_BY(lock_);
    /** towards LRU (shared by both segment lists + free list). */
    std::vector<std::uint32_t> lru_next_ FRUGAL_GUARDED_BY(lock_);
    /** slot → next step that reads its key (kNoFutureUse = unknown or
     *  never); feeds PickVictimLocked. */
    std::vector<Step> next_use_ FRUGAL_GUARDED_BY(lock_);
    /** slot → kWarmFlag / kFillingFlag / kHotFlag bits. */
    std::vector<std::uint8_t> flags_ FRUGAL_GUARDED_BY(lock_);
    /** slot → fill stamp; every row write bumps it, so an in-flight
     *  WarmCommit can detect that a fresher value landed first. */
    std::vector<std::uint32_t> fill_stamp_ FRUGAL_GUARDED_BY(lock_);
    /** Decayed access-frequency estimator feeding admission and the
     *  beyond-horizon victim ranking. */
    FreqSketch sketch_ FRUGAL_GUARDED_BY(lock_);
    /** Per-segment MRU slot ([kCold], [kHot]). */
    std::uint32_t seg_head_[2] FRUGAL_GUARDED_BY(lock_);
    /** Per-segment LRU slot (cold tail = default eviction victim). */
    std::uint32_t seg_tail_[2] FRUGAL_GUARDED_BY(lock_);
    /** Per-segment resident count. */
    std::size_t seg_size_[2] FRUGAL_GUARDED_BY(lock_);
    /** free list via lru_next_. */
    std::uint32_t free_head_ FRUGAL_GUARDED_BY(lock_) = kNilSlot;
    /** Protected-segment budget (0 when unsegmented). */
    std::size_t hot_capacity_ FRUGAL_GUARDED_BY(lock_);
    /** Belady window boundary; kNoFutureUse = unbounded window. */
    Step horizon_ FRUGAL_GUARDED_BY(lock_) = kInfiniteStep;
    GpuCacheStats stats_ FRUGAL_GUARDED_BY(lock_);
};

/**
 * Key-ownership partition across GPUs (sharding policy).
 *
 * Keys hash into `n_gpus` *shards*; each shard maps to an owning GPU.
 * The healthy mapping is the identity (shard i → GPU i, matching the
 * paper's `owner(k) = hash(k) % n_gpus`). Degraded mode rewrites the
 * mapping: when a trainer dies mid-run, Remap() points its shard at a
 * survivor, so the survivor's cache takes over the dead GPU's keys
 * without rehashing anything. Shard owners are atomics so trainers and
 * flush threads can consult ownership lock-free while the recovery
 * path rewrites it.
 */
class KeyOwnership
{
  public:
    explicit KeyOwnership(std::uint32_t n_gpus)
        : n_gpus_(n_gpus), shard_owner_(n_gpus)
    {
        FRUGAL_CHECK(n_gpus > 0);
        // relaxed: single-threaded construction; publication to other
        // threads happens via whatever hands them the object.
        for (std::uint32_t i = 0; i < n_gpus; ++i)
            shard_owner_[i].store(static_cast<GpuId>(i),
                                  std::memory_order_relaxed);
    }

    KeyOwnership(const KeyOwnership &) = delete;
    KeyOwnership &operator=(const KeyOwnership &) = delete;

    /** The hash shard of `key` (stable across remaps). */
    std::uint32_t
    ShardOf(Key key) const
    {
        return static_cast<std::uint32_t>(MixHash64(key) % n_gpus_);
    }

    GpuId
    OwnerOf(Key key) const
    {
        // acquire: a reader that observes a remapped owner must also
        // observe the cache invalidation recovery published before it.
        return shard_owner_[ShardOf(key)].load(std::memory_order_acquire);
    }

    /**
     * Reassigns every shard owned by `from` to `to` (degraded mode).
     * @return the number of shards remapped.
     */
    std::uint32_t
    Remap(GpuId from, GpuId to)
    {
        FRUGAL_CHECK(from != to);
        std::uint32_t remapped = 0;
        for (auto &owner : shard_owner_) {
            GpuId expected = from;
            // release: pairs with the acquire in OwnerOf (see above).
            // relaxed: failure order only — on mismatch nothing is
            // read from the loaded value beyond the inequality itself.
            if (owner.compare_exchange_strong(expected, to,
                                              std::memory_order_release,
                                              std::memory_order_relaxed)) {
                ++remapped;
            }
        }
        return remapped;
    }

    std::uint32_t n_gpus() const { return n_gpus_; }

  private:
    std::uint32_t n_gpus_;
    std::vector<std::atomic<GpuId>> shard_owner_;
};

}  // namespace frugal

#endif  // FRUGAL_CACHE_GPU_CACHE_H_
