/**
 * @file block_memory_pool.hpp
 * Arena-style recycling of MeshBlock array storage.
 *
 * The paper's memory breakdown (Fig. 10) and the block-size sweep
 * (Fig. 5) show that in the small-block regime AMR drives us into,
 * refine/derefine events dominate allocator traffic: every remesh
 * frees 2^ndim blocks' worth of arrays and immediately allocates a
 * comparable amount at the very same handful of sizes. AMReX answers
 * this with an arena allocator (Zhang et al. 2020); we mirror that
 * with a size-bucketed free list of `Array4` backing stores.
 *
 * All blocks of a mesh share one BlockShape, so only a handful of
 * distinct element counts ever occur (cell-centered, per-direction
 * face-centered, derived). `acquire` pops a recycled vector from the
 * exact-size bucket when one is idle — a *pool hit*, costing neither
 * an allocation nor (for fully-overwritten buffers) a clear — and
 * otherwise reserves fresh capacity, a *pool miss*. Blocks return
 * their storage on destruction, so a steady-state refine/derefine
 * cycle runs entirely on recycled buffers after warm-up.
 *
 * Acquisition and release happen on the mesh restructure path, which
 * is serial within a rank (the driver restructures between task-graph
 * executions) — but under rank sharding every rank thread owns a pool,
 * and migration materializes into the *destination* rank's pool, so
 * the buckets are mutex-guarded rather than trusting call-site
 * discipline; the restructure path is cold enough that the uncontended
 * lock is free. Hits and misses are mirrored into the MemoryTracker
 * when one is attached.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "util/thread_safety.hpp"

namespace vibe {

class MemoryTracker;

/** Size-bucketed free list of `double` array backing stores. */
class BlockMemoryPool
{
  public:
    /** @param tracker Optional sink for hit/miss accounting. */
    explicit BlockMemoryPool(MemoryTracker* tracker = nullptr)
        : tracker_(tracker)
    {
    }

    BlockMemoryPool(const BlockMemoryPool&) = delete;
    BlockMemoryPool& operator=(const BlockMemoryPool&) = delete;

    /**
     * Storage for exactly `count` elements.
     *
     * On a hit the returned vector has size `count` and holds the
     * previous owner's data (adopters that need zeroed contents pass
     * `zero_init` to Array4, a single clearing pass). On a miss the
     * vector is empty with `count` elements of reserved capacity, so
     * the adopter's resize/assign initializes each element exactly
     * once — never construct-then-fill.
     */
    std::vector<double> acquire(std::size_t count);

    /**
     * Return storage to the free list. Empty vectors (never-adopted
     * arrays, e.g. unused flux directions) are ignored. The bucket key
     * is the vector's size, which Array4 keeps at the exact element
     * count of the adopting array.
     */
    void release(std::vector<double>&& storage);

    /** Drop every idle buffer (returns memory to the allocator). */
    void trim();

    /** Requests served from the free list. */
    std::uint64_t poolHits() const
    {
        LockGuard lock(mutex_);
        return hits_;
    }
    /** Requests that fell through to the allocator. */
    std::uint64_t freshAllocs() const
    {
        LockGuard lock(mutex_);
        return fresh_;
    }
    /** Bytes currently idle in the free list. */
    std::size_t idleBytes() const
    {
        LockGuard lock(mutex_);
        return idle_bytes_;
    }
    /**
     * Bytes handed out by acquire() and not yet released: the real
     * storage of the live blocks drawing on this pool.
     */
    std::size_t liveBytes() const
    {
        LockGuard lock(mutex_);
        return live_bytes_;
    }
    /** High-water mark of idleBytes(). */
    std::size_t peakIdleBytes() const
    {
        LockGuard lock(mutex_);
        return peak_idle_bytes_;
    }
    /** Buffers currently idle in the free list. */
    std::size_t idleBuffers() const
    {
        LockGuard lock(mutex_);
        return idle_buffers_;
    }

  private:
    MemoryTracker* tracker_;
    mutable Mutex mutex_;
    std::map<std::size_t, std::vector<std::vector<double>>>
        free_ VIBE_GUARDED_BY(mutex_);
    std::uint64_t hits_ VIBE_GUARDED_BY(mutex_) = 0;
    std::uint64_t fresh_ VIBE_GUARDED_BY(mutex_) = 0;
    std::size_t idle_bytes_ VIBE_GUARDED_BY(mutex_) = 0;
    std::size_t live_bytes_ VIBE_GUARDED_BY(mutex_) = 0;
    std::size_t peak_idle_bytes_ VIBE_GUARDED_BY(mutex_) = 0;
    std::size_t idle_buffers_ VIBE_GUARDED_BY(mutex_) = 0;
};

} // namespace vibe
