/**
 * @file execution_space.hpp
 * Host execution spaces backing the `parFor` loop macros.
 *
 * Mirrors the Kokkos execution-space concept Parthenon builds on: a
 * kernel launch hands a flattened index range to a space, which decides
 * how to run it. `SerialSpace` reproduces the historical in-line loop
 * bit for bit; `ThreadPoolSpace` keeps a persistent worker pool and
 * splits the range into one contiguous chunk per thread (static
 * chunking), so elementwise kernels parallelize and chunk-ordered
 * reductions stay deterministic for a fixed thread count.
 */
#pragma once

#include <cstdint>
#include <memory>

namespace vibe {

/**
 * A host execution space: runs a flattened iteration range, possibly
 * across threads. Launches are synchronous — `forEachChunk` returns
 * only after every chunk completed, which is what lets the profiler
 * and tracker merge their per-thread buffers at phase boundaries
 * without locking the record hot path.
 */
class ExecutionSpace
{
  public:
    virtual ~ExecutionSpace() = default;

    /** Stable backend identifier ("serial", "threadpool"). */
    virtual const char* name() const = 0;

    /**
     * Number of chunks a range is split into (1 for serial). Also the
     * number of deterministic partial accumulators for `parReduce`.
     */
    virtual int concurrency() const = 0;

    /**
     * Chunk callback: process flattened indices [begin, end) as chunk
     * number `chunk` (0-based, < concurrency()). Plain function pointer
     * + context so a launch never allocates.
     */
    using ChunkFn = void (*)(void* body, std::int64_t begin,
                             std::int64_t end, int chunk);

    /**
     * Split [0, n) into concurrency() contiguous chunks and invoke
     * `fn` for each non-empty chunk; blocks until all complete.
     * Chunk boundaries depend only on (n, concurrency()), never on
     * scheduling, so repeated runs partition identically.
     *
     * A space accepts one top-level launch at a time: nested launches
     * from inside a chunk degrade to in-line execution, but two
     * unrelated threads must not launch on the same pool concurrently
     * (ThreadPoolSpace panics on that; give each driving thread its
     * own space instead).
     */
    virtual void forEachChunk(std::int64_t n, ChunkFn fn, void* body) = 0;
};

/** Runs every launch in-line on the calling thread (seed behavior). */
class SerialSpace final : public ExecutionSpace
{
  public:
    const char* name() const override { return "serial"; }
    int concurrency() const override { return 1; }
    void forEachChunk(std::int64_t n, ChunkFn fn, void* body) override
    {
        if (n > 0)
            fn(body, 0, n, 0);
    }
};

/**
 * Persistent worker pool. `num_threads` includes the calling thread:
 * a launch runs chunk 0 on the caller and chunks 1..T-1 on the
 * workers, then waits for all of them. Nested launches from inside a
 * worker fall back to in-line execution rather than deadlocking.
 */
class ThreadPoolSpace final : public ExecutionSpace
{
  public:
    explicit ThreadPoolSpace(int num_threads);
    ~ThreadPoolSpace() override;

    ThreadPoolSpace(const ThreadPoolSpace&) = delete;
    ThreadPoolSpace& operator=(const ThreadPoolSpace&) = delete;

    const char* name() const override { return "threadpool"; }
    int concurrency() const override { return num_threads_; }
    void forEachChunk(std::int64_t n, ChunkFn fn, void* body) override;

  private:
    struct Impl;
    void waitForWorkers();

    int num_threads_;
    std::unique_ptr<Impl> impl_;
};

/**
 * Space factory behind the `exec/num_threads` knob: 1 (or less)
 * returns the shared serial fast path, >1 builds a thread pool.
 */
std::shared_ptr<ExecutionSpace> makeExecutionSpace(int num_threads);

/** The process-wide stateless SerialSpace instance. */
const std::shared_ptr<ExecutionSpace>& sharedSerialSpace();

} // namespace vibe
