/**
 * @file par_for.hpp
 * Kokkos-style named parallel loops with work accounting.
 *
 * Every compute kernel in the solver and comm layers is expressed as a
 * `parFor` over an index range. The caller supplies per-item flop/byte
 * costs (the solver knows its own arithmetic); the launch is recorded in
 * the profiler, and the body is executed only in numeric mode. This is
 * the boundary the paper uses to split "Kokkos kernel" time from the
 * "serial portion" (§II-C).
 *
 * Execution goes through the context's ExecutionSpace: the serial
 * space runs the historical in-line loops bit for bit; a
 * ThreadPoolSpace statically chunks the flattened outer dimensions
 * across a persistent worker pool. Kernel names are `string_view`s and
 * the profiler tables are probed without materializing strings, so a
 * launch allocates nothing on the no-profiler, counting, and
 * steady-state recording paths.
 *
 * Reductions must use `parReduce` rather than accumulating into a
 * capture: it gives each static chunk its own accumulator and combines
 * the partials in chunk order, which is race-free and deterministic
 * for a fixed thread count (and exact for min/max under any chunking).
 */
#pragma once

#include <cstdint>
#include <limits>
#include <string_view>
#include <vector>

#include "exec/exec_context.hpp"
#include "exec/kernel_profiler.hpp"
#include "obs/trace.hpp"

namespace vibe {

/** Per-work-item cost declaration for a kernel. */
struct KernelCosts
{
    double flopsPerItem = 0;
    double bytesPerItem = 0;
};

/** Combine operation for `parReduce`. */
enum class ReduceOp { Min, Max, Sum };

namespace detail {

inline double
reduceIdentity(ReduceOp op)
{
    switch (op) {
      case ReduceOp::Min:
        return std::numeric_limits<double>::infinity();
      case ReduceOp::Max:
        return -std::numeric_limits<double>::infinity();
      case ReduceOp::Sum:
        return 0.0;
    }
    return 0.0;
}

inline double
reduceCombine(ReduceOp op, double a, double b)
{
    switch (op) {
      case ReduceOp::Min:
        return b < a ? b : a;
      case ReduceOp::Max:
        return b > a ? b : a;
      case ReduceOp::Sum:
        return a + b;
    }
    return a;
}

/** Scratch shared by the trampoline of one 3-D chunked launch. */
template <typename F>
struct Launch3
{
    F& body;
    std::int64_t nj;
    int kl, jl, il, iu;
};

} // namespace detail

/**
 * Execute-only 3-D loop over [kl,ku] x [jl,ju] x [il,iu] through the
 * context's execution space, without recording a launch (for call
 * sites whose accounting is batched separately via `recordKernel`).
 * The (k, j) plane is flattened and chunked; the contiguous i loop
 * stays inside the body call.
 */
template <typename F>
void
parForExec(const ExecContext& ctx, int kl, int ku, int jl, int ju, int il,
           int iu, F&& body)
{
    if (!ctx.executing() || ku < kl || ju < jl || iu < il)
        return;
    ExecutionSpace& space = ctx.space();
    const std::int64_t nk = static_cast<std::int64_t>(ku) - kl + 1;
    const std::int64_t nj = static_cast<std::int64_t>(ju) - jl + 1;
    if (space.concurrency() == 1 || nk * nj <= 1) {
        for (int k = kl; k <= ku; ++k)
            for (int j = jl; j <= ju; ++j)
                for (int i = il; i <= iu; ++i)
                    body(k, j, i);
        return;
    }
    detail::Launch3<F> launch{body, nj, kl, jl, il, iu};
    space.forEachChunk(
        nk * nj,
        [](void* p, std::int64_t begin, std::int64_t end, int) {
            auto* launch = static_cast<detail::Launch3<F>*>(p);
            for (std::int64_t idx = begin; idx < end; ++idx) {
                const int k =
                    launch->kl + static_cast<int>(idx / launch->nj);
                const int j =
                    launch->jl + static_cast<int>(idx % launch->nj);
                for (int i = launch->il; i <= launch->iu; ++i)
                    launch->body(k, j, i);
            }
        },
        &launch);
}

/**
 * 3-D named kernel over [kl,ku] x [jl,ju] x [il,iu], innermost i.
 *
 * @param ctx     Execution context (mode + instrumentation + space).
 * @param name    Kernel label (shows up in Table III / Fig. 12).
 * @param costs   Per-item flop/byte costs for the performance model.
 * @param body    Callable (int k, int j, int i).
 */
template <typename F>
void
parFor(const ExecContext& ctx, std::string_view name,
       const KernelCosts& costs, int kl, int ku, int jl, int ju, int il,
       int iu, F&& body)
{
    const double nk = ku >= kl ? static_cast<double>(ku - kl + 1) : 0.0;
    const double nj = ju >= jl ? static_cast<double>(ju - jl + 1) : 0.0;
    const double ni = iu >= il ? static_cast<double>(iu - il + 1) : 0.0;
    const double items = nk * nj * ni;
    if (ctx.profiler()) {
        ctx.profiler()->record({name, {}, ctx.currentRank(), 1, items,
                                items * costs.flopsPerItem,
                                items * costs.bytesPerItem, ni});
    }
    // One span per launch: thread-count-independent, so traced event
    // counts are comparable across pool sizes.
    TraceSpan trace(name, TraceCat::Kernel, ctx.currentRank());
    parForExec(ctx, kl, ku, jl, ju, il, iu, static_cast<F&&>(body));
}

/**
 * 3-D named reduction kernel with explicit phase and rank attribution.
 *
 * The body receives (k, j, i, double& acc) and must fold the cell's
 * contribution into `acc` with the declared operation. `result` enters
 * as the initial value and leaves combined with every chunk partial in
 * chunk order: min/max results are exact under any chunking, sum
 * results are deterministic for a fixed thread count.
 */
template <typename F>
void
parReduceAt(const ExecContext& ctx, std::string_view phase, int rank,
            std::string_view name, const KernelCosts& costs, ReduceOp op,
            double& result, int kl, int ku, int jl, int ju, int il, int iu,
            F&& body)
{
    const double nk = ku >= kl ? static_cast<double>(ku - kl + 1) : 0.0;
    const double nj = ju >= jl ? static_cast<double>(ju - jl + 1) : 0.0;
    const double ni = iu >= il ? static_cast<double>(iu - il + 1) : 0.0;
    const double items = nk * nj * ni;
    if (ctx.profiler()) {
        ctx.profiler()->record({name, phase, rank, 1, items,
                                items * costs.flopsPerItem,
                                items * costs.bytesPerItem, ni});
    }
    if (!ctx.executing() || ku < kl || ju < jl || iu < il)
        return;

    TraceSpan trace(name, TraceCat::Kernel, rank, -1, phase);
    ExecutionSpace& space = ctx.space();
    const std::int64_t onk = static_cast<std::int64_t>(ku) - kl + 1;
    const std::int64_t onj = static_cast<std::int64_t>(ju) - jl + 1;
    if (space.concurrency() == 1 || onk * onj <= 1) {
        double partial = detail::reduceIdentity(op);
        for (int k = kl; k <= ku; ++k)
            for (int j = jl; j <= ju; ++j)
                for (int i = il; i <= iu; ++i)
                    body(k, j, i, partial);
        result = detail::reduceCombine(op, result, partial);
        return;
    }

    struct ReduceLaunch
    {
        F& body;
        double* partials;
        std::int64_t nj;
        int kl, jl, il, iu;
    };
    // One accumulator per static chunk; combined in chunk order below.
    std::vector<double> partials(
        static_cast<std::size_t>(space.concurrency()),
        detail::reduceIdentity(op));
    ReduceLaunch launch{body, partials.data(), onj, kl, jl, il, iu};
    space.forEachChunk(
        onk * onj,
        [](void* p, std::int64_t begin, std::int64_t end, int chunk) {
            auto* launch = static_cast<ReduceLaunch*>(p);
            double acc = launch->partials[chunk];
            for (std::int64_t idx = begin; idx < end; ++idx) {
                const int k =
                    launch->kl + static_cast<int>(idx / launch->nj);
                const int j =
                    launch->jl + static_cast<int>(idx % launch->nj);
                for (int i = launch->il; i <= launch->iu; ++i)
                    launch->body(k, j, i, acc);
            }
            launch->partials[chunk] = acc;
        },
        &launch);
    for (double partial : partials)
        result = detail::reduceCombine(op, result, partial);
}

/** parReduceAt attributed to the ambient phase and current rank. */
template <typename F>
void
parReduce(const ExecContext& ctx, std::string_view name,
          const KernelCosts& costs, ReduceOp op, double& result, int kl,
          int ku, int jl, int ju, int il, int iu, F&& body)
{
    parReduceAt(ctx, {}, ctx.currentRank(), name, costs, op, result, kl,
                ku, jl, ju, il, iu, static_cast<F&&>(body));
}

/**
 * Record a kernel launch whose body is executed elsewhere (used for
 * batched pack/unpack where the loop structure is irregular).
 */
inline void
recordKernel(const ExecContext& ctx, std::string_view name, double items,
             const KernelCosts& costs, double innermost)
{
    if (ctx.profiler()) {
        ctx.profiler()->record({name, {}, ctx.currentRank(), 1, items,
                                items * costs.flopsPerItem,
                                items * costs.bytesPerItem, innermost});
    }
    // The body runs elsewhere, so mark the launch as an instant; the
    // surrounding task span carries the timing.
    traceInstant(name, TraceCat::Kernel, ctx.currentRank(), -1, items);
}

/** Record serial (non-kernel) work items of a named category. */
inline void
recordSerial(const ExecContext& ctx, std::string_view category,
             double items)
{
    if (ctx.profiler())
        ctx.profiler()->recordSerial(
            {{}, category, ctx.currentRank(), items});
}

// ---------------------------------------------------------------------
// Explicit-attribution variants for task-graph bodies.
//
// Tasks run concurrently on executor workers, so they must not depend
// on the profiler's ambient phase (PhaseScope/setPhase is a merge
// point that requires quiescence) nor on the context's ambient
// current-rank (a shared mutable slot). These variants carry the phase
// and rank in the record itself; the aggregation keys are identical to
// the PhaseScope-based path, so serial and threaded runs produce the
// same tables.
// ---------------------------------------------------------------------

/** recordKernel with explicit phase and rank attribution. */
inline void
recordKernelAt(const ExecContext& ctx, std::string_view phase, int rank,
               std::string_view name, double items,
               const KernelCosts& costs, double innermost)
{
    if (ctx.profiler()) {
        ctx.profiler()->record({name, phase, rank, 1, items,
                                items * costs.flopsPerItem,
                                items * costs.bytesPerItem, innermost});
    }
    traceInstant(name, TraceCat::Kernel, rank, -1, items);
}

/** recordSerial with explicit phase and rank attribution. */
inline void
recordSerialAt(const ExecContext& ctx, std::string_view phase, int rank,
               std::string_view category, double items)
{
    if (ctx.profiler())
        ctx.profiler()->recordSerial({phase, category, rank, items});
}

/** 3-D named kernel with explicit phase and rank attribution. */
template <typename F>
void
parForAt(const ExecContext& ctx, std::string_view phase, int rank,
         std::string_view name, const KernelCosts& costs, int kl, int ku,
         int jl, int ju, int il, int iu, F&& body)
{
    const double nk = ku >= kl ? static_cast<double>(ku - kl + 1) : 0.0;
    const double nj = ju >= jl ? static_cast<double>(ju - jl + 1) : 0.0;
    const double ni = iu >= il ? static_cast<double>(iu - il + 1) : 0.0;
    const double items = nk * nj * ni;
    if (ctx.profiler()) {
        ctx.profiler()->record({name, phase, rank, 1, items,
                                items * costs.flopsPerItem,
                                items * costs.bytesPerItem, ni});
    }
    TraceSpan trace(name, TraceCat::Kernel, rank, -1, phase);
    parForExec(ctx, kl, ku, jl, ju, il, iu, static_cast<F&&>(body));
}

// ---------------------------------------------------------------------
// Row and item launches.
//
// The block flux kernel hoists per-chunk scratch to launch setup and
// writes the contiguous innermost i loop itself, so it dispatches
// (k, j) rows instead of cells; the body receives the
// chunk id (always within [0, concurrency()), also on the serial path
// and in nested launches). parForEach spreads a list of independent
// items — owned blocks, boundary-plan sub-packs — over the space as
// one launch; every kernel an item launches runs inline on the worker
// that took the item, and records its own per-block row.
// ---------------------------------------------------------------------

/** Chunked rows over one block: body(chunk, k, j) writes the i loop.
 *  Execute-only companion of parForExec for kernels that hoist
 *  per-chunk scratch to launch setup (one resize per launch, not one
 *  size check per cell). */
template <typename F>
void
parForExecRows(const ExecContext& ctx, int kl, int ku, int jl, int ju,
               F&& body)
{
    if (!ctx.executing() || ku < kl || ju < jl)
        return;
    ExecutionSpace& space = ctx.space();
    const std::int64_t nk = static_cast<std::int64_t>(ku) - kl + 1;
    const std::int64_t nj = static_cast<std::int64_t>(ju) - jl + 1;
    if (space.concurrency() == 1 || nk * nj <= 1) {
        for (int k = kl; k <= ku; ++k)
            for (int j = jl; j <= ju; ++j)
                body(0, k, j);
        return;
    }
    detail::Launch3<F> launch{body, nj, kl, jl, 0, 0};
    space.forEachChunk(
        nk * nj,
        [](void* p, std::int64_t begin, std::int64_t end, int chunk) {
            auto* launch = static_cast<detail::Launch3<F>*>(p);
            for (std::int64_t idx = begin; idx < end; ++idx) {
                const int k =
                    launch->kl + static_cast<int>(idx / launch->nj);
                const int j =
                    launch->jl + static_cast<int>(idx % launch->nj);
                launch->body(chunk, k, j);
            }
        },
        &launch);
}

/**
 * Run fn(0) .. fn(n - 1) as ONE launch over the space: items are
 * chunked contiguously across the workers and each item's nested
 * kernels run inline on its worker. Items must be independent (write
 * disjoint data) and attribute their profiler records explicitly
 * (the *At variants), since they run concurrently. Counting mode
 * executes no bodies, so the items run in order on the caller and
 * record exactly what an executing launch would.
 */
template <typename F>
void
parForEach(const ExecContext& ctx, int n, F&& fn)
{
    if (!ctx.executing()) {
        for (int i = 0; i < n; ++i)
            fn(i);
        return;
    }
    parForExecRows(ctx, 0, n - 1, 0, 0, [&](int, int i, int) { fn(i); });
}

/**
 * Record one irregular fused launch (boundary-plan pack and unpack,
 * where table rows are whole channels of varying volume) from
 * per-entry item counts. The launch count is 1 (it is one kernel);
 * items are attributed per rank by runs of equal rank in entry order,
 * so the per-rank load tables see every rank's share.
 */
inline void
recordPackKernelItems(const ExecContext& ctx, std::string_view phase,
                      std::string_view name, const KernelCosts& costs,
                      const int* ranks, const double* items, int n,
                      double innermost)
{
    if (n > 0) {
        double total = 0;
        if (TraceRecorder::enabled())
            for (int e = 0; e < n; ++e)
                total += items[e];
        traceInstant(name, TraceCat::Kernel, ctx.currentRank(), -1,
                     total);
    }
    if (!ctx.profiler() || n <= 0)
        return;
    std::uint64_t launches = 1;
    int e = 0;
    while (e < n) {
        const int rank = ranks[e];
        double run_items = 0;
        while (e < n && ranks[e] == rank) {
            run_items += items[e];
            ++e;
        }
        ctx.profiler()->record({name, phase, rank, launches, run_items,
                                run_items * costs.flopsPerItem,
                                run_items * costs.bytesPerItem,
                                launches ? innermost : 0.0});
        launches = 0;
    }
}

} // namespace vibe
