/**
 * @file test_block_pack.cpp
 * Row and item launches: parForExecRows visits every (k, j) row
 * exactly once with a chunk id inside the space, and parForEach runs
 * every item exactly once as one launch, with nested kernels inline
 * and counting mode visiting items in order.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "exec/execution_space.hpp"
#include "exec/kernel_profiler.hpp"
#include "exec/par_for.hpp"

namespace vibe {
namespace {

// --- parForExecRows ---------------------------------------------------

TEST(ParForExecRows, CoversRowsExactlyOnceWithChunkInRange)
{
    for (int threads : {1, 4}) {
        ExecContext ctx(ExecMode::Execute, nullptr, nullptr,
                        makeExecutionSpace(threads));
        const int kl = 2, ku = 5, jl = 1, ju = 6;
        std::vector<std::atomic<int>> hits((ku + 1) * (ju + 1));
        parForExecRows(ctx, kl, ku, jl, ju, [&](int chunk, int k, int j) {
            EXPECT_GE(chunk, 0);
            EXPECT_LT(chunk, ctx.space().concurrency());
            hits[static_cast<std::size_t>(k * (ju + 1) + j)].fetch_add(1);
        });
        for (int k = 0; k <= ku; ++k)
            for (int j = 0; j <= ju; ++j)
                ASSERT_EQ(hits[static_cast<std::size_t>(k * (ju + 1) + j)]
                              .load(),
                          k >= kl && j >= jl ? 1 : 0)
                    << threads << " threads, row (" << k << ", " << j
                    << ")";
    }
}

// --- parForEach ---------------------------------------------------------

TEST(ParForEach, RunsEveryItemOnceWithNestedKernelsInline)
{
    for (int threads : {1, 4}) {
        KernelProfiler profiler;
        ExecContext ctx(ExecMode::Execute, &profiler, nullptr,
                        makeExecutionSpace(threads));
        const int items = 7, cells = 5;
        std::vector<std::atomic<int>> hits(items * cells);
        parForEach(ctx, items, [&](int item) {
            // A kernel launched by an item runs inline on its worker
            // and records its own row on the item's rank.
            parForAt(ctx, "Phase", item % 2, "Kernel", {1.0, 8.0}, 0, 0,
                     0, 0, 0, cells - 1, [&](int, int, int i) {
                         hits[static_cast<std::size_t>(item * cells + i)]
                             .fetch_add(1);
                     });
        });
        for (const auto& h : hits)
            ASSERT_EQ(h.load(), 1) << threads << " threads";
        const KernelStats& stats =
            profiler.kernels().at({"Phase", "Kernel"});
        EXPECT_EQ(stats.launches, static_cast<std::uint64_t>(items));
        EXPECT_EQ(stats.items, items * cells);
        EXPECT_EQ(stats.itemsByRank.at(0), 4.0 * cells);
        EXPECT_EQ(stats.itemsByRank.at(1), 3.0 * cells);
    }
}

TEST(ParForEach, CountingModeVisitsItemsInOrder)
{
    KernelProfiler profiler;
    ExecContext ctx(ExecMode::Count, &profiler, nullptr,
                    makeExecutionSpace(4));
    std::vector<int> order;
    parForEach(ctx, 5, [&](int item) { order.push_back(item); });
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

} // namespace
} // namespace vibe
