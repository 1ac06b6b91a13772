/**
 * @file test_block_pack.cpp
 * Row and item launches: parForPackExec covers its flattened
 * (block, n, k, j) row domain exactly once in per-block order, and
 * parForEach runs every item exactly once as one launch, with nested
 * kernels inline and counting mode visiting items in order.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "exec/execution_space.hpp"
#include "exec/kernel_profiler.hpp"
#include "exec/par_for.hpp"

namespace vibe {
namespace {

// --- parForPackExec ----------------------------------------------------

TEST(ParForPack, CoversPackedDomainExactlyOnce)
{
    for (int threads : {1, 4}) {
        ExecContext ctx(ExecMode::Execute, nullptr, nullptr,
                        makeExecutionSpace(threads));
        const int nb = 5, nn = 3, nk = 4, nj = 6, ni = 7;
        std::vector<std::atomic<int>> hits(nb * nn * nk * nj * ni);
        parForPackExec(ctx, nb, 0, nn - 1, 0, nk - 1, 0, nj - 1,
                       [&](int chunk, int b, int n, int k, int j) {
                           EXPECT_GE(chunk, 0);
                           EXPECT_LT(chunk, ctx.space().concurrency());
                           for (int i = 0; i < ni; ++i)
                               hits[(((b * nn + n) * nk + k) * nj + j) *
                                        ni +
                                    i]
                                   .fetch_add(1);
                       });
        for (const auto& h : hits)
            ASSERT_EQ(h.load(), 1) << threads << " threads";
    }
}

TEST(ParForPack, SerialVisitsPerBlockOrder)
{
    ExecContext ctx(ExecMode::Execute, nullptr, nullptr);
    std::vector<int> order;
    parForPackExec(ctx, 3, 0, 0, 0, 1, 0, 1,
                   [&](int, int b, int, int k, int j) {
                       order.push_back((b * 2 + k) * 2 + j);
                   });
    // Blocks in pack order, rows in (k, j) order within each block —
    // exactly the per-block launch sequence.
    for (std::size_t idx = 0; idx < order.size(); ++idx)
        EXPECT_EQ(order[idx], static_cast<int>(idx));
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
