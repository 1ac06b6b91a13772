/**
 * @file test_exec.cpp
 * Tests for the instrumented execution layer: parFor modes, the kernel
 * profiler's aggregation and phase/rank attribution, and the memory
 * tracker.
 */
#include <gtest/gtest.h>

#include "exec/exec_context.hpp"
#include "exec/kernel_profiler.hpp"
#include "exec/memory_tracker.hpp"
#include "exec/par_for.hpp"
#include "util/logging.hpp"

namespace vibe {
namespace {

TEST(ParFor, ExecutesBodyInExecuteMode)
{
    KernelProfiler profiler;
    ExecContext ctx(ExecMode::Execute, &profiler, nullptr);
    int sum = 0;
    parFor(ctx, "k", {1.0, 8.0}, 0, 0, 0, 0, 0, 9,
           [&](int, int, int i) { sum += i; });
    EXPECT_EQ(sum, 45);
}

TEST(ParFor, SkipsBodyInCountMode)
{
    KernelProfiler profiler;
    ExecContext ctx(ExecMode::Count, &profiler, nullptr);
    int sum = 0;
    parFor(ctx, "k", {1.0, 8.0}, 0, 0, 0, 0, 0, 9,
           [&](int, int, int i) { sum += i; });
    EXPECT_EQ(sum, 0);
    // ...but the work is still recorded.
    EXPECT_DOUBLE_EQ(profiler.kernelByName("k").items, 10.0);
}

TEST(ParFor, RecordsIdenticalWorkInBothModes)
{
    for (ExecMode mode : {ExecMode::Execute, ExecMode::Count}) {
        KernelProfiler profiler;
        ExecContext ctx(mode, &profiler, nullptr);
        parFor(ctx, "k3", {2.0, 16.0}, 0, 3, 0, 4, 0, 5,
               [](int, int, int) {});
        const auto stats = profiler.kernelByName("k3");
        EXPECT_DOUBLE_EQ(stats.items, 4.0 * 5.0 * 6.0);
        EXPECT_DOUBLE_EQ(stats.flops, 2.0 * 120.0);
        EXPECT_DOUBLE_EQ(stats.bytes, 16.0 * 120.0);
        EXPECT_DOUBLE_EQ(stats.avgInnermost(), 6.0);
        EXPECT_EQ(stats.launches, 1u);
    }
}

TEST(ParFor, EmptyRangeRecordsZeroItems)
{
    KernelProfiler profiler;
    ExecContext ctx(ExecMode::Execute, &profiler, nullptr);
    parFor(ctx, "empty", {}, 0, 0, 0, 0, 5, 4,
           [](int, int, int) { FAIL(); });
    EXPECT_DOUBLE_EQ(profiler.kernelByName("empty").items, 0.0);
}

TEST(Profiler, PhaseAttribution)
{
    KernelProfiler profiler;
    ExecContext ctx(ExecMode::Count, &profiler, nullptr);
    {
        PhaseScope scope(&profiler, "CalculateFluxes");
        parFor(ctx, "k", {}, 0, 0, 0, 0, 0, 0, [](int, int, int) {});
        {
            PhaseScope inner(&profiler, "SendBoundBufs");
            parFor(ctx, "k", {}, 0, 0, 0, 0, 0, 0, [](int, int, int) {});
        }
        parFor(ctx, "k", {}, 0, 0, 0, 0, 0, 0, [](int, int, int) {});
    }
    EXPECT_DOUBLE_EQ(
        profiler.kernels().at({"CalculateFluxes", "k"}).items, 2.0);
    EXPECT_DOUBLE_EQ(profiler.kernels().at({"SendBoundBufs", "k"}).items,
                     1.0);
}

TEST(Profiler, RankAttribution)
{
    KernelProfiler profiler;
    ExecContext ctx(ExecMode::Count, &profiler, nullptr);
    ctx.setCurrentRank(2);
    parFor(ctx, "k", {}, 0, 0, 0, 0, 0, 9, [](int, int, int) {});
    ctx.setCurrentRank(5);
    parFor(ctx, "k", {}, 0, 0, 0, 0, 0, 4, [](int, int, int) {});
    const auto stats = profiler.kernelByName("k");
    EXPECT_DOUBLE_EQ(stats.itemsByRank.at(2), 10.0);
    EXPECT_DOUBLE_EQ(stats.itemsByRank.at(5), 5.0);
}

TEST(Profiler, SerialRecordsAggregate)
{
    KernelProfiler profiler;
    ExecContext ctx(ExecMode::Count, &profiler, nullptr);
    PhaseScope scope(&profiler, "SendBoundBufs");
    recordSerial(ctx, "bound_buf_metadata", 10);
    recordSerial(ctx, "bound_buf_metadata", 5);
    EXPECT_DOUBLE_EQ(profiler.serialByCategory("bound_buf_metadata"),
                     15.0);
    EXPECT_DOUBLE_EQ(
        profiler.serial().at({"SendBoundBufs", "bound_buf_metadata"})
            .items,
        15.0);
}

TEST(Profiler, TotalsAndReset)
{
    KernelProfiler profiler;
    ExecContext ctx(ExecMode::Count, &profiler, nullptr);
    parFor(ctx, "a", {}, 0, 0, 0, 0, 0, 9, [](int, int, int) {});
    parFor(ctx, "b", {}, 0, 0, 0, 0, 0, 4, [](int, int, int) {});
    EXPECT_DOUBLE_EQ(profiler.totalItems(), 15.0);
    EXPECT_EQ(profiler.totalLaunches(), 2u);
    profiler.reset();
    EXPECT_DOUBLE_EQ(profiler.totalItems(), 0.0);
    EXPECT_EQ(profiler.phase(), "Initialise");
}

TEST(Profiler, RecordKernelHelper)
{
    KernelProfiler profiler;
    ExecContext ctx(ExecMode::Count, &profiler, nullptr);
    recordKernel(ctx, "pack", 100.0, {0.5, 4.0}, 16.0);
    const auto stats = profiler.kernelByName("pack");
    EXPECT_DOUBLE_EQ(stats.items, 100.0);
    EXPECT_DOUBLE_EQ(stats.flops, 50.0);
    EXPECT_DOUBLE_EQ(stats.bytes, 400.0);
    EXPECT_DOUBLE_EQ(stats.avgInnermost(), 16.0);
}

TEST(MemoryTracker, AllocateDeallocate)
{
    MemoryTracker tracker;
    tracker.allocate("a", 100);
    tracker.allocate("b", 50);
    tracker.allocate("a", 25);
    EXPECT_EQ(tracker.currentBytes(), 175u);
    EXPECT_EQ(tracker.labelBytes("a"), 125u);
    tracker.deallocate("a", 100);
    EXPECT_EQ(tracker.currentBytes(), 75u);
    EXPECT_EQ(tracker.peakBytes(), 175u);
    EXPECT_EQ(tracker.labelPeakBytes("a"), 125u);
    EXPECT_EQ(tracker.allocationCalls(), 3u);
}

TEST(MemoryTracker, UnderflowPanics)
{
    MemoryTracker tracker;
    tracker.allocate("a", 10);
    EXPECT_THROW(tracker.deallocate("a", 20), PanicError);
    EXPECT_THROW(tracker.deallocate("missing", 1), PanicError);
}

TEST(MemoryTracker, ResetClearsEverything)
{
    MemoryTracker tracker;
    tracker.allocate("a", 10);
    tracker.reset();
    EXPECT_EQ(tracker.currentBytes(), 0u);
    EXPECT_EQ(tracker.peakBytes(), 0u);
    EXPECT_EQ(tracker.allocationCalls(), 0u);
}

TEST(ExecContext, ModeAndInstrumentation)
{
    KernelProfiler profiler;
    MemoryTracker tracker;
    ExecContext ctx(ExecMode::Execute, &profiler, &tracker);
    EXPECT_TRUE(ctx.executing());
    EXPECT_EQ(ctx.profiler(), &profiler);
    EXPECT_EQ(ctx.tracker(), &tracker);
    ExecContext counting(ExecMode::Count, nullptr, nullptr);
    EXPECT_FALSE(counting.executing());
}

} // namespace
} // namespace vibe
