/**
 * @file test_experiment.cpp
 * Integration tests of the experiment harness: end-to-end counting and
 * numeric runs, the paper's directional findings at reduced scale, and
 * the BestR selection helper.
 */
#include <gtest/gtest.h>

#include <string>

#include "core/experiment.hpp"
#include "util/logging.hpp"

namespace vibe {
namespace {

ExperimentSpec
smallSpec()
{
    ExperimentSpec spec;
    spec.meshSize = 32;
    spec.blockSize = 8;
    spec.amrLevels = 2;
    spec.ncycles = 5;
    spec.numeric = false;
    spec.platform = PlatformConfig::gpu(1, 1);
    return spec;
}

TEST(Experiment, CountingRunProducesAllArtifacts)
{
    auto result = Experiment(smallSpec()).run();
    EXPECT_GT(result.zoneCycles, 0);
    EXPECT_GT(result.commCells, 0);
    EXPECT_GT(result.finalBlocks, 0u);
    EXPECT_GT(result.kokkosBytes, 0u);
    EXPECT_EQ(result.history.size(), 5u);
    EXPECT_GT(result.fom(), 0.0);
    EXPECT_GT(result.report.totalTime, 0.0);
    EXPECT_GT(result.report.kernels.size(), 5u);
    EXPECT_GT(result.paperScale(), 1.0);
}

TEST(Experiment, NumericRunMatchesCountingWorkScale)
{
    auto counting = Experiment(smallSpec()).run();
    auto spec = smallSpec();
    spec.numeric = true;
    auto numeric = Experiment(spec).run();
    // Different taggers (gradient vs analytic) mean structures differ
    // in detail, but the workload must be the same order of magnitude.
    EXPECT_GT(numeric.zoneCycles, counting.zoneCycles / 4);
    EXPECT_LT(numeric.zoneCycles, counting.zoneCycles * 4);
}

TEST(Experiment, RejectsIndivisibleBlockSize)
{
    auto spec = smallSpec();
    spec.blockSize = 7;
    EXPECT_THROW(Experiment(spec).run(), PanicError);
}

TEST(Experiment, RejectsPerFaceBoundariesNamingTheField)
{
    // Boundary exchange always rides the fused plan; asking for the
    // removed per-face path must fail and say which field to fix.
    auto spec = smallSpec();
    spec.fusedBoundaries = false;
    try {
        Experiment(spec).run();
        FAIL() << "expected FatalError";
    } catch (const FatalError& err) {
        const std::string what = err.what();
        EXPECT_NE(what.find("ExperimentSpec::fusedBoundaries"),
                  std::string::npos)
            << what;
    }
}

TEST(Experiment, FixedDtTracksFinestLevel)
{
    auto spec = smallSpec();
    spec.meshSize = 128;
    spec.amrLevels = 3;
    // dx_finest = 1/(128*4); dt = 0.4 * dx.
    EXPECT_NEAR(spec.fixedDt(), 0.4 / 512.0, 1e-12);
}

// --- Directional reproduction of the paper's headline findings, at
// --- reduced scale (the full-scale versions live in bench/). ---

TEST(PaperShape, SmallerBlocksReduceProcessedCells)
{
    // Fig. 1(a): smaller mesh blocks -> fewer processed cells.
    auto b16 = smallSpec();
    b16.meshSize = 64;
    b16.blockSize = 16;
    b16.amrLevels = 3;
    auto b8 = b16;
    b8.blockSize = 8;
    const auto r16 = Experiment(b16).run();
    const auto r8 = Experiment(b8).run();
    EXPECT_LT(r8.zoneCycles, r16.zoneCycles);
}

TEST(PaperShape, SmallerBlocksIncreaseCommToComputeRatio)
{
    // §IV-B: the communication-to-computation ratio grows steeply as
    // blocks shrink.
    auto b16 = smallSpec();
    b16.meshSize = 64;
    b16.blockSize = 16;
    b16.amrLevels = 3;
    auto b8 = b16;
    b8.blockSize = 8;
    const auto r16 = Experiment(b16).run();
    const auto r8 = Experiment(b8).run();
    const double ratio16 = static_cast<double>(r16.commCells) /
                           static_cast<double>(r16.zoneCycles);
    const double ratio8 = static_cast<double>(r8.commCells) /
                          static_cast<double>(r8.zoneCycles);
    EXPECT_GT(ratio8, 2.0 * ratio16);
}

TEST(PaperShape, GpuSerialFractionShrinksWithRanks)
{
    // Fig. 9: GPU-1R is serial-dominated; more ranks relieve it.
    auto spec = smallSpec();
    spec.meshSize = 64;
    spec.amrLevels = 3;
    spec.platform = PlatformConfig::gpu(1, 1);
    const auto r1 = Experiment(spec).run();
    spec.platform = PlatformConfig::gpu(1, 8);
    const auto r8 = Experiment(spec).run();
    EXPECT_GT(r1.serialFraction(), 0.5);
    EXPECT_LT(r8.serialFraction(), r1.serialFraction());
    EXPECT_GT(r8.fom(), r1.fom());
}

TEST(PaperShape, DeeperAmrGrowsCommunication)
{
    // §IV-C: communicated cells grow with #AMR levels.
    auto l1 = smallSpec();
    l1.meshSize = 64;
    l1.blockSize = 8;
    l1.amrLevels = 1;
    auto l3 = l1;
    l3.amrLevels = 3;
    const auto r1 = Experiment(l1).run();
    const auto r3 = Experiment(l3).run();
    EXPECT_GT(static_cast<double>(r3.commCells),
              static_cast<double>(r1.commCells));
}

TEST(PaperShape, CpuKernelFractionHealthierThanGpu1R)
{
    auto spec = smallSpec();
    spec.meshSize = 64;
    spec.amrLevels = 3;
    spec.platform = PlatformConfig::cpu(96);
    const auto cpu = Experiment(spec).run();
    spec.platform = PlatformConfig::gpu(1, 1);
    const auto gpu = Experiment(spec).run();
    EXPECT_LT(cpu.serialFraction(), gpu.serialFraction());
}

TEST(Experiment, BestRankPicksInterior)
{
    // With the serial-vs-collective tradeoff, the best rank count for
    // a serial-heavy workload should exceed 1.
    auto spec = smallSpec();
    spec.meshSize = 64;
    spec.amrLevels = 3;
    int best_r = 0;
    auto result =
        Experiment::bestRank(spec, 1, {1, 2, 4, 8, 12, 16}, &best_r);
    EXPECT_GT(best_r, 1);
    EXPECT_FALSE(result.oom());
    // And it beats the single-rank configuration.
    spec.platform = PlatformConfig::gpu(1, 1);
    const auto r1 = Experiment(spec).run();
    EXPECT_GE(result.fom(), r1.fom());
}

TEST(Experiment, AuxMemoryOptimizationShrinksKokkosBytes)
{
    auto base = smallSpec();
    base.meshSize = 64;
    base.blockSize = 8;
    auto optimized = base;
    optimized.optimizeAuxMemory = true;
    const auto r_base = Experiment(base).run();
    const auto r_opt = Experiment(optimized).run();
    EXPECT_LT(r_opt.kokkosBytes, r_base.kokkosBytes);
}

TEST(Experiment, HistoryTracksRippleRefinement)
{
    // The moving wavefront must keep the fine level populated.
    auto spec = smallSpec();
    spec.meshSize = 64;
    spec.blockSize = 8;
    spec.amrLevels = 3;
    spec.ncycles = 6;
    const auto result = Experiment(spec).run();
    for (const auto& s : result.history)
        EXPECT_GT(s.nblocks, 512u); // more than the uniform base grid
}

} // namespace
} // namespace vibe
