/**
 * @file test_experiment.cpp
 * Integration tests of the experiment harness: end-to-end counting and
 * numeric runs, the one-rank team against a hand-wired classic driver,
 * the paper's directional findings at reduced scale, and the BestR
 * selection helper.
 */
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "comm/rank_world.hpp"
#include "core/experiment.hpp"
#include "driver/tagger.hpp"
#include "exec/execution_space.hpp"
#include "pkg/package_registry.hpp"
#include "util/logging.hpp"
#include "util/parameter_input.hpp"

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

// --- One run path: a one-rank RankTeam is the classic driver ----------

/** What a hand-wired classic run reports. */
struct ClassicRun
{
    std::vector<CycleStats> history;
    std::int64_t zoneCycles = 0;
    std::int64_t commCells = 0;
    std::size_t kokkosBytes = 0;
    double modelFom = 0;
    KernelProfiler profiler;
};

/**
 * The classic single driver wired by hand: one ExecContext, an
 * unsharded Mesh, a RankWorld of the platform's modeled ranks, and the
 * tagger Experiment picks for the mode.
 */
ClassicRun
runHandWired(const ExperimentSpec& spec)
{
    ParameterInput package_params;
    package_params.set("burgers", "num_scalars",
                       std::to_string(spec.numScalars));
    auto package =
        PackageRegistry::instance().create(spec.package, package_params);
    VariableRegistry registry = package->buildRegistry();

    MeshConfig mesh_config;
    mesh_config.ndim = spec.ndim;
    mesh_config.nx1 = mesh_config.nx2 = mesh_config.nx3 = spec.meshSize;
    mesh_config.blockNx1 = mesh_config.blockNx2 = mesh_config.blockNx3 =
        spec.blockSize;
    mesh_config.numGhost = spec.numGhost;
    mesh_config.amrLevels = spec.amrLevels;
    mesh_config.numThreads = spec.numThreads;

    DriverConfig driver_config;
    driver_config.ncycles = spec.ncycles;
    driver_config.fixedDt = spec.fixedDt();
    driver_config.lbCost = lbCostModeFromName(spec.lbCost);

    ClassicRun out;
    MemoryTracker tracker;
    ExecContext ctx(spec.numeric ? ExecMode::Execute : ExecMode::Count,
                    &out.profiler, &tracker,
                    makeExecutionSpace(spec.numeric ? spec.numThreads : 1));
    Mesh mesh(mesh_config, registry, ctx);
    RankWorld world(spec.platform.ranks);
    std::unique_ptr<RefinementTagger> tagger;
    if (spec.numeric) {
        tagger = std::make_unique<GradientTagger>(*package);
    } else {
        SphericalWaveTagger::Params wave;
        wave.solid = true;
        wave.rMin = 0.06;
        wave.rMax = 0.11;
        wave.width = 0.005;
        wave.haloCells = 0.25 * spec.blockSize;
        wave.derefineFactor = 1.8;
        tagger = std::make_unique<SphericalWaveTagger>(wave);
    }
    EvolutionDriver driver(mesh, *package, world, *tagger, driver_config);
    driver.initialize();
    driver.run();

    out.history = driver.history();
    out.zoneCycles = driver.zoneCycles();
    out.commCells = driver.commCells();
    out.kokkosBytes = tracker.currentBytes();
    RunArtifacts artifacts;
    artifacts.profiler = &out.profiler;
    artifacts.ncycles = driver.cycle();
    artifacts.zoneCycles = driver.zoneCycles();
    artifacts.commCells = driver.commCells();
    artifacts.kokkosBytes = tracker.currentBytes();
    artifacts.remoteWireBytes = driver.bufferCache().remoteWireBytes();
    artifacts.remoteMsgsPerCycle =
        static_cast<double>(world.traffic().remoteMessages) /
        static_cast<double>(driver.cycle());
    artifacts.finalBlocks = mesh.numBlocks();
    out.modelFom = ExecutionModel().evaluate(artifacts, spec.platform).fom;
    return out;
}

void
expectSameRun(const ExperimentSpec& spec)
{
    const ClassicRun classic = runHandWired(spec);
    const ExperimentResult team = Experiment(spec).run();

    EXPECT_EQ(team.zoneCycles, classic.zoneCycles);
    EXPECT_EQ(team.commCells, classic.commCells);
    EXPECT_EQ(team.kokkosBytes, classic.kokkosBytes);
    EXPECT_EQ(team.fom(), classic.modelFom);

    ASSERT_EQ(team.history.size(), classic.history.size());
    for (std::size_t c = 0; c < classic.history.size(); ++c) {
        const CycleStats& a = team.history[c];
        const CycleStats& b = classic.history[c];
        SCOPED_TRACE("cycle " + std::to_string(c));
        EXPECT_EQ(a.cycle, b.cycle);
        EXPECT_EQ(a.time, b.time);
        EXPECT_EQ(a.dt, b.dt);
        EXPECT_EQ(a.mass, b.mass);
        EXPECT_EQ(a.nblocks, b.nblocks);
        EXPECT_EQ(a.interiorCells, b.interiorCells);
        EXPECT_EQ(a.wireCells, b.wireCells);
        EXPECT_EQ(a.wireFaces, b.wireFaces);
        EXPECT_EQ(a.refined, b.refined);
        EXPECT_EQ(a.derefined, b.derefined);
        EXPECT_EQ(a.movedBlocks, b.movedBlocks);
        EXPECT_EQ(a.lbDecision, b.lbDecision);
        EXPECT_EQ(a.lbImbalance, b.lbImbalance);
        EXPECT_EQ(a.lbMaxRankCost, b.lbMaxRankCost);
        EXPECT_EQ(a.lbMeanRankCost, b.lbMeanRankCost);
        EXPECT_EQ(a.boundaryMessages, b.boundaryMessages);
        EXPECT_EQ(a.boundaryBytes, b.boundaryBytes);
        EXPECT_EQ(a.uncoalescedMessages, b.uncoalescedMessages);
        // The team's idle split names its one rank.
        EXPECT_EQ(a.rankIdleSeconds.size(), 1u);
    }

    const auto& kernels = team.profiler.kernels();
    ASSERT_EQ(kernels.size(), classic.profiler.kernels().size());
    for (const auto& [key, want] : classic.profiler.kernels()) {
        SCOPED_TRACE(key.first + " / " + key.second);
        const auto it = kernels.find(key);
        ASSERT_NE(it, kernels.end());
        EXPECT_EQ(it->second.launches, want.launches);
        EXPECT_EQ(it->second.items, want.items);
        EXPECT_EQ(it->second.flops, want.flops);
        EXPECT_EQ(it->second.bytes, want.bytes);
        EXPECT_EQ(it->second.innermostSum, want.innermostSum);
        EXPECT_EQ(it->second.itemsByRank, want.itemsByRank);
    }
    const auto& serial = team.profiler.serial();
    ASSERT_EQ(serial.size(), classic.profiler.serial().size());
    for (const auto& [key, want] : classic.profiler.serial()) {
        SCOPED_TRACE(key.first + " / " + key.second);
        const auto it = serial.find(key);
        ASSERT_NE(it, serial.end());
        EXPECT_EQ(it->second.items, want.items);
        EXPECT_EQ(it->second.itemsByRank, want.itemsByRank);
    }
}

TEST(OneRunPath, CountingTeamMatchesHandWiredClassicDriver)
{
    ExperimentSpec spec = smallSpec();
    spec.amrLevels = 3;
    // Four modeled ranks: ownership, remote traffic and the per-rank
    // profiler rows all come from the RankWorld's modeled rank count.
    spec.platform = PlatformConfig::gpu(1, 4);
    spec.lbCost = "uniform";
    expectSameRun(spec);
}

TEST(OneRunPath, NumericTeamMatchesHandWiredClassicDriver)
{
    ExperimentSpec spec = smallSpec();
    spec.meshSize = 16;
    spec.numeric = true;
    spec.package = "advection";
    spec.ncycles = 4;
    spec.numThreads = 2;
    spec.platform = PlatformConfig::gpu(1, 2);
    spec.lbCost = "uniform";
    expectSameRun(spec);
}

} // namespace
} // namespace vibe
