/**
 * @file test_load_balance_cost.cpp
 * Measured-cost load balancing: cost-model normalization/EMA, the
 * lb_cost knobs, partition hysteresis (direct and end-to-end
 * no-thrash), refinement cost inheritance, checkpoint cost carriage,
 * measured-vs-uniform bitwise state equality, and the stiff reaction
 * package that makes per-block cost imbalance real.
 */
#include "scoped_env.hpp"
#include "shard_harness.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "driver/block_cost_model.hpp"
#include "driver/load_balance.hpp"
#include "driver/task_list.hpp"
#include "io/checkpoint.hpp"
#include "io/checkpoint_writer.hpp"
#include "pkg/reaction_package.hpp"

namespace vibe {
namespace {

using shard_test::captureHistory;
using shard_test::expectBitwiseEqual;
using shard_test::makePackage;
using shard_test::runClassic;
using shard_test::runTeam;
using shard_test::shardDriverConfig;
using shard_test::shardMeshConfig;
using shard_test::shardWaveParams;
using shard_test::ShardRun;

/** Classic 8-block counting mesh for cost-model unit tests. */
struct CostFixture
{
    std::unique_ptr<PackageDescriptor> package = makePackage("advection");
    VariableRegistry registry = package->buildRegistry();
    KernelProfiler profiler;
    MemoryTracker tracker;
    ExecContext ctx{ExecMode::Count, &profiler, &tracker,
                    makeExecutionSpace(1)};
    Mesh mesh{shardMeshConfig(1, 1), registry, ctx};
};

TEST(LbCostMode, NamesAndEnvKnob)
{
    EXPECT_EQ(lbCostModeFromName("uniform"), LbCostMode::Uniform);
    EXPECT_EQ(lbCostModeFromName("measured"), LbCostMode::Measured);
    EXPECT_THROW(lbCostModeFromName("turbo"), FatalError);
    EXPECT_EQ(std::string(lbCostModeName(LbCostMode::Uniform)),
              "uniform");
    EXPECT_EQ(std::string(lbCostModeName(LbCostMode::Measured)),
              "measured");

    // Preserve the CI matrix's VIBE_LB_COST across this test.
    ScopedEnv env("VIBE_LB_COST", "measured");
    EXPECT_EQ(envLbCostMode(LbCostMode::Uniform), LbCostMode::Measured);
    env.set("");
    EXPECT_EQ(envLbCostMode(LbCostMode::Uniform), LbCostMode::Uniform);
    env.set(nullptr);
    EXPECT_EQ(envLbCostMode(LbCostMode::Measured), LbCostMode::Measured);
}

TEST(BlockCostModel, AccumulatesPositiveSamplesPerCycle)
{
    BlockCostModel model;
    model.addSample(3, 0.5);
    model.addSample(3, 0.25);
    model.addSample(4, -1.0); // clocks can misbehave; never subtract
    model.addSample(5, 0.0);
    EXPECT_EQ(model.numSamples(), 1u);
    EXPECT_DOUBLE_EQ(model.sample(3), 0.75);
    EXPECT_DOUBLE_EQ(model.sample(4), 0.0);
    model.beginCycle();
    EXPECT_EQ(model.numSamples(), 0u);
    EXPECT_DOUBLE_EQ(model.sample(3), 0.0);
}

TEST(BlockCostModel, NormalizesScaleFreeAndAppliesEma)
{
    // gid 0 measures 3x the others: after one EMA fold its cost must
    // pull above the uniform interiorCells() baseline and the others
    // below, on the same scale regardless of absolute seconds.
    const double interior = 512.0; // 8^3 interior cells
    for (double scale : {1.0, 1000.0}) {
        CostFixture f;
        RankWorld world(1);
        ASSERT_EQ(f.mesh.numBlocks(), 8u);
        BlockCostModel model;
        model.addSample(0, 3.0 * scale);
        for (int gid = 1; gid < 8; ++gid)
            model.addSample(gid, 1.0 * scale);
        model.applyMeasuredCosts(f.mesh, world);

        // mean seconds = 10/8; targets are (seconds/mean)*interior.
        const double alpha = BlockCostModel::kAlpha;
        const double hot =
            (1 - alpha) * interior + alpha * (3.0 / 1.25) * interior;
        const double cold =
            (1 - alpha) * interior + alpha * (1.0 / 1.25) * interior;
        EXPECT_NEAR(f.mesh.blocks()[0]->cost(), hot, 1e-9)
            << "scale " << scale;
        for (int gid = 1; gid < 8; ++gid)
            EXPECT_NEAR(f.mesh.blocks()[gid]->cost(), cold, 1e-9)
                << "gid " << gid << ", scale " << scale;
    }
}

TEST(BlockCostModel, CountingModeAndUnsampledBlocksKeepCosts)
{
    CostFixture f;
    RankWorld world(1);
    const double interior = 512.0;

    // No samples at all (counting mode skipped every task body): the
    // apply is a no-op, not a divide-by-zero.
    BlockCostModel empty;
    empty.applyMeasuredCosts(f.mesh, world);
    for (const auto& block : f.mesh.blocks())
        EXPECT_DOUBLE_EQ(block->cost(), interior);

    // Only gid 0 sampled (the rest created mid-cycle, say): unsampled
    // blocks keep their inherited estimates untouched.
    BlockCostModel partial;
    partial.addSample(0, 2.0);
    partial.applyMeasuredCosts(f.mesh, world);
    const double alpha = BlockCostModel::kAlpha;
    // mean seconds = 2/8 -> gid 0's target is 8x interior.
    EXPECT_NEAR(f.mesh.blocks()[0]->cost(),
                (1 - alpha) * interior + alpha * 8.0 * interior, 1e-9);
    for (int gid = 1; gid < 8; ++gid)
        EXPECT_DOUBLE_EQ(f.mesh.blocks()[gid]->cost(), interior);
}

TEST(LoadBalanceCost, HysteresisSkipsMarginalRepartitions)
{
    CostFixture f;
    RankWorld world(2); // modeled 2-rank world, classic mesh
    const auto& blocks = f.mesh.blocks();

    // Establish the balanced 4/4 baseline partition. Measured mode:
    // the partitioner must consume the cost metadata riding the blocks
    // (uniform mode ignores it and weighs interior cells).
    LoadBalanceOptions measured;
    measured.costMode = LbCostMode::Measured;
    const LoadBalanceStats seeded = loadBalance(f.mesh, world, measured);
    EXPECT_TRUE(seeded.adopted);
    EXPECT_EQ(seeded.movedBlocks, 4);
    EXPECT_DOUBLE_EQ(seeded.maxRankCost, 4.0 * 512.0);
    EXPECT_DOUBLE_EQ(seeded.imbalance(), 1.0);

    // Skew gid 0: the greedy split now wants to move block 3 to rank
    // 1, improving max/mean by (3536 - 3024) / 2792 ~ 0.183.
    blocks[0]->setCost(2000.0);

    LoadBalanceOptions strict;
    strict.costMode = LbCostMode::Measured;
    strict.imbalanceTrigger = 0.5;
    const LoadBalanceStats skipped = loadBalance(f.mesh, world, strict);
    EXPECT_FALSE(skipped.adopted);
    EXPECT_EQ(skipped.movedBlocks, 0);
    // Stats describe the KEPT current assignment, what the run pays.
    EXPECT_DOUBLE_EQ(skipped.maxRankCost, 2000.0 + 3 * 512.0);
    EXPECT_DOUBLE_EQ(skipped.meanRankCost, (2000.0 + 7 * 512.0) / 2.0);
    for (std::size_t b = 0; b < blocks.size(); ++b)
        EXPECT_EQ(blocks[b]->rank(), b < 4 ? 0 : 1) << "block " << b;

    LoadBalanceOptions lenient;
    lenient.costMode = LbCostMode::Measured;
    lenient.imbalanceTrigger = 0.1;
    const LoadBalanceStats adopted = loadBalance(f.mesh, world, lenient);
    EXPECT_TRUE(adopted.adopted);
    EXPECT_EQ(adopted.movedBlocks, 1);
    EXPECT_DOUBLE_EQ(adopted.maxRankCost, 2000.0 + 2 * 512.0);
    EXPECT_EQ(blocks[3]->rank(), 1);
}

TEST(LoadBalanceCost, RefineSplitsAndDerefineSumsCost)
{
    // The shard workload refines AND derefines mid-run; children carry
    // an even split of the parent's estimate and a derefined parent
    // the children's sum, so total mesh cost is exactly conserved
    // through every remesh (uniform mode: no measurements overwrite
    // the inherited values).
    auto package = makePackage("burgers");
    VariableRegistry registry = package->buildRegistry();
    KernelProfiler profiler;
    MemoryTracker tracker;
    ExecContext ctx(ExecMode::Execute, &profiler, &tracker,
                    makeExecutionSpace(1));
    Mesh mesh(shardMeshConfig(1, 1), registry, ctx);
    RankWorld world(1);
    SphericalWaveTagger tagger(shardWaveParams());
    DriverConfig config = shardDriverConfig();
    config.lbCost = LbCostMode::Uniform;
    EvolutionDriver driver(mesh, *package, world, tagger, config);
    driver.initialize();

    const auto total_cost = [&mesh] {
        double total = 0;
        for (const auto& block : mesh.blocks())
            total += block->cost();
        return total;
    };
    // 16^3 @ 8^3 base grid: 8 blocks x 512 interior cells, conserved
    // through the initial refinement too.
    EXPECT_DOUBLE_EQ(total_cost(), 8.0 * 512.0);

    driver.run();
    std::int64_t remesh_events = 0;
    for (const CycleStats& stats : driver.history())
        remesh_events += stats.refined + stats.derefined;
    ASSERT_GT(remesh_events, 0);
    EXPECT_DOUBLE_EQ(total_cost(), 8.0 * 512.0);
}

/** runClassic with an explicit cost mode / trigger. */
ShardRun
runClassicCost(const std::string& package_name, int num_threads,
               LbCostMode mode, double trigger = 0.0)
{
    auto package = makePackage(package_name);
    VariableRegistry registry = package->buildRegistry();
    KernelProfiler profiler;
    MemoryTracker tracker;
    ExecContext ctx(ExecMode::Execute, &profiler, &tracker,
                    makeExecutionSpace(num_threads));
    Mesh mesh(shardMeshConfig(1, num_threads), registry, ctx);
    RankWorld world(1);
    SphericalWaveTagger tagger(shardWaveParams());
    DriverConfig config = shardDriverConfig();
    config.lbCost = mode;
    config.lbImbalanceTrigger = trigger;
    EvolutionDriver driver(mesh, *package, world, tagger, config);
    driver.initialize();
    driver.run();

    ShardRun out;
    captureHistory(driver.history(), &out);
    for (const auto& block : mesh.blocks())
        shard_test::captureBlock(*block, &out);
    return out;
}

/** runTeam with an explicit cost mode / trigger. */
ShardRun
runTeamCost(const std::string& package_name, int num_ranks,
            int num_threads, LbCostMode mode, double trigger = 0.0)
{
    auto package = makePackage(package_name);
    VariableRegistry registry = package->buildRegistry();
    DriverConfig config = shardDriverConfig();
    config.lbCost = mode;
    config.lbImbalanceTrigger = trigger;
    RankTeam team(shardMeshConfig(num_ranks, num_threads),
                  registry, *package, config, [](int) {
                      return std::make_unique<SphericalWaveTagger>(
                          shardWaveParams());
                  });
    team.run();

    ShardRun out;
    captureHistory(team.aggregatedHistory(), &out);
    for (const auto& block : team.mesh(0).blocks()) {
        MeshBlock* owned = team.ownedBlock(block->loc());
        EXPECT_NE(owned, nullptr) << block->loc().str();
        if (owned)
            shard_test::captureBlock(*owned, &out);
    }
    return out;
}

TEST(LoadBalanceCost, MeasuredMatchesUniformBitwise)
{
    // The cost source steers WHERE blocks live, never WHAT they hold:
    // mesh state, dt, and mass must be bitwise identical between
    // uniform and measured costs at every rank/thread count, with and
    // without hysteresis.
    const ShardRun uniform =
        runClassicCost("advection", 1, LbCostMode::Uniform);
    expectBitwiseEqual(
        uniform, runClassicCost("advection", 1, LbCostMode::Measured),
        "measured classic @1r x 1t");
    expectBitwiseEqual(
        uniform, runTeamCost("advection", 2, 1, LbCostMode::Measured),
        "measured team @2r x 1t");
    expectBitwiseEqual(uniform,
                       runTeamCost("advection", 2, 1,
                                   LbCostMode::Measured, 0.05),
                       "measured+hysteresis team @2r x 1t");

    const ShardRun uniform2t =
        runClassicCost("advection", 2, LbCostMode::Uniform);
    expectBitwiseEqual(
        uniform2t, runTeamCost("advection", 2, 2, LbCostMode::Measured),
        "measured team @2r x 2t");
}

TEST(LoadBalanceCost, OnlyTasksCarryingAGidAreAttributed)
{
    // Block attribution is a typed task field, not name parsing: a
    // sub-pack task whose name ends in digits ("...:p3") or a bare
    // number is never charged to a block.
    TaskList tl;
    auto done = [] { return TaskStatus::Complete; };
    tl.addTask("SendBoundBufs:plan:bounds:p3", done, {},
               TaskCategory::Comm);
    tl.addTask("SetBounds:plan:bounds:3", done, {}, TaskCategory::Comm);
    tl.addTask("CalculateFluxes:3", done, {}, TaskCategory::Compute, 3);
    tl.execute();
    std::map<std::string, int> gids;
    tl.forEachTask([&](const std::string& name, TaskCategory, double,
                       int gid) { gids[name] = gid; });
    EXPECT_EQ(gids.at("SendBoundBufs:plan:bounds:p3"), TaskList::kNoBlock);
    EXPECT_EQ(gids.at("SetBounds:plan:bounds:3"), TaskList::kNoBlock);
    EXPECT_EQ(gids.at("CalculateFluxes:3"), 3);
}

TEST(LoadBalanceCost, MeasuredSamplesEveryOwnedBlockEachCycle)
{
    // The reaction deck (uniform mesh, measured costs) at 4 threads:
    // per-block tasks charge their block, the plan's sub-pack and
    // rank-pair tasks charge nobody, so each cycle samples exactly the
    // owned blocks.
    auto package = makePackage("reaction");
    VariableRegistry registry = package->buildRegistry();
    KernelProfiler profiler;
    MemoryTracker tracker;
    ExecContext ctx(ExecMode::Execute, &profiler, &tracker,
                    makeExecutionSpace(4));
    MeshConfig mesh_config = shardMeshConfig(1, 4);
    mesh_config.amrLevels = 1;
    Mesh mesh(mesh_config, registry, ctx);
    RankWorld world(1);
    SphericalWaveTagger tagger(shardWaveParams());
    DriverConfig config = shardDriverConfig();
    config.lbCost = LbCostMode::Measured;
    EvolutionDriver driver(mesh, *package, world, tagger, config);
    driver.initialize();
    for (int c = 0; c < 3; ++c) {
        std::vector<int> owned;
        for (const MeshBlock* block : mesh.ownedBlocks())
            owned.push_back(block->gid());
        driver.doCycle();
        EXPECT_EQ(driver.costModel().sampledGids(), owned)
            << "cycle " << c;
    }
}

TEST(LoadBalanceCost, CycleStatsSurfaceLbOutcome)
{
    auto package = makePackage("advection");
    VariableRegistry registry = package->buildRegistry();
    KernelProfiler profiler;
    MemoryTracker tracker;
    ExecContext ctx(ExecMode::Execute, &profiler, &tracker,
                    makeExecutionSpace(1));
    Mesh mesh(shardMeshConfig(1, 1), registry, ctx);
    RankWorld world(1);
    SphericalWaveTagger tagger(shardWaveParams());
    EvolutionDriver driver(mesh, *package, world, tagger,
                           shardDriverConfig(/*lb_every=*/1));
    driver.initialize();
    driver.run();
    ASSERT_FALSE(driver.history().empty());
    for (const CycleStats& stats : driver.history()) {
        // lbEvery=1: the partitioner ran (and adopted) every cycle; on
        // one rank max == mean, a perfectly balanced 1.0.
        EXPECT_EQ(stats.lbDecision, 1) << "cycle " << stats.cycle;
        EXPECT_GT(stats.lbMeanRankCost, 0.0) << "cycle " << stats.cycle;
        EXPECT_DOUBLE_EQ(stats.lbImbalance, 1.0)
            << "cycle " << stats.cycle;
        EXPECT_DOUBLE_EQ(stats.lbMaxRankCost, stats.lbMeanRankCost)
            << "cycle " << stats.cycle;
    }
}

TEST(LoadBalanceCost, CheckpointCarriesMeasuredCosts)
{
    const std::string path = "test_ckpt_costs.bin";
    auto package = makePackage("advection");
    VariableRegistry registry = package->buildRegistry();
    DriverConfig config = shardDriverConfig();
    config.ncycles = 4;
    config.checkpointEvery = 4;
    config.lbCost = LbCostMode::Measured;
    {
        CheckpointWriter writer(path, /*async=*/false);
        RankTeam team(shardMeshConfig(2, 1), registry, *package,
                      config, [](int) {
                          return std::make_unique<SphericalWaveTagger>(
                              shardWaveParams());
                      });
        team.setCheckpointWriter(&writer);
        team.run();
        writer.finish();
        ASSERT_EQ(writer.snapshots(), 1u);
    }

    const CheckpointImage image = CheckpointReader::read(path);
    ASSERT_FALSE(image.blocks.empty());
    bool any_off_uniform = false;
    for (std::size_t gid = 0; gid < image.blocks.size(); ++gid) {
        EXPECT_GT(image.blocks[gid].cost, 0.0) << "gid " << gid;
        any_off_uniform =
            any_off_uniform || image.blocks[gid].cost != 512.0;
    }
    // Measured estimates are wall clocks: at least one block must have
    // pulled off the exact uniform baseline.
    EXPECT_TRUE(any_off_uniform);

    // Restore without evolving (ncycles == snapshot cycle): every
    // replica's blocks resume with the checkpointed estimates, so a
    // re-sharded run starts warm instead of from uniform.
    RankTeam restored(shardMeshConfig(2, 1), registry, *package,
                      config, [](int) {
                          return std::make_unique<SphericalWaveTagger>(
                              shardWaveParams());
                      });
    restored.setRestoreImage(&image);
    restored.run();
    for (const auto& block : restored.mesh(0).blocks()) {
        const std::size_t gid = static_cast<std::size_t>(block->gid());
        ASSERT_LT(gid, image.blocks.size());
        EXPECT_DOUBLE_EQ(block->cost(), image.blocks[gid].cost)
            << "gid " << gid;
    }
    std::remove(path.c_str());
}

TEST(LoadBalanceCost, MeasuredHysteresisStopsThrashing)
{
    // Static imbalance: an off-center stiff hotspot on a uniform
    // (no-AMR) 64-block mesh, so measured per-block costs are stable
    // in shape. After the EMA warm-up the partition must stop moving
    // storage — every further proposal is rejected (or identical).
    ParameterInput pin;
    pin.set("reaction", "vx", "0.05");
    pin.set("reaction", "vy", "0.0");
    pin.set("reaction", "vz", "0.0");
    auto package = PackageRegistry::instance().create("reaction", pin);
    VariableRegistry registry = package->buildRegistry();

    MeshConfig mesh_config = shardMeshConfig(2, 1);
    mesh_config.nx1 = mesh_config.nx2 = mesh_config.nx3 = 32;
    mesh_config.amrLevels = 1;

    DriverConfig config = shardDriverConfig(/*lb_every=*/1);
    config.ncycles = 10;
    config.lbCost = LbCostMode::Measured;
    config.lbImbalanceTrigger = 0.4;

    // Settling is only guaranteed while the measured costs are stable:
    // an oversubscribed box (e.g. the whole suite running in parallel
    // on two cores) preempts rank threads and genuinely shifts the
    // wall clocks, and rebalancing to them is correct behavior, not
    // thrash. Retry a few times — any uncontended run must settle.
    int late_moves = -1;
    for (int attempt = 0; attempt < 3 && late_moves != 0; ++attempt) {
        RankTeam team(mesh_config, registry, *package, config,
                      [](int) {
                          return std::make_unique<SphericalWaveTagger>(
                              shardWaveParams());
                      });
        team.run();

        const std::vector<CycleStats> history =
            team.aggregatedHistory();
        ASSERT_EQ(history.size(), 10u);
        late_moves = 0;
        for (std::size_t c = 0; c < history.size(); ++c) {
            EXPECT_NE(history[c].lbDecision, 0) << "cycle " << c;
            if (c >= 6)
                late_moves += history[c].movedBlocks;
        }
    }
    EXPECT_EQ(late_moves, 0);
}

TEST(Reaction, EquilibriumIterationContrastIsTheWorkload)
{
    const ReactionConfig config;
    const ReactionPackage package(config);
    int hot_iters = 0;
    int cold_iters = 0;
    const double eq_hot = package.equilibrium(1.0, &hot_iters);
    const double eq_cold = package.equilibrium(1e-3, &cold_iters);

    // The solve is a real (convergent) equilibrium: c in (0, a].
    EXPECT_GT(eq_hot, 0.0);
    EXPECT_LT(eq_hot, 1.0);
    EXPECT_GT(eq_cold, 0.0);
    EXPECT_NEAR(eq_cold, 1e-3, 1e-5);
    // The residual really solves c * (1 + S g(c) e^{c-1}) = a.
    const double g = eq_hot * eq_hot / (1.0 + eq_hot * eq_hot);
    EXPECT_NEAR(eq_hot * (1.0 + config.stiffness * g *
                              std::exp(eq_hot - 1.0)),
                1.0, 1e-9);

    // Feature cells burn an order of magnitude more iterations than
    // floor cells — the per-block cost contrast — while converging
    // well inside the cap.
    EXPECT_LE(cold_iters, 5);
    EXPECT_GT(hot_iters, 10 * cold_iters);
    EXPECT_LT(hot_iters, config.maxIters);
}

/** Uniform 16^3 / 8^3 numeric reaction mesh for operator tests. */
struct ReactionFixture
{
    ReactionPackage package;
    VariableRegistry registry = package.buildRegistry();
    KernelProfiler profiler;
    MemoryTracker tracker;
    ExecContext ctx{ExecMode::Execute, &profiler, &tracker,
                    makeExecutionSpace(1)};
    Mesh mesh{uniformConfig(), registry, ctx};
    RankWorld world{1};

    explicit ReactionFixture(const ReactionConfig& config = {})
        : package(config)
    {
    }

    static MeshConfig
    uniformConfig()
    {
        MeshConfig config;
        config.nx1 = config.nx2 = config.nx3 = 16;
        config.blockNx1 = config.blockNx2 = config.blockNx3 = 8;
        config.amrLevels = 1;
        return config;
    }

    /** Every cell of every block (ghosts included) to (a, b). */
    void
    fill(double a, double b)
    {
        for (const auto& block : mesh.blocks()) {
            const BlockShape s = block->shape();
            for (int k = 0; k < s.nk(); ++k)
                for (int j = 0; j < s.nj(); ++j)
                    for (int i = 0; i < s.ni(); ++i) {
                        block->cons()(0, k, j, i) = a;
                        block->cons()(1, k, j, i) = b;
                    }
        }
    }
};

TEST(Reaction, TimestepCappedAtHalfOverRate)
{
    // Advective CFL dt: 0.4 * (1/16) / max|v| = 0.025 with v = (1,
    // 0.5, 0.25). A slow reaction leaves it alone; a fast one caps
    // the step at 0.5 / rate.
    ReactionConfig slow;
    slow.rate = 1.0;
    ReactionFixture f_slow(slow);
    f_slow.fill(1.0, 0.0);
    ReactionConfig fast;
    fast.rate = 50.0;
    ReactionFixture f_fast(fast);
    f_fast.fill(1.0, 0.0);
    for (const auto& block : f_slow.mesh.blocks())
        EXPECT_NEAR(f_slow.package.estimateTimestepBlock(f_slow.mesh,
                                                         *block, 1.0),
                    0.025, 1e-12);
    for (const auto& block : f_fast.mesh.blocks()) {
        EXPECT_DOUBLE_EQ(f_fast.package.estimateTimestepBlock(
                             f_fast.mesh, *block, 1.0),
                         0.01);
        // The fixed-dt cap still wins when it is the smallest.
        EXPECT_NEAR(f_fast.package.estimateTimestepBlock(f_fast.mesh,
                                                         *block, 1e-3),
                    1e-3, 1e-15);
    }
}

TEST(Reaction, MassHistorySumsBothSpecies)
{
    // The source only moves mass from a to b, so the conserved
    // history is a + b over the unit domain.
    ReactionFixture f;
    f.fill(0.75, 0.5);
    EXPECT_NEAR(f.package.massHistory(f.mesh, f.world), 1.25, 1e-12);
    f.fill(0.0, 2.0);
    EXPECT_NEAR(f.package.massHistory(f.mesh, f.world), 2.0, 1e-12);
}

TEST(Reaction, FillDerivedComputesRateDensity)
{
    ReactionFixture f;
    f.fill(0.5, 3.0);
    const BlockShape s = f.mesh.config().blockShape();
    for (const auto& block : f.mesh.blocks()) {
        f.package.fillDerivedBlock(f.mesh, *block);
        // chem_rate = a * b
        EXPECT_DOUBLE_EQ(block->derived()(0, s.ks(), s.js(), s.is()), 1.5);
    }
}

TEST(Reaction, DeckSelectsAndValidatesKnobs)
{
    ParameterInput pin;
    pin.set("job", "package", "reaction");
    pin.set("reaction", "stiffness", "8.0");
    pin.set("reaction", "rate", "2.0");
    pin.set("reaction", "recon", "weno5");
    auto package = PackageRegistry::fromDeck(pin);
    ASSERT_NE(package, nullptr);
    EXPECT_EQ(package->name(), "reaction");
    const auto* reaction =
        dynamic_cast<const ReactionPackage*>(package.get());
    ASSERT_NE(reaction, nullptr);
    EXPECT_DOUBLE_EQ(reaction->config().stiffness, 8.0);
    EXPECT_DOUBLE_EQ(reaction->config().rate, 2.0);
    EXPECT_EQ(reaction->config().recon, ReconMethod::Weno5);

    // A typo'd reaction knob is fatal at parse time, like every block.
    EXPECT_THROW(
        ParameterInput::fromString("<reaction>\nstifness = 9\n"),
        FatalError);
}

TEST(Reaction, ConservesTotalSpeciesMass)
{
    // Uniform (no-AMR) periodic run: flux-corrected transport plus the
    // antisymmetric per-cell source conserve total (a + b) to
    // round-off; the history's mass diagnostic must hold flat.
    auto package = makePackage("reaction");
    VariableRegistry registry = package->buildRegistry();
    KernelProfiler profiler;
    MemoryTracker tracker;
    ExecContext ctx(ExecMode::Execute, &profiler, &tracker,
                    makeExecutionSpace(1));
    MeshConfig mesh_config = shardMeshConfig(1, 1);
    mesh_config.amrLevels = 1;
    Mesh mesh(mesh_config, registry, ctx);
    RankWorld world(1);
    SphericalWaveTagger tagger(shardWaveParams());
    EvolutionDriver driver(mesh, *package, world, tagger,
                           shardDriverConfig());
    driver.initialize();
    driver.run();

    const auto& history = driver.history();
    ASSERT_FALSE(history.empty());
    const double mass0 = history.front().mass;
    ASSERT_GT(mass0, 0.0);
    for (const CycleStats& stats : history)
        EXPECT_NEAR(stats.mass, mass0, 1e-11 * mass0)
            << "cycle " << stats.cycle;
}

TEST(Reaction, ShardedRunMatchesClassicBitwise)
{
    // The stiff source is a pure function of local state, so the new
    // package inherits the harness's decomposition guarantee: 2 ranks
    // (with mid-run remeshes and migrations) reproduce the classic
    // run's state bit for bit.
    const ShardRun classic = runClassic("reaction", 1);
    EXPECT_GT(classic.remeshEvents, 0);
    expectBitwiseEqual(classic, runTeam("reaction", 2, 1),
                       "reaction @2r x 1t");
}

} // namespace
} // namespace vibe
