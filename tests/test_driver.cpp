/**
 * @file test_driver.cpp
 * Tests for the task list, taggers, load balancer and the evolution
 * driver (cycle bookkeeping, derefinement gap, counting-vs-numeric
 * structural equivalence).
 */
#include "fixture_knobs.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>

#include "driver/evolution_driver.hpp"
#include "pkg/burgers_package.hpp"
#include "driver/load_balance.hpp"
#include "driver/tagger.hpp"
#include "driver/task_list.hpp"
#include "exec/execution_space.hpp"
#include "exec/kernel_profiler.hpp"
#include "exec/memory_tracker.hpp"
#include "util/logging.hpp"

namespace vibe {
namespace {

// --- TaskList ---

TEST(TaskList, ExecutesInDependencyOrder)
{
    TaskList tl;
    std::vector<int> order;
    const TaskId a = tl.addTask("a", [&] {
        order.push_back(0);
        return TaskStatus::Complete;
    });
    const TaskId b = tl.addTask(
        "b",
        [&] {
            order.push_back(1);
            return TaskStatus::Complete;
        },
        {a});
    tl.addTask(
        "c",
        [&] {
            order.push_back(2);
            return TaskStatus::Complete;
        },
        {b, a});
    tl.execute();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(TaskList, IteratingTaskRetries)
{
    TaskList tl;
    int polls = 0;
    tl.addTask("poll", [&] {
        ++polls;
        return polls < 3 ? TaskStatus::Iterate : TaskStatus::Complete;
    });
    bool ran_after = false;
    tl.addTask(
        "after",
        [&] {
            ran_after = true;
            return TaskStatus::Complete;
        },
        {0});
    tl.execute();
    EXPECT_EQ(polls, 3);
    EXPECT_TRUE(ran_after);
}

TEST(TaskList, UnknownDependencyPanics)
{
    TaskList tl;
    EXPECT_THROW(
        tl.addTask("x", [] { return TaskStatus::Complete; }, {5}),
        PanicError);
}

TEST(TaskList, ThreadedExecutorCompletesGraphInTopologicalOrder)
{
    auto space = makeExecutionSpace(4);
    TaskList tl;
    std::mutex order_mutex;
    std::vector<std::string> order;
    // Each body records its own completion.
    auto completes = [&](const char* name) {
        std::lock_guard<std::mutex> lock(order_mutex);
        order.emplace_back(name);
        return TaskStatus::Complete;
    };
    int polls = 0;
    const TaskId a = tl.addTask("a", [&] { return completes("a"); });
    const TaskId poll = tl.addTask(
        "poll",
        [&] {
            // Counter mutated by one task only; completion gates deps.
            ++polls;
            return polls < 5 ? TaskStatus::Iterate : completes("poll");
        },
        {a});
    const TaskId b =
        tl.addTask("b", [&] { return completes("b"); }, {a});
    tl.addTask("join", [&] { return completes("join"); }, {poll, b});

    TaskExecOptions options;
    options.space = space.get();
    tl.execute(options);

    EXPECT_EQ(polls, 5);
    ASSERT_EQ(order.size(), 4u);
    auto position = [&](const std::string& name) {
        for (std::size_t i = 0; i < order.size(); ++i)
            if (order[i] == name)
                return i;
        ADD_FAILURE() << name << " missing from completion order";
        return order.size();
    };
    // Dependencies must precede dependents, whatever the interleaving.
    EXPECT_LT(position("a"), position("poll"));
    EXPECT_LT(position("a"), position("b"));
    EXPECT_LT(position("poll"), position("join"));
    EXPECT_LT(position("b"), position("join"));
}

TEST(TaskList, ThreadedExecutorOverlapsIndependentTasks)
{
    // A task that only finishes once an independent task has run
    // proves the two are in flight concurrently: require a *blocking*
    // handshake inside one task run, which a single worker could
    // never release.
    auto space = makeExecutionSpace(4);
    std::atomic<bool> flag{false};
    TaskList tl;
    tl.addTask("blocker", [&] {
        // Busy-wait inside a single task run: only a concurrently
        // executing "setter" task can release it.
        const auto start = std::chrono::steady_clock::now();
        while (!flag.load()) {
            if (std::chrono::steady_clock::now() - start >
                std::chrono::seconds(30))
                return TaskStatus::Complete; // fail via EXPECT below
            std::this_thread::yield();
        }
        return TaskStatus::Complete;
    });
    tl.addTask("setter", [&] {
        flag.store(true);
        return TaskStatus::Complete;
    });
    TaskExecOptions options;
    options.space = space.get();
    tl.execute(options);
    EXPECT_TRUE(flag.load());
}

TEST(TaskList, ThreadedTaskExceptionPropagates)
{
    auto space = makeExecutionSpace(4);
    TaskList tl;
    tl.addTask("ok", [] { return TaskStatus::Complete; });
    tl.addTask("boom", []() -> TaskStatus {
        panic("task body failure");
    });
    TaskExecOptions options;
    options.space = space.get();
    EXPECT_THROW(tl.execute(options), PanicError);

    // The same list and pool stay usable for a fresh run.
    TaskList again;
    std::atomic<int> runs{0};
    for (int i = 0; i < 8; ++i)
        again.addTask("t" + std::to_string(i), [&] {
            runs.fetch_add(1);
            return TaskStatus::Complete;
        });
    again.execute(options);
    EXPECT_EQ(runs.load(), 8);
}

/**
 * Stall and abort cases, run with no space (one worker on the calling
 * thread) and on a 4-thread pool: the one executor must hold both.
 */
class TaskListExec : public ::testing::TestWithParam<int>
{
  protected:
    TaskExecOptions options()
    {
        TaskExecOptions options;
        if (GetParam() > 1) {
            space_ = makeExecutionSpace(GetParam());
            options.space = space_.get();
        }
        return options;
    }

  private:
    std::shared_ptr<ExecutionSpace> space_;
};

TEST_P(TaskListExec, StuckTaskDetected)
{
    TaskList tl;
    tl.addTask("stuck", [] { return TaskStatus::Iterate; });
    EXPECT_THROW(tl.execute(options()), PanicError);
}

TEST_P(TaskListExec, StalledPollingNamesStuckTasks)
{
    // Regression: a permanently-blocked polling task used to count as
    // progress ("any_ran") until a generic pass bound. The stall
    // detector must name the stuck task.
    TaskList tl;
    tl.addTask("fine", [] { return TaskStatus::Complete; });
    tl.addTask("never-arrives", [] { return TaskStatus::Iterate; });
    try {
        tl.execute(options());
        FAIL() << "stuck polling task not detected";
    } catch (const PanicError& err) {
        const std::string what = err.what();
        EXPECT_NE(what.find("never-arrives"), std::string::npos) << what;
        EXPECT_NE(what.find("no task completed"), std::string::npos)
            << what;
        // The healthy task must not be blamed.
        EXPECT_EQ(what.find("fine"), std::string::npos) << what;
    }
}

TEST_P(TaskListExec, MultipleStuckPollsStillPanic)
{
    // Regression: with several permanently-Iterate pollers in flight
    // at once, a naive "anything in flight = progress possible" reset
    // would livelock. Repeat-pollers must not count as progress.
    TaskList tl;
    tl.addTask("done", [] { return TaskStatus::Complete; });
    for (int i = 0; i < 3; ++i)
        tl.addTask("wedged" + std::to_string(i),
                   [] { return TaskStatus::Iterate; });
    try {
        tl.execute(options());
        FAIL() << "stuck polling tasks not detected";
    } catch (const PanicError& err) {
        const std::string what = err.what();
        EXPECT_NE(what.find("wedged0"), std::string::npos) << what;
        EXPECT_NE(what.find("wedged2"), std::string::npos) << what;
    }
}

TEST_P(TaskListExec, AbortProbeCarriesPeerReason)
{
    TaskList tl;
    tl.setLabel("abort-test");
    tl.addTask("NeverReadyA", [] { return TaskStatus::Iterate; });
    tl.addTask("NeverReadyB", [] { return TaskStatus::Iterate; });
    TaskExecOptions opts = options();
    opts.external_abort = [] {
        return std::string("injected fault: rank 7 failed at cycle 9");
    };
    try {
        tl.execute(opts);
        FAIL() << "expected the abort probe to panic";
    } catch (const PanicError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("task list aborted: injected fault: "
                            "rank 7 failed at cycle 9"),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find("[abort-test]"), std::string::npos) << what;
        EXPECT_NE(what.find("NeverReadyA"), std::string::npos) << what;
    }
}

TEST_P(TaskListExec, AbortProbeImpliesOutsideProgress)
{
    // A probe that reports no failure means progress may come from
    // outside the graph: a poller released by another thread ~50 ms
    // later must complete, long after the poll-count stall bound a
    // graph without a probe gets.
    std::atomic<bool> delivered{false};
    TaskList tl;
    tl.addTask("fine", [] { return TaskStatus::Complete; });
    tl.addTask("awaits-peer", [&] {
        return delivered.load() ? TaskStatus::Complete
                                : TaskStatus::Iterate;
    });
    TaskExecOptions opts = options();
    opts.external_abort = [] { return std::string(); };
    std::thread peer([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        delivered.store(true);
    });
    EXPECT_NO_THROW(tl.execute(opts));
    peer.join();
    EXPECT_TRUE(delivered.load());
}

INSTANTIATE_TEST_SUITE_P(
    Spaces, TaskListExec, ::testing::Values(1, 4),
    [](const ::testing::TestParamInfo<int>& info) {
        return info.param > 1 ? "Pool" + std::to_string(info.param)
                              : std::string("NoSpace");
    });

// --- SphericalWaveTagger ---

TEST(WaveTagger, RadiusTriangleWave)
{
    SphericalWaveTagger::Params p;
    p.rMin = 0.1;
    p.rMax = 0.3;
    p.speed = 0.1;
    SphericalWaveTagger tagger(p);
    EXPECT_NEAR(tagger.radiusAt(0.0), 0.1, 1e-12);
    EXPECT_NEAR(tagger.radiusAt(1.0), 0.2, 1e-12);
    EXPECT_NEAR(tagger.radiusAt(2.0), 0.3, 1e-12); // peak
    EXPECT_NEAR(tagger.radiusAt(3.0), 0.2, 1e-12); // descending
    EXPECT_NEAR(tagger.radiusAt(4.0), 0.1, 1e-12); // trough
}

struct DriverFixture
{
    KernelProfiler profiler;
    MemoryTracker tracker;
    VariableRegistry registry = makeBurgersRegistry(8);
    std::unique_ptr<ExecContext> ctx;
    std::unique_ptr<Mesh> mesh;
    std::unique_ptr<RankWorld> world;
    BurgersPackage package{BurgersConfig{}};

    DriverFixture(int mesh_nx, int block_nx, int levels, ExecMode mode,
                  int nranks = 1)
    {
        // VIBE_NUM_THREADS (the CI threaded matrix leg) routes these
        // driver runs through the threaded task-graph executor.
        ctx = std::make_unique<ExecContext>(
            mode, &profiler, &tracker,
            makeExecutionSpace(fixtureNumThreads()));
        MeshConfig config;
        config.nx1 = config.nx2 = config.nx3 = mesh_nx;
        config.blockNx1 = config.blockNx2 = config.blockNx3 = block_nx;
        config.amrLevels = levels;
        mesh = std::make_unique<Mesh>(config, registry, *ctx);
        world = std::make_unique<RankWorld>(nranks);
    }
};

TEST(WaveTagger, TagsBlocksOnShell)
{
    DriverFixture f(32, 8, 2, ExecMode::Count);
    SphericalWaveTagger::Params p;
    p.rMin = 0.25;
    p.rMax = 0.4;
    p.width = 0.02;
    SphericalWaveTagger tagger(p);
    tagger.tagAll(*f.mesh, 0.0, 0);
    int refine = 0, derefine = 0;
    for (const auto& block : f.mesh->blocks()) {
        if (block->tag() == RefinementFlag::Refine)
            ++refine;
        if (block->tag() == RefinementFlag::Derefine)
            ++derefine;
    }
    // Shell at r = 0.25 crosses some blocks but not the far corners.
    EXPECT_GT(refine, 0);
    EXPECT_GT(derefine, 0);
    EXPECT_LT(refine, static_cast<int>(f.mesh->numBlocks()));
    // Kernel work recorded for tagging (FirstDerivative).
    EXPECT_GT(f.profiler.kernelByName("FirstDerivative").items, 0.0);
}

// --- Load balancer ---

TEST(LoadBalance, UniformBlocksBalanceEvenly)
{
    DriverFixture f(32, 8, 1, ExecMode::Count, 4);
    auto stats = loadBalance(*f.mesh, *f.world);
    EXPECT_NEAR(stats.imbalance(), 1.0, 1e-9);
    std::vector<int> per_rank(4, 0);
    for (const auto& block : f.mesh->blocks())
        ++per_rank[block->rank()];
    for (int count : per_rank)
        EXPECT_EQ(count, 16);
    // First pass moves blocks off rank 0.
    EXPECT_EQ(stats.movedBlocks, 48);
    EXPECT_GT(stats.movedBytes, 0.0);
    EXPECT_EQ(f.world->traffic().allGathers, 1u);
}

TEST(LoadBalance, SecondPassIsStable)
{
    DriverFixture f(32, 8, 1, ExecMode::Count, 4);
    loadBalance(*f.mesh, *f.world);
    auto stats = loadBalance(*f.mesh, *f.world);
    EXPECT_EQ(stats.movedBlocks, 0);
}

TEST(LoadBalance, MoreRanksThanBlocks)
{
    DriverFixture f(16, 8, 1, ExecMode::Count, 16);
    auto stats = loadBalance(*f.mesh, *f.world);
    // 8 blocks over 16 ranks: every block on its own rank.
    std::vector<int> per_rank(16, 0);
    for (const auto& block : f.mesh->blocks())
        ++per_rank[block->rank()];
    for (const auto& block : f.mesh->blocks())
        EXPECT_EQ(per_rank[block->rank()], 1);
    EXPECT_GT(stats.maxRankCost, 0.0);
}

TEST(LoadBalance, ZOrderContiguity)
{
    DriverFixture f(32, 8, 1, ExecMode::Count, 4);
    loadBalance(*f.mesh, *f.world);
    // Ranks must be non-decreasing along the Z-ordered block list.
    int prev = 0;
    for (const auto& block : f.mesh->blocks()) {
        EXPECT_GE(block->rank(), prev);
        prev = block->rank();
    }
}

// --- EvolutionDriver ---

TEST(Driver, CountingRunAdvancesAndRecords)
{
    DriverFixture f(32, 8, 2, ExecMode::Count);
    SphericalWaveTagger tagger;
    DriverConfig config;
    config.ncycles = 5;
    config.fixedDt = 1e-3;
    EvolutionDriver driver(*f.mesh, f.package, *f.world, tagger, config);
    driver.initialize();
    driver.run();
    EXPECT_EQ(driver.cycle(), 5);
    EXPECT_NEAR(driver.time(), 5e-3, 1e-12);
    EXPECT_EQ(driver.history().size(), 5u);
    EXPECT_GT(driver.zoneCycles(), 0);
    EXPECT_GT(driver.commCells(), 0);
    // Every cycle processed at least the base mesh.
    for (const auto& s : driver.history()) {
        EXPECT_GE(s.nblocks, 64u);
        EXPECT_EQ(s.interiorCells,
                  static_cast<std::int64_t>(s.nblocks) * 512);
        EXPECT_GT(s.wireCells, 0);
    }
}

TEST(Driver, InitialRefinementConformsToTagger)
{
    DriverFixture f(32, 8, 3, ExecMode::Count);
    SphericalWaveTagger tagger;
    DriverConfig config;
    config.ncycles = 0;
    EvolutionDriver driver(*f.mesh, f.package, *f.world, tagger, config);
    driver.initialize();
    // Initial AMR must reach the max level on the shell.
    EXPECT_EQ(f.mesh->maxPresentLevel(), 2);
    EXPECT_GT(f.mesh->numBlocks(), 64u);
}

TEST(Driver, DerefineGapHoldsYoungBlocks)
{
    DriverFixture f(32, 8, 2, ExecMode::Count);
    // A tagger that refines everything on cycle 0 and derefines
    // everything afterwards.
    struct FlipTagger : RefinementTagger
    {
        void tagAll(Mesh& mesh, double, std::int64_t cycle) override
        {
            for (const auto& block : mesh.blocks())
                block->setTag(cycle == 0 ? RefinementFlag::Refine
                                         : RefinementFlag::Derefine);
        }
    } tagger;
    DriverConfig config;
    config.ncycles = 12;
    config.derefineGap = 10;
    EvolutionDriver driver(*f.mesh, f.package, *f.world, tagger, config);
    driver.initialize();
    driver.run();
    const auto& history = driver.history();
    // Cycles 1..9: derefinement suppressed by the gap.
    for (int c = 1; c < 10; ++c)
        EXPECT_EQ(history[c].derefined, 0) << "cycle " << c;
    // Once the gap expires the merges happen.
    int merged = 0;
    for (const auto& s : history)
        merged += s.derefined;
    EXPECT_GT(merged, 0);
}

TEST(Driver, CountingAndNumericProduceIdenticalStructure)
{
    // Same tagger, same config: the mesh evolution (block counts, comm
    // volumes) must be identical whether kernels execute or not.
    DriverFixture numeric(16, 8, 2, ExecMode::Execute);
    DriverFixture counting(16, 8, 2, ExecMode::Count);
    SphericalWaveTagger::Params p;
    p.rMin = 0.2;
    p.rMax = 0.4;
    p.speed = 10.0; // move fast so structure actually changes
    DriverConfig config;
    config.ncycles = 6;
    config.fixedDt = 1e-3;

    SphericalWaveTagger tag_a(p), tag_b(p);
    EvolutionDriver drv_a(*numeric.mesh, numeric.package,
                          *numeric.world, tag_a, config);
    EvolutionDriver drv_b(*counting.mesh, counting.package,
                          *counting.world, tag_b, config);
    drv_a.initialize();
    drv_b.initialize();
    // Numeric dt comes from the CFL estimate; force identical stepping
    // by comparing structure at matching cycles only (dt only affects
    // the tagger clock, which we pinned via fixedDt in counting mode).
    drv_a.run();
    drv_b.run();

    ASSERT_EQ(drv_a.history().size(), drv_b.history().size());
    EXPECT_EQ(drv_a.commCells(), drv_b.commCells());
    EXPECT_EQ(drv_a.zoneCycles(), drv_b.zoneCycles());
    for (std::size_t c = 0; c < drv_a.history().size(); ++c) {
        EXPECT_EQ(drv_a.history()[c].nblocks,
                  drv_b.history()[c].nblocks)
            << "cycle " << c;
        EXPECT_EQ(drv_a.history()[c].wireCells,
                  drv_b.history()[c].wireCells)
            << "cycle " << c;
    }
}

TEST(Driver, MassConservedThroughAmrCycles)
{
    // The headline correctness property: periodic domain + flux
    // correction + conservative prolongation/restriction keep total
    // q0 mass constant to round-off even as blocks refine/derefine.
    DriverFixture f(16, 8, 2, ExecMode::Execute);
    BurgersConfig bc;
    bc.refineTol = 0.05;
    bc.derefineTol = 0.01;
    bc.ic = InitialCondition::GaussianBlob;
    BurgersPackage package(bc);
    GradientTagger tagger(package);
    DriverConfig config;
    config.ncycles = 8;
    config.derefineGap = 3;
    EvolutionDriver driver(*f.mesh, package, *f.world, tagger, config);
    driver.initialize();
    driver.run();
    const auto& history = driver.history();
    ASSERT_GE(history.size(), 2u);
    for (std::size_t c = 1; c < history.size(); ++c)
        EXPECT_NEAR(history[c].mass, history[0].mass,
                    1e-11 * std::max(1.0, std::fabs(history[0].mass)))
            << "cycle " << c;
}

TEST(Driver, PhasesMatchPaperFunctionInventory)
{
    DriverFixture f(32, 8, 2, ExecMode::Count);
    SphericalWaveTagger tagger;
    DriverConfig config;
    config.ncycles = 3;
    EvolutionDriver driver(*f.mesh, f.package, *f.world, tagger, config);
    driver.initialize();
    driver.run();

    std::set<std::string> phases;
    for (const auto& [key, stats] : f.profiler.kernels())
        phases.insert(key.first);
    for (const auto& [key, stats] : f.profiler.serial())
        phases.insert(key.first);
    // The Fig. 11 categories that must appear in any AMR run.
    for (const char* phase :
         {"Initialise", "CalculateFluxes", "FluxDivergence",
          "WeightedSumData", "FillDerived", "SendBoundBufs",
          "SetBounds", "StartReceiveBoundBufs", "ReceiveBoundBufs",
          "EstimateTimestep", "Refinement::Tag", "UpdateMeshBlockTree",
          "Redistr.AndRef.MeshBlocks", "other"})
        EXPECT_TRUE(phases.count(phase)) << phase;
}

TEST(Driver, TimestepEstimatedOncePerCycle)
{
    // Regression: the driver used to run estimateTimestep both in the
    // pre-loop setup and at the end of every cycle, double-counting
    // the EstTimeMesh sweep. With a uniform (no-AMR) mesh the launch
    // count is exact: one per block per cycle, nothing extra.
    DriverFixture f(16, 8, 1, ExecMode::Count);
    SphericalWaveTagger tagger;
    DriverConfig config;
    config.ncycles = 4;
    EvolutionDriver driver(*f.mesh, f.package, *f.world, tagger, config);
    driver.initialize();
    driver.run();
    const auto stats = f.profiler.kernelByName("EstTimeMesh");
    EXPECT_EQ(stats.launches,
              4u * static_cast<std::uint64_t>(f.mesh->numBlocks()));
}

TEST(Driver, OverlapTimersAccumulate)
{
    DriverFixture f(16, 8, 2, ExecMode::Count);
    SphericalWaveTagger tagger;
    DriverConfig config;
    config.ncycles = 2;
    EvolutionDriver driver(*f.mesh, f.package, *f.world, tagger, config);
    driver.initialize();
    driver.run();
    // Every stage graph contributes wall time and both categories.
    EXPECT_GT(driver.taskWallSeconds(), 0.0);
    EXPECT_GT(driver.taskCommSeconds(), 0.0);
    EXPECT_GT(driver.taskComputeSeconds(), 0.0);
}

TEST(Driver, ConfigFromParams)
{
    auto pin = ParameterInput::fromString(R"(
<driver>
ncycles = 25
<amr>
derefine_gap = 7
)");
    auto config = DriverConfig::fromParams(pin);
    EXPECT_EQ(config.ncycles, 25);
    EXPECT_EQ(config.derefineGap, 7);
}

} // namespace
} // namespace vibe
