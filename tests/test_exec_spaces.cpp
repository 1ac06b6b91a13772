/**
 * @file test_exec_spaces.cpp
 * Execution-space backends: the serial fast path, ThreadPoolSpace
 * chunking, deterministic parReduce, thread-safe instrumentation, and
 * the headline guarantee — a threaded numeric run produces mesh state
 * identical to a serial run, with identical profiler totals.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <vector>

#include "comm/rank_world.hpp"
#include "driver/evolution_driver.hpp"
#include "pkg/burgers_package.hpp"
#include "driver/tagger.hpp"
#include "exec/execution_space.hpp"
#include "exec/kernel_profiler.hpp"
#include "exec/memory_tracker.hpp"
#include "exec/par_for.hpp"
#include "util/logging.hpp"
#include "util/parameter_input.hpp"

namespace vibe {
namespace {

TEST(ExecutionSpace, OneThreadUsesSerialFastPath)
{
    auto space = makeExecutionSpace(1);
    EXPECT_STREQ(space->name(), "serial");
    EXPECT_EQ(space->concurrency(), 1);
    // The serial space is the shared process-wide instance; no pool is
    // ever constructed for num_threads=1.
    EXPECT_EQ(space.get(), sharedSerialSpace().get());
    EXPECT_EQ(makeExecutionSpace(0).get(), sharedSerialSpace().get());

    // A default-constructed context runs on the same serial instance.
    ExecContext ctx(ExecMode::Execute, nullptr, nullptr);
    EXPECT_EQ(&ctx.space(), sharedSerialSpace().get());
}

TEST(ExecutionSpace, ThreadPoolCoversRangeExactlyOnce)
{
    auto space = makeExecutionSpace(4);
    EXPECT_STREQ(space->name(), "threadpool");
    EXPECT_EQ(space->concurrency(), 4);

    ExecContext ctx(ExecMode::Execute, nullptr, nullptr, space);
    // One long j range: chunked across the pool, each index once.
    std::vector<int> hits(10000, 0);
    parFor(ctx, "touch", {}, 0, 0, 0, 9999, 0, 0,
           [&](int, int j, int) { ++hits[j]; });
    for (int j = 0; j < 10000; ++j)
        ASSERT_EQ(hits[j], 1) << "index " << j;

    // (k, j) flattening: every tuple visited exactly once.
    std::vector<std::atomic<int>> cells(5 * 7 * 11);
    parFor(ctx, "touch3", {}, 0, 4, 0, 6, 0, 10, [&](int k, int j, int i) {
        cells[(k * 7 + j) * 11 + i].fetch_add(1);
    });
    for (const auto& c : cells)
        ASSERT_EQ(c.load(), 1);
}

TEST(ExecutionSpace, EmptyAndTinyRanges)
{
    auto space = makeExecutionSpace(4);
    ExecContext ctx(ExecMode::Execute, nullptr, nullptr, space);
    parFor(ctx, "empty", {}, 0, 0, 5, 4, 0, 0,
           [](int, int, int) { FAIL(); });
    int calls = 0;
    parFor(ctx, "one", {}, 1, 1, 2, 2, 3, 3, [&](int k, int j, int i) {
        EXPECT_EQ(k, 1);
        EXPECT_EQ(j, 2);
        EXPECT_EQ(i, 3);
        ++calls;
    });
    EXPECT_EQ(calls, 1);
}

TEST(ExecutionSpace, WorkerChunkExceptionPropagatesToCaller)
{
    auto space = makeExecutionSpace(4);
    ExecContext ctx(ExecMode::Execute, nullptr, nullptr, space);
    // Index 9990 lands in the last chunk, i.e. on a pool worker; the
    // panic must surface on the calling thread, not std::terminate.
    EXPECT_THROW(parFor(ctx, "boom", {}, 0, 0, 0, 9999, 0, 0,
                        [&](int, int j, int) {
                            require(j != 9990, "worker-chunk failure");
                        }),
                 PanicError);
    // The pool must stay usable after a failed launch.
    std::atomic<int> count{0};
    parFor(ctx, "after", {}, 0, 0, 0, 999, 0, 0,
           [&](int, int, int) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 1000);
}

TEST(ExecutionSpace, NestedLaunchFallsBackInline)
{
    auto space = makeExecutionSpace(3);
    ExecContext ctx(ExecMode::Execute, nullptr, nullptr, space);
    std::atomic<int> total{0};
    parFor(ctx, "outer", {}, 0, 0, 0, 5, 0, 0, [&](int, int, int) {
        parFor(ctx, "inner", {}, 0, 0, 0, 9, 0, 0,
               [&](int, int, int) { total.fetch_add(1); });
    });
    EXPECT_EQ(total.load(), 60);
}

TEST(ParReduce, MatchesSerialResults)
{
    // Integer-valued doubles: sums are exact, so serial and threaded
    // results must agree bitwise regardless of chunk grouping.
    const int nk = 6, nj = 9, ni = 13;
    auto value = [&](int k, int j, int i) {
        return static_cast<double>((k * nj + j) * ni + i);
    };
    for (int threads : {1, 4}) {
        ExecContext ctx(ExecMode::Execute, nullptr, nullptr,
                        makeExecutionSpace(threads));
        double sum = 0.0, mn = 1e30, mx = -1e30;
        parReduce(ctx, "sum", {}, ReduceOp::Sum, sum, 0, nk - 1, 0,
                  nj - 1, 0, ni - 1,
                  [&](int k, int j, int i, double& acc) {
                      acc += value(k, j, i);
                  });
        parReduce(ctx, "min", {}, ReduceOp::Min, mn, 0, nk - 1, 0, nj - 1,
                  0, ni - 1, [&](int k, int j, int i, double& acc) {
                      acc = std::min(acc, value(k, j, i) + 5.0);
                  });
        parReduce(ctx, "max", {}, ReduceOp::Max, mx, 0, nk - 1, 0, nj - 1,
                  0, ni - 1, [&](int k, int j, int i, double& acc) {
                      acc = std::max(acc, value(k, j, i));
                  });
        const double n = nk * nj * ni;
        EXPECT_DOUBLE_EQ(sum, n * (n - 1) / 2) << threads << " threads";
        EXPECT_DOUBLE_EQ(mn, 5.0) << threads << " threads";
        EXPECT_DOUBLE_EQ(mx, n - 1) << threads << " threads";
    }
}

TEST(ParReduce, CountModeRecordsWithoutExecuting)
{
    KernelProfiler profiler;
    ExecContext ctx(ExecMode::Count, &profiler, nullptr);
    double sum = 42.0;
    parReduce(ctx, "r", {2.0, 8.0}, ReduceOp::Sum, sum, 0, 3, 0, 4, 0, 5,
              [](int, int, int, double& acc) { acc += 1.0; });
    EXPECT_DOUBLE_EQ(sum, 42.0);
    const auto stats = profiler.kernelByName("r");
    EXPECT_DOUBLE_EQ(stats.items, 4.0 * 5.0 * 6.0);
    EXPECT_DOUBLE_EQ(stats.flops, 2.0 * 120.0);
}

TEST(Profiler, ConcurrentRecordsFromPoolWorkers)
{
    KernelProfiler profiler;
    auto space = makeExecutionSpace(4);

    struct Ctx
    {
        KernelProfiler* profiler;
    } rec{&profiler};
    space->forEachChunk(
        1000,
        [](void* p, std::int64_t begin, std::int64_t end, int) {
            auto* rec = static_cast<Ctx*>(p);
            for (std::int64_t i = begin; i < end; ++i)
                rec->profiler->record(
                    {"worker_kernel", "Stress", 2, 1, 1.0, 3.0, 5.0, 1.0});
        },
        &rec);

    // Accessors merge the per-thread buffers (a quiescent point: the
    // launch above has completed).
    EXPECT_EQ(profiler.totalLaunches(), 1000u);
    EXPECT_DOUBLE_EQ(profiler.totalItems(), 1000.0);
    const auto& stats = profiler.kernels().at({"Stress", "worker_kernel"});
    EXPECT_DOUBLE_EQ(stats.flops, 3000.0);
    EXPECT_DOUBLE_EQ(stats.bytes, 5000.0);
    EXPECT_DOUBLE_EQ(stats.itemsByRank.at(2), 1000.0);
}

TEST(MemoryTracker, ConcurrentAllocationsFromPoolWorkers)
{
    MemoryTracker tracker;
    tracker.allocate("main", 100);
    auto space = makeExecutionSpace(4);

    struct Ctx
    {
        MemoryTracker* tracker;
    } rec{&tracker};
    space->forEachChunk(
        100,
        [](void* p, std::int64_t begin, std::int64_t end, int) {
            auto* rec = static_cast<Ctx*>(p);
            for (std::int64_t i = begin; i < end; ++i) {
                rec->tracker->allocate("worker", 10);
                rec->tracker->deallocate("worker", 4);
            }
        },
        &rec);

    EXPECT_EQ(tracker.currentBytes(), 100u + 100u * 6u);
    EXPECT_EQ(tracker.labelBytes("worker"), 600u);
    EXPECT_EQ(tracker.allocationCalls(), 101u);
    EXPECT_GE(tracker.peakBytes(), tracker.currentBytes());
}

TEST(MeshConfig, NumThreadsKnob)
{
    const ParameterInput pin = ParameterInput::fromString(
        "<mesh>\n"
        "nx1 = 32\n"
        "<meshblock>\n"
        "nx1 = 8\n"
        "<exec>\n"
        "num_threads = 4\n");
    const MeshConfig config = MeshConfig::fromParams(pin);
    EXPECT_EQ(config.numThreads, 4);

    MeshConfig bad = config;
    bad.numThreads = 0;
    EXPECT_THROW(bad.validate(), FatalError);
}

// ---------------------------------------------------------------------
// Headline equivalence: a threaded numeric AMR run must reproduce the
// serial run exactly — same block structure, bit-identical conserved
// variables, identical timestep history and profiler totals. Since the
// task-graph driver, this covers the full asynchronous stage graph:
// per-block sends, polling receive tasks, unpacks, flux correction and
// updates all dispatched concurrently on the ThreadPoolSpace.
// ---------------------------------------------------------------------

struct RippleRun
{
    std::vector<std::string> locs;
    std::vector<std::vector<double>> cons;
    std::vector<double> dts;
    std::size_t finalBlocks = 0;
    KernelProfiler profiler;
};

RippleRun
runRipple(int num_threads, bool optimize_aux = false)
{
    RippleRun out;
    KernelProfiler profiler;
    MemoryTracker tracker;
    ExecContext ctx(ExecMode::Execute, &profiler, &tracker,
                    makeExecutionSpace(num_threads));
    auto registry = makeBurgersRegistry(4);

    MeshConfig mesh_config;
    mesh_config.nx1 = mesh_config.nx2 = mesh_config.nx3 = 16;
    mesh_config.blockNx1 = mesh_config.blockNx2 = mesh_config.blockNx3 =
        8;
    mesh_config.amrLevels = 2;
    mesh_config.numThreads = num_threads;
    mesh_config.optimizeAuxMemory = optimize_aux;
    Mesh mesh(mesh_config, registry, ctx);
    RankWorld world(2);

    BurgersConfig burgers_config;
    burgers_config.numScalars = 4;
    burgers_config.refineTol = 0.05;
    burgers_config.derefineTol = 0.015;
    BurgersPackage package(burgers_config);
    GradientTagger tagger(package);

    DriverConfig driver_config;
    driver_config.ncycles = 3;
    EvolutionDriver driver(mesh, package, world, tagger, driver_config);
    driver.initialize();
    driver.run();

    for (const auto& stats : driver.history())
        out.dts.push_back(stats.dt);
    out.finalBlocks = mesh.numBlocks();
    for (const auto& block : mesh.blocks()) {
        out.locs.push_back(block->loc().str());
        const RealArray4& cons = block->cons();
        out.cons.emplace_back(cons.data(), cons.data() + cons.size());
    }
    out.profiler = profiler;
    return out;
}

TEST(ExecutionSpace, ThreadedNumericRunMatchesSerialExactly)
{
    const RippleRun serial = runRipple(1);
    for (int threads : {2, 4}) {
        const RippleRun threaded = runRipple(threads);

        ASSERT_EQ(serial.finalBlocks, threaded.finalBlocks);
        ASSERT_EQ(serial.locs, threaded.locs);
        ASSERT_EQ(serial.dts.size(), threaded.dts.size());
        for (std::size_t c = 0; c < serial.dts.size(); ++c)
            EXPECT_EQ(serial.dts[c], threaded.dts[c])
                << threads << " threads, cycle " << c;

        ASSERT_EQ(serial.cons.size(), threaded.cons.size());
        for (std::size_t b = 0; b < serial.cons.size(); ++b) {
            ASSERT_EQ(serial.cons[b].size(), threaded.cons[b].size());
            // Bitwise comparison: elementwise kernels compute each
            // cell identically and min/max reductions are
            // chunking-exact, so the conserved state may not drift by
            // even one ulp — task scheduling order included.
            EXPECT_EQ(
                std::memcmp(serial.cons[b].data(),
                            threaded.cons[b].data(),
                            serial.cons[b].size() * sizeof(double)),
                0)
                << threads << " threads, block " << serial.locs[b];
        }
    }
}

TEST(ExecutionSpace, AuxMemoryLayoutThreadedRunMatchesSerial)
{
    // The §VIII-B layout changes only the memory accounting: flux
    // tasks reconstruct into per-chunk row scratch and run
    // concurrently, and the result must match the serial run bitwise.
    const RippleRun serial = runRipple(1, true);
    const RippleRun threaded = runRipple(4, true);
    ASSERT_EQ(serial.locs, threaded.locs);
    ASSERT_EQ(serial.cons.size(), threaded.cons.size());
    for (std::size_t b = 0; b < serial.cons.size(); ++b)
        EXPECT_EQ(std::memcmp(serial.cons[b].data(),
                              threaded.cons[b].data(),
                              serial.cons[b].size() * sizeof(double)),
                  0)
            << "block " << serial.locs[b];
}

TEST(ExecutionSpace, ProfilerTotalsIdenticalAcrossBackends)
{
    const RippleRun serial = runRipple(1);
    const RippleRun threaded = runRipple(4);

    EXPECT_EQ(serial.profiler.totalLaunches(),
              threaded.profiler.totalLaunches());
    EXPECT_DOUBLE_EQ(serial.profiler.totalItems(),
                     threaded.profiler.totalItems());

    const auto& a = serial.profiler.kernels();
    const auto& b = threaded.profiler.kernels();
    ASSERT_EQ(a.size(), b.size());
    for (const auto& [key, stats] : a) {
        const auto it = b.find(key);
        ASSERT_NE(it, b.end()) << key.first << "/" << key.second;
        EXPECT_EQ(stats.launches, it->second.launches);
        EXPECT_DOUBLE_EQ(stats.items, it->second.items);
        EXPECT_DOUBLE_EQ(stats.flops, it->second.flops);
        EXPECT_DOUBLE_EQ(stats.bytes, it->second.bytes);
    }
}

} // namespace
} // namespace vibe
