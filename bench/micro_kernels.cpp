/**
 * @file micro_kernels.cpp
 * google-benchmark microbenchmarks of the numerical and structural
 * hot paths: WENO5/PLM reconstruction, the HLL solver, the fused RK2
 * stage update, ghost pack/unpack, Morton keys, tree neighbor walks and
 * buffer-cache rebuilds.
 */
#include <benchmark/benchmark.h>

#include "comm/boundary_buffers.hpp"
#include "comm/ghost_exchange.hpp"
#include "exec/kernel_profiler.hpp"
#include "exec/memory_tracker.hpp"
#include "mesh/mesh.hpp"
#include "pkg/burgers_package.hpp"
#include "solver/reconstruct.hpp"
#include "solver/riemann.hpp"

namespace {

using namespace vibe;

void
BM_Weno5Face(benchmark::State& state)
{
    double a = 1.0, b = 1.1, c = 1.3, d = 1.2, e = 0.9;
    for (auto _ : state) {
        benchmark::DoNotOptimize(weno5Face(a, b, c, d, e));
        a += 1e-9; // defeat constant folding
    }
}
BENCHMARK(BM_Weno5Face);

void
BM_PlmFace(benchmark::State& state)
{
    double a = 1.0, b = 1.1, c = 1.3;
    for (auto _ : state) {
        benchmark::DoNotOptimize(plmFace(a, b, c));
        a += 1e-9;
    }
}
BENCHMARK(BM_PlmFace);

void
BM_HllFlux(benchmark::State& state)
{
    const int ncomp = static_cast<int>(state.range(0));
    std::vector<double> ul(ncomp, 0.5), ur(ncomp, -0.2), f(ncomp);
    for (auto _ : state) {
        hllFlux(ul.data(), ur.data(), 0, ncomp, f.data());
        benchmark::DoNotOptimize(f.data());
        ul[0] += 1e-9;
    }
    state.SetItemsProcessed(state.iterations() * ncomp);
}
BENCHMARK(BM_HllFlux)->Arg(4)->Arg(11);

void
BM_MortonKey(benchmark::State& state)
{
    LogicalLocation loc{3, 5, 2, 7};
    for (auto _ : state) {
        benchmark::DoNotOptimize(loc.mortonKey(6));
        loc.lx1 = (loc.lx1 + 1) & 0x3f;
    }
}
BENCHMARK(BM_MortonKey);

/** One full CalculateFluxes sweep over a block (per block size). */
void
BM_CalculateFluxesBlock(benchmark::State& state)
{
    const int block = static_cast<int>(state.range(0));
    KernelProfiler profiler;
    MemoryTracker tracker;
    auto registry = makeBurgersRegistry(8);
    ExecContext ctx(ExecMode::Execute, &profiler, &tracker);
    MeshConfig config;
    config.nx1 = config.nx2 = config.nx3 = block;
    config.blockNx1 = config.blockNx2 = config.blockNx3 = block;
    config.amrLevels = 1;
    Mesh mesh(config, registry, ctx);
    BurgersPackage package{BurgersConfig{}};
    MeshBlock& only = mesh.block(0);
    package.initializeBlock(ctx, only, InitialCondition::Sine);
    for (auto _ : state)
        package.calculateFluxesBlock(mesh, only);
    state.SetItemsProcessed(state.iterations() * block * block * block);
}
BENCHMARK(BM_CalculateFluxesBlock)->Arg(8)->Arg(16)->Arg(32);

/** One fused RK2 stage-1 pass (divergence, save, update) per block. */
void
BM_Rk2Stage(benchmark::State& state)
{
    KernelProfiler profiler;
    MemoryTracker tracker;
    auto registry = makeBurgersRegistry(8);
    ExecContext ctx(ExecMode::Execute, &profiler, &tracker);
    MeshConfig config;
    config.nx1 = config.nx2 = config.nx3 = 32;
    config.blockNx1 = config.blockNx2 = config.blockNx3 = 16;
    config.amrLevels = 1;
    Mesh mesh(config, registry, ctx);
    BurgersPackage package{BurgersConfig{}};
    for (auto _ : state)
        for (MeshBlock* block : mesh.ownedBlocks())
            package.rk2StageBlock(mesh, *block, 1, 1e-3);
    state.SetItemsProcessed(state.iterations() * 32 * 32 * 32);
}
BENCHMARK(BM_Rk2Stage);

void
BM_GhostExchange(benchmark::State& state)
{
    const int block = static_cast<int>(state.range(0));
    KernelProfiler profiler;
    MemoryTracker tracker;
    auto registry = makeBurgersRegistry(8);
    ExecContext ctx(ExecMode::Execute, &profiler, &tracker);
    MeshConfig config;
    config.nx1 = config.nx2 = config.nx3 = 32;
    config.blockNx1 = config.blockNx2 = config.blockNx3 = block;
    config.amrLevels = 1;
    Mesh mesh(config, registry, ctx);
    RankWorld world(1);
    BoundaryBufferCache cache(mesh, false);
    GhostExchange exchange(mesh, world, cache);
    BurgersPackage package{BurgersConfig{}};
    for (MeshBlock* block : mesh.ownedBlocks())
        package.initializeBlock(ctx, *block, InitialCondition::Sine);
    for (auto _ : state)
        exchange.exchangeBounds();
    state.SetItemsProcessed(state.iterations() *
                            cache.totalWireCells());
}
BENCHMARK(BM_GhostExchange)->Arg(8)->Arg(16);

void
BM_BufferCacheRebuild(benchmark::State& state)
{
    KernelProfiler profiler;
    MemoryTracker tracker;
    auto registry = makeBurgersRegistry(8);
    ExecContext ctx(ExecMode::Count, &profiler, &tracker);
    MeshConfig config;
    config.nx1 = config.nx2 = config.nx3 = 64;
    config.blockNx1 = config.blockNx2 = config.blockNx3 = 8;
    config.amrLevels = 1;
    Mesh mesh(config, registry, ctx);
    BoundaryBufferCache cache(mesh, true);
    for (auto _ : state)
        cache.rebuild();
    state.SetItemsProcessed(state.iterations() * cache.bounds().size());
}
BENCHMARK(BM_BufferCacheRebuild);

void
BM_TreeNeighborWalk(benchmark::State& state)
{
    TreeConfig config;
    config.nbx1 = config.nbx2 = config.nbx3 = 8;
    config.maxLevel = 2;
    BlockTree tree(config);
    tree.refine({0, 0, 0, 0});
    const auto leaves = tree.leavesZOrder();
    for (auto _ : state)
        for (const auto& loc : leaves)
            benchmark::DoNotOptimize(tree.neighbors(loc));
    state.SetItemsProcessed(state.iterations() * leaves.size());
}
BENCHMARK(BM_TreeNeighborWalk);

} // namespace

BENCHMARK_MAIN();
