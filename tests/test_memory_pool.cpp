/**
 * @file test_memory_pool.cpp
 * Block memory pool: Array4 storage adoption without redundant
 * clearing, steady-state refine/derefine churn running entirely on
 * recycled buffers, no aliasing between live blocks, and footprint /
 * state parity with the allocate-and-zero path, also when the pool
 * starts out full of NaN buffers.
 */
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <set>
#include <vector>

#include "comm/rank_world.hpp"
#include "driver/evolution_driver.hpp"
#include "pkg/burgers_package.hpp"
#include "driver/tagger.hpp"
#include "exec/kernel_profiler.hpp"
#include "exec/memory_tracker.hpp"
#include "mesh/block_memory_pool.hpp"
#include "mesh/mesh.hpp"
#include "util/array4.hpp"

namespace vibe {
namespace {

// --- Array4 storage adoption (the construct-then-fill fix) -----------

TEST(Array4, AdoptedStorageSkipsClearWhenAsked)
{
    std::vector<double> recycled(2 * 3 * 4 * 5, 7.5);
    const double* raw = recycled.data();
    RealArray4 a(2, 3, 4, 5, std::move(recycled), /*zero_init=*/false);
    EXPECT_EQ(a.data(), raw); // no reallocation on a size match
    EXPECT_DOUBLE_EQ(a(1, 2, 3, 4), 7.5); // recycled contents kept
}

TEST(Array4, AdoptedStorageZeroInitClearsOnce)
{
    std::vector<double> recycled(2 * 3 * 4 * 5, 7.5);
    const double* raw = recycled.data();
    RealArray4 a(2, 3, 4, 5, std::move(recycled), /*zero_init=*/true);
    EXPECT_EQ(a.data(), raw);
    for (int n = 0; n < 2; ++n)
        EXPECT_DOUBLE_EQ(a(n, 2, 3, 4), 0.0);
}

TEST(Array4, AdoptGrowsAndReleasesStorage)
{
    // A fresh pool vector arrives empty with reserved capacity.
    std::vector<double> fresh;
    fresh.reserve(24);
    RealArray4 a(2, 1, 3, 4, std::move(fresh), /*zero_init=*/false);
    EXPECT_EQ(a.size(), 24u);
    EXPECT_DOUBLE_EQ(a(1, 0, 2, 3), 0.0); // resize value-initializes
    a(1, 0, 2, 3) = 3.25;

    std::vector<double> back = a.releaseStorage();
    EXPECT_EQ(back.size(), 24u);
    EXPECT_TRUE(a.empty());
    EXPECT_EQ(a.nvar(), 0);
    EXPECT_DOUBLE_EQ(back.back(), 3.25);
}

// --- BlockMemoryPool free-list behavior ------------------------------

TEST(BlockMemoryPool, HitsAndMissesAreCounted)
{
    MemoryTracker tracker;
    BlockMemoryPool pool(&tracker);

    auto first = pool.acquire(100);
    EXPECT_EQ(pool.freshAllocs(), 1u);
    EXPECT_EQ(pool.poolHits(), 0u);
    EXPECT_EQ(first.size(), 0u); // fresh storage: reserved, not sized
    EXPECT_GE(first.capacity(), 100u);

    first.resize(100, 1.0);
    pool.release(std::move(first));
    EXPECT_EQ(pool.idleBuffers(), 1u);
    EXPECT_EQ(pool.idleBytes(), 100 * sizeof(double));

    auto second = pool.acquire(100);
    EXPECT_EQ(pool.poolHits(), 1u);
    EXPECT_EQ(pool.freshAllocs(), 1u);
    EXPECT_EQ(second.size(), 100u); // recycled storage arrives sized
    EXPECT_EQ(pool.idleBuffers(), 0u);

    // Different size: separate bucket, fresh allocation.
    auto other = pool.acquire(64);
    EXPECT_EQ(pool.freshAllocs(), 2u);

    // Tracker mirror.
    EXPECT_EQ(tracker.poolHits(), 1u);
    EXPECT_EQ(tracker.poolMisses(), 2u);
    EXPECT_EQ(tracker.poolHitBytes(), 100 * sizeof(double));
    EXPECT_EQ(tracker.poolMissBytes(), (100 + 64) * sizeof(double));
}

TEST(BlockMemoryPool, EmptyReleaseIgnoredAndTrimDrops)
{
    BlockMemoryPool pool;
    pool.release(std::vector<double>{});
    EXPECT_EQ(pool.idleBuffers(), 0u);

    pool.release(std::vector<double>(10, 0.0));
    pool.release(std::vector<double>(20, 0.0));
    EXPECT_EQ(pool.idleBuffers(), 2u);
    EXPECT_EQ(pool.peakIdleBytes(), 30 * sizeof(double));
    pool.trim();
    EXPECT_EQ(pool.idleBuffers(), 0u);
    EXPECT_EQ(pool.idleBytes(), 0u);
    // Peak survives trim (high-water semantics).
    EXPECT_EQ(pool.peakIdleBytes(), 30 * sizeof(double));
}

// --- Steady-state refine/derefine churn ------------------------------

struct PoolMeshBits
{
    KernelProfiler profiler;
    MemoryTracker tracker;
    VariableRegistry registry = makeBurgersRegistry(4);
};

MeshConfig
churnConfig(bool use_pool)
{
    MeshConfig config;
    config.nx1 = config.nx2 = config.nx3 = 16;
    config.blockNx1 = config.blockNx2 = config.blockNx3 = 8;
    config.amrLevels = 2;
    config.useMemoryPool = use_pool;
    return config;
}

/** One refine + derefine round trip of the corner block. */
void
churnOnce(Mesh& mesh)
{
    RefinementFlagMap refine;
    refine[{0, 0, 0, 0}] = RefinementFlag::Refine;
    mesh.applyTreeUpdate(mesh.updateTree(refine), 0);

    RefinementFlagMap deref;
    for (int idx = 0; idx < 8; ++idx)
        deref[LogicalLocation{0, 0, 0, 0}.child(
            idx & 1, (idx >> 1) & 1, (idx >> 2) & 1)] =
            RefinementFlag::Derefine;
    mesh.applyTreeUpdate(mesh.updateTree(deref), 0);
}

TEST(BlockMemoryPool, SteadyStateChurnIsAllPoolHits)
{
    PoolMeshBits bits;
    ExecContext ctx(ExecMode::Execute, &bits.profiler, &bits.tracker);
    Mesh mesh(churnConfig(true), bits.registry, ctx);
    ASSERT_NE(mesh.memoryPool(), nullptr);

    // Warm-up: the first round trips populate the free list (children
    // are created while the parent still holds its storage, so the
    // steady-state working set is one refine event's worth of extra
    // buffers).
    churnOnce(mesh);
    churnOnce(mesh);

    const std::uint64_t fresh_after_warmup =
        mesh.memoryPool()->freshAllocs();
    const std::uint64_t hits_before = mesh.memoryPool()->poolHits();
    const std::size_t idle_before = mesh.memoryPool()->idleBytes();

    for (int round = 0; round < 5; ++round)
        churnOnce(mesh);

    // Zero net allocator growth: every steady-state request is a hit.
    EXPECT_EQ(mesh.memoryPool()->freshAllocs(), fresh_after_warmup);
    EXPECT_GT(mesh.memoryPool()->poolHits(), hits_before);
    // The free list itself reaches steady state too.
    EXPECT_EQ(mesh.memoryPool()->idleBytes(), idle_before);
    EXPECT_LE(mesh.memoryPool()->idleBytes(),
              mesh.memoryPool()->peakIdleBytes());
}

TEST(BlockMemoryPool, LiveBlocksNeverAliasBuffers)
{
    PoolMeshBits bits;
    ExecContext ctx(ExecMode::Execute, &bits.profiler, &bits.tracker);
    Mesh mesh(churnConfig(true), bits.registry, ctx);
    churnOnce(mesh);
    churnOnce(mesh);
    // Leave the mesh in a refined state so recycled child buffers are
    // live simultaneously.
    RefinementFlagMap refine;
    refine[{0, 0, 0, 0}] = RefinementFlag::Refine;
    mesh.applyTreeUpdate(mesh.updateTree(refine), 0);

    std::set<const double*> seen;
    std::size_t arrays = 0;
    auto check = [&](const RealArray4& a) {
        if (a.empty())
            return;
        ++arrays;
        EXPECT_TRUE(seen.insert(a.data()).second)
            << "two live blocks share one backing store";
    };
    for (const auto& block : mesh.blocks()) {
        check(block->cons());
        check(block->cons0());
        check(block->derived());
        for (int d = 0; d < 3; ++d)
            check(block->flux(d));
    }
    // Every block contributes cons/cons0/derived + 3 flux arrays in
    // 3-D (reconstruction and dudt use row scratch, not block arrays).
    EXPECT_EQ(arrays, mesh.numBlocks() * 6u);
}

TEST(BlockMemoryPool, LiveBytesAreTheLiveBlocksStorage)
{
    PoolMeshBits bits;
    ExecContext ctx(ExecMode::Execute, &bits.profiler, &bits.tracker);
    Mesh mesh(churnConfig(true), bits.registry, ctx);
    churnOnce(mesh);
    churnOnce(mesh);
    RefinementFlagMap refine;
    refine[{0, 0, 0, 0}] = RefinementFlag::Refine;
    mesh.applyTreeUpdate(mesh.updateTree(refine), 0);

    std::size_t storage = 0;
    for (const auto& block : mesh.blocks()) {
        storage += block->cons().sizeBytes() + block->cons0().sizeBytes() +
                   block->derived().sizeBytes();
        for (int d = 0; d < 3; ++d)
            storage += block->flux(d).sizeBytes();
    }
    EXPECT_GT(mesh.memoryPool()->idleBytes(), 0u);
    EXPECT_EQ(mesh.memoryPool()->liveBytes(), storage);
    // Interior-only scratch: the host holds less than the tracker's
    // ghosted (device-layout) footprint.
    EXPECT_LT(storage, bits.tracker.currentBytes());
}

TEST(BlockMemoryPool, FootprintAndAllocationCallsMatchUnpooled)
{
    // The tracker records the logical footprint; recycling must not
    // change it (Fig. 10 terms are pool-independent).
    PoolMeshBits pooled_bits, plain_bits;
    ExecContext pooled_ctx(ExecMode::Execute, &pooled_bits.profiler,
                           &pooled_bits.tracker);
    ExecContext plain_ctx(ExecMode::Execute, &plain_bits.profiler,
                          &plain_bits.tracker);
    Mesh pooled(churnConfig(true), pooled_bits.registry, pooled_ctx);
    Mesh plain(churnConfig(false), plain_bits.registry, plain_ctx);
    EXPECT_EQ(plain.memoryPool(), nullptr);

    churnOnce(pooled);
    churnOnce(plain);

    EXPECT_EQ(pooled_bits.tracker.currentBytes(),
              plain_bits.tracker.currentBytes());
    EXPECT_EQ(pooled_bits.tracker.allocationCalls(),
              plain_bits.tracker.allocationCalls());
    EXPECT_EQ(pooled_bits.tracker.labelBytes("mesh/cons"),
              plain_bits.tracker.labelBytes("mesh/cons"));
}

TEST(BlockMemoryPool, CountingModeAllocatesNoPool)
{
    PoolMeshBits bits;
    ExecContext ctx(ExecMode::Count, &bits.profiler, &bits.tracker);
    Mesh mesh(churnConfig(true), bits.registry, ctx);
    // Virtual blocks materialize no arrays, so no pool either — but the
    // accounted footprint is identical to numeric mode.
    EXPECT_EQ(mesh.memoryPool(), nullptr);
    EXPECT_GT(bits.tracker.currentBytes(), 0u);
}

// --- Numerical invisibility -------------------------------------------

/**
 * Final conserved state of a short numeric AMR run. With `poison` the
 * pool is first seeded with NaN-filled buffers of every block-array
 * size, which the run's refinements then draw on; `fresh_allocs`
 * receives the pool's allocator fall-throughs.
 */
RealArray4
runRippleCons(bool use_pool, bool poison = false,
              std::uint64_t* fresh_allocs = nullptr)
{
    KernelProfiler profiler;
    MemoryTracker tracker;
    ExecContext ctx(ExecMode::Execute, &profiler, &tracker);
    auto registry = makeBurgersRegistry(4);

    MeshConfig mesh_config;
    mesh_config.nx1 = mesh_config.nx2 = mesh_config.nx3 = 16;
    mesh_config.blockNx1 = mesh_config.blockNx2 = mesh_config.blockNx3 =
        8;
    mesh_config.amrLevels = 2;
    mesh_config.useMemoryPool = use_pool;
    Mesh mesh(mesh_config, registry, ctx);
    RankWorld world(2);
    if (poison) {
        // A skip-clear array (cons0, fluxes) with a cell read before
        // it is written would carry a NaN into cons.
        const MeshBlock& block = mesh.block(0);
        std::vector<const RealArray4*> arrays = {
            &block.cons(), &block.cons0(), &block.derived()};
        for (int d = 0; d < 3; ++d)
            arrays.push_back(&block.flux(d));
        for (const RealArray4* a : arrays)
            for (int copy = 0; copy < 16; ++copy)
                mesh.memoryPool()->release(std::vector<double>(
                    a->size(), std::numeric_limits<double>::quiet_NaN()));
    }

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

    // Concatenate all blocks' conserved state for comparison.
    const BlockShape s = mesh.config().blockShape();
    RealArray4 all(static_cast<int>(mesh.numBlocks()),
                   registry.ncompConserved(), 1,
                   static_cast<int>(s.totalCells()));
    for (std::size_t b = 0; b < mesh.numBlocks(); ++b) {
        const RealArray4& cons =
            mesh.block(static_cast<int>(b)).cons();
        std::memcpy(all.data() + b * cons.size(), cons.data(),
                    cons.sizeBytes());
    }
    if (fresh_allocs)
        *fresh_allocs = mesh.memoryPool()->freshAllocs();
    return all;
}

TEST(BlockMemoryPool, PooledRunIsBitwiseIdenticalToUnpooled)
{
    const RealArray4 pooled = runRippleCons(true);
    const RealArray4 plain = runRippleCons(false);
    ASSERT_EQ(pooled.size(), plain.size());
    EXPECT_EQ(std::memcmp(pooled.data(), plain.data(),
                          pooled.sizeBytes()),
              0);
}

TEST(BlockMemoryPool, PoisonedPoolRunMatchesUnpooled)
{
    std::uint64_t poisoned_fresh = 0, pooled_fresh = 0;
    const RealArray4 poisoned = runRippleCons(true, true, &poisoned_fresh);
    runRippleCons(true, false, &pooled_fresh);
    const RealArray4 plain = runRippleCons(false);
    // The run drew on the NaN buffers instead of the allocator.
    EXPECT_LT(poisoned_fresh, pooled_fresh);
    ASSERT_EQ(poisoned.size(), plain.size());
    EXPECT_EQ(std::memcmp(poisoned.data(), plain.data(),
                          poisoned.sizeBytes()),
              0);
}

} // namespace
} // namespace vibe
