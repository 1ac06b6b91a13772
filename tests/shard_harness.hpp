/**
 * @file shard_harness.hpp
 * Shared workload + capture/compare harness for the rank-shard and
 * boundary-plan equivalence tests.
 *
 * The workload (16^3 mesh, 8^3 blocks, 2 levels, an off-center fast
 * moving shell) refines AND derefines within a few cycles (mid-run
 * remeshes), which unbalances the Z-order partition and forces real
 * block migrations at the per-cycle load balance — so every run
 * exercises cache rebuilds, plan invalidation, and true storage
 * movement, not just steady-state exchange.
 */
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "comm/rank_world.hpp"
#include "driver/evolution_driver.hpp"
#include "driver/rank_team.hpp"
#include "driver/tagger.hpp"
#include "exec/execution_space.hpp"
#include "exec/kernel_profiler.hpp"
#include "exec/memory_tracker.hpp"
#include "pkg/package_registry.hpp"

namespace vibe {
namespace shard_test {

inline MeshConfig
shardMeshConfig(int num_ranks, int num_threads)
{
    MeshConfig config;
    config.nx1 = config.nx2 = config.nx3 = 16;
    config.blockNx1 = config.blockNx2 = config.blockNx3 = 8;
    config.amrLevels = 2;
    config.numThreads = num_threads;
    config.numRanks = num_ranks;
    return config;
}

inline SphericalWaveTagger::Params
shardWaveParams()
{
    SphericalWaveTagger::Params wave;
    wave.cx = wave.cy = wave.cz = 0.28;
    wave.rMin = 0.08;
    wave.rMax = 0.35;
    wave.speed = 40.0;
    return wave;
}

inline DriverConfig
shardDriverConfig(int lb_every = 1)
{
    DriverConfig config;
    config.ncycles = 8;
    config.derefineGap = 2;
    config.lbEvery = lb_every;
    // Like the boundary path, the cost source sweeps with the CI
    // matrix: mesh state must be bitwise identical either way.
    config.lbCost = envLbCostMode(LbCostMode::Uniform);
    return config;
}

inline std::unique_ptr<PackageDescriptor>
makePackage(const std::string& name)
{
    ParameterInput pin;
    return PackageRegistry::instance().create(name, pin);
}

/** Everything a run produces that equivalence must pin down. */
struct ShardRun
{
    std::vector<std::string> locs;
    std::vector<std::vector<double>> cons;
    std::vector<std::vector<double>> derived;
    std::vector<double> dts;
    std::vector<double> masses;
    std::int64_t remeshEvents = 0;
    int movedBlocks = 0;
    double migratedBytes = 0;
    /** The run's profiler tables (classic runs only). */
    KernelProfiler profiler;
};

inline void
captureHistory(const std::vector<CycleStats>& history, ShardRun* out)
{
    for (const CycleStats& stats : history) {
        out->dts.push_back(stats.dt);
        out->masses.push_back(stats.mass);
        out->remeshEvents += stats.refined + stats.derefined;
        out->movedBlocks += stats.movedBlocks;
        out->migratedBytes += stats.migratedStorageBytes;
    }
}

inline void
captureBlock(const MeshBlock& block, ShardRun* out)
{
    out->locs.push_back(block.loc().str());
    const RealArray4& cons = block.cons();
    out->cons.emplace_back(cons.data(), cons.data() + cons.size());
    const RealArray4& derived = block.derived();
    out->derived.emplace_back(derived.data(),
                              derived.data() + derived.size());
}

/** Classic single-driver run (the 1-rank baseline). */
inline ShardRun
runClassic(const std::string& package_name, int num_threads,
           int lb_every = 1)
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
    EvolutionDriver driver(mesh, *package, world, tagger,
                           shardDriverConfig(lb_every));
    driver.initialize();
    driver.run();

    ShardRun out;
    captureHistory(driver.history(), &out);
    for (const auto& block : mesh.blocks())
        captureBlock(*block, &out);
    out.profiler = profiler;
    return out;
}

/** Rank-team run; state gathered from each block's owner replica. */
inline ShardRun
runTeam(const std::string& package_name, int num_ranks, int num_threads,
        int lb_every = 1)
{
    auto package = makePackage(package_name);
    VariableRegistry registry = package->buildRegistry();
    RankTeam team(
        shardMeshConfig(num_ranks, num_threads),
        registry, *package, shardDriverConfig(lb_every), [](int) {
            return std::make_unique<SphericalWaveTagger>(
                shardWaveParams());
        });
    team.run();

    ShardRun out;
    captureHistory(team.aggregatedHistory(), &out);
    // Rank-view consistency: every replica's by-rank query agrees with
    // its cached owned view, and the shards partition the mesh.
    std::size_t shard_total = 0;
    for (int r = 0; r < team.numRanks(); ++r) {
        const auto by_rank = team.mesh(r).ownedBlocks(r);
        EXPECT_EQ(by_rank, team.mesh(r).ownedBlocks())
            << "rank " << r << " by-rank query vs cached owned view";
        shard_total += by_rank.size();
    }
    EXPECT_EQ(shard_total, team.mesh(0).numBlocks());
    for (const auto& block : team.mesh(0).blocks()) {
        const int owner = block->rank();
        MeshBlock* owned = team.ownedBlock(block->loc());
        EXPECT_NE(owned, nullptr);
        EXPECT_EQ(owned->rank(), owner);
        // Ownership invariant: exactly the owner replica holds
        // storage; every other replica sees a storage-less Shadow, so
        // cross-rank reads are structurally impossible.
        for (int r = 0; r < team.numRanks(); ++r) {
            MeshBlock* replica = team.mesh(r).find(block->loc());
            if (replica == nullptr) {
                ADD_FAILURE() << "rank " << r << " replica missing "
                              << block->loc().str();
                continue;
            }
            EXPECT_EQ(replica->hasData(), r == owner)
                << block->loc().str() << " replica on rank " << r;
            EXPECT_EQ(replica->rank(), owner);
        }
        captureBlock(*owned, &out);
    }
    return out;
}

inline void
expectBitwiseEqual(const ShardRun& a, const ShardRun& b,
                   const std::string& what)
{
    ASSERT_EQ(a.locs, b.locs) << what;
    ASSERT_EQ(a.dts.size(), b.dts.size()) << what;
    for (std::size_t c = 0; c < a.dts.size(); ++c) {
        EXPECT_EQ(a.dts[c], b.dts[c]) << what << ", dt cycle " << c;
        EXPECT_EQ(a.masses[c], b.masses[c])
            << what << ", mass cycle " << c;
    }
    ASSERT_EQ(a.cons.size(), b.cons.size()) << what;
    for (std::size_t blk = 0; blk < a.cons.size(); ++blk) {
        ASSERT_EQ(a.cons[blk].size(), b.cons[blk].size());
        EXPECT_EQ(std::memcmp(a.cons[blk].data(), b.cons[blk].data(),
                              a.cons[blk].size() * sizeof(double)),
                  0)
            << what << ", block " << a.locs[blk];
        ASSERT_EQ(a.derived[blk].size(), b.derived[blk].size());
        EXPECT_EQ(std::memcmp(a.derived[blk].data(),
                              b.derived[blk].data(),
                              a.derived[blk].size() * sizeof(double)),
                  0)
            << what << " (derived), block " << a.locs[blk];
    }
}

} // namespace shard_test
} // namespace vibe
