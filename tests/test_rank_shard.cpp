/**
 * @file test_rank_shard.cpp
 * Rank-sharded execution: N concurrent per-rank drivers over disjoint
 * block shards must be bitwise identical to the classic 1-rank driver
 * — per-block state, derived fields, dt and mass history — for both
 * physics packages, through mid-run remeshes and real load-balance
 * migrations. Also covers the RankWorld rendezvous collectives, the
 * Shadow-block ownership invariant (exactly one replica holds a
 * block's storage, and it is the owner), and migration being
 * numerically invisible (lbEvery = 0 vs lbEvery = 1 agree).
 */
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "comm/rank_world.hpp"
#include "core/experiment.hpp"
#include "driver/evolution_driver.hpp"
#include "driver/rank_team.hpp"
#include "exec/execution_space.hpp"
#include "shard_harness.hpp"
#include "util/logging.hpp"

namespace vibe {
namespace {

// The shared workload + capture/compare harness lives in
// shard_harness.hpp (also used by tests/test_boundary_plan.cpp).
using namespace shard_test;

// --- RankWorld collectives --------------------------------------------

TEST(RankWorldCollectives, RendezvousReduceGatherBarrier)
{
    constexpr int kRanks = 4;
    RankWorld world(kRanks, /*concurrent=*/true);
    std::vector<double> mins(kRanks, 0.0), sums(kRanks, 0.0);
    std::vector<std::vector<double>> gathers(kRanks);

    std::vector<std::thread> threads;
    for (int r = 0; r < kRanks; ++r) {
        threads.emplace_back([&, r] {
            mins[r] = world.allReduceValue(r, 10.0 + r, CollOp::Min,
                                           sizeof(double));
            world.barrier(r);
            sums[r] = world.allReduceValue(r, 1.0 + r, CollOp::Sum,
                                           sizeof(double));
            std::vector<double> mine{static_cast<double>(r),
                                     static_cast<double>(10 * r)};
            gathers[r] = world.allGatherVec(r, std::move(mine),
                                            2.0 * sizeof(double),
                                            CollAccount::Gather);
        });
    }
    for (auto& thread : threads)
        thread.join();

    for (int r = 0; r < kRanks; ++r) {
        EXPECT_EQ(mins[r], 10.0);
        EXPECT_EQ(sums[r], 1.0 + 2.0 + 3.0 + 4.0);
        ASSERT_EQ(gathers[r].size(), 2u * kRanks);
        for (int s = 0; s < kRanks; ++s) {
            EXPECT_EQ(gathers[r][2 * s], static_cast<double>(s));
            EXPECT_EQ(gathers[r][2 * s + 1],
                      static_cast<double>(10 * s));
        }
    }
    // 2 reduces + 1 gather, accounted once per collective (not per
    // participant).
    EXPECT_EQ(world.traffic().allReduces, 2u);
    EXPECT_EQ(world.traffic().allGathers, 1u);
}

TEST(RankWorldCollectives, ModeledModePassesThrough)
{
    RankWorld world(8); // modeled: accounting only
    EXPECT_FALSE(world.concurrent());
    EXPECT_EQ(world.allReduceValue(0, 3.5, CollOp::Min, 8.0), 3.5);
    std::vector<double> mine{1.0, 2.0};
    const auto out =
        world.allGatherVec(0, std::move(mine), 8.0, CollAccount::Gather);
    EXPECT_EQ(out, (std::vector<double>{1.0, 2.0}));
    EXPECT_EQ(world.traffic().allReduces, 1u);
    EXPECT_EQ(world.traffic().allGathers, 1u);
}

// --- Bitwise rank equivalence (the acceptance harness) ----------------

class RankShardEquivalence
    : public ::testing::TestWithParam<const char*>
{
};

TEST_P(RankShardEquivalence, TeamRunsMatchClassicBitwise)
{
    const std::string package = GetParam();
    // The 1-rank baseline is per thread count: block state and dt are
    // thread-count-invariant, but a per-block mass partial is a
    // chunk-ordered sum, deterministic for a FIXED thread count (the
    // same contract the serial-vs-threaded equivalence tests pin).
    // Rank decomposition must add no difference on top of that.
    for (int threads : {1, 2}) {
        const ShardRun classic = runClassic(package, threads);
        EXPECT_GT(classic.remeshEvents, 0)
            << "workload must remesh mid-run";

        for (int ranks : {2, 4}) {
            const ShardRun team =
                runTeam(package, ranks, threads);
            // The shard workload must exercise the real machinery: at
            // least one mid-run remesh and at least one true storage
            // migration.
            EXPECT_GT(team.remeshEvents, 0);
            EXPECT_GT(team.movedBlocks, 0);
            EXPECT_GT(team.migratedBytes, 0.0);
            expectBitwiseEqual(
                classic, team,
                package + " @" + std::to_string(ranks) + " ranks x " +
                    std::to_string(threads) + " threads vs classic");
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Packages, RankShardEquivalence,
                         ::testing::Values("burgers", "advection"));

TEST(RankShard, MigrationIsNumericallyInvisible)
{
    // lbEvery = 0 never load balances: rank 0 keeps every block, no
    // storage ever moves. lbEvery = 1 migrates every imbalance. Both
    // must match the classic run bitwise — migration only relocates
    // storage, never perturbs it.
    for (const char* package : {"burgers", "advection"}) {
        const ShardRun classic =
            runClassic(package, 1, /*lb_every=*/0);
        const ShardRun pinned =
            runTeam(package, 2, 1, /*lb_every=*/0);
        EXPECT_EQ(pinned.movedBlocks, 0);
        EXPECT_EQ(pinned.migratedBytes, 0.0);
        expectBitwiseEqual(classic, pinned,
                           std::string(package) +
                               " pinned-ownership vs classic");

        const ShardRun migrating =
            runTeam(package, 2, 1, /*lb_every=*/1);
        EXPECT_GT(migrating.movedBlocks, 0);
        EXPECT_GT(migrating.migratedBytes, 0.0);
        // Same state as the never-migrated run, cycle histories aside
        // (movedBlocks differ by construction).
        ASSERT_EQ(pinned.cons.size(), migrating.cons.size());
        for (std::size_t blk = 0; blk < pinned.cons.size(); ++blk)
            EXPECT_EQ(
                std::memcmp(pinned.cons[blk].data(),
                            migrating.cons[blk].data(),
                            pinned.cons[blk].size() * sizeof(double)),
                0)
                << package << " block " << pinned.locs[blk];
    }
}

TEST(RankShard, EnvRankCountMatchesClassic)
{
    // The CI matrix routes this through VIBE_NUM_RANKS; default 2.
    const int ranks = envNumRanks(2);
    const int threads = envNumThreads(1);
    const ShardRun classic = runClassic("advection", threads);
    const ShardRun team = runTeam("advection", ranks, threads);
    expectBitwiseEqual(classic, team,
                       "advection @VIBE_NUM_RANKS=" +
                           std::to_string(ranks));
}

TEST(RankShard, ExperimentNumRanksPathAggregates)
{
    ExperimentSpec spec;
    spec.meshSize = 16;
    spec.blockSize = 8;
    spec.amrLevels = 2;
    spec.ncycles = 4;
    spec.numeric = true;
    spec.package = "advection";
    spec.numRanks = 2;
    const ExperimentResult result = Experiment(spec).run();
    EXPECT_GT(result.zoneCycles, 0);
    EXPECT_GT(result.wallSeconds, 0.0);
    EXPECT_GT(result.measuredFom(), 0.0);
    EXPECT_EQ(result.history.size(), 4u);
    // Cross-rank coupling really went over the wire.
    EXPECT_GT(result.traffic.remoteMessages, 0u);
    EXPECT_GT(result.traffic.allReduces, 0u);

    // The 1-rank classic path reports the identical history.
    ExperimentSpec classic = spec;
    classic.numRanks = 1;
    const ExperimentResult base = Experiment(classic).run();
    ASSERT_EQ(base.history.size(), result.history.size());
    for (std::size_t c = 0; c < base.history.size(); ++c) {
        EXPECT_EQ(base.history[c].dt, result.history[c].dt);
        EXPECT_EQ(base.history[c].mass, result.history[c].mass);
        EXPECT_EQ(base.history[c].nblocks, result.history[c].nblocks);
    }
    EXPECT_EQ(base.zoneCycles, result.zoneCycles);
}

TEST(RankShard, CountingModeRejectsRankSharding)
{
    ExperimentSpec spec;
    spec.numeric = false;
    spec.numRanks = 2;
    EXPECT_THROW(Experiment(spec).run(), FatalError);
}

} // namespace
} // namespace vibe
