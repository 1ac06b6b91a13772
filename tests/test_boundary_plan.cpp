/**
 * @file test_boundary_plan.cpp
 * BoundaryPlan lifecycle and fused-path equivalence.
 *
 * - Lifecycle: the cache rebuild hook invalidates the plan exactly
 *   once per rebuild (refine/derefine/migration all route through the
 *   cache), rebuilds are lazy, and a driver run keeps the chained
 *   counters in lockstep.
 * - Staleness: a plan whose cache moved on without the chained hook is
 *   structurally unusable — every accessor throws.
 * - Elision: rank pairs that share no boundary get no PlanMessage at
 *   all; the offset directory of a real message tiles its payload
 *   exactly.
 * - Sub-packs: the plan cuts the owned blocks into contiguous Z-order
 *   ranges (one on a serial space) whose send/recv work lists cover
 *   every local entry exactly once.
 * - Payload pool: warm cycles without a remesh allocate no payloads,
 *   and on a rank team the pools stay bounded across cycles.
 * - Equivalence: the fused path is bitwise identical to the per-face
 *   path for all three physics packages across 1/2/4 threads and
 *   1/2/4 ranks, through mid-run remeshes and real storage migrations,
 *   with and without packed interiors; its profiler tables do not
 *   depend on the thread (hence sub-pack) count.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "comm/boundary_buffers.hpp"
#include "comm/boundary_plan.hpp"
#include "comm/rank_world.hpp"
#include "driver/evolution_driver.hpp"
#include "driver/tagger.hpp"
#include "exec/execution_space.hpp"
#include "exec/kernel_profiler.hpp"
#include "exec/memory_tracker.hpp"
#include "shard_harness.hpp"
#include "util/logging.hpp"

namespace vibe {
namespace {

using namespace shard_test;

/** Mesh + cache + plan built directly (no driver). */
struct PlanFixture
{
    std::unique_ptr<PackageDescriptor> package;
    VariableRegistry registry;
    KernelProfiler profiler;
    MemoryTracker tracker;
    ExecContext ctx;
    Mesh mesh;
    RankWorld world;
    BoundaryBufferCache cache;
    BoundaryPlan plan;

    explicit PlanFixture(const MeshConfig& config, int nranks)
        : package(makePackage("advection")),
          registry(package->buildRegistry()),
          ctx(ExecMode::Execute, &profiler, &tracker,
              makeExecutionSpace(1)),
          mesh(config, registry, ctx), world(nranks),
          cache(mesh, /*randomize_keys=*/false),
          plan(mesh, cache, world)
    {
    }
};

// --- Lifecycle --------------------------------------------------------

TEST(BoundaryPlanLifecycle, HookInvalidatesOncePerRebuild)
{
    PlanFixture fx(shardMeshConfig(1, 1, false), 1);
    fx.cache.setRebuildHook([&] { fx.plan.invalidate(); });

    fx.plan.ensureBuilt();
    EXPECT_TRUE(fx.plan.current());
    EXPECT_EQ(fx.plan.buildCount(), 1u);
    EXPECT_EQ(fx.plan.invalidateCount(), 0u);

    for (int i = 1; i <= 3; ++i) {
        fx.cache.rebuild();
        EXPECT_FALSE(fx.plan.current());
        EXPECT_EQ(fx.plan.invalidateCount(),
                  static_cast<std::uint64_t>(i));
    }
    // Rebuilds are lazy: three invalidations, still one build.
    EXPECT_EQ(fx.plan.buildCount(), 1u);
    fx.plan.ensureBuilt();
    EXPECT_TRUE(fx.plan.current());
    EXPECT_EQ(fx.plan.buildCount(), 2u);
    // ensureBuilt on a current plan is a no-op.
    fx.plan.ensureBuilt();
    EXPECT_EQ(fx.plan.buildCount(), 2u);
}

TEST(BoundaryPlanLifecycle, DriverKeepsPlanInLockstepThroughRemesh)
{
    // The shard workload refines, derefines, and migrates mid-run; the
    // driver chains plan invalidation into the cache hook, so after
    // the run the plan has been invalidated once per cache rebuild —
    // minus the cache's construction-time rebuild, which precedes the
    // hook installation.
    auto package = makePackage("advection");
    VariableRegistry registry = package->buildRegistry();
    KernelProfiler profiler;
    MemoryTracker tracker;
    ExecContext ctx(ExecMode::Execute, &profiler, &tracker,
                    makeExecutionSpace(1));
    Mesh mesh(shardMeshConfig(1, 1, false, /*fused=*/true), registry,
              ctx);
    RankWorld world(1);
    SphericalWaveTagger tagger(shardWaveParams());
    EvolutionDriver driver(mesh, *package, world, tagger,
                           shardDriverConfig());
    driver.initialize();
    driver.run();

    const BoundaryPlan& plan = driver.exchange().plan();
    const std::uint64_t rebuilds = driver.bufferCache().rebuildCount();
    EXPECT_GT(rebuilds, 1u) << "workload must remesh mid-run";
    EXPECT_EQ(plan.invalidateCount(), rebuilds - 1);
    EXPECT_TRUE(plan.current());
    EXPECT_GE(plan.buildCount(), 1u);
    EXPECT_LE(plan.buildCount(), plan.invalidateCount() + 1);
}

TEST(BoundaryPlanLifecycle, StalePlanIsStructurallyUnusable)
{
    PlanFixture fx(shardMeshConfig(1, 1, false), 1);
    // No hook chained: the cache moves on, the plan cannot notice
    // until an accessor checks the generation stamp.
    fx.plan.ensureBuilt();
    fx.cache.rebuild();
    EXPECT_THROW(fx.plan.messages(PlanPhase::Bounds), PanicError);
    EXPECT_THROW(fx.plan.sendIds(PlanPhase::Bounds, 0), PanicError);
    EXPECT_THROW(fx.plan.messageFor(PlanPhase::Flux, 0, 0), PanicError);
    // ...and unbuilt is just as unusable as stale.
    BoundaryPlan fresh(fx.mesh, fx.cache, fx.world);
    EXPECT_THROW(fresh.messages(PlanPhase::Bounds), PanicError);
    // ensureBuilt repairs the stale plan.
    fx.plan.ensureBuilt();
    EXPECT_NO_THROW(fx.plan.messages(PlanPhase::Bounds));
}

// --- Message elision and the offset directory -------------------------

TEST(BoundaryPlanDirectory, NonAdjacentRankPairsAreElided)
{
    // A 4-block chain along x (one block thick in y/z, non-periodic),
    // one block per rank: rank r touches only r-1 and r+1, so every
    // other pair must produce no PlanMessage at all.
    MeshConfig config;
    config.nx1 = 32;
    config.nx2 = config.nx3 = 8;
    config.blockNx1 = config.blockNx2 = config.blockNx3 = 8;
    config.amrLevels = 1;
    config.periodic = false;
    config.numRanks = 4;
    PlanFixture fx(config, 4);
    ASSERT_EQ(fx.mesh.numBlocks(), 4u);
    for (const auto& block : fx.mesh.blocks())
        block->setRank(static_cast<int>(block->loc().lx1));
    fx.cache.rebuild();
    fx.plan.ensureBuilt();

    // Chain adjacency: 6 directed pairs, each with a message.
    EXPECT_EQ(fx.plan.messages(PlanPhase::Bounds).size(), 6u);
    EXPECT_NE(fx.plan.messageFor(PlanPhase::Bounds, 0, 1), nullptr);
    EXPECT_NE(fx.plan.messageFor(PlanPhase::Bounds, 1, 0), nullptr);
    EXPECT_NE(fx.plan.messageFor(PlanPhase::Bounds, 2, 3), nullptr);
    // Elided: no shared boundary (0-2, 0-3, wrap), no self pairs
    // (one block per rank), never an empty message on the wire.
    EXPECT_EQ(fx.plan.messageFor(PlanPhase::Bounds, 0, 2), nullptr);
    EXPECT_EQ(fx.plan.messageFor(PlanPhase::Bounds, 0, 3), nullptr);
    EXPECT_EQ(fx.plan.messageFor(PlanPhase::Bounds, 3, 0), nullptr);
    EXPECT_EQ(fx.plan.messageFor(PlanPhase::Bounds, 0, 0), nullptr);
    for (const PlanMessage& msg :
         fx.plan.messages(PlanPhase::Bounds)) {
        EXPECT_GT(msg.doubles, 0u);
        EXPECT_FALSE(msg.entries.empty());
        // The directory tiles the payload: cumulative offsets, total
        // doubles, and modeled bytes all agree.
        std::size_t expect_offset = 0;
        for (const PlanEntry& entry : msg.entries) {
            EXPECT_EQ(entry.offset, expect_offset);
            EXPECT_GT(entry.count, 0u);
            expect_offset += entry.count;
        }
        EXPECT_EQ(msg.doubles, expect_offset);
        EXPECT_EQ(msg.bytes,
                  static_cast<double>(msg.doubles) * sizeof(double));
    }
    // Uniform mesh: no fine-coarse faces, no flux messages anywhere.
    EXPECT_TRUE(fx.plan.messages(PlanPhase::Flux).empty());

    // send/recv indices partition the message list by endpoint.
    EXPECT_EQ(fx.plan.sendIds(PlanPhase::Bounds, 0).size(), 1u);
    EXPECT_EQ(fx.plan.recvIds(PlanPhase::Bounds, 0).size(), 1u);
    EXPECT_EQ(fx.plan.sendIds(PlanPhase::Bounds, 1).size(), 2u);
    EXPECT_EQ(fx.plan.recvIds(PlanPhase::Bounds, 2).size(), 2u);
}

// --- Sub-pack tables ----------------------------------------------------

TEST(BoundaryPlanSubPacks, SerialSpaceHasOneSubPack)
{
    PlanFixture fx(shardMeshConfig(1, 1, false), 1);
    fx.plan.ensureBuilt();
    ASSERT_EQ(fx.plan.subPacks().size(), 1u);
    EXPECT_EQ(fx.plan.subPacks()[0].blocks, fx.mesh.ownedBlocks());
}

TEST(BoundaryPlanSubPacks, RangesAndWorkListsCoverEveryEntryOnce)
{
    // A 4-thread space on a refined (two-level) mesh: fine-coarse
    // faces put entries into both phases.
    auto package = makePackage("advection");
    VariableRegistry registry = package->buildRegistry();
    KernelProfiler profiler;
    MemoryTracker tracker;
    ExecContext ctx(ExecMode::Execute, &profiler, &tracker,
                    makeExecutionSpace(4));
    Mesh mesh(shardMeshConfig(1, 4, false, /*fused=*/true), registry, ctx);
    RankWorld world(1);
    SphericalWaveTagger tagger(shardWaveParams());
    EvolutionDriver driver(mesh, *package, world, tagger,
                           shardDriverConfig());
    driver.initialize();
    const BoundaryPlan& plan = driver.exchange().plan();
    ASSERT_TRUE(plan.current());
    ASSERT_FALSE(plan.messages(PlanPhase::Flux).empty());

    const auto& owned = mesh.ownedBlocks();
    const auto& packs = plan.subPacks();
    EXPECT_EQ(packs.size(),
              std::min<std::size_t>(
                  BoundaryPlan::kSubPacksPerThread * 4, owned.size()));
    // Contiguous, non-empty, in Z order, covering the owned blocks.
    std::vector<MeshBlock*> concat;
    for (std::size_t p = 0; p < packs.size(); ++p) {
        EXPECT_FALSE(packs[p].blocks.empty()) << "sub-pack " << p;
        for (MeshBlock* block : packs[p].blocks) {
            concat.push_back(block);
            EXPECT_EQ(plan.subPackOf(block->gid()), static_cast<int>(p));
        }
    }
    EXPECT_EQ(concat, owned);

    for (PlanPhase phase : {PlanPhase::Bounds, PlanPhase::Flux}) {
        const int ph = static_cast<int>(phase);
        const auto& msgs = plan.messages(phase);
        const auto& send = plan.localSendIds(phase);
        const auto& recv = plan.localRecvIds(phase);
        auto endpoint = [&](int channel, bool sender) {
            if (phase == PlanPhase::Bounds) {
                const BoundsChannel& ch =
                    driver.bufferCache().bounds()[channel];
                return (sender ? ch.sender : ch.receiver)->gid();
            }
            const FluxChannel& ch = driver.bufferCache().flux()[channel];
            return (sender ? ch.sender : ch.receiver)->gid();
        };
        // (slot, entry) -> times seen; every local entry exactly once
        // per side, filed under the sub-pack of its sender / receiver.
        std::map<std::pair<int, int>, int> sent, received;
        std::vector<std::vector<int>> writers(send.size());
        for (std::size_t p = 0; p < packs.size(); ++p) {
            for (const PlanRow& row : packs[p].sendRows[ph]) {
                ++sent[{row.slot, row.entry}];
                const PlanEntry& e =
                    msgs[static_cast<std::size_t>(send[row.slot])]
                        .entries[static_cast<std::size_t>(row.entry)];
                EXPECT_EQ(plan.subPackOf(endpoint(e.channel, true)),
                          static_cast<int>(p));
            }
            for (int slot : packs[p].sendSlots[ph])
                writers[static_cast<std::size_t>(slot)].push_back(
                    static_cast<int>(p));
            for (const PlanRow& row : packs[p].recvRows[ph]) {
                ++received[{row.slot, row.entry}];
                const PlanEntry& e =
                    msgs[static_cast<std::size_t>(recv[row.slot])]
                        .entries[static_cast<std::size_t>(row.entry)];
                EXPECT_EQ(plan.subPackOf(endpoint(e.channel, false)),
                          static_cast<int>(p));
            }
        }
        std::size_t send_entries = 0, recv_entries = 0;
        for (int id : send)
            send_entries += msgs[static_cast<std::size_t>(id)].entries.size();
        for (int id : recv)
            recv_entries += msgs[static_cast<std::size_t>(id)].entries.size();
        EXPECT_EQ(sent.size(), send_entries) << planPhaseName(phase);
        EXPECT_EQ(received.size(), recv_entries) << planPhaseName(phase);
        for (const auto& [key, times] : sent)
            EXPECT_EQ(times, 1);
        for (const auto& [key, times] : received)
            EXPECT_EQ(times, 1);
        EXPECT_EQ(writers, plan.slotWriters(phase)) << planPhaseName(phase);
    }
    // Bounds traffic exists on every sub-pack's blocks, so every
    // sub-pack has send work — the phase really is spread out.
    for (const PlanSubPack& pack : packs)
        EXPECT_FALSE(pack.sendRows[0].empty());
}

// --- Payload pool -------------------------------------------------------

TEST(FusedPayloadPool, WarmCyclesWithoutRemeshAllocateNothing)
{
    // 1 rank x 4 threads (sub-packs on). The first cycle after a cache
    // rebuild re-fills the pool; every other cycle recycles.
    auto package = makePackage("advection");
    VariableRegistry registry = package->buildRegistry();
    KernelProfiler profiler;
    MemoryTracker tracker;
    ExecContext ctx(ExecMode::Execute, &profiler, &tracker,
                    makeExecutionSpace(4));
    Mesh mesh(shardMeshConfig(1, 4, false, /*fused=*/true), registry, ctx);
    RankWorld world(1);
    SphericalWaveTagger tagger(shardWaveParams());
    DriverConfig config = shardDriverConfig();
    config.ncycles = 16;
    EvolutionDriver driver(mesh, *package, world, tagger, config);
    driver.initialize();
    const GhostExchange& exchange = driver.exchange();

    bool rebuilt_last = true; // cycle 0 warms the flux buffer up
    int steady = 0, remeshed = 0;
    for (int c = 0; c < config.ncycles; ++c) {
        const std::uint64_t rebuilds = driver.bufferCache().rebuildCount();
        const std::uint64_t allocs = exchange.freshPayloadAllocs();
        driver.doCycle();
        if (!rebuilt_last) {
            EXPECT_EQ(exchange.freshPayloadAllocs(), allocs)
                << "fresh payloads in warm cycle " << c;
            ++steady;
        }
        rebuilt_last = driver.bufferCache().rebuildCount() != rebuilds;
        remeshed += rebuilt_last;
        // One coalesced (self) message per phase on a classic mesh.
        EXPECT_LE(exchange.pooledPayloads(), 2u);
    }
    EXPECT_GT(steady, 0) << "workload must have warm cycles";
    EXPECT_GT(remeshed, 0) << "workload must remesh mid-run";
    EXPECT_GT(exchange.freshPayloadAllocs(), 0u);
}

TEST(FusedPayloadPool, TeamPoolsDoNotGrowAcrossCycles)
{
    // 2 ranks x 2 threads on a static two-level mesh (initial
    // refinement only, no load balance): payloads travel between the
    // ranks' pools. Where one rank sends a peer more messages than it
    // gets back (flux corrections flow fine -> coarse only) it keeps
    // allocating and the peer drops the surplus, but no pool ever
    // holds more than its outbound messages need, and a run three
    // times as long ends with the same pools.
    auto package = makePackage("advection");
    VariableRegistry registry = package->buildRegistry();
    auto run = [&](int cycles) {
        DriverConfig config = shardDriverConfig();
        config.ncycles = cycles;
        config.refineEvery = 0;
        config.lbEvery = 0;
        auto team = std::make_unique<RankTeam>(
            shardMeshConfig(2, 2, false, /*fused=*/true), registry,
            *package, config, [](int) {
                return std::make_unique<SphericalWaveTagger>(
                    shardWaveParams());
            });
        team->run();
        return team;
    };
    auto short_run = run(3);
    auto long_run = run(9);
    for (int r = 0; r < 2; ++r) {
        GhostExchange& exchange = long_run->driver(r).exchange();
        const BoundaryPlan& plan = exchange.plan();
        ASSERT_TRUE(plan.current());
        ASSERT_FALSE(plan.messages(PlanPhase::Flux).empty());
        const std::size_t cap =
            plan.localSendIds(PlanPhase::Bounds).size() +
            plan.localSendIds(PlanPhase::Flux).size();
        EXPECT_LE(exchange.pooledPayloads(), cap) << "rank " << r;
        EXPECT_EQ(exchange.pooledPayloads(),
                  short_run->driver(r).exchange().pooledPayloads())
            << "rank " << r << " pool grew past warm-up";
    }
}

// --- Fused vs per-face bitwise equivalence ----------------------------

/** Profiler tables must agree exactly (launches, items, flops, bytes,
 *  per-rank items), whatever the thread and sub-pack count. */
void
expectSameProfile(const KernelProfiler& a, const KernelProfiler& b,
                  const std::string& what)
{
    const auto& ka = a.kernels();
    const auto& kb = b.kernels();
    ASSERT_EQ(ka.size(), kb.size()) << what;
    for (const auto& [key, stats] : ka) {
        const auto it = kb.find(key);
        ASSERT_NE(it, kb.end()) << what << ": " << key.first << "/"
                                << key.second;
        const std::string where =
            what + ": " + key.first + "/" + key.second;
        EXPECT_EQ(stats.launches, it->second.launches) << where;
        EXPECT_EQ(stats.items, it->second.items) << where;
        EXPECT_EQ(stats.flops, it->second.flops) << where;
        EXPECT_EQ(stats.bytes, it->second.bytes) << where;
        EXPECT_EQ(stats.itemsByRank, it->second.itemsByRank) << where;
    }
    const auto& sa = a.serial();
    const auto& sb = b.serial();
    ASSERT_EQ(sa.size(), sb.size()) << what;
    for (const auto& [key, stats] : sa) {
        const auto it = sb.find(key);
        ASSERT_NE(it, sb.end()) << what << ": " << key.first << "/"
                                << key.second;
        EXPECT_EQ(stats.items, it->second.items)
            << what << ": " << key.first << "/" << key.second;
        EXPECT_EQ(stats.itemsByRank, it->second.itemsByRank)
            << what << ": " << key.first << "/" << key.second;
    }
}

class FusedBoundaryEquivalence
    : public ::testing::TestWithParam<const char*>
{
};

TEST_P(FusedBoundaryEquivalence, FusedMatchesPerFaceBitwise)
{
    const std::string package = GetParam();
    // The per-face baseline is per thread count (mass partials are
    // chunk-ordered sums, deterministic for a fixed thread count);
    // the fused path — classic and rank-sharded — must add no
    // difference on top of it.
    ShardRun fused_serial;
    for (int threads : {1, 2, 4}) {
        const ShardRun per_face =
            runClassic(package, threads, 1, false, /*fused=*/false);
        EXPECT_GT(per_face.remeshEvents, 0)
            << "workload must remesh mid-run";

        const ShardRun fused =
            runClassic(package, threads, 1, false, /*fused=*/true);
        expectBitwiseEqual(per_face, fused,
                           package + " fused classic @" +
                               std::to_string(threads) + " threads");
        if (threads == 1)
            fused_serial = fused;
        else
            expectSameProfile(fused_serial.profiler, fused.profiler,
                              package + " fused profile @1 vs " +
                                  std::to_string(threads) + " threads");

        for (int ranks : {2, 4}) {
            const ShardRun team = runTeam(package, ranks, threads, 1,
                                          false, /*fused=*/true);
            // The runs must exercise the real machinery: remesh-driven
            // plan rebuilds and true storage migration.
            EXPECT_GT(team.remeshEvents, 0);
            EXPECT_GT(team.movedBlocks, 0);
            expectBitwiseEqual(per_face, team,
                               package + " fused @" +
                                   std::to_string(ranks) + " ranks x " +
                                   std::to_string(threads) +
                                   " threads vs per-face classic");
        }
    }
}

TEST_P(FusedBoundaryEquivalence, PackedInteriorFusedMatchesPerFace)
{
    // pack_interior: stepPacked runs the same sub-pack comm tasks as
    // bounds-only and flux-only graphs around the pack launches (4
    // threads, so there are several sub-packs).
    const std::string package = GetParam();
    const ShardRun per_face =
        runClassic(package, 4, 1, true, /*fused=*/false);
    expectBitwiseEqual(per_face,
                       runClassic(package, 4, 1, true, /*fused=*/true),
                       package + " packed fused classic @4 threads");
    expectBitwiseEqual(per_face,
                       runTeam(package, 2, 4, 1, true, /*fused=*/true),
                       package + " packed fused @2 ranks x 4 threads");
}

INSTANTIATE_TEST_SUITE_P(Packages, FusedBoundaryEquivalence,
                         ::testing::Values("burgers", "advection",
                                           "reaction"));

} // namespace
} // namespace vibe
