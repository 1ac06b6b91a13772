/**
 * @file test_comm.cpp
 * Tests for the simulated MPI world, the boundary-buffer region
 * calculus, ghost-cell exchange correctness (same-level and across
 * refinement levels), and flux-correction conservation. The ghost and
 * flux checks compare against values computed here from the field
 * (exact copies, restricted averages, linear prolongation), so they are
 * the independent reference for the BoundaryPlan exchange. The
 * per-cell prolongation, restrict-on-send and flux-restriction
 * formulas the row-wise pack/unpack replaced are kept here as bitwise
 * references.
 */
#include "fixture_knobs.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "comm/boundary_buffers.hpp"
#include "comm/ghost_exchange.hpp"
#include "comm/rank_world.hpp"
#include "exec/execution_space.hpp"
#include "exec/kernel_profiler.hpp"
#include "pkg/burgers_package.hpp"
#include "exec/memory_tracker.hpp"
#include "mesh/mesh.hpp"
#include "util/logging.hpp"
#include "util/random.hpp"

namespace vibe {
namespace {

// --- RankWorld ---

TEST(RankWorld, SendProbeReceive)
{
    RankWorld world(2);
    ChannelId ch{{0, 0, 0, 0}, {0, 1, 0, 0}, 1, 0, 0,
                 ChannelKind::Bounds};
    EXPECT_FALSE(world.iprobe(ch));
    world.isend(ch, 0, 1, {1.0, 2.0}, 16.0);
    EXPECT_TRUE(world.iprobe(ch));
    auto msg = world.receive(ch);
    ASSERT_TRUE(msg.has_value());
    EXPECT_EQ(msg->payload.size(), 2u);
    EXPECT_EQ(world.pendingCount(), 0u);
    EXPECT_FALSE(world.receive(ch).has_value());
}

TEST(RankWorld, LocalVsRemoteAccounting)
{
    RankWorld world(4);
    ChannelId a{{0, 0, 0, 0}, {0, 1, 0, 0}, 1, 0, 0,
                ChannelKind::Bounds};
    ChannelId b{{0, 1, 0, 0}, {0, 0, 0, 0}, -1, 0, 0,
                ChannelKind::Bounds};
    world.isend(a, 1, 1, {}, 100.0);
    world.isend(b, 1, 3, {}, 50.0);
    const Traffic& t = world.traffic();
    EXPECT_EQ(t.localMessages, 1u);
    EXPECT_EQ(t.remoteMessages, 1u);
    EXPECT_DOUBLE_EQ(t.localBytes, 100.0);
    EXPECT_DOUBLE_EQ(t.remoteBytes, 50.0);
    EXPECT_EQ(t.totalMessages(), 2u);
}

TEST(RankWorld, ChannelsAreIndependentQueues)
{
    RankWorld world(1);
    ChannelId a{{0, 0, 0, 0}, {0, 1, 0, 0}, 1, 0, 0,
                ChannelKind::Bounds};
    ChannelId flux = a;
    flux.kind = ChannelKind::Flux;
    world.isend(a, 0, 0, {1.0}, 8.0);
    world.isend(flux, 0, 0, {2.0}, 8.0);
    EXPECT_DOUBLE_EQ(world.receive(flux)->payload[0], 2.0);
    EXPECT_DOUBLE_EQ(world.receive(a)->payload[0], 1.0);
}

TEST(RankWorld, CollectivesCount)
{
    RankWorld world(8);
    world.allGather(64.0);
    world.allReduce(8.0);
    EXPECT_EQ(world.traffic().allGathers, 1u);
    EXPECT_EQ(world.traffic().allReduces, 1u);
    EXPECT_DOUBLE_EQ(world.traffic().collectiveBytes, 64.0 * 8 + 8.0);
}

TEST(RankWorld, RankRangeChecked)
{
    RankWorld world(2);
    ChannelId ch{{0, 0, 0, 0}, {0, 1, 0, 0}, 1, 0, 0,
                 ChannelKind::Bounds};
    EXPECT_THROW(world.isend(ch, 0, 5, {}, 0.0), PanicError);
}

/** The panic message of a receiveWait on an empty `ch`, or "". */
std::string
receiveWaitPanic(RankWorld& world)
{
    ChannelId ch{{0, 0, 0, 0}, {0, 1, 0, 0}, 1, 0, 0,
                 ChannelKind::Block};
    try {
        world.receiveWait(ch, "test receive",
                          [] { return std::string("block 0/1"); });
    } catch (const PanicError& err) {
        return err.what();
    }
    return {};
}

TEST(RankWorld, ReceiveWaitEchoesThePeerFailure)
{
    // A blocked receive on a failed world reports the failing rank's
    // own message, not a generic abort.
    RankWorld world(2, /*concurrent=*/true);
    world.markFailed("rank 1: boom at cycle 3");
    const std::string what = receiveWaitPanic(world);
    EXPECT_NE(what.find("test receive aborted"), std::string::npos)
        << what;
    EXPECT_NE(what.find("boom"), std::string::npos) << what;
}

TEST(RankWorld, ModeledReceiveWaitFailsAtOnceNamingTheMessage)
{
    // No peer runs beside a modeled world, so nothing can still send.
    RankWorld world(2);
    const std::string what = receiveWaitPanic(world);
    EXPECT_NE(what.find("test receive lost block 0/1"), std::string::npos)
        << what;
}

// --- Fixture building a mesh + exchange machinery ---

struct CommFixture
{
    KernelProfiler profiler;
    MemoryTracker tracker;
    VariableRegistry registry = makeBurgersRegistry(8);
    std::unique_ptr<ExecContext> ctx;
    std::unique_ptr<Mesh> mesh;
    std::unique_ptr<RankWorld> world;
    std::unique_ptr<BoundaryBufferCache> cache;
    std::unique_ptr<GhostExchange> exchange;

    CommFixture(int mesh_nx, int block_nx, int levels, ExecMode mode,
                int nranks = 1, bool randomize = false,
                int num_threads = fixtureNumThreads(), int ndim = 3,
                bool periodic = true)
    {
        ctx = std::make_unique<ExecContext>(
            mode, &profiler, &tracker,
            makeExecutionSpace(num_threads));
        MeshConfig config;
        config.ndim = ndim;
        config.nx1 = config.nx2 = config.nx3 = mesh_nx;
        config.blockNx1 = config.blockNx2 = config.blockNx3 = block_nx;
        config.amrLevels = levels;
        config.periodic = periodic;
        mesh = std::make_unique<Mesh>(config, registry, *ctx);
        world = std::make_unique<RankWorld>(nranks);
        cache = std::make_unique<BoundaryBufferCache>(*mesh, randomize);
        exchange =
            std::make_unique<GhostExchange>(*mesh, *world, *cache);
    }

    void refineAt(const LogicalLocation& loc)
    {
        RefinementFlagMap flags;
        flags[loc] = RefinementFlag::Refine;
        mesh->applyTreeUpdate(mesh->updateTree(flags), 0);
        cache->rebuild();
    }
};

// --- Region calculus ---

TEST(BoundaryBuffers, UniformChannelCountsAndSizes)
{
    CommFixture f(32, 8, 1, ExecMode::Count);
    // 64 blocks x 26 directions.
    EXPECT_EQ(f.cache->bounds().size(), 64u * 26u);
    EXPECT_TRUE(f.cache->flux().empty());

    std::int64_t faces = 0, edges = 0, corners = 0;
    for (const auto& ch : f.cache->bounds()) {
        const int dims =
            std::abs(ch.o1) + std::abs(ch.o2) + std::abs(ch.o3);
        const std::int64_t cells = ch.wireCells();
        if (dims == 1) {
            EXPECT_EQ(cells, 4 * 8 * 8); // ng x nx x nx
            ++faces;
        } else if (dims == 2) {
            EXPECT_EQ(cells, 4 * 4 * 8);
            ++edges;
        } else {
            EXPECT_EQ(cells, 4 * 4 * 4);
            ++corners;
        }
    }
    EXPECT_EQ(faces, 64 * 6);
    EXPECT_EQ(edges, 64 * 12);
    EXPECT_EQ(corners, 64 * 8);
}

TEST(BoundaryBuffers, SameLevelRegionsCongruent)
{
    CommFixture f(32, 8, 1, ExecMode::Count);
    for (const auto& ch : f.cache->bounds()) {
        ASSERT_EQ(ch.levelDiff, 0);
        EXPECT_EQ(ch.send.cells(), ch.recv.cells());
        EXPECT_EQ(ch.send.i.count(), ch.recv.i.count());
        EXPECT_EQ(ch.send.j.count(), ch.recv.j.count());
        EXPECT_EQ(ch.send.k.count(), ch.recv.k.count());
    }
}

TEST(BoundaryBuffers, FineCoarseChannelsAppearAfterRefinement)
{
    CommFixture f(32, 8, 2, ExecMode::Count);
    f.refineAt({0, 1, 1, 1});
    int fine_to_coarse = 0, coarse_to_fine = 0;
    for (const auto& ch : f.cache->bounds()) {
        if (ch.levelDiff == 1)
            ++fine_to_coarse;
        else if (ch.levelDiff == -1)
            ++coarse_to_fine;
    }
    // Coarse receivers see touching children once per direction:
    // 6 faces x 4 + 12 edges x 2 + 8 corners x 1 = 56. Each of the 8
    // fine children sees coarse leaves through its 26 - 7 sibling
    // directions = 19, i.e. 152 — the counts are inherently
    // asymmetric, as in Parthenon's per-direction buffer geometry.
    EXPECT_EQ(fine_to_coarse, 56);
    EXPECT_EQ(coarse_to_fine, 152);
    // Flux channels: only faces, one per coarse-side face neighbor
    // entry = 4 children per face x 6 faces.
    EXPECT_EQ(f.cache->flux().size(), 24u);
}

TEST(BoundaryBuffers, RestrictedFaceWireSize)
{
    CommFixture f(32, 8, 2, ExecMode::Count);
    f.refineAt({0, 1, 1, 1});
    for (const auto& ch : f.cache->bounds()) {
        if (ch.levelDiff != 1)
            continue;
        const int dims =
            std::abs(ch.o1) + std::abs(ch.o2) + std::abs(ch.o3);
        if (dims == 1) {
            // Coarse ghost strip: ng deep x (nx/2)^2 transverse.
            EXPECT_EQ(ch.wireCells(), 4 * 4 * 4);
        }
    }
}

TEST(BoundaryBuffers, CoarseSlabIncludesPad)
{
    CommFixture f(32, 8, 2, ExecMode::Count);
    f.refineAt({0, 1, 1, 1});
    for (const auto& ch : f.cache->bounds()) {
        if (ch.levelDiff != -1)
            continue;
        const int dims =
            std::abs(ch.o1) + std::abs(ch.o2) + std::abs(ch.o3);
        if (dims == 1) {
            // Face: direction dim ng/2 coarse + 1 pad = 3; transverse
            // nx/2 + 1 pad = 5 (the fine child's half always abuts one
            // edge of the coarse sender, clamping the other pad).
            EXPECT_EQ(ch.send.cells(), 3 * 5 * 5) << ch.id.o1;
        }
    }
}

TEST(BoundaryBuffers, RandomizationPreservesChannelSet)
{
    CommFixture sorted(16, 8, 1, ExecMode::Count, 1, false);
    CommFixture shuffled(16, 8, 1, ExecMode::Count, 1, true);
    EXPECT_EQ(sorted.cache->bounds().size(),
              shuffled.cache->bounds().size());
    EXPECT_EQ(sorted.cache->totalWireCells(),
              shuffled.cache->totalWireCells());
}

TEST(BoundaryBuffers, RemoteAccountingFollowsRanks)
{
    CommFixture f(32, 8, 1, ExecMode::Count, 2);
    // All blocks on rank 0: nothing remote.
    EXPECT_EQ(f.cache->remoteChannelCount(), 0u);
    EXPECT_DOUBLE_EQ(f.cache->remoteWireBytes(), 0.0);
    // Move half the blocks to rank 1.
    for (const auto& block : f.mesh->blocks())
        if (block->gid() >= 32)
            block->setRank(1);
    EXPECT_GT(f.cache->remoteChannelCount(), 0u);
    EXPECT_GT(f.cache->remoteWireBytes(), 0.0);
}

// --- Ghost exchange numerical correctness ---

/** Smooth periodic test field. */
double
testField(int n, double x, double y, double z)
{
    constexpr double two_pi = 6.283185307179586;
    return std::sin(two_pi * x) * std::cos(two_pi * y) +
           0.5 * std::sin(two_pi * z) + 0.1 * n;
}

void
fillInterior(Mesh& mesh)
{
    const BlockShape s = mesh.config().blockShape();
    const int ncomp = mesh.registry().ncompConserved();
    for (const auto& block : mesh.blocks()) {
        const BlockGeometry& g = block->geom();
        for (int n = 0; n < ncomp; ++n)
            for (int k = s.ks(); k <= s.ke(); ++k)
                for (int j = s.js(); j <= s.je(); ++j)
                    for (int i = s.is(); i <= s.ie(); ++i)
                        block->cons()(n, k, j, i) = testField(
                            n, g.x1c(i - s.is()), g.x2c(j - s.js()),
                            g.x3c(k - s.ks()));
    }
}

TEST(GhostExchange, SameLevelGhostsExact)
{
    CommFixture f(16, 8, 1, ExecMode::Execute);
    fillInterior(*f.mesh);
    f.exchange->exchangeBounds();

    const BlockShape s = f.mesh->config().blockShape();
    for (const auto& block : f.mesh->blocks()) {
        const BlockGeometry& g = block->geom();
        // Every ghost cell must hold the periodic field value at its
        // physical position.
        for (int n = 0; n < 3; ++n)
            for (int k = 0; k < s.nk(); ++k)
                for (int j = 0; j < s.nj(); ++j)
                    for (int i = 0; i < s.ni(); ++i) {
                        const bool interior =
                            i >= s.is() && i <= s.ie() && j >= s.js() &&
                            j <= s.je() && k >= s.ks() && k <= s.ke();
                        if (interior)
                            continue;
                        const double expect = testField(
                            n, g.x1c(i - s.is()), g.x2c(j - s.js()),
                            g.x3c(k - s.ks()));
                        ASSERT_NEAR(block->cons()(n, k, j, i), expect,
                                    1e-12)
                            << block->loc().str() << " ghost " << i
                            << "," << j << "," << k;
                    }
    }
}

TEST(GhostExchange, ConstantFieldExactAcrossLevels)
{
    CommFixture f(16, 8, 2, ExecMode::Execute);
    f.refineAt({0, 0, 0, 0});
    for (const auto& block : f.mesh->blocks())
        block->cons().fill(7.25);
    f.exchange->exchangeBounds();
    const BlockShape s = f.mesh->config().blockShape();
    for (const auto& block : f.mesh->blocks())
        for (int k = 0; k < s.nk(); ++k)
            for (int j = 0; j < s.nj(); ++j)
                for (int i = 0; i < s.ni(); ++i)
                    ASSERT_NEAR(block->cons()(0, k, j, i), 7.25, 1e-13)
                        << block->loc().str();
}

TEST(GhostExchange, FineToCoarseGhostsAreRestrictedAverages)
{
    CommFixture f(16, 8, 2, ExecMode::Execute);
    f.refineAt({0, 0, 0, 0});
    fillInterior(*f.mesh);
    f.exchange->exchangeBounds();

    // Coarse block (0;1,0,0) receives restricted data from fine
    // children of (0;0,0,0) across its -x face. The coarse ghost value
    // must equal the mean of the 8 covering fine cells.
    MeshBlock* coarse = f.mesh->find({0, 1, 0, 0});
    ASSERT_NE(coarse, nullptr);
    const BlockShape s = f.mesh->config().blockShape();
    // Fine neighbor touching the low-x face of `coarse` at y,z in the
    // first half: child (1;1,0,0) of (0;0,0,0).
    MeshBlock* fine = f.mesh->find({1, 1, 0, 0});
    ASSERT_NE(fine, nullptr);

    // Coarse ghost cell (is-1, js, ks) covers fine cells
    // (ie-1..ie, js..js+1, ks..ks+1).
    double sum = 0;
    for (int dk = 0; dk < 2; ++dk)
        for (int dj = 0; dj < 2; ++dj)
            for (int di = 0; di < 2; ++di)
                sum += fine->cons()(0, s.ks() + dk, s.js() + dj,
                                    s.ie() - 1 + di);
    EXPECT_NEAR(coarse->cons()(0, s.ks(), s.js(), s.is() - 1), sum / 8.0,
                1e-12);
}

TEST(GhostExchange, CoarseToFineGhostsLinearInBulk)
{
    CommFixture f(16, 8, 2, ExecMode::Execute);
    f.refineAt({0, 0, 0, 0});
    // Linear field: limited prolongation reproduces it exactly where
    // the slab provides full slopes (inner ghost layers).
    const BlockShape s = f.mesh->config().blockShape();
    for (const auto& block : f.mesh->blocks()) {
        const BlockGeometry& g = block->geom();
        for (int k = 0; k < s.nk(); ++k)
            for (int j = 0; j < s.nj(); ++j)
                for (int i = 0; i < s.ni(); ++i)
                    block->cons()(0, k, j, i) = 2.0 * g.x1c(i - s.is()) +
                                                3.0 * g.x2c(j - s.js()) -
                                                g.x3c(k - s.ks());
    }
    f.exchange->exchangeBounds();

    // Fine block (1;0,0,0) receives coarse data across its +x face
    // from coarse neighbor... its +x neighbor at fine level is sibling
    // (1;1,0,0); instead check the fine block at the refined corner
    // whose -x ghosts come from the coarse wrap or +x from coarse
    // (0;1,0,0): fine child (1;1,1,1) has +x coarse neighbor (0;1,0,0).
    MeshBlock* fine = f.mesh->find({1, 1, 1, 1});
    ASSERT_NE(fine, nullptr);
    const BlockGeometry& g = fine->geom();
    // Inner-most ghost layer on +x face (full slopes available).
    const int i = s.ie() + 1;
    for (int k = s.ks() + 2; k <= s.ke() - 2; ++k)
        for (int j = s.js() + 2; j <= s.je() - 2; ++j) {
            const double expect = 2.0 * g.x1c(i - s.is()) +
                                  3.0 * g.x2c(j - s.js()) -
                                  g.x3c(k - s.ks());
            ASSERT_NEAR(fine->cons()(0, k, j, i), expect, 1e-11)
                << "ghost " << i << "," << j << "," << k;
        }
}

TEST(GhostExchange, CountingModeMatchesNumericWireCells)
{
    CommFixture numeric(16, 8, 2, ExecMode::Execute);
    CommFixture counting(16, 8, 2, ExecMode::Count);
    numeric.refineAt({0, 0, 0, 0});
    counting.refineAt({0, 0, 0, 0});
    fillInterior(*numeric.mesh);
    numeric.exchange->exchangeBounds();
    counting.exchange->exchangeBounds();
    EXPECT_EQ(numeric.exchange->lastWireCells(),
              counting.exchange->lastWireCells());
    EXPECT_EQ(numeric.cache->totalWireCells(),
              counting.cache->totalWireCells());
}

TEST(GhostExchange, NumericSmallBlockAmrIsRejected)
{
    // MeshBlockSize 4 with ng = 4 cannot fill coarse ghosts from one
    // fine neighbor; numeric mode must refuse (counting mode allows).
    KernelProfiler profiler;
    MemoryTracker tracker;
    auto registry = makeBurgersRegistry(2);
    ExecContext ctx(ExecMode::Execute, &profiler, &tracker);
    MeshConfig config;
    config.nx1 = config.nx2 = config.nx3 = 16;
    config.blockNx1 = config.blockNx2 = config.blockNx3 = 4;
    config.amrLevels = 2;
    Mesh mesh(config, registry, ctx);
    RankWorld world(1);
    BoundaryBufferCache cache(mesh, false);
    EXPECT_THROW(GhostExchange(mesh, world, cache), FatalError);
}

TEST(FluxCorrection, CoarseFaceFluxBecomesFineAverage)
{
    CommFixture f(16, 8, 2, ExecMode::Execute);
    f.refineAt({0, 0, 0, 0});
    const BlockShape s = f.mesh->config().blockShape();
    const int ncomp = f.registry.ncompConserved();

    // Give every block a distinctive flux field.
    for (const auto& block : f.mesh->blocks())
        for (int d = 0; d < 3; ++d)
            block->flux(d).fill(block->loc().level == 1 ? 2.0 : 0.5);

    f.exchange->exchangeFluxCorrections();

    // Coarse (0;1,0,0) shares its -x face with fine children: its
    // x-flux at i=is on that face must now be the fine average (2.0).
    MeshBlock* coarse = f.mesh->find({0, 1, 0, 0});
    ASSERT_NE(coarse, nullptr);
    for (int n = 0; n < ncomp; ++n) {
        EXPECT_NEAR(coarse->flux(0)(n, s.ks(), s.js(), s.is()), 2.0,
                    1e-13);
        // Interior faces unchanged.
        EXPECT_NEAR(coarse->flux(0)(n, s.ks(), s.js(), s.is() + 1), 0.5,
                    1e-13);
    }
}

/**
 * Leave one undelivered coalesced self message of `phase` in the
 * mailbox, as a cycle that threw between send and receive does. Its
 * payload is garbage, so a stale delivery cannot pass for a fresh one.
 */
void
sendStaleMessage(const GhostExchange& exchange, RankWorld& world,
                 PlanPhase phase)
{
    const PlanMessage* m = exchange.plan().messageFor(phase, 0, 0);
    ASSERT_NE(m, nullptr);
    world.isend(m->id, 0, 0, std::vector<double>(m->doubles, -1e30),
                m->bytes);
}

TEST(GhostExchange, AbandonedCycleDoesNotLeavePhantomMessages)
{
    // Regression: per-cycle state (pending receives, wire counter,
    // undelivered mailbox entries) is reset at the top of
    // StartReceiveBoundBufs. Leave an undelivered coalesced message in
    // the mailbox — exactly the state a cycle that threw after its
    // sends leaves behind — and the next full exchange must neither
    // wait on phantom messages nor deliver the stale one.
    CommFixture f(16, 8, 1, ExecMode::Execute);
    fillInterior(*f.mesh);
    f.exchange->exchangeBounds();
    sendStaleMessage(*f.exchange, *f.world, PlanPhase::Bounds);
    ASSERT_GT(f.world->pendingCount(), 0u); // the abandoned delivery

    // Perturb the field so stale buffers are distinguishable from
    // freshly packed ones.
    for (const auto& block : f.mesh->blocks())
        block->cons()(0, 6, 6, 6) += 1.0;

    f.exchange->exchangeBounds();
    EXPECT_EQ(f.world->pendingCount(), 0u);
    EXPECT_EQ(f.exchange->lastWireCells(), f.cache->totalWireCells());

    // Ghosts must reflect the *current* field: interior index (6,6,6)
    // of each block lands in some neighbor's ghost region, and a stale
    // buffer would carry the unperturbed value there.
    const BlockShape s = f.mesh->config().blockShape();
    bool checked = false;
    for (const auto& ch : f.cache->bounds()) {
        if (ch.o1 != 1 || ch.o2 != 0 || ch.o3 != 0)
            continue;
        // Same-level +x face channel: sender cells [is, is+ng-1] map
        // onto receiver ghosts [ie+1, ie+ng]; sender (6,6,6) is inside
        // the send box only for ng >= 3, so check a cell that is:
        // sender interior (is+2, 6, 6) -> receiver ghost (ie+3, 6, 6).
        const double sent = ch.sender->cons()(0, 6, 6, s.is() + 2);
        const double got = ch.receiver->cons()(0, 6, 6, s.ie() + 3);
        ASSERT_NEAR(got, sent, 0.0) << ch.receiver->loc().str();
        checked = true;
    }
    EXPECT_TRUE(checked);
}

TEST(FluxCorrection, ConservationHoldsOnSerialAndThreadPoolSpaces)
{
    // The coarse face flux must equal the restricted fine-flux average
    // across a 2-level mesh after exchangeFluxCorrections(), with real
    // solver fluxes (not synthetic fills), on both execution backends.
    for (int threads : {1, 4}) {
        CommFixture f(16, 8, 2, ExecMode::Execute, 1, false, threads);
        f.refineAt({0, 0, 0, 0});
        fillInterior(*f.mesh);
        f.exchange->exchangeBounds();

        BurgersConfig bc;
        bc.numScalars = 8; // matches the fixture registry
        BurgersPackage package(bc);
        for (const auto& block : f.mesh->blocks())
            package.calculateFluxesBlock(*f.mesh, *block);

        // Regression: an undelivered flux-correction message from an
        // abandoned cycle; the next cycle's reset must also drop stale
        // *flux* messages, not just bounds buffers.
        sendStaleMessage(*f.exchange, *f.world, PlanPhase::Flux);
        ASSERT_GT(f.world->pendingCount(), 0u);
        f.exchange->exchangeBounds();
        ASSERT_EQ(f.world->pendingCount(), 0u);

        f.exchange->exchangeFluxCorrections();
        EXPECT_EQ(f.world->pendingCount(), 0u);

        const BlockShape s = f.mesh->config().blockShape();
        const int ndim = s.ndim;
        const int ncomp = f.registry.ncompConserved();
        const int lo[3] = {s.is(), s.js(), s.ks()};
        const int nfine = 1 << (ndim - 1);
        ASSERT_FALSE(f.cache->flux().empty());
        for (const auto& ch : f.cache->flux()) {
            const RealArray4& fine = ch.sender->flux(ch.dir);
            const RealArray4& coarse = ch.receiver->flux(ch.dir);
            for (int n = 0; n < ncomp; ++n)
                for (int K = ch.recvFaces.k.lo; K <= ch.recvFaces.k.hi;
                     ++K)
                    for (int J = ch.recvFaces.j.lo;
                         J <= ch.recvFaces.j.hi; ++J)
                        for (int I = ch.recvFaces.i.lo;
                             I <= ch.recvFaces.i.hi; ++I) {
                            const int cidx[3] = {I, J, K};
                            int fidx[3] = {0, 0, 0};
                            for (int d = 0; d < 3; ++d) {
                                if (d == ch.dir)
                                    fidx[d] = ch.sendFaceIdx;
                                else if (d < ndim)
                                    fidx[d] = lo[d] +
                                              2 * (cidx[d] - lo[d]) -
                                              ch.base2[d];
                            }
                            double sum = 0.0;
                            for (int dk = 0;
                                 dk <=
                                 (ndim >= 3 && ch.dir != 2 ? 1 : 0);
                                 ++dk)
                                for (int dj = 0;
                                     dj <= (ndim >= 2 && ch.dir != 1
                                                ? 1
                                                : 0);
                                     ++dj)
                                    for (int di = 0;
                                         di <= (ch.dir != 0 ? 1 : 0);
                                         ++di)
                                        sum += fine(n, fidx[2] + dk,
                                                    fidx[1] + dj,
                                                    fidx[0] + di);
                            ASSERT_NEAR(coarse(n, K, J, I), sum / nfine,
                                        1e-13)
                                << threads << " threads, dir " << ch.dir
                                << " face (" << I << "," << J << ","
                                << K << ")";
                        }
        }
    }
}

// --- Bitwise references: the per-cell pack/unpack formulas ---

/** Which minmod branches and slope sources the reference took. */
struct ReferenceHits
{
    int signFlip = 0;      ///< a * b < 0
    int zeroProduct = 0;   ///< a * b == 0
    int firstSmaller = 0;  ///< |a| < |b|
    int secondSmaller = 0; ///< |a| >= |b|
    int receiverSide = 0;  ///< neighbor restricted from the receiver
    int clamped = 0;       ///< neighbor unobtainable: slope 0
    int negativeZero = 0;  ///< prolongated ghost value is -0.0
};

double
referenceMinmod(double a, double b, ReferenceHits& hits)
{
    if (a * b < 0.0) {
        ++hits.signFlip;
        return 0.0;
    }
    if (a * b == 0.0) {
        ++hits.zeroProduct;
        return 0.0;
    }
    if (std::fabs(a) < std::fabs(b)) {
        ++hits.firstSmaller;
        return a;
    }
    ++hits.secondSmaller;
    return b;
}

/**
 * Non-smooth field value: signed zeros and repeated values (zero
 * differences) among noise of both signs, so the limiter sees sign
 * disagreement, zero products and either magnitude smaller. The noise
 * is a product of two uniforms: full mantissas at varied magnitudes,
 * so a reordered sum rounds differently.
 */
double
roughValue(Rng& rng)
{
    const double u = rng.uniform();
    if (u < 0.15)
        return u < 0.075 ? 0.0 : -0.0;
    if (u < 0.35)
        return u < 0.25 ? 1.0 : -0.5;
    return rng.uniform(-1.0, 1.0) * rng.uniform(0.1, 10.0);
}

void
fillRough(Mesh& mesh, std::uint64_t seed)
{
    Rng rng(seed);
    const int ndim = mesh.config().ndim;
    for (const auto& block : mesh.blocks()) {
        RealArray4& cons = block->cons();
        for (std::size_t e = 0; e < cons.size(); ++e)
            cons.data()[e] = roughValue(rng);
        for (int d = 0; d < ndim; ++d) {
            RealArray4& flux = block->flux(d);
            for (std::size_t e = 0; e < flux.size(); ++e)
                flux.data()[e] = roughValue(rng);
        }
    }
}

/** Same-level copy of the send box, in (n, k, j, i) order. */
std::vector<double>
referenceCopy(const BoundsChannel& ch, int ncomp)
{
    std::vector<double> out;
    const RealArray4& cons = ch.sender->cons();
    for (int n = 0; n < ncomp; ++n)
        for (int k = ch.send.k.lo; k <= ch.send.k.hi; ++k)
            for (int j = ch.send.j.lo; j <= ch.send.j.hi; ++j)
                for (int i = ch.send.i.lo; i <= ch.send.i.hi; ++i)
                    out.push_back(cons(n, k, j, i));
    return out;
}

/** Per-coarse-cell restrict on send over the receiver's recv box. */
std::vector<double>
referenceRestrict(const BoundsChannel& ch, const BlockShape& shape,
                  int ncomp)
{
    const int ndim = shape.ndim;
    const RealArray4& cons = ch.sender->cons();
    const int lo[3] = {shape.is(), shape.js(), shape.ks()};
    const double inv = 1.0 / (1 << ndim);
    std::vector<double> out;
    for (int n = 0; n < ncomp; ++n)
        for (int K = ch.recv.k.lo; K <= ch.recv.k.hi; ++K)
            for (int J = ch.recv.j.lo; J <= ch.recv.j.hi; ++J)
                for (int I = ch.recv.i.lo; I <= ch.recv.i.hi; ++I) {
                    const int fi = lo[0] + 2 * (I - lo[0]) - ch.base2[0];
                    const int fj =
                        ndim >= 2 ? lo[1] + 2 * (J - lo[1]) - ch.base2[1]
                                  : 0;
                    const int fk =
                        ndim >= 3 ? lo[2] + 2 * (K - lo[2]) - ch.base2[2]
                                  : 0;
                    double sum = 0.0;
                    for (int dk = 0; dk <= (ndim >= 3 ? 1 : 0); ++dk)
                        for (int dj = 0; dj <= (ndim >= 2 ? 1 : 0); ++dj)
                            for (int di = 0; di <= 1; ++di)
                                sum += cons(n, fk + dk, fj + dj, fi + di);
                    out.push_back(sum * inv);
                }
    return out;
}

/**
 * Per-fine-cell prolongation of the coarse slab over the recv box:
 * every fine cell looks up its centre and up to 2·ndim neighbors,
 * slab first, then restriction from the receiver's interior, else the
 * slope is 0.
 */
std::vector<double>
referenceProlong(const BoundsChannel& ch, const BlockShape& shape,
                 int ncomp, ReferenceHits& hits)
{
    const int ndim = shape.ndim;
    const std::vector<double> slab = referenceCopy(ch, ncomp);
    const RealArray4& cons = ch.receiver->cons();
    const int lo[3] = {shape.is(), shape.js(), shape.ks()};
    const int nx[3] = {shape.nx1, ndim >= 2 ? shape.nx2 : 1,
                       ndim >= 3 ? shape.nx3 : 1};
    const int slab_lo[3] = {ch.send.i.lo, ch.send.j.lo, ch.send.k.lo};
    const int sc[3] = {ch.send.i.count(), ch.send.j.count(),
                       ch.send.k.count()};
    auto coarse_at = [&](int n, const int c_rel[3], double* out,
                         bool count) {
        int s_idx[3];
        bool in_slab = true;
        for (int d = 0; d < 3; ++d) {
            s_idx[d] = c_rel[d] + lo[d] - slab_lo[d];
            if (s_idx[d] < 0 || s_idx[d] >= sc[d])
                in_slab = false;
        }
        if (in_slab) {
            *out = slab[(static_cast<std::size_t>(n) * sc[2] + s_idx[2]) *
                            sc[1] * sc[0] +
                        static_cast<std::size_t>(s_idx[1]) * sc[0] +
                        s_idx[0]];
            return true;
        }
        int f0[3] = {0, 0, 0};
        for (int d = 0; d < ndim; ++d) {
            f0[d] = ch.base[d] + 2 * c_rel[d];
            if (f0[d] < 0 || f0[d] + 1 >= nx[d]) {
                hits.clamped += count;
                return false;
            }
        }
        hits.receiverSide += count;
        double sum = 0.0;
        for (int dk = 0; dk <= (ndim >= 3 ? 1 : 0); ++dk)
            for (int dj = 0; dj <= (ndim >= 2 ? 1 : 0); ++dj)
                for (int di = 0; di <= 1; ++di)
                    sum += cons(n, lo[2] * (ndim >= 3) + f0[2] + dk,
                                lo[1] * (ndim >= 2) + f0[1] + dj,
                                lo[0] + f0[0] + di);
        *out = sum / (1 << ndim);
        return true;
    };

    std::vector<double> out;
    for (int n = 0; n < ncomp; ++n)
        for (int k = ch.recv.k.lo; k <= ch.recv.k.hi; ++k)
            for (int j = ch.recv.j.lo; j <= ch.recv.j.hi; ++j)
                for (int i = ch.recv.i.lo; i <= ch.recv.i.hi; ++i) {
                    const int fidx[3] = {i, j, k};
                    int c_rel[3] = {0, 0, 0};
                    int p[3] = {0, 0, 0};
                    for (int d = 0; d < ndim; ++d) {
                        const int t = fidx[d] - lo[d] - ch.base[d];
                        c_rel[d] = t >> 1;
                        p[d] = t & 1;
                    }
                    double center = 0.0;
                    EXPECT_TRUE(coarse_at(n, c_rel, &center, false));
                    double value = center;
                    for (int d = 0; d < ndim; ++d) {
                        int cm[3] = {c_rel[0], c_rel[1], c_rel[2]};
                        int cp[3] = {c_rel[0], c_rel[1], c_rel[2]};
                        cm[d] -= 1;
                        cp[d] += 1;
                        double vm, vp;
                        double slope = 0.0;
                        if (coarse_at(n, cm, &vm, true) &&
                            coarse_at(n, cp, &vp, true))
                            slope = referenceMinmod(vp - center,
                                                    center - vm, hits);
                        value += (p[d] == 1 ? 0.25 : -0.25) * slope;
                    }
                    hits.negativeZero +=
                        value == 0.0 && std::signbit(value);
                    out.push_back(value);
                }
    return out;
}

/** Per-face flux restriction over the receiver's coarse faces. */
std::vector<double>
referenceFluxRestrict(const FluxChannel& ch, const BlockShape& shape,
                      int ncomp)
{
    const int ndim = shape.ndim;
    const RealArray4& flux = ch.sender->flux(ch.dir);
    const int lo[3] = {shape.is(), shape.js(), shape.ks()};
    const double inv = 1.0 / (1 << (ndim - 1));
    std::vector<double> out;
    for (int n = 0; n < ncomp; ++n)
        for (int K = ch.recvFaces.k.lo; K <= ch.recvFaces.k.hi; ++K)
            for (int J = ch.recvFaces.j.lo; J <= ch.recvFaces.j.hi; ++J)
                for (int I = ch.recvFaces.i.lo; I <= ch.recvFaces.i.hi;
                     ++I) {
                    const int cidx[3] = {I, J, K};
                    int f[3] = {0, 0, 0};
                    for (int d = 0; d < ndim; ++d)
                        f[d] = d == ch.dir ? ch.sendFaceIdx
                                           : lo[d] + 2 * (cidx[d] - lo[d]) -
                                                 ch.base2[d];
                    double sum = 0.0;
                    for (int dk = 0;
                         dk <= (ndim >= 3 && ch.dir != 2 ? 1 : 0); ++dk)
                        for (int dj = 0;
                             dj <= (ndim >= 2 && ch.dir != 1 ? 1 : 0); ++dj)
                            for (int di = 0; di <= (ch.dir != 0 ? 1 : 0);
                                 ++di)
                                sum += flux(n, f[2] + dk, f[1] + dj,
                                            f[0] + di);
                    out.push_back(sum * inv);
                }
    return out;
}

/** Values of `a` over `box`, in (n, k, j, i) order. */
std::vector<double>
valuesIn(const RealArray4& a, const Region3& box, int ncomp)
{
    std::vector<double> out;
    for (int n = 0; n < ncomp; ++n)
        for (int k = box.k.lo; k <= box.k.hi; ++k)
            for (int j = box.j.lo; j <= box.j.hi; ++j)
                for (int i = box.i.lo; i <= box.i.hi; ++i)
                    out.push_back(a(n, k, j, i));
    return out;
}

/** Index of the first bitwise difference, or -1. */
long
firstBitDifference(const std::vector<double>& got,
                   const std::vector<double>& want)
{
    if (got.size() != want.size())
        return 0;
    for (std::size_t e = 0; e < got.size(); ++e)
        if (std::bit_cast<std::uint64_t>(got[e]) !=
            std::bit_cast<std::uint64_t>(want[e]))
            return static_cast<long>(e);
    return -1;
}

TEST(GhostExchange, PackUnpackMatchPerCellReferenceBitwise)
{
    // One refined block in a periodic mesh: every fine block receives
    // coarse slabs across faces, edges and corners (receiver-side
    // fallbacks and clamped slopes), every coarse neighbor receives
    // restricted ghosts and flux corrections.
    ReferenceHits hits;
    int prolonged = 0, restricted = 0;
    for (int ndim = 1; ndim <= 3; ++ndim)
        for (int threads : {1, 4}) {
            CommFixture f(ndim == 3 ? 16 : 32, 8, 2, ExecMode::Execute, 1,
                          false, threads, ndim);
            f.refineAt(ndim == 1   ? LogicalLocation{0, 1, 0, 0}
                       : ndim == 2 ? LogicalLocation{0, 1, 1, 0}
                                   : LogicalLocation{0, 0, 0, 0});
            fillRough(*f.mesh, 0x5eed + ndim);
            const BlockShape s = f.mesh->config().blockShape();
            const int ncomp = f.registry.ncompConserved();

            const auto& bounds = f.cache->bounds();
            std::vector<std::vector<double>> want(bounds.size());
            for (std::size_t c = 0; c < bounds.size(); ++c) {
                const BoundsChannel& ch = bounds[c];
                if (ch.levelDiff == 0)
                    want[c] = referenceCopy(ch, ncomp);
                else if (ch.levelDiff == 1)
                    want[c] = referenceRestrict(ch, s, ncomp);
                else
                    want[c] = referenceProlong(ch, s, ncomp, hits);
                prolonged += ch.levelDiff == -1;
                restricted += ch.levelDiff == 1;
            }
            const auto& fluxes = f.cache->flux();
            std::vector<std::vector<double>> want_flux(fluxes.size());
            for (std::size_t c = 0; c < fluxes.size(); ++c)
                want_flux[c] = referenceFluxRestrict(fluxes[c], s, ncomp);
            ASSERT_FALSE(fluxes.empty());

            f.exchange->exchangeBounds();
            f.exchange->exchangeFluxCorrections();

            for (std::size_t c = 0; c < bounds.size(); ++c) {
                const BoundsChannel& ch = bounds[c];
                EXPECT_EQ(firstBitDifference(
                              valuesIn(ch.receiver->cons(), ch.recv, ncomp),
                              want[c]),
                          -1)
                    << ndim << "-D, " << threads << " threads, "
                    << ch.sender->loc().str() << " -> "
                    << ch.receiver->loc().str() << " levelDiff "
                    << ch.levelDiff;
            }
            for (std::size_t c = 0; c < fluxes.size(); ++c) {
                const FluxChannel& ch = fluxes[c];
                EXPECT_EQ(
                    firstBitDifference(valuesIn(ch.receiver->flux(ch.dir),
                                                ch.recvFaces, ncomp),
                                       want_flux[c]),
                    -1)
                    << ndim << "-D, " << threads << " threads, flux dir "
                    << ch.dir << " " << ch.sender->loc().str() << " -> "
                    << ch.receiver->loc().str();
            }
        }
    EXPECT_GT(prolonged, 0);
    EXPECT_GT(restricted, 0);
    EXPECT_GT(hits.signFlip, 0);
    EXPECT_GT(hits.zeroProduct, 0);
    EXPECT_GT(hits.firstSmaller, 0);
    EXPECT_GT(hits.secondSmaller, 0);
    EXPECT_GT(hits.receiverSide, 0);
    EXPECT_GT(hits.clamped, 0);
    EXPECT_GT(hits.negativeZero, 0);
}

TEST(GhostExchange, OutflowGhostsEqualClampedInterior)
{
    // Non-periodic mesh with one refined corner block: blocks of both
    // levels touch the domain edge. Every ghost cell outside the
    // domain — faces, edges and corners — must hold the block's
    // interior value at the clamped index; the rough field makes any
    // stale ghost or unfilled cell stand out.
    int outside = 0;
    for (int ndim = 1; ndim <= 3; ++ndim)
        for (int threads : {1, 4}) {
            CommFixture f(ndim == 3 ? 16 : 32, 8, 2, ExecMode::Execute, 1,
                          false, threads, ndim, /*periodic=*/false);
            f.refineAt({0, 0, 0, 0});
            fillRough(*f.mesh, 0xf11 + ndim);
            f.exchange->exchangeBounds();

            const MeshConfig& config = f.mesh->config();
            const BlockShape s = config.blockShape();
            const int ncomp = f.registry.ncompConserved();
            const int nroot[3] = {config.nx1 / config.blockNx1,
                                  config.nx2 / config.blockNx2,
                                  config.nx3 / config.blockNx3};
            const int lo[3] = {s.is(), s.js(), s.ks()};
            const int hi[3] = {s.ie(), s.je(), s.ke()};
            for (const auto& block : f.mesh->blocks()) {
                const LogicalLocation& loc = block->loc();
                const std::int64_t lx[3] = {loc.lx1, loc.lx2, loc.lx3};
                const RealArray4& cons = block->cons();
                for (int k = 0; k < s.nk(); ++k)
                    for (int j = 0; j < s.nj(); ++j)
                        for (int i = 0; i < s.ni(); ++i) {
                            const int idx[3] = {i, j, k};
                            int clamped[3];
                            bool out = false;
                            for (int d = 0; d < 3; ++d) {
                                clamped[d] =
                                    std::clamp(idx[d], lo[d], hi[d]);
                                if (d >= ndim)
                                    continue;
                                const std::int64_t nblocks =
                                    std::int64_t{nroot[d]} << loc.level;
                                out = out ||
                                      (idx[d] < lo[d] && lx[d] == 0) ||
                                      (idx[d] > hi[d] &&
                                       lx[d] == nblocks - 1);
                            }
                            if (!out)
                                continue;
                            ++outside;
                            for (int n = 0; n < ncomp; ++n)
                                ASSERT_EQ(cons(n, k, j, i),
                                          cons(n, clamped[2], clamped[1],
                                               clamped[0]))
                                    << ndim << "-D, " << threads
                                    << " threads, " << loc.str()
                                    << " ghost (" << i << "," << j << ","
                                    << k << ") n " << n;
                        }
            }
        }
    EXPECT_GT(outside, 0);
}

TEST(GhostExchange, ProfilerSeesFourPhases)
{
    CommFixture f(16, 8, 1, ExecMode::Count);
    f.exchange->exchangeBounds();
    const auto& kernels = f.profiler.kernels();
    EXPECT_TRUE(kernels.count({"SendBoundBufs", "SendBoundBufs"}));
    EXPECT_TRUE(kernels.count({"SetBounds", "SetBounds"}));
    const auto& serial = f.profiler.serial();
    EXPECT_TRUE(
        serial.count({"StartReceiveBoundBufs", "recv_buf_prepare"}));
    EXPECT_TRUE(serial.count({"ReceiveBoundBufs", "recv_poll"}));
}

} // namespace
} // namespace vibe
