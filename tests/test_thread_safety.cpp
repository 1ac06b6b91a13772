/**
 * @file test_thread_safety.cpp
 * Regression tests for the machine-checked concurrency work: the
 * RankWorld traffic-counter race (snapshot-under-lock semantics),
 * rendezvous collectives racing mailbox traffic, and — in
 * VIBE_AUDIT_OWNERSHIP builds — the rank-ownership runtime backstop.
 *
 * The traffic tests are written to fail loudly under TSan against the
 * old unlocked `const Traffic&` accessor (they are plain unsynchronized
 * reads there); in normal builds they still verify snapshot
 * consistency, which torn reads violate.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "comm/rank_world.hpp"
#include "exec/kernel_profiler.hpp"
#include "exec/memory_tracker.hpp"
#include "mesh/mesh.hpp"
#include "mesh/ownership_audit.hpp"
#include "pkg/burgers_package.hpp"
#include "util/logging.hpp"

namespace vibe {
namespace {

ChannelId channelBetween(int src, int dst)
{
    ChannelId ch{{0, src, 0, 0}, {0, dst, 0, 0}, 1, 0, 0,
                 ChannelKind::Bounds};
    return ch;
}

// Every send in these tests carries exactly 8 accounted bytes, so any
// internally consistent snapshot satisfies bytes == 8 * messages —
// including the all-zero snapshot right after a reset. A torn read
// (the pre-fix behavior) breaks the equality.
void expectConsistent(const Traffic& t)
{
    EXPECT_DOUBLE_EQ(t.totalBytes(), 8.0 * t.totalMessages());
}

TEST(TrafficCounters, SnapshotIsConsistentUnderConcurrentSends)
{
    constexpr int kIters = 2000;
    RankWorld world(2, /*concurrent=*/true);

    std::atomic<bool> done{false};
    std::thread peers[2];
    for (int rank = 0; rank < 2; ++rank) {
        peers[rank] = std::thread([&world, rank] {
            const ChannelId out = channelBetween(rank, 1 - rank);
            const ChannelId in = channelBetween(1 - rank, rank);
            for (int i = 0; i < kIters; ++i) {
                world.isend(out, rank, 1 - rank, {double(i)}, 8.0);
                while (!world.receive(in))
                    std::this_thread::yield();
            }
        });
    }

    std::thread reader([&world, &done] {
        while (!done.load())
            expectConsistent(world.traffic());
    });

    for (std::thread& peer : peers)
        peer.join();
    done.store(true);
    reader.join();

    const Traffic final_t = world.traffic();
    expectConsistent(final_t);
    EXPECT_EQ(final_t.totalMessages(), 2u * kIters);
    EXPECT_EQ(world.pendingCount(), 0u);
}

TEST(TrafficCounters, ResetRacesSendersWithoutTearing)
{
    constexpr int kIters = 1000;
    RankWorld world(2, /*concurrent=*/true);

    std::thread sender([&world] {
        const ChannelId out = channelBetween(0, 1);
        for (int i = 0; i < kIters; ++i)
            world.isend(out, 0, 1, {}, 8.0);
    });
    for (int i = 0; i < 50; ++i) {
        expectConsistent(world.traffic());
        world.resetTraffic();
    }
    sender.join();

    world.resetTraffic();
    EXPECT_EQ(world.traffic().totalMessages(), 0u);
    EXPECT_DOUBLE_EQ(world.traffic().totalBytes(), 0.0);
    EXPECT_EQ(world.discardPending(channelBetween(0, 1)),
              std::size_t{kIters});
}

TEST(Collectives, RendezvousUnderMailboxTraffic)
{
    constexpr int kRanks = 4;
    constexpr int kIters = 200;
    RankWorld world(kRanks, /*concurrent=*/true);

    std::vector<std::thread> ranks;
    std::atomic<int> failures{0};
    for (int rank = 0; rank < kRanks; ++rank) {
        ranks.emplace_back([&world, &failures, rank] {
            const ChannelId out =
                channelBetween(rank, (rank + 1) % kRanks);
            const ChannelId in =
                channelBetween((rank + kRanks - 1) % kRanks, rank);
            for (int i = 0; i < kIters; ++i) {
                world.isend(out, rank, (rank + 1) % kRanks,
                            {double(rank)}, 8.0);
                // Rank-order fold of {0+i, 1+i, 2+i, 3+i}.
                const double sum = world.allReduceValue(
                    rank, double(rank + i), CollOp::Sum, 8.0);
                if (sum != double(6 + kRanks * i))
                    failures.fetch_add(1);
                while (!world.receive(in))
                    std::this_thread::yield();
                world.barrier(rank);
            }
        });
    }
    for (std::thread& thread : ranks)
        thread.join();

    EXPECT_EQ(failures.load(), 0);
    EXPECT_EQ(world.pendingCount(), 0u);
    EXPECT_FALSE(world.failed());
}

#if defined(VIBE_AUDIT_OWNERSHIP)

struct AuditFixtureBits
{
    KernelProfiler profiler;
    MemoryTracker tracker;
    VariableRegistry registry = makeBurgersRegistry(8);
};

TEST(OwnershipAudit, WrongRankAccessPanics)
{
    AuditFixtureBits bits;
    ExecContext ctx(ExecMode::Execute, &bits.profiler, &bits.tracker);
    MeshConfig config;
    config.nx1 = config.nx2 = config.nx3 = 16;
    config.blockNx1 = config.blockNx2 = config.blockNx3 = 8;
    config.amrLevels = 1;
    Mesh mesh(config, bits.registry, ctx);
    MeshBlock& block = mesh.block(0); // owned by rank 0

    {
        // Undeclared threads (rank -1) are exempt: tests and setup
        // code touch storage freely.
        EXPECT_NO_THROW(block.cons());
    }
    {
        ownership_audit::ScopedRank as_owner(0);
        EXPECT_NO_THROW(block.cons());
    }
    {
        ownership_audit::ScopedRank as_peer(1);
        EXPECT_THROW(block.cons(), PanicError);
        EXPECT_THROW(block.flux(0), PanicError);
        {
            ownership_audit::SanctionedScope unpacking;
            EXPECT_NO_THROW(block.cons());
        }
        // Scope closed: the backstop is armed again.
        EXPECT_THROW(block.cons0(), PanicError);
    }
    // ScopedRank restored the undeclared state on the way out.
    EXPECT_NO_THROW(block.cons());
}

TEST(OwnershipAudit, DeclaredRankIsPerThread)
{
    AuditFixtureBits bits;
    ExecContext ctx(ExecMode::Execute, &bits.profiler, &bits.tracker);
    MeshConfig config;
    config.nx1 = config.nx2 = config.nx3 = 16;
    config.blockNx1 = config.blockNx2 = config.blockNx3 = 8;
    config.amrLevels = 1;
    Mesh mesh(config, bits.registry, ctx);
    MeshBlock& block = mesh.block(0);

    ownership_audit::ScopedRank as_peer(1);
    EXPECT_THROW(block.cons(), PanicError);

    // A fresh thread starts undeclared regardless of this thread's
    // declaration — thread_locals do not inherit.
    std::atomic<bool> peer_threw{true};
    std::thread other([&] {
        block.cons();
        peer_threw.store(false);
    });
    other.join();
    EXPECT_FALSE(peer_threw.load());
}

#endif // VIBE_AUDIT_OWNERSHIP

} // namespace
} // namespace vibe
