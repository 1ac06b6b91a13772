/**
 * @file test_checkpoint.cpp
 * Elastic checkpoint/restart and fault-recovery tests: bitwise
 * continuation across rank/thread counts, the reader's corruption
 * taxonomy, decomposition-invariant bytes, injected rank death with
 * supervised recovery, and the abort path's original-message guarantee.
 */
#include "scoped_env.hpp"
#include "shard_harness.hpp"

#include <cstdio>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "driver/fault_injector.hpp"
#include "io/checkpoint.hpp"
#include "io/checkpoint_writer.hpp"
#include "util/logging.hpp"
#include "util/parameter_input.hpp"

namespace vibe {
namespace {

using shard_test::captureBlock;
using shard_test::captureHistory;
using shard_test::expectBitwiseEqual;
using shard_test::makePackage;
using shard_test::runClassic;
using shard_test::shardDriverConfig;
using shard_test::shardMeshConfig;
using shard_test::shardWaveParams;
using shard_test::ShardRun;

/** Self-cleaning checkpoint file in the test working directory. */
struct TempFile
{
    std::string path;
    explicit TempFile(std::string name) : path(std::move(name)) {}
    ~TempFile() { std::remove(path.c_str()); }
};

std::vector<std::uint8_t>
readFileBytes(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    return std::vector<std::uint8_t>(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
}

void
writeFileBytes(const std::string& path,
               const std::vector<std::uint8_t>& bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

/** First half of the run: 4 cycles, one checkpoint at cycle 4. */
DriverConfig
writeConfig(int lb_every = 1)
{
    DriverConfig config = shardDriverConfig(lb_every);
    config.ncycles = 4;
    config.checkpointEvery = 4;
    return config;
}

/** Team run that leaves a checkpoint file behind. */
void
writeTeamCheckpoint(const std::string& package_name, int num_ranks,
                    const DriverConfig& config, const std::string& path,
                    bool async = true)
{
    auto package = makePackage(package_name);
    VariableRegistry registry = package->buildRegistry();
    CheckpointWriter writer(path, async);
    RankTeam team(shardMeshConfig(num_ranks, 1), registry,
                  *package, config, [](int) {
                      return std::make_unique<SphericalWaveTagger>(
                          shardWaveParams());
                  });
    team.setCheckpointWriter(&writer);
    team.run();
    writer.finish();
    EXPECT_EQ(writer.snapshots(), 1u) << path;
}

/** Restore `image` into a fresh team and evolve to config.ncycles. */
ShardRun
restoreTeamAndRun(const std::string& package_name,
                  const CheckpointImage& image, int num_ranks,
                  int num_threads, const DriverConfig& config)
{
    auto package = makePackage(package_name);
    VariableRegistry registry = package->buildRegistry();
    RankTeam team(shardMeshConfig(num_ranks, num_threads),
                  registry, *package, config, [](int) {
                      return std::make_unique<SphericalWaveTagger>(
                          shardWaveParams());
                  });
    team.setRestoreImage(&image);
    team.run();

    ShardRun out;
    captureHistory(team.aggregatedHistory(), &out);
    for (const auto& block : team.mesh(0).blocks()) {
        MeshBlock* owned = team.ownedBlock(block->loc());
        EXPECT_NE(owned, nullptr) << block->loc().str();
        if (owned)
            captureBlock(*owned, &out);
    }
    return out;
}

/**
 * A reference run whose dt/mass history is trimmed to its final
 * `ncont` cycles — what a restored continuation run records.
 */
ShardRun
continuationTail(ShardRun reference, std::size_t ncont)
{
    EXPECT_GE(reference.dts.size(), ncont);
    reference.dts.erase(reference.dts.begin(),
                        reference.dts.end() -
                            static_cast<std::ptrdiff_t>(ncont));
    reference.masses.erase(reference.masses.begin(),
                           reference.masses.end() -
                               static_cast<std::ptrdiff_t>(ncont));
    return reference;
}

/** write @ 2 ranks, restore at {1,2,4} ranks x {1,2} threads. */
void
elasticRestoreMatrix(const std::string& package_name)
{
    TempFile ckpt("test_ckpt_elastic_" + package_name + ".bin");
    writeTeamCheckpoint(package_name, 2, writeConfig(), ckpt.path);
    const CheckpointImage image = CheckpointReader::read(ckpt.path);
    EXPECT_EQ(image.cycle, 4);
    EXPECT_EQ(image.package, package_name);

    for (int threads : {1, 2}) {
        // Uninterrupted baseline at the restore's own thread count:
        // block state is backend-independent, but the mass diagnostic
        // is an intra-block sum whose fold order follows the thread
        // count, so the clean run must use the same one.
        const ShardRun reference = runClassic(package_name, threads);
        const ShardRun tail = continuationTail(reference, 4);
        for (int ranks : {1, 2, 4}) {
            const ShardRun continued = restoreTeamAndRun(
                package_name, image, ranks, threads,
                shardDriverConfig());
            expectBitwiseEqual(
                tail, continued,
                package_name + " restored @" + std::to_string(ranks) +
                    "r x " + std::to_string(threads) + "t");
        }
    }
}

TEST(Checkpoint, ElasticRestoreMatrixBurgers)
{
    elasticRestoreMatrix("burgers");
}

TEST(Checkpoint, ElasticRestoreMatrixAdvection)
{
    elasticRestoreMatrix("advection");
}

TEST(Checkpoint, RestoreStraddlesRemeshBeforeLoadBalance)
{
    // lbEvery=4: this workload refines at cycle index 2, so the
    // cycle-3 snapshot (taken after that cycle) captures a tree that
    // remeshed WITHOUT yet load balancing — the restore path must
    // re-shard that pending imbalance on its own.
    auto package = makePackage("burgers");
    VariableRegistry registry = package->buildRegistry();
    KernelProfiler profiler;
    MemoryTracker tracker;
    ExecContext ctx(ExecMode::Execute, &profiler, &tracker,
                    makeExecutionSpace(1));
    Mesh mesh(shardMeshConfig(1, 1), registry, ctx);
    RankWorld world(1);
    SphericalWaveTagger tagger(shardWaveParams());
    EvolutionDriver driver(mesh, *package, world, tagger,
                           shardDriverConfig(/*lb_every=*/4));
    driver.initialize();
    driver.run();
    ShardRun reference;
    captureHistory(driver.history(), &reference);
    for (const auto& block : mesh.blocks())
        captureBlock(*block, &reference);
    // The snapshot cycle really is the remesh-without-migration
    // window: it remeshed, and 3 % lbEvery != 0 so no load balance ran.
    const CycleStats& straddle = driver.history()[2];
    ASSERT_GT(straddle.refined + straddle.derefined, 0);

    TempFile ckpt("test_ckpt_straddle.bin");
    DriverConfig write_config = shardDriverConfig(/*lb_every=*/4);
    write_config.ncycles = 3;
    write_config.checkpointEvery = 3;
    writeTeamCheckpoint("burgers", 2, write_config, ckpt.path);
    const CheckpointImage image = CheckpointReader::read(ckpt.path);
    EXPECT_EQ(image.cycle, 3);
    const ShardRun continued = restoreTeamAndRun(
        "burgers", image, 2, 1, shardDriverConfig(/*lb_every=*/4));
    expectBitwiseEqual(continuationTail(reference, 5), continued,
                       "remesh-straddling restore @2r");
}

TEST(Checkpoint, WritesAreDecompositionInvariant)
{
    // The same cycle checkpointed at 1 and 2 ranks must produce
    // byte-identical files: state is gathered and reassembled by gid,
    // independent of the shard layout. Uniform costs only — measured
    // costs are wall-clock samples that ride the checkpoint, so they
    // are legitimately run- and decomposition-dependent bytes.
    DriverConfig config = writeConfig();
    config.lbCost = LbCostMode::Uniform;
    TempFile one("test_ckpt_1rank.bin");
    TempFile two("test_ckpt_2rank.bin");
    writeTeamCheckpoint("advection", 1, config, one.path);
    writeTeamCheckpoint("advection", 2, config, two.path);
    const auto bytes_one = readFileBytes(one.path);
    const auto bytes_two = readFileBytes(two.path);
    ASSERT_FALSE(bytes_one.empty());
    EXPECT_EQ(bytes_one, bytes_two);
}

TEST(Checkpoint, AsyncMatchesSyncBytes)
{
    // Uniform costs for the same reason as above: two separate runs
    // cannot reproduce measured (wall-clock) cost bytes.
    DriverConfig config = writeConfig();
    config.lbCost = LbCostMode::Uniform;
    TempFile async_file("test_ckpt_async.bin");
    TempFile sync_file("test_ckpt_sync.bin");
    writeTeamCheckpoint("advection", 1, config, async_file.path,
                        /*async=*/true);
    writeTeamCheckpoint("advection", 1, config, sync_file.path,
                        /*async=*/false);
    const auto bytes_async = readFileBytes(async_file.path);
    const auto bytes_sync = readFileBytes(sync_file.path);
    ASSERT_FALSE(bytes_async.empty());
    EXPECT_EQ(bytes_async, bytes_sync);
}

/** Reads `path` expecting a FatalError mentioning every substring. */
void
expectReadFails(const std::string& path,
                const std::vector<std::string>& substrings)
{
    try {
        CheckpointReader::read(path);
        FAIL() << "expected FatalError reading " << path;
    } catch (const FatalError& e) {
        const std::string what = e.what();
        for (const std::string& substring : substrings)
            EXPECT_NE(what.find(substring), std::string::npos)
                << "message: " << what << "\nmissing: " << substring;
        // Actionable errors always name the offending file.
        EXPECT_NE(what.find(path), std::string::npos) << what;
    }
}

TEST(Checkpoint, ReaderRejectsCorruptFiles)
{
    TempFile good("test_ckpt_good.bin");
    writeTeamCheckpoint("advection", 1, writeConfig(), good.path);
    const std::vector<std::uint8_t> bytes = readFileBytes(good.path);
    ASSERT_GT(bytes.size(), 64u);

    TempFile mutant("test_ckpt_mutant.bin");

    // Truncated below the preamble.
    writeFileBytes(mutant.path, {bytes.begin(), bytes.begin() + 12});
    expectReadFails(mutant.path, {"is truncated", "preamble"});

    // Truncated payload: header intact, half the payload missing.
    writeFileBytes(mutant.path,
                   {bytes.begin(), bytes.begin() + bytes.size() / 2});
    expectReadFails(mutant.path, {"is truncated", "payload"});

    // One flipped payload byte: caught by the CRC before any parsing.
    std::vector<std::uint8_t> flipped = bytes;
    flipped[flipped.size() - 1] ^= 0x40;
    writeFileBytes(mutant.path, flipped);
    expectReadFails(mutant.path,
                    {"is corrupt", "crc32 mismatch", "expected 0x"});

    // Damaged magic: not a checkpoint at all.
    std::vector<std::uint8_t> bad_magic = bytes;
    bad_magic[0] ^= 0xff;
    writeFileBytes(mutant.path, bad_magic);
    expectReadFails(mutant.path,
                    {"bad magic", "VIBECKPT",
                     "not a VIBE checkpoint file"});

    // Future version: refused with both versions named.
    std::vector<std::uint8_t> versioned = bytes;
    versioned[8] += 1; // little-endian low byte of the u32 version
    writeFileBytes(mutant.path, versioned);
    expectReadFails(mutant.path,
                    {"unsupported version", "expected 2", "found 3"});
}

TEST(Checkpoint, ReaderNamesMissingFile)
{
    expectReadFails("test_ckpt_does_not_exist.bin",
                    {"cannot be opened"});
}

TEST(Checkpoint, RestoreRejectsMismatchedRun)
{
    TempFile ckpt("test_ckpt_mismatch.bin");
    writeTeamCheckpoint("advection", 1, writeConfig(), ckpt.path);
    const CheckpointImage image = CheckpointReader::read(ckpt.path);
    try {
        restoreTeamAndRun("burgers", image, 1, 1, shardDriverConfig());
        FAIL() << "expected RestoreError for package mismatch";
    } catch (const RestoreError& e) {
        // The distinct type matters: the supervised recovery loop
        // rethrows RestoreError immediately (the same image re-fails
        // identically) instead of retrying it maxRestarts times.
        const std::string what = e.what();
        EXPECT_NE(what.find("advection"), std::string::npos) << what;
        EXPECT_NE(what.find("burgers"), std::string::npos) << what;
    }
}

TEST(FaultRecovery, InjectedFaultNoHangReportsOriginalMessage)
{
    // Rank 1 dies at the top of cycle 2 while rank 0 is already blocked
    // in the dt rendezvous; the team must unwind promptly (no hang) and
    // rethrow the failing rank's ORIGINAL message, not a generic
    // "a peer rank failed".
    auto package = makePackage("burgers");
    VariableRegistry registry = package->buildRegistry();
    FaultInjector injector(/*fail_rank=*/1, /*fail_cycle=*/2);
    RankTeam team(shardMeshConfig(2, 1), registry, *package,
                  shardDriverConfig(), [](int) {
                      return std::make_unique<SphericalWaveTagger>(
                          shardWaveParams());
                  });
    team.setFaultInjector(&injector);
    try {
        team.run();
        FAIL() << "expected the injected fault to propagate";
    } catch (const PanicError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("injected fault"), std::string::npos)
            << what;
        EXPECT_NE(what.find("rank 1"), std::string::npos) << what;
        EXPECT_NE(what.find("cycle 2"), std::string::npos) << what;
    }
    EXPECT_TRUE(injector.fired());
}

TEST(FaultRecovery, ExperimentRecoveryRestartsFromCheckpoint)
{
    TempFile ckpt("test_ckpt_recovery.bin");
    ExperimentSpec spec;
    spec.meshSize = 16;
    spec.blockSize = 8;
    spec.amrLevels = 2;
    spec.ncycles = 6;
    spec.numeric = true;
    spec.package = "advection";
    spec.numRanks = 2;
    spec.checkpointEvery = 2;
    spec.checkpointPath = ckpt.path;
    spec.maxRestarts = 1;
    spec.failRank = 1;
    spec.failCycle = 4;
    const ExperimentResult recovered = Experiment(spec).run();
    EXPECT_EQ(recovered.restarts, 1);
    EXPECT_GE(recovered.recoverySeconds, 0.0);
    EXPECT_GT(recovered.checkpointsWritten, 0);
    // Last durable checkpoint before the death at cycle 4 is cycle 4
    // itself (written at the end of cycle index 3), so the retried
    // attempt evolves exactly cycles 4 and 5.
    ASSERT_EQ(recovered.history.size(), 2u);

    ExperimentSpec clean = spec;
    clean.checkpointEvery = 0;
    clean.checkpointPath.clear();
    clean.maxRestarts = 0;
    clean.failRank = -1;
    clean.failCycle = -1;
    const ExperimentResult baseline = Experiment(clean).run();
    ASSERT_EQ(baseline.history.size(), 6u);
    EXPECT_EQ(baseline.restarts, 0);
    // Bitwise-identical continuation: the recovered run's history is
    // the tail of the uninterrupted run's.
    for (std::size_t c = 0; c < recovered.history.size(); ++c) {
        const CycleStats& cont = recovered.history[c];
        const CycleStats& ref = baseline.history[4 + c];
        EXPECT_EQ(cont.dt, ref.dt) << "cycle " << ref.cycle;
        EXPECT_EQ(cont.mass, ref.mass) << "cycle " << ref.cycle;
        EXPECT_EQ(cont.nblocks, ref.nblocks) << "cycle " << ref.cycle;
    }
    EXPECT_EQ(recovered.finalBlocks, baseline.finalBlocks);
}

TEST(FaultRecovery, FailureBeforeFirstCheckpointRetriesFresh)
{
    TempFile ckpt("test_ckpt_fresh_retry.bin");
    ExperimentSpec spec;
    spec.meshSize = 16;
    spec.blockSize = 8;
    spec.amrLevels = 2;
    spec.ncycles = 6;
    spec.numeric = true;
    spec.package = "advection";
    spec.numRanks = 2;
    spec.checkpointEvery = 2;
    spec.checkpointPath = ckpt.path;

    // Plant a stale-but-valid checkpoint at the path: a clean run of
    // the SAME spec leaves its final (cycle 6) snapshot on disk.
    const ExperimentResult stale_producer = Experiment(spec).run();
    EXPECT_GT(stale_producer.checkpointsWritten, 0);

    // Now fail at cycle 1, before the retried run's own first snapshot
    // (checkpointEvery=8 > failCycle) is ever durable. Recovery must
    // NOT read the stale file (restoring it would continue from cycle
    // 6 and record an empty history) and must not die on it either —
    // it retries from a fresh initialize.
    spec.checkpointEvery = 8;
    spec.maxRestarts = 1;
    spec.failRank = 1;
    spec.failCycle = 1;
    const ExperimentResult recovered = Experiment(spec).run();
    EXPECT_EQ(recovered.restarts, 1);
    EXPECT_EQ(recovered.checkpointsWritten, 0);
    ASSERT_EQ(recovered.history.size(), 6u);
    ASSERT_EQ(stale_producer.history.size(), 6u);
    // The fresh retry replays the whole run bitwise.
    for (std::size_t c = 0; c < recovered.history.size(); ++c) {
        const CycleStats& fresh = recovered.history[c];
        const CycleStats& ref = stale_producer.history[c];
        EXPECT_EQ(fresh.dt, ref.dt) << "cycle " << ref.cycle;
        EXPECT_EQ(fresh.mass, ref.mass) << "cycle " << ref.cycle;
        EXPECT_EQ(fresh.nblocks, ref.nblocks) << "cycle " << ref.cycle;
    }
}

TEST(FaultRecovery, ExperimentValidatesCheckpointKnobs)
{
    ExperimentSpec spec;
    spec.meshSize = 16;
    spec.blockSize = 8;
    spec.numeric = true;
    spec.checkpointEvery = 2; // no path
    EXPECT_THROW(Experiment(spec).run(), FatalError);

    ExperimentSpec counting;
    counting.meshSize = 16;
    counting.blockSize = 8;
    counting.numeric = false;
    counting.checkpointEvery = 2;
    counting.checkpointPath = "test_ckpt_unused.bin";
    EXPECT_THROW(Experiment(counting).run(), FatalError);

    ExperimentSpec restarts;
    restarts.meshSize = 16;
    restarts.blockSize = 8;
    restarts.numeric = true;
    restarts.maxRestarts = 1; // no checkpointing to restart from
    EXPECT_THROW(Experiment(restarts).run(), FatalError);
}

TEST(FaultRecovery, SpecFaultKnobsResolvePerKey)
{
    // The spec arms rank 0; only the cycle comes from the environment.
    // Each unset field resolves its own env twin, as on the deck path.
    ScopedEnv env_rank("VIBE_FAIL_RANK", nullptr);
    ScopedEnv env_cycle("VIBE_FAIL_CYCLE", "3");
    TempFile ckpt("test_ckpt_per_key.bin");
    ExperimentSpec spec;
    spec.meshSize = 16;
    spec.blockSize = 8;
    spec.amrLevels = 2;
    spec.ncycles = 6;
    spec.numeric = true;
    spec.package = "advection";
    spec.numRanks = 2;
    spec.checkpointEvery = 2;
    spec.checkpointPath = ckpt.path;
    spec.maxRestarts = 1;
    spec.failRank = 0;
    EXPECT_EQ(Experiment(spec).run().restarts, 1);
}

TEST(FaultRecovery, InjectorKnobsAndOneShotFiring)
{
    ParameterInput pin;
    pin.set("exec", "fail_rank", "1");
    pin.set("exec", "fail_cycle", "3");
    EXPECT_EQ(pin.getInt("exec", "fail_rank", -1), 1);
    EXPECT_EQ(pin.getInt64("exec", "fail_cycle", -1), 3);

    // fail_cycle keeps full 64-bit width, from the deck and the env.
    ParameterInput wide;
    wide.set("exec", "fail_cycle", "4294967296");
    EXPECT_EQ(wide.getInt64("exec", "fail_cycle", -1),
              INT64_C(4294967296));

    // Deck beats env beats default, per knob: the env variables only
    // fill keys the deck leaves out.
    {
        ScopedEnv env_rank("VIBE_FAIL_RANK", "2");
        ScopedEnv env_cycle("VIBE_FAIL_CYCLE", "4294967296");
        EXPECT_EQ(pin.getInt("exec", "fail_rank", -1), 1);
        EXPECT_EQ(pin.getInt64("exec", "fail_cycle", -1), 3);
        ParameterInput rank_only;
        rank_only.set("exec", "fail_rank", "0");
        EXPECT_EQ(rank_only.getInt("exec", "fail_rank", -1), 0);
        EXPECT_EQ(rank_only.getInt64("exec", "fail_cycle", -1),
                  INT64_C(4294967296));
        const ParameterInput no_deck;
        EXPECT_EQ(no_deck.getInt("exec", "fail_rank", -1), 2);

        // A malformed env integer fails naming the variable instead of
        // arming a fault at cycle 0.
        env_cycle.set("abc");
        try {
            no_deck.getInt64("exec", "fail_cycle", -1);
            FAIL() << "expected VIBE_FAIL_CYCLE=abc to be fatal";
        } catch (const FatalError& e) {
            EXPECT_NE(std::string(e.what()).find("VIBE_FAIL_CYCLE"),
                      std::string::npos)
                << e.what();
        }
    }
    {
        ScopedEnv env_rank("VIBE_FAIL_RANK", nullptr);
        ScopedEnv env_cycle("VIBE_FAIL_CYCLE", nullptr);
        const ParameterInput no_deck;
        EXPECT_EQ(no_deck.getInt("exec", "fail_rank", -1), -1);
        EXPECT_EQ(no_deck.getInt64("exec", "fail_cycle", -1), -1);
    }

    FaultInjector disarmed;
    EXPECT_FALSE(disarmed.armed());
    disarmed.maybeFail(0, 0); // no-op

    FaultInjector armed(0, 5);
    armed.maybeFail(0, 4); // wrong cycle
    armed.maybeFail(1, 5); // wrong rank
    EXPECT_FALSE(armed.fired());
    EXPECT_THROW(armed.maybeFail(0, 5), PanicError);
    EXPECT_TRUE(armed.fired());
    armed.maybeFail(0, 5); // fires once: the retried attempt sails past
}

TEST(FaultRecovery, RankWorldKeepsFirstFailureReason)
{
    RankWorld world(2, /*concurrent=*/true);
    EXPECT_FALSE(world.failed());
    world.markFailed("original cause");
    world.markFailed("secondary abort");
    EXPECT_TRUE(world.failed());
    EXPECT_EQ(world.failureReason(), "original cause");

    RankWorld bare(2, /*concurrent=*/true);
    bare.markFailed();
    EXPECT_EQ(bare.failureReason(), "a peer rank failed");
}

} // namespace
} // namespace vibe
