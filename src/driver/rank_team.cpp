#include "driver/rank_team.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "mesh/ownership_audit.hpp"
#include "util/logging.hpp"

namespace vibe {

RankTeam::RankTeam(const MeshConfig& mesh_config,
                   const VariableRegistry& registry,
                   const PackageDescriptor& package,
                   const DriverConfig& driver_config,
                   TaggerFactory make_tagger)
    : mesh_config_(mesh_config), registry_(&registry),
      package_(&package), driver_config_(driver_config),
      make_tagger_(std::move(make_tagger)),
      num_ranks_(mesh_config.numRanks),
      world_(mesh_config.numRanks,
             /*concurrent=*/mesh_config.numRanks > 1)
{
    require(num_ranks_ >= 1, "RankTeam needs at least one rank");
    require(make_tagger_ != nullptr, "RankTeam needs a tagger factory");
    states_.resize(static_cast<std::size_t>(num_ranks_));
}

RankTeam::~RankTeam() = default;

void
RankTeam::runRank(int rank)
{
    try {
        // In VIBE_AUDIT_OWNERSHIP builds, register this thread as the
        // rank's driver so every MeshBlock storage access it performs
        // is checked against block ownership.
        ownership_audit::ScopedRank audit_rank(rank);
        // Construct everything on this thread: the profiler and
        // tracker take it as their owner (lock-free fast paths), the
        // pool's restructure-path assertions hold, and the execution
        // space's workers belong to this rank alone.
        auto state = std::make_unique<RankState>();
        state->ctx = std::make_unique<ExecContext>(
            ExecMode::Execute, &state->profiler, &state->tracker,
            makeExecutionSpace(mesh_config_.numThreads));
        state->mesh = std::make_unique<Mesh>(mesh_config_, *registry_,
                                             *state->ctx, rank);
        state->tagger = make_tagger_(rank);
        require(state->tagger != nullptr,
                "tagger factory returned null for rank ", rank);
        state->driver = std::make_unique<EvolutionDriver>(
            *state->mesh, *package_, world_, *state->tagger,
            driver_config_);
        states_[static_cast<std::size_t>(rank)] = std::move(state);

        EvolutionDriver& driver =
            *states_[static_cast<std::size_t>(rank)]->driver;
        if (fault_injector_)
            driver.setFaultInjector(fault_injector_);
        // Rank 0 alone touches disk; every rank joins the gathers.
        if (rank == 0 && checkpoint_writer_)
            driver.setCheckpointWriter(checkpoint_writer_);
        if (rank == 0 && metrics_writer_)
            driver.setMetricsWriter(metrics_writer_);
        if (restore_image_)
            driver.initializeFromCheckpoint(*restore_image_);
        else
            driver.initialize();
        driver.run();
    } catch (const std::exception& e) {
        recordFailure(std::current_exception(), e.what());
    } catch (...) {
        recordFailure(std::current_exception(),
                      "rank " + std::to_string(rank) +
                          " threw a non-std exception");
    }
}

void
RankTeam::recordFailure(std::exception_ptr error,
                        const std::string& reason)
{
    {
        LockGuard lock(error_mutex_);
        if (!first_error_)
            first_error_ = std::move(error);
    }
    // Wake peers blocked in collectives or poll loops so the team
    // unwinds instead of hanging on a dead rank. The reason travels
    // with the wakeup: peers aborting on failed() echo the original
    // message, not a generic "a peer rank failed". A peer's own
    // secondary abort arriving here later cannot clobber it —
    // markFailed keeps the first recorded reason.
    world_.markFailed(reason);
}

void
RankTeam::run()
{
    require(!ran_, "RankTeam::run() may only be called once");
    ran_ = true;

    // vibe-lint: allow(obs-isolation) run wall clock is the measured
    // FOM denominator (ExperimentResult::wallSeconds), not logging.
    const auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(num_ranks_));
    for (int rank = 0; rank < num_ranks_; ++rank)
        threads.emplace_back([this, rank] { runRank(rank); });
    for (std::thread& thread : threads)
        thread.join();
    wall_seconds_ = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - start)
                        .count();

    // The rank threads have joined; the lock satisfies the analysis.
    std::exception_ptr error;
    {
        LockGuard lock(error_mutex_);
        error = first_error_;
    }
    if (error)
        std::rethrow_exception(error);
    for (int rank = 0; rank < num_ranks_; ++rank)
        require(states_[static_cast<std::size_t>(rank)] != nullptr,
                "rank ", rank, " never constructed its state");
}

MeshBlock*
RankTeam::ownedBlock(const LogicalLocation& loc)
{
    const int owner = mesh(0).ownerOf(loc);
    if (owner < 0)
        return nullptr;
    return mesh(owner).find(loc);
}

std::int64_t
RankTeam::zoneCycles() const
{
    // Every rank's driver counts whole-mesh interior cells per cycle
    // (the replicated structure), so rank 0 already holds the global
    // figure-of-merit numerator.
    return states_.front()->driver->zoneCycles();
}

std::int64_t
RankTeam::commCells() const
{
    std::int64_t cells = 0;
    for (const auto& state : states_)
        cells += state->driver->commCells();
    return cells;
}

std::int64_t
RankTeam::commFaces() const
{
    std::int64_t faces = 0;
    for (const auto& state : states_)
        faces += state->driver->commFaces();
    return faces;
}

double
RankTeam::migratedStorageBytes() const
{
    // Replicated on every rank (each replica computes the global sum
    // over moved blocks); take rank 0's history.
    double bytes = 0;
    for (const CycleStats& stats :
         states_.front()->driver->history())
        bytes += stats.migratedStorageBytes;
    return bytes;
}

std::vector<CycleStats>
RankTeam::aggregatedHistory() const
{
    std::vector<CycleStats> history =
        states_.front()->driver->history();
    for (std::size_t r = 1; r < states_.size(); ++r) {
        const auto& other = states_[r]->driver->history();
        require(other.size() == history.size(),
                "rank ", r, " recorded ", other.size(),
                " cycles, rank 0 recorded ", history.size());
        for (std::size_t c = 0; c < history.size(); ++c) {
            history[c].wireCells += other[c].wireCells;
            history[c].wireFaces += other[c].wireFaces;
            history[c].boundaryMessages += other[c].boundaryMessages;
            history[c].uncoalescedMessages +=
                other[c].uncoalescedMessages;
            history[c].boundaryBytes += other[c].boundaryBytes;
        }
    }
    // Per-rank idle split (ROADMAP item 4's starvation signal), plus
    // team totals for the aggregate attribution fields: wall is the
    // slowest rank (they run concurrently), busy/idle are summed
    // thread-seconds, and the critical path is the longest any rank
    // saw — the team cannot finish a cycle before its slowest chain.
    for (std::size_t c = 0; c < history.size(); ++c) {
        history[c].rankIdleSeconds.assign(states_.size(), 0.0);
        history[c].taskWallSeconds = 0;
        history[c].busySeconds = 0;
        history[c].idleSeconds = 0;
        history[c].criticalPathSeconds = 0;
        for (std::size_t r = 0; r < states_.size(); ++r) {
            const CycleStats& own = states_[r]->driver->history()[c];
            history[c].rankIdleSeconds[r] = own.idleSeconds;
            history[c].taskWallSeconds = std::max(
                history[c].taskWallSeconds, own.taskWallSeconds);
            history[c].busySeconds += own.busySeconds;
            history[c].idleSeconds += own.idleSeconds;
            history[c].criticalPathSeconds =
                std::max(history[c].criticalPathSeconds,
                         own.criticalPathSeconds);
        }
    }
    return history;
}

void
RankTeam::mergeInstrumentation(KernelProfiler* profiler,
                               MemoryTracker* tracker) const
{
    for (const auto& state : states_) {
        if (profiler)
            profiler->merge(state->profiler);
        if (tracker)
            tracker->merge(state->tracker);
    }
}

} // namespace vibe
