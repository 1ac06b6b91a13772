#include "core/experiment.hpp"

#include <chrono>
#include <thread>

#include "driver/fault_injector.hpp"
#include "driver/rank_team.hpp"
#include "driver/tagger.hpp"
#include "io/checkpoint.hpp"
#include "io/checkpoint_writer.hpp"
#include "io/metrics_writer.hpp"
#include "io/trace_writer.hpp"
#include "mesh/variable.hpp"
#include "obs/obs_config.hpp"
#include "obs/trace.hpp"
#include "pkg/package_registry.hpp"
#include "util/logging.hpp"
#include "util/parameter_input.hpp"

namespace vibe {

Experiment::Experiment(const ExperimentSpec& spec) : spec_(spec)
{
    const ParameterInput no_deck;
    if (spec_.tracePath.empty())
        spec_.tracePath = no_deck.getString("obs", "trace", "");
    if (spec_.metricsPath.empty())
        spec_.metricsPath = no_deck.getString("obs", "metrics", "");
    if (spec_.lbCost.empty())
        spec_.lbCost = no_deck.getString("amr", "lb_cost", "uniform");
    if (spec_.failRank < 0)
        spec_.failRank = no_deck.getInt("exec", "fail_rank", -1);
    if (spec_.failCycle < 0)
        spec_.failCycle = no_deck.getInt64("exec", "fail_cycle", -1);
}

double
ExperimentSpec::fixedDt() const
{
    // CFL-consistent dt at the finest resolution with unit
    // characteristic speed.
    const double dx_finest =
        1.0 / (static_cast<double>(meshSize) *
               static_cast<double>(1 << (amrLevels - 1)));
    return 0.4 * dx_finest;
}

double
ExperimentResult::paperScale() const
{
    const MemoryModelConstants memory_defaults{};
    return history.empty()
               ? 1.0
               : memory_defaults.paperRunCycles /
                     static_cast<double>(history.size());
}

namespace {

/**
 * The run footer closes the JSONL stream: build/config identity as
 * strings, run totals as numbers. Written only for a successful
 * attempt, so its presence doubles as a completion marker.
 */
void
writeRunFooter(MetricsWriter& metrics, const ExperimentSpec& spec,
               const ExperimentResult& result)
{
    std::map<std::string, std::string> identity;
    identity["git"] = buildDescribe();
    identity["package"] = spec.package;
    identity["mode"] = spec.numeric ? "numeric" : "counting";

    MetricsRegistry totals;
    totals.set("ranks", spec.numRanks);
    totals.set("threads", spec.numThreads);
    totals.set("cycles", static_cast<double>(result.history.size()));
    totals.set("wall_seconds", result.wallSeconds);
    totals.set("fom.zone_cycles_per_s", result.measuredFom());
    totals.set("zone_cycles", static_cast<double>(result.zoneCycles));
    totals.set("restarts", result.restarts);
    totals.set("checkpoint.snapshots", result.checkpointsWritten);
    totals.set("traffic.remote_messages",
               static_cast<double>(result.traffic.remoteMessages));
    totals.set("traffic.remote_bytes", result.traffic.remoteBytes);
    totals.set("task.wall_seconds", result.idle.taskWallSeconds);
    totals.set("task.busy_seconds", result.idle.busySeconds);
    totals.set("task.idle_seconds", result.idle.idleSeconds);
    totals.set("task.critical_path_seconds",
               result.idle.criticalPathSeconds);
    totals.set("task.idle_fraction", result.idle.idleFraction());
    totals.set("trace.dropped_events",
               static_cast<double>(TraceRecorder::instance().dropped()));
    metrics.writeFooter(identity, totals);
}

/**
 * Numeric runs refine on the package's own gradient criterion.
 * Counting runs follow a compact pulsating blob (the Gaussian pulse of
 * the VIBE initial condition): solid mode keeps the refined-block count
 * roughly independent of MeshBlockSize, the regime the paper's §IV-B
 * ratios exhibit.
 */
std::unique_ptr<RefinementTagger>
makeTagger(const ExperimentSpec& spec, const PackageDescriptor& package)
{
    if (spec.numeric)
        return std::make_unique<GradientTagger>(package);
    SphericalWaveTagger::Params wave_params;
    wave_params.solid = true;
    wave_params.rMin = 0.06;
    wave_params.rMax = 0.11;
    wave_params.width = 0.005;
    // Tagging halo of one block width: a coarse block "sees" the
    // feature from further away, the over-refinement mechanism that
    // amplifies cell updates at large MeshBlockSize (Fig. 1a).
    wave_params.haloCells = 0.25 * spec.blockSize;
    wave_params.derefineFactor = 1.8;
    return std::make_unique<SphericalWaveTagger>(wave_params);
}

} // namespace

ExperimentResult
Experiment::run() const
{
    const ExperimentSpec& spec = spec_;
    require(spec.meshSize % spec.blockSize == 0,
            "mesh size must be a multiple of the block size (§II-F)");
    if (spec.numRanks < 1)
        fatal("numRanks must be at least 1, got ", spec.numRanks);
    if (!spec.fusedBoundaries)
        fatal("ExperimentSpec::fusedBoundaries = false is not "
              "supported: boundary exchange always runs over the fused "
              "BoundaryPlan");
    if (spec.numRanks > 1 && !spec.numeric)
        fatal("rank-sharded execution (numRanks > 1) requires numeric "
              "mode; counting studies model ranks via the platform");
    if (spec.checkpointEvery > 0 && spec.checkpointPath.empty())
        fatal("checkpointEvery is set but checkpointPath is empty");
    if (spec.checkpointEvery > 0 && !spec.numeric)
        fatal("checkpointing requires numeric mode; counting runs "
              "materialize no block state to capture");
    if (spec.maxRestarts > 0 && spec.checkpointEvery <= 0)
        fatal("maxRestarts needs checkpointEvery > 0: recovery replays "
              "from the last durable checkpoint");

    // One injector spans every attempt: it fires once, so the retried
    // run sails past the (rank, cycle) that killed the first attempt.
    FaultInjector injector(spec.failRank, spec.failCycle);

    int restarts = 0;
    double recovery_seconds = 0;
    std::optional<CheckpointImage> restore;
    const bool tracing = !spec.tracePath.empty();
    for (;;) {
        // The writer lives in the retry scope, not the attempt: when an
        // attempt unwinds, the async drain still finishes the last
        // deposited snapshot, and only this scope can then ask whether
        // anything durable actually reached disk before re-reading it.
        std::optional<CheckpointWriter> writer;
        if (spec.checkpointEvery > 0)
            writer.emplace(spec.checkpointPath, spec.checkpointAsync);
        // The metrics stream likewise restarts per attempt (truncating
        // open): the file always describes one coherent run, and a
        // retried run's heartbeat starts over at its restored cycle.
        std::optional<MetricsWriter> metrics;
        if (!spec.metricsPath.empty())
            metrics.emplace(spec.metricsPath);
        // Tracing covers one attempt: start() clears the buffers, so a
        // failed attempt's events never leak into the retry's timeline.
        if (tracing)
            TraceRecorder::instance().start();
        try {
            ExperimentResult result =
                runAttempt(injector.armed() ? &injector : nullptr,
                           restore ? &*restore : nullptr,
                           writer ? &*writer : nullptr,
                           metrics ? &*metrics : nullptr);
            result.restarts = restarts;
            result.recoverySeconds = recovery_seconds;
            result.idle = attributeIdle(result.history);
            if (tracing) {
                const std::vector<TraceEvent> events =
                    TraceRecorder::instance().drain();
                writeChromeTrace(spec.tracePath, events);
            }
            if (metrics)
                writeRunFooter(*metrics, spec, result);
            return result;
        } catch (const RestoreError&) {
            // Restore-validation failures are deterministic: the same
            // image re-fails identically on every retry, so surface the
            // real cause instead of burning the restart budget on it.
            if (tracing)
                TraceRecorder::instance().stop();
            throw;
        } catch (const std::exception& e) {
            // Leave no recorder armed behind a propagating failure:
            // later experiments in this process must start clean.
            if (tracing)
                TraceRecorder::instance().stop();
            if (spec.checkpointEvery <= 0 ||
                restarts >= spec.maxRestarts)
                throw;
            ++restarts;
            const auto recover_start = std::chrono::steady_clock::now();
            // Drain any snapshot the dying attempt deposited; a drain
            // failure is survivable — it only limits what this restart
            // can restore from.
            try {
                writer->finish();
            } catch (const std::exception& drain) {
                warn("checkpoint drain failed during recovery: ",
                     drain.what());
            }
            // Only snapshots THIS run's writer produced are eligible:
            // gating on its count keeps a failure that lands before the
            // first durable snapshot from dying on a missing file (the
            // retry simply starts fresh), and means a stale checkpoint
            // left at the same path by an unrelated earlier run is
            // never restored silently.
            const bool durable = writer->snapshots() > 0;
            if (durable)
                warn("experiment attempt failed (", e.what(),
                     "); restarting from checkpoint '",
                     spec.checkpointPath, "' (restart ", restarts,
                     " of ", spec.maxRestarts, ")");
            else if (restore)
                warn("experiment attempt failed (", e.what(),
                     ") before writing a new checkpoint; reusing the "
                     "last restored image (restart ", restarts, " of ",
                     spec.maxRestarts, ")");
            else
                warn("experiment attempt failed (", e.what(),
                     ") before the first checkpoint was durable; "
                     "retrying from a fresh start (restart ", restarts,
                     " of ", spec.maxRestarts, ")");
            if (spec.restartBackoffSeconds > 0)
                std::this_thread::sleep_for(
                    std::chrono::duration<double>(
                        spec.restartBackoffSeconds));
            // The reader validates magic/version/CRC, so a snapshot
            // truncated by the failure is rejected loudly rather than
            // silently restoring garbage (the writer's tmp+rename
            // makes that window atomic anyway).
            if (durable)
                restore = CheckpointReader::read(spec.checkpointPath);
            recovery_seconds +=
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - recover_start)
                    .count();
        }
    }
}

ExperimentResult
Experiment::runAttempt(FaultInjector* injector,
                       const CheckpointImage* restore,
                       CheckpointWriter* writer,
                       MetricsWriter* metrics) const
{
    const ExperimentSpec& spec = spec_;
    ExperimentResult result;
    result.spec = spec;

    // The package is selected by name through the registry, exactly as
    // a deck's `<job> package` knob would; spec fields that belong to
    // the package travel as deck parameters.
    ParameterInput package_params;
    package_params.set("burgers", "num_scalars",
                       std::to_string(spec.numScalars));
    for (const auto& param : spec.packageParams)
        package_params.set(param[0], param[1], param[2]);
    std::unique_ptr<PackageDescriptor> package =
        PackageRegistry::instance().create(spec.package, package_params);
    VariableRegistry registry = package->buildRegistry();

    MeshConfig mesh_config;
    mesh_config.ndim = spec.ndim;
    mesh_config.nx1 = mesh_config.nx2 = mesh_config.nx3 = spec.meshSize;
    mesh_config.blockNx1 = mesh_config.blockNx2 = mesh_config.blockNx3 =
        spec.blockSize;
    mesh_config.numGhost = spec.numGhost;
    mesh_config.amrLevels = spec.amrLevels;
    mesh_config.optimizeAuxMemory = spec.optimizeAuxMemory;
    mesh_config.numThreads = spec.numThreads;
    mesh_config.numRanks = spec.numRanks;

    DriverConfig driver_config;
    driver_config.ncycles = spec.ncycles;
    driver_config.fixedDt = spec.fixedDt();
    driver_config.randomizeBufferKeys = spec.randomizeBufferKeys;
    driver_config.checkpointEvery = spec.checkpointEvery;
    driver_config.lbCost = lbCostModeFromName(spec.lbCost);
    driver_config.lbImbalanceTrigger = spec.lbImbalanceTrigger;

    // One driver per rank, coupled only through RankWorld; a one-rank
    // team is the classic driver over the platform's modeled ranks.
    RankTeam team(
        mesh_config, registry, *package, driver_config,
        [&](int) { return makeTagger(spec, *package); },
        spec.numeric ? ExecMode::Execute : ExecMode::Count,
        spec.platform.ranks);
    team.setCheckpointWriter(writer);
    team.setMetricsWriter(metrics);
    team.setFaultInjector(injector);
    team.setRestoreImage(restore);
    team.run();
    EvolutionDriver& driver0 = team.driver(0);

    if (writer) {
        writer->finish();
        result.checkpointsWritten = static_cast<int>(writer->snapshots());
        result.checkpointDrainSeconds = writer->drainSeconds();
        result.checkpointCaptureSeconds =
            driver0.checkpointCaptureSeconds();
    }

    MemoryTracker tracker;
    team.mergeInstrumentation(&result.profiler, &tracker);

    result.zoneCycles = team.zoneCycles();
    result.commCells = team.commCells();
    result.commFaces = team.commFaces();
    result.cellUpdates = 2 * team.zoneCycles(); // two RK stages
    result.finalBlocks = team.mesh(0).numBlocks();
    result.kokkosBytes = tracker.currentBytes();
    result.history = team.aggregatedHistory();
    result.wallSeconds = team.wallSeconds();
    result.traffic = team.world().traffic();
    result.migratedStorageBytes = team.migratedStorageBytes();

    RunArtifacts artifacts;
    artifacts.profiler = &result.profiler;
    artifacts.ncycles = driver0.cycle();
    artifacts.zoneCycles = result.zoneCycles;
    artifacts.commCells = result.commCells;
    artifacts.kokkosBytes = result.kokkosBytes;
    artifacts.remoteWireBytes = driver0.bufferCache().remoteWireBytes();
    artifacts.remoteMsgsPerCycle =
        driver0.cycle() > 0
            ? static_cast<double>(result.traffic.remoteMessages) /
                  static_cast<double>(driver0.cycle())
            : 0.0;
    artifacts.finalBlocks = result.finalBlocks;

    const ExecutionModel model;
    result.report = model.evaluate(artifacts, spec.platform);
    return result;
}

ExperimentResult
Experiment::bestRank(ExperimentSpec base, int gpus,
                     const std::vector<int>& ranks_per_gpu_candidates,
                     int* best_ranks_per_gpu)
{
    require(!ranks_per_gpu_candidates.empty(),
            "bestRank needs at least one candidate");
    std::optional<ExperimentResult> best;
    int best_r = ranks_per_gpu_candidates.front();
    std::optional<ExperimentResult> first_oom;

    for (int r : ranks_per_gpu_candidates) {
        ExperimentSpec spec = base;
        spec.platform = PlatformConfig::gpu(gpus, gpus * r,
                                            base.platform.nodes);
        ExperimentResult result = Experiment(spec).run();
        if (result.oom()) {
            if (!first_oom)
                first_oom = std::move(result);
            continue;
        }
        if (!best || result.fom() > best->fom()) {
            best = std::move(result);
            best_r = r;
        }
    }
    if (best_ranks_per_gpu)
        *best_ranks_per_gpu = best_r;
    if (best)
        return *best;
    require(first_oom.has_value(), "bestRank produced no results");
    return *first_oom;
}

} // namespace vibe
