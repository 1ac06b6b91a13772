/**
 * @file experiment.hpp
 * The characterization harness: configure a workload (mesh size,
 * MeshBlockSize, #AMR Levels), run the instrumented AMR simulation
 * under a platform configuration's rank count, and evaluate the
 * performance model — one call per bar/point of every paper figure.
 */
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "driver/evolution_driver.hpp"
#include "exec/kernel_profiler.hpp"
#include "exec/memory_tracker.hpp"
#include "obs/attribution.hpp"
#include "perfmodel/execution_model.hpp"
#include "perfmodel/platform.hpp"

namespace vibe {

/** One experiment point: workload x platform. */
struct ExperimentSpec
{
    // Workload (§II-F parameters).
    int meshSize = 128;   ///< Cells per dimension at the base level.
    int blockSize = 16;   ///< MeshBlockSize per dimension.
    int amrLevels = 3;    ///< Paper's "#AMR Levels" (1 = uniform).
    int ndim = 3;
    int numScalars = 8;
    int numGhost = 4;
    int ncycles = 10;     ///< Evolution cycles to simulate.
    /**
     * Physics package (PackageRegistry name, the `<job> package`
     * knob): "burgers" (the VIBE workload), "advection" or
     * "reaction". The harness itself is package-agnostic.
     */
    std::string package = "burgers";
    /**
     * Numeric mode runs the real WENO5/HLL/RK2 solver (small configs,
     * examples, tests); counting mode evolves the identical mesh
     * structure with an analytic ripple tagger and skips kernel bodies
     * (large perf studies).
     */
    bool numeric = false;
    bool optimizeAuxMemory = false; ///< §VIII-B layout ablation.
    bool randomizeBufferKeys = true; ///< §VIII-A ablation.
    /**
     * Host threads for kernel execution (the `exec/num_threads` knob):
     * 1 = the serial fast path, >1 = a persistent ThreadPoolSpace.
     * Only affects wall-clock of numeric runs; recorded work and mesh
     * state are backend-independent.
     */
    int numThreads = 1;
    /**
     * Simulated ranks executing concurrently (the `exec/num_ranks`
     * knob). Every run is a RankTeam: 1 is the classic single driver,
     * whose RankWorld models `platform.ranks`; >1 runs one driver per
     * rank over a disjoint block shard, all coupling through RankWorld,
     * turning the §V rank scaling from a model output into a
     * measurement. >1 requires `numeric`; results are bitwise identical
     * to numRanks = 1.
     */
    int numRanks = 1;
    /**
     * Must stay true: boundary exchange always runs over the fused
     * BoundaryPlan. Kept only so existing callers that set it still
     * compile; Experiment::run rejects false with an error naming this
     * field.
     */
    bool fusedBoundaries = true;
    /**
     * Per-block cost source for load balancing (the `amr/lb_cost`
     * knob): "" defers to VIBE_LB_COST, then "uniform"; "measured"
     * feeds EMA-smoothed per-block wall clocks into the partitioner.
     */
    std::string lbCost;
    /**
     * Partition hysteresis (the `amr/lb_imbalance_trigger` knob): only
     * adopt a new assignment when the projected max/mean rank-cost
     * imbalance improves by at least this much (0 = always adopt).
     */
    double lbImbalanceTrigger = 0.0;
    /**
     * Extra deck parameters handed to the package factory verbatim as
     * {block, key, value} triples — the spec-level equivalent of
     * writing them in an input deck (e.g. {"reaction", "stiffness",
     * "6"} steepens the equilibrium solve for imbalance benches).
     */
    std::vector<std::array<std::string, 3>> packageParams;

    // Checkpoint / restart (numeric mode only).
    /** Capture a checkpoint every N cycles (0 = never). */
    std::int64_t checkpointEvery = 0;
    /** Destination checkpoint file (required when checkpointEvery > 0). */
    std::string checkpointPath;
    /** Drain snapshots to disk off-thread (double buffered). */
    bool checkpointAsync = true;
    /**
     * Supervised recovery: on a failed attempt, retry from the last
     * durable checkpoint up to this many times (0 = fail fast).
     */
    int maxRestarts = 0;
    /** Pause before each retry (real services back off; tests use 0). */
    double restartBackoffSeconds = 0.0;
    /**
     * Deterministic fault injection: rank `failRank` throws at cycle
     * `failCycle` (-1 = disarmed). Each field left negative falls
     * back to its own env twin, `VIBE_FAIL_RANK` / `VIBE_FAIL_CYCLE`.
     */
    int failRank = -1;
    std::int64_t failCycle = -1;

    // Observability (the `<obs>` deck block).
    /**
     * Chrome trace-event JSON destination ("" = tracing off). Empty
     * falls back to the VIBE_TRACE environment knob at construction.
     * The trace covers the final (successful) attempt only.
     */
    std::string tracePath;
    /**
     * Per-cycle JSONL heartbeat destination ("" = metrics off). Empty
     * falls back to VIBE_METRICS. Cycle records stream during the run;
     * a footer record with build/config identity closes the file.
     */
    std::string metricsPath;

    // Platform.
    PlatformConfig platform = PlatformConfig::gpu(1, 1);

    /** CFL-consistent fixed dt for counting mode (u_char = 1). */
    double fixedDt() const;
};

/** Everything measured + modeled for one experiment point. */
struct ExperimentResult
{
    ExperimentSpec spec;
    TimingReport report;

    // Workload facts (exact, from the instrumented run).
    std::int64_t zoneCycles = 0;
    std::int64_t commCells = 0;
    std::int64_t commFaces = 0;
    std::int64_t cellUpdates = 0;  ///< Interior-cell updates (2 stages).
    std::size_t finalBlocks = 0;
    std::size_t kokkosBytes = 0;
    std::vector<CycleStats> history;

    // Measured-run facts (the --measured benches read these).
    /** Wall seconds of RankTeam::run(): rank-state construction,
     *  initialize and evolve (all ranks, at every rank count). */
    double wallSeconds = 0;
    /** RankWorld traffic counters at the end of the run. */
    Traffic traffic;
    /** Real state bytes migrated by load balancing (sharded runs). */
    double migratedStorageBytes = 0;

    // Checkpoint / recovery facts (the robustness benches read these).
    /** Attempts beyond the first (0 on a clean run). */
    int restarts = 0;
    /** Wall seconds spent reading checkpoints + backing off. */
    double recoverySeconds = 0;
    /** Snapshots durably written by the final attempt. */
    int checkpointsWritten = 0;
    /** Collective capture seconds (on the critical path, all cycles). */
    double checkpointCaptureSeconds = 0;
    /** Encode+disk seconds (off-thread in async mode). */
    double checkpointDrainSeconds = 0;

    /** Run-total idle / critical-path attribution over `history`. */
    IdleSummary idle;

    /** Measured zone-cycles per wall second (0 if wall time is 0). */
    double measuredFom() const
    {
        return wallSeconds > 0
                   ? static_cast<double>(zoneCycles) / wallSeconds
                   : 0.0;
    }

    /**
     * Mean boundary messages per cycle over the run (all ranks,
     * bounds + flux): O(adjacent rank pairs) per phase on the fused
     * BoundaryPlan.
     */
    double messagesPerCycle() const
    {
        return perCycle(&CycleStats::boundaryMessages);
    }

    /**
     * Mean messages per cycle at one message per face channel (the
     * buffer cache's channel count, CycleStats::uncoalescedMessages):
     * the O(faces) count the plan coalesces away.
     */
    double uncoalescedMessagesPerCycle() const
    {
        return perCycle(&CycleStats::uncoalescedMessages);
    }

    /** Mean of one integral CycleStats counter over the run. */
    double perCycle(std::uint64_t CycleStats::*field) const
    {
        if (history.empty())
            return 0.0;
        std::uint64_t total = 0;
        for (const CycleStats& c : history)
            total += c.*field;
        return static_cast<double>(total) /
               static_cast<double>(history.size());
    }

    /** Mean modeled boundary bytes per cycle (invariant across paths). */
    double boundaryBytesPerCycle() const
    {
        if (history.empty())
            return 0.0;
        double total = 0;
        for (const CycleStats& c : history)
            total += c.boundaryBytes;
        return total / static_cast<double>(history.size());
    }

    /** Full profiler copy (opcode model, Table III, breakdowns). */
    KernelProfiler profiler;

    /** zone-cycles/sec under the modeled platform. */
    double fom() const { return report.fom; }
    bool oom() const { return report.memory.oom; }
    /** Serial fraction of total modeled time. */
    double serialFraction() const
    {
        return report.totalTime > 0
                   ? report.serialTime / report.totalTime
                   : 0.0;
    }
    /**
     * Multiplier converting this run's totals to a paper-length
     * production run (the calibration's assumed ~400 cycles).
     */
    double paperScale() const;
};

/** Runs one experiment point end to end. */
class Experiment
{
  public:
    /**
     * Captures the spec. Each of tracePath, metricsPath, lbCost,
     * failRank and failCycle left unset resolves here through
     * ParameterInput on an empty deck (its VIBE_* twin, else the
     * default), one key at a time, so every harness entry point
     * honors the env knobs uniformly.
     */
    explicit Experiment(const ExperimentSpec& spec);

    /**
     * Build the workload, simulate, and evaluate the platform model.
     * With checkpointing + maxRestarts configured this is a supervised
     * recovery loop: a failed attempt (e.g. an injected rank death)
     * tears the team down, re-reads the last durable checkpoint, and
     * retries until success or the restart budget is exhausted.
     */
    ExperimentResult run() const;

    /**
     * Evaluate `base` across candidate ranks-per-GPU values and return
     * the best non-OOM result (the paper's "BestR" series), or the
     * lowest-rank OOM result if every candidate OOMs.
     *
     * @param best_ranks_per_gpu If non-null, receives the winning R.
     */
    static ExperimentResult
    bestRank(ExperimentSpec base, int gpus,
             const std::vector<int>& ranks_per_gpu_candidates,
             int* best_ranks_per_gpu = nullptr);

  private:
    /**
     * One attempt: fresh initialize, or restore when `restore` set.
     * `writer` (owned by the retry loop in run(), so it outlives an
     * unwinding attempt) receives the periodic snapshots when set.
     */
    ExperimentResult runAttempt(FaultInjector* injector,
                                const CheckpointImage* restore,
                                CheckpointWriter* writer,
                                MetricsWriter* writer_metrics) const;

    ExperimentSpec spec_;
};

} // namespace vibe
