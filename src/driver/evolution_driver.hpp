/**
 * @file evolution_driver.hpp
 * The Parthenon timestep loop (paper Fig. 3): each cycle runs
 * Step (two RK2 stages of ghost exchange -> CalculateFluxes ->
 * flux correction -> FluxDivergence -> WeightedSumData, with
 * FillDerived after the second), LoadBalancingAndAMR
 * (Refinement::Tag -> UpdateMeshBlockTree ->
 * RedistributeAndRefineMeshBlocks), and EstimateTimeStep, plus the
 * per-cycle history reduction.
 *
 * One RK stage is one task graph: GhostExchange adds the boundary
 * traffic as BoundaryPlan sub-pack tasks (send, one poll per inbound
 * coalesced message, set) and returns their ids per sub-pack; each
 * owned block contributes one compute task, its fluxes then the
 * package's one-pass stage update (which still records Parthenon's
 * separate kernels), gated on its sub-pack's tasks, so comm and
 * compute of different sub-packs overlap. The driver knows the plan
 * only through those ids and BoundaryPlan::subPackOf(). The
 * timestep estimate runs as ONE launch over the owned blocks
 * (parForEach), every block's kernel inline on the worker that took
 * it: the phase launches once instead of once per block, the
 * small-block cost the paper traces, and every block still records
 * its own profiler row on its own rank.
 *
 * The driver accumulates the workload counters (zone-cycles,
 * communicated cells, block counts) that the performance model and the
 * figure-of-merit computation consume.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "comm/boundary_buffers.hpp"
#include "comm/ghost_exchange.hpp"
#include "comm/rank_world.hpp"
#include "driver/block_cost_model.hpp"
#include "driver/load_balance.hpp"
#include "driver/tagger.hpp"
#include "driver/task_list.hpp"
#include "mesh/mesh.hpp"
#include "pkg/package_descriptor.hpp"
#include "util/parameter_input.hpp"

namespace vibe {

class CheckpointWriter;
class FaultInjector;
class MetricsWriter;
struct CheckpointImage;

/** Loop-control parameters (paper §II-G policies as defaults). */
struct DriverConfig
{
    std::int64_t ncycles = 10;
    double tlim = 1e30;
    /** Timestep used in counting mode / before the first estimate. */
    double fixedDt = 2e-3;
    /** Minimum cycles between derefinements of a block (paper: 10). */
    int derefineGap = 10;
    /** Check refinement every N cycles (paper: 1). */
    int refineEvery = 1;
    /** Load balance every N cycles (paper: 1). */
    int lbEvery = 1;
    /**
     * Per-block cost fed to the partitioner (`<amr> lb_cost`, env
     * fallback VIBE_LB_COST): Uniform keeps the historical
     * interiorCells() weighting; Measured folds each cycle's per-task
     * wall clocks into an EMA per block, so spatially varying per-cell
     * work (the reaction package) rebalances.
     */
    LbCostMode lbCost = LbCostMode::Uniform;
    /**
     * Minimum projected max/mean imbalance improvement required to
     * adopt a partition that moves blocks (`<amr>
     * lb_imbalance_trigger`, 0 = always adopt).
     */
    double lbImbalanceTrigger = 0.0;
    /** Shuffle boundary keys in the buffer cache (§VIII-A). */
    bool randomizeBufferKeys = true;
    /**
     * Capture a checkpoint every N cycles (`<driver> checkpoint_every`,
     * 0 = never). The capture itself is collective — every rank frames
     * its shard and joins the gather — so the knob must be identical
     * across ranks; only a rank with an installed CheckpointWriter
     * (rank 0 on a team) also writes the file.
     */
    std::int64_t checkpointEvery = 0;

    static DriverConfig fromParams(const ParameterInput& pin);
};

/** Per-cycle workload record. */
struct CycleStats
{
    std::int64_t cycle = 0;
    double time = 0;
    double dt = 0;
    std::size_t nblocks = 0;
    std::int64_t interiorCells = 0;
    std::int64_t wireCells = 0;     ///< Ghost cells moved this cycle.
    std::int64_t wireFaces = 0;     ///< Flux-correction faces moved.
    int refined = 0;                ///< Blocks split this cycle.
    int derefined = 0;              ///< Sibling sets merged this cycle.
    int movedBlocks = 0;            ///< Blocks re-homed by load balance.
    /**
     * Real state bytes serialized through mailboxes by this cycle's
     * load balance (0 on the classic relabel-only path); the modeled
     * counterpart is LoadBalanceStats::movedBytes.
     */
    double migratedStorageBytes = 0;
    /**
     * Load-balance outcome this cycle: 0 = the partitioner did not
     * run, 1 = partition adopted (possibly with zero moves), 2 =
     * proposal rejected by hysteresis.
     */
    int lbDecision = 0;
    /** max/mean rank-cost imbalance after this cycle's lb (0 = none). */
    double lbImbalance = 0;
    double lbMaxRankCost = 0;  ///< Heaviest rank's cost at last lb.
    double lbMeanRankCost = 0; ///< Mean rank cost at last lb.
    /**
     * Boundary messages sent this cycle (bounds + flux corrections,
     * local and remote; block migration excluded) and their modeled
     * payload bytes. The fused boundary plan sends O(rank pairs)
     * messages per phase, where one message per face channel would be
     * O(blocks x faces) for the same bytes — the benches report both
     * (the uncoalesced count from the buffer cache's channel count).
     */
    std::uint64_t boundaryMessages = 0;
    double boundaryBytes = 0;
    /**
     * Messages this cycle's exchanges would take at one message per
     * face channel: the buffer cache's bounds (plus, with AMR, flux)
     * channels into this rank's blocks, once per RK stage.
     */
    std::uint64_t uncoalescedMessages = 0;
    double mass = 0;                ///< History output (numeric mode).
    /**
     * Wall seconds this cycle spent capturing a checkpoint snapshot
     * (the collective gather; the disk drain runs off-thread in async
     * mode and is reported by the writer instead). 0 on cycles with no
     * checkpoint.
     */
    double checkpointSeconds = 0;

    // Task-graph attribution (obs subsystem). Wall quantities are
    // per-rank wall seconds; busy/idle are thread-seconds summed over
    // the executor's concurrency, so busy + idle = wall x threads.
    /** Wall seconds this cycle's task graphs took to execute. */
    double taskWallSeconds = 0;
    /** Thread-seconds spent inside task bodies (compute + comm). */
    double busySeconds = 0;
    /**
     * Thread-seconds the executor had available but no ready task
     * filled — the starvation signal measured-cost load balancing
     * (ROADMAP item 4) attributes per rank.
     */
    double idleSeconds = 0;
    /**
     * Longest dependency chain through this cycle's graphs (summed
     * task seconds): the wall-clock floor no concurrency can beat.
     */
    double criticalPathSeconds = 0;
    /**
     * Per-rank idle thread-seconds. Empty on a plain per-rank history;
     * RankTeam::aggregatedHistory fills one entry per rank.
     */
    std::vector<double> rankIdleSeconds;
};

/** Runs the timestep loop over a Mesh. */
class EvolutionDriver
{
  public:
    /**
     * All dependencies outlive the driver. The driver owns the
     * boundary-buffer cache and ghost-exchange engine. The package is
     * any PackageDescriptor — the driver never names a concrete PDE.
     */
    EvolutionDriver(Mesh& mesh, const PackageDescriptor& package,
                    RankWorld& world, RefinementTagger& tagger,
                    const DriverConfig& config);

    /**
     * Phase "Initialise": initial conditions (numeric mode), initial
     * refinement iterations, initial load balance and ghost fill.
     */
    void initialize();

    /**
     * Restore instead of initialize(): rebuild the tree from the
     * image's leaf set, deserialize every block's state, adopt the
     * image's cycle/time and re-shard through the load-balance
     * migration path. Accepts any `num_ranks`/`num_threads` — the
     * image is decomposition-free — and continuation is bitwise
     * identical to the uninterrupted run. Validates the image against
     * this mesh/package and fatals on any mismatch.
     */
    void initializeFromCheckpoint(const CheckpointImage& image);

    /**
     * Install a checkpoint writer (not owned; may be null). On a rank
     * team only rank 0's driver gets one — every rank still joins the
     * capture gather, which is gated on `DriverConfig::checkpointEvery`
     * alone so the collective stays symmetric.
     */
    void setCheckpointWriter(CheckpointWriter* writer)
    {
        checkpoint_writer_ = writer;
    }

    /** Install a fault injector (not owned; may be null). */
    void setFaultInjector(FaultInjector* injector)
    {
        fault_injector_ = injector;
    }

    /**
     * Install a metrics writer (not owned; may be null). The driver
     * then emits one JSONL heartbeat record at the end of every cycle.
     * On a rank team only rank 0's driver gets one (same idiom as the
     * checkpoint writer), so the heartbeat's wire counters are rank
     * 0's shard view; run totals come from the Experiment footer.
     */
    void setMetricsWriter(MetricsWriter* writer)
    {
        metrics_writer_ = writer;
    }

    /** Wall seconds spent in checkpoint capture gathers so far. */
    double checkpointCaptureSeconds() const
    {
        return checkpoint_capture_seconds_;
    }

    /** Run until ncycles or tlim. */
    void run();

    /** One cycle: Step, LoadBalancingAndAMR, EstimateTimeStep. */
    void doCycle();

    std::int64_t cycle() const { return cycle_; }
    double time() const { return time_; }
    double dt() const { return dt_; }

    /** Total zone-cycles so far (FOM numerator, §III-A). */
    std::int64_t zoneCycles() const { return zone_cycles_; }
    /** Total ghost cells communicated so far. */
    std::int64_t commCells() const { return comm_cells_; }
    /** Total flux-correction faces communicated so far. */
    std::int64_t commFaces() const { return comm_faces_; }

    /**
     * Wall seconds spent executing the stage task graphs so far, and
     * the per-category task-time sums. Comm + compute exceeding wall
     * is exchange time hidden behind interior compute (fig14).
     */
    double taskWallSeconds() const { return task_wall_seconds_; }
    double taskCommSeconds() const { return task_comm_seconds_; }
    double taskComputeSeconds() const { return task_compute_seconds_; }

    const std::vector<CycleStats>& history() const { return history_; }

    BoundaryBufferCache& bufferCache() { return cache_; }
    GhostExchange& exchange() { return exchange_; }
    /** Measured-cost samples of the current cycle (lb_cost measured). */
    const BlockCostModel& costModel() const { return cost_model_; }

  private:
    void step();
    /** Partitioner tuning from the driver config (every lb call). */
    LoadBalanceOptions lbOptions() const
    {
        LoadBalanceOptions options;
        options.imbalanceTrigger = config_.lbImbalanceTrigger;
        options.costMode = config_.lbCost;
        return options;
    }
    /**
     * EstimateTimeStep: one launch of per-block CFL dts over the owned
     * blocks, their min, and the rank AllReduce.
     */
    double estimateTimestep();
    /**
     * One RK stage: the exchange's sub-pack comm tasks plus per-block
     * compute, wired through the returned task ids and the plan's
     * subPackOf() alone.
     */
    TaskList buildStageGraphFused(int stage, bool flux_correction);
    /**
     * Execute one task graph and fold its timings into the run totals
     * AND the current cycle's attribution accumulators (wall, busy,
     * idle, critical path) — the single funnel every stage graph and
     * checkpoint capture goes through, so the
     * fig14 overlap columns and the obs idle attribution cannot
     * diverge. Also stamps the graph's (rank, cycle) trace identity.
     */
    void runGraph(TaskList& tl, const TaskExecOptions& options);
    /** Emit the per-cycle JSONL heartbeat (metrics writer installed). */
    void emitHeartbeat(const CycleStats& stats, double cycle_wall);
    /**
     * Capture-and-enqueue hook at the end of a cycle: when the cycle
     * count hits `checkpointEvery`, run the collective capture as a
     * task in the stage graph and hand the image to the writer (if one
     * is installed on this rank).
     */
    void maybeWriteCheckpoint(CycleStats& stats);
    void loadBalancingAndAmr();
    void applyRestructureData(const Mesh::Restructure& restructure);

    /** One rank's refinement decision for a block (wire format). */
    struct FlagEntry
    {
        LogicalLocation loc;
        int flag = 0;
    };
    /**
     * Aggregate per-rank refinement flags into the replicated flag
     * map: a real AllGather on a sharded team (every rank receives the
     * union and rebuilds the identical tree), a pass-through on the
     * classic path.
     */
    RefinementFlagMap gatherFlags(std::vector<FlagEntry> local,
                                  double bytes_per_rank,
                                  CollAccount account);
    RefinementFlagMap collectFlags();

    Mesh* mesh_;
    const PackageDescriptor* package_;
    RankWorld* world_;
    RefinementTagger* tagger_;
    DriverConfig config_;
    BoundaryBufferCache cache_;
    GhostExchange exchange_;
    /** Per-owned-block dts of the current estimate (reused scratch). */
    std::vector<double> block_dts_;

    std::int64_t cycle_ = 0;
    double time_ = 0;
    double dt_ = 0;
    int last_refined_ = 0;
    int last_derefined_ = 0;
    int last_moved_ = 0;
    double last_migrated_bytes_ = 0;
    int last_lb_decision_ = 0;
    double last_lb_imbalance_ = 0;
    double last_lb_max_cost_ = 0;
    double last_lb_mean_cost_ = 0;
    std::int64_t zone_cycles_ = 0;
    std::int64_t comm_cells_ = 0;
    std::int64_t comm_faces_ = 0;
    std::uint64_t boundary_messages_ = 0;
    double boundary_bytes_ = 0;
    double task_wall_seconds_ = 0;
    double task_comm_seconds_ = 0;
    double task_compute_seconds_ = 0;
    double checkpoint_capture_seconds_ = 0;
    // Current-cycle attribution accumulators (reset in doCycle, folded
    // into CycleStats at the end of the cycle).
    double cycle_task_wall_ = 0;
    double cycle_busy_ = 0;
    double cycle_idle_ = 0;
    double cycle_critical_ = 0;
    CheckpointWriter* checkpoint_writer_ = nullptr;
    FaultInjector* fault_injector_ = nullptr;
    MetricsWriter* metrics_writer_ = nullptr;
    /**
     * Measured per-block cost accumulator (lb_cost = measured).
     * Samples are harvested from every executed task graph (tasks
     * carrying a block gid).
     */
    BlockCostModel cost_model_;
    std::vector<CycleStats> history_;
};

} // namespace vibe
