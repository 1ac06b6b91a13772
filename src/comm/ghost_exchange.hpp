/**
 * @file ghost_exchange.hpp
 * The four-function ghost-cell communication cycle (paper §II-D) and
 * the flux-correction exchange at fine-coarse faces.
 *
 * - StartReceiveBoundBufs: post/prepare receive bookkeeping.
 * - SendBoundBufs: restrict fine data destined for coarser neighbors
 *   (GPU-offloaded), pack variable data, and start non-blocking sends
 *   or local copies.
 * - ReceiveBoundBufs: poll with Iprobe/Test until every expected buffer
 *   has arrived.
 * - SetBounds: unpack buffers into ghost zones, prolongating coarse
 *   slabs into fine ghosts (GPU-offloaded), and mark buffers stale.
 *
 * Flux correction reuses the same machinery on flux fields only
 * (§II-C), replacing the coarse face flux with the restricted sum of
 * the fine fluxes so conservation holds across levels.
 *
 * All boundary traffic rides the BoundaryPlan. Every (src rank, dst
 * rank) pair exchanges ONE coalesced mailbox message per phase, and
 * the pack (or unpack) work of a phase is split into the plan's
 * sub-packs — contiguous Z-order block ranges — which the driver runs
 * as concurrent stage-graph tasks, so every worker packs and unpacks.
 * A message is sent by whichever sub-pack finishes writing it last; a
 * poll task moves each arrival into a per-message inbox slot that
 * several unpack sub-packs then read. Payload buffers are recycled
 * through a small pool instead of allocated (and zero-filled) per
 * phase. Every channel writes a disjoint payload slice or receiver
 * region, and prolongation's interior fallback reads cells no unpack
 * writes, so results are bitwise identical at any thread or rank
 * count and any sub-pack interleaving.
 *
 * Two granularities run the same sub-pack bodies:
 *
 * - The monolithic phase functions (exchangeBounds(),
 *   exchangeFluxCorrections()) run a whole phase as one launch over
 *   the sub-packs. Driver initialization and direct tests use them.
 * - The sub-pack task bodies (beginFusedPhase, sendSubPackEntries,
 *   pollFusedMessage, setSubPackEntries) are the stage-graph nodes.
 *
 * The plan must be current (BoundaryPlan::ensureBuilt() at a serial
 * point — the driver's graph builder and the monolithic functions do
 * this) before any phase runs, and beginFusedPhase() opens each phase
 * at a serial point: it hands out the pooled payloads and records the
 * phase's profiler rows once, so profiler tables do not depend on how
 * sub-packs interleave. All profiler records carry explicit phase and
 * rank attribution instead of touching shared ambient state.
 *
 * Per-cycle state (wire-cell and message counters, stale mailbox
 * entries from a cycle that threw) is reset at the top of
 * startReceiveBoundBufs(), so an exchange aborted mid-cycle can never
 * leave the next one waiting on phantom messages.
 */
#pragma once

#include <atomic>
#include <cstdint>

#include "comm/boundary_buffers.hpp"
#include "comm/boundary_plan.hpp"
#include "comm/rank_world.hpp"
#include "mesh/mesh.hpp"
#include "util/thread_safety.hpp"

namespace vibe {

/** Drives ghost and flux-correction exchanges over a RankWorld. */
class GhostExchange
{
  public:
    GhostExchange(Mesh& mesh, RankWorld& world,
                  BoundaryBufferCache& cache);

    /**
     * Run one complete ghost exchange (the four phases, in order) on
     * the calling thread, the sub-packs spread over the space as one
     * launch per pack/unpack step. A serial point: rebuilds a stale
     * plan first.
     */
    void exchangeBounds();

    /**
     * Run one flux-correction exchange, like exchangeBounds(). Must be
     * called after fluxes are computed and before FluxDivergence
     * consumes them.
     */
    void exchangeFluxCorrections();

    /**
     * Fill ghost zones at non-periodic physical boundaries with
     * zero-gradient (outflow) data. No-op for periodic domains.
     */
    void applyPhysicalBoundaries();
    /** Physical-boundary fill for one block (task-graph node). */
    void applyPhysicalBoundariesBlock(MeshBlock& block);

    /** The plan (lazily rebuilt; see BoundaryPlan's lifecycle). */
    BoundaryPlan& plan() { return plan_; }
    const BoundaryPlan& plan() const { return plan_; }

    /**
     * Mark the plan stale and drop the payload pool and inbox with it
     * (message sizes change with the structure). The driver chains
     * this into the cache's rebuild hook; a serial point.
     */
    void invalidatePlan();

    /**
     * Reset the per-cycle counters and prepare one coalesced receive
     * per inbound rank pair (the StartReceiveBoundBufs node).
     */
    void startReceiveBoundBufs();
    /**
     * Open one phase at a serial point (no task of the phase running):
     * recycle the phase's previous inbox into the payload pool, hand
     * each outbound message a pooled payload, arm the per-message
     * writer counts, and record the phase's pack/unpack kernels and
     * per-message bookkeeping in the profiler.
     */
    void beginFusedPhase(PlanPhase phase);
    /**
     * Pack sub-pack `p`'s outbound entries into their payload slices;
     * send each message this sub-pack was the last writer of.
     */
    void sendSubPackEntries(PlanPhase phase, int p);
    /**
     * Probe the message in recv slot `slot` (task-graph poll node); on
     * arrival move it into the inbox slot and record the polling cost.
     */
    bool pollFusedMessage(PlanPhase phase, int slot);
    /** Unpack (and prolongate) sub-pack `p`'s inbound entries. */
    void setSubPackEntries(PlanPhase phase, int p);

    /**
     * Payload buffers the exchange allocated because the pool held
     * none large enough (cumulative). Zero per cycle once warm on a
     * classic mesh, until the next remesh or migration drops the pool;
     * on a rank team a message with no reverse message (flux flows
     * fine -> coarse) allocates on its sender every phase.
     */
    std::uint64_t freshPayloadAllocs() const;
    /** Buffers the pool currently holds. */
    std::size_t pooledPayloads() const;

    /** Ghost cells moved in the most recent exchange cycle. */
    std::int64_t lastWireCells() const { return last_wire_cells_.load(); }

    /**
     * Boundary messages sent / modeled bytes since the last
     * startReceiveBoundBufs (bounds + flux). The driver folds these
     * into CycleStats so benches can report messages per cycle next to
     * the buffer cache's uncoalesced channel count.
     */
    std::uint64_t lastBoundaryMessages() const
    {
        return last_messages_.load();
    }
    double lastBoundaryBytes() const
    {
        return static_cast<double>(last_send_bytes_.load());
    }

  private:
    // Per-channel payload arithmetic: each plan entry is one channel.
    void packBoundsChannel(const BoundsChannel& ch, double* out) const;
    void unpackBoundsChannel(const BoundsChannel& ch,
                             const double* payload,
                             std::size_t count) const;
    void packFluxChannel(const FluxChannel& ch, double* out) const;
    void unpackFluxChannel(const FluxChannel& ch, const double* payload,
                           std::size_t count) const;

    /** One whole fused phase on the calling thread (monolithic). */
    void runFusedPhase(PlanPhase phase);
    /** Blocking poll for every inbound message of a phase. */
    void receiveFusedPhase(PlanPhase phase);
    /** Move a received message into its inbox slot, validating it. */
    void acceptFusedMessage(PlanPhase phase, int slot, Message msg);
    /** isend the finished payload of send slot `slot`. */
    void sendFusedMessage(PlanPhase phase, int slot);
    /** Best-fit pooled payload of `count` doubles (or a fresh one). */
    std::vector<double> acquirePayload(PlanPhase phase, std::size_t count)
        VIBE_REQUIRES(pool_mutex_);
    /** Return a payload to the phase's pool, keeping at most `cap`. */
    void recyclePayload(PlanPhase phase, std::vector<double> payload,
                        std::size_t cap) VIBE_REQUIRES(pool_mutex_);

    /** Account one boundary send against the per-cycle counters. */
    void countSend(double bytes);

    /**
     * Discard stale coalesced deliveries from an aborted cycle.
     * Classic worlds only — see the body for why the sweep is wrong
     * with concurrent rank drivers.
     */
    void discardStaleDeliveries();

    Mesh* mesh_;
    RankWorld* world_;
    BoundaryBufferCache* cache_;
    BoundaryPlan plan_;

    /** Per-phase fused state; slots index the plan's local id lists. */
    struct FusedPhaseState
    {
        /** Outbound payloads; the last writer moves each into isend. */
        std::vector<std::vector<double>> out;
        /** Sub-packs still packing into each send slot. */
        std::vector<std::atomic<int>> writersLeft;
        /** Arrived messages, filled by the poll tasks. */
        std::vector<Message> inbox;
    };
    FusedPhaseState fused_[kNumPlanPhases];

    /**
     * Recycled payload buffers per phase, at most one per outbound plan
     * message of that phase; see beginFusedPhase().
     */
    mutable Mutex pool_mutex_;
    std::vector<std::vector<double>> pool_[kNumPlanPhases]
        VIBE_GUARDED_BY(pool_mutex_);
    std::uint64_t fresh_allocs_ VIBE_GUARDED_BY(pool_mutex_) = 0;

    std::atomic<std::int64_t> last_wire_cells_{0};
    std::atomic<std::uint64_t> last_messages_{0};
    /** Modeled bytes are integral (cells x components x 8). */
    std::atomic<std::int64_t> last_send_bytes_{0};
};

} // namespace vibe
