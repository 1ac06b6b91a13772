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
 * Each phase is available in two granularities:
 *
 * - The monolithic phase functions (exchangeBounds() and friends) run
 *   a whole phase over every block, as the seed did. They are used by
 *   driver initialization and by direct tests.
 * - The per-block task factories (sendBlockBounds, pollBlockBounds,
 *   setBlockBounds, and the flux-correction trio) are the graph nodes
 *   the task-graph driver schedules, so boundary polling interleaves
 *   with interior compute (§II-C). They are safe to run concurrently
 *   for distinct blocks: every send reads only the sender's interior,
 *   every unpack writes only the receiver's ghosts (or its own flux
 *   faces), and all profiler records carry explicit phase/rank
 *   attribution instead of touching shared ambient state.
 *
 * Per-cycle state (wire-cell and message counters, stale
 * mailbox entries from a cycle that threw) is reset at the top of
 * startReceiveBoundBufs(), so an exchange aborted mid-cycle can never
 * leave the next one waiting on phantom messages.
 *
 * A third granularity sits on top of both (<exec> fused_boundaries,
 * default on): the BoundaryPlan path. All traffic per (src rank, dst
 * rank) pair per phase travels as ONE coalesced mailbox message, and
 * the pack (or unpack) work of a phase is split into the plan's
 * sub-packs — contiguous Z-order block ranges — which the driver runs
 * as concurrent tasks: every worker packs and unpacks, not just the
 * one that picked up a single fused task. A message is sent by
 * whichever sub-pack finishes writing it last; a poll task moves each
 * arrival into a per-message inbox slot that several unpack
 * sub-packs then read. Payload buffers are recycled through a small
 * pool instead of allocated (and zero-filled) per phase. The
 * per-channel pack/unpack arithmetic is shared verbatim with the
 * per-face path (packBoundsChannel and friends), every channel writes
 * a disjoint payload slice or receiver region, and prolongation's
 * interior fallback reads cells no unpack writes — so the fused path
 * is bitwise identical to the per-face path at any thread or rank
 * count. The plan must be current (BoundaryPlan::ensureBuilt() at a
 * serial point — the driver's graph builders do this) before any
 * fused phase function runs, and beginFusedPhase() opens each phase
 * at a serial point: it hands out the pooled payloads and records the
 * phase's profiler rows once, so profiler tables do not depend on how
 * sub-packs interleave.
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

    /** Run one complete ghost exchange (the four phases, in order). */
    void exchangeBounds();

    void startReceiveBoundBufs();
    void sendBoundBufs();
    void receiveBoundBufs();
    void setBounds();

    // --- Per-block task factories (bounds cycle) ---

    /** Pack and isend every channel whose sender is `block`. */
    void sendBlockBounds(const MeshBlock& block);
    /**
     * Probe the channels into `block`; true when every expected buffer
     * is present (polling cost recorded once, on completion).
     */
    bool pollBlockBounds(const MeshBlock& block);
    /** Receive and unpack every channel into `block`. */
    void setBlockBounds(MeshBlock& block);

    /**
     * Run one flux-correction exchange. Must be called after fluxes are
     * computed and before FluxDivergence consumes them.
     */
    void exchangeFluxCorrections();

    // --- Per-block task factories (flux-correction cycle) ---

    /** Restrict-pack and isend the corrections `block` sends. */
    void sendBlockFluxCorrections(const MeshBlock& block);
    /** Probe the flux channels into `block`; true when all present. */
    bool pollBlockFluxCorrections(const MeshBlock& block);
    /** Receive and apply the corrections destined for `block`. */
    void setBlockFluxCorrections(MeshBlock& block);

    /**
     * Fill ghost zones at non-periodic physical boundaries with
     * zero-gradient (outflow) data. No-op for periodic domains.
     */
    void applyPhysicalBoundaries();
    /** Physical-boundary fill for one block (task-graph node). */
    void applyPhysicalBoundariesBlock(MeshBlock& block);

    // --- Fused BoundaryPlan path (<exec> fused_boundaries) -----------

    /** True when this run routes boundaries through the plan. */
    bool fused() const { return mesh_->config().fusedBoundaries; }

    /** The plan (lazily rebuilt; see BoundaryPlan's lifecycle). */
    BoundaryPlan& plan() { return plan_; }
    const BoundaryPlan& plan() const { return plan_; }

    /**
     * Mark the plan stale and drop the payload pool and inbox with it
     * (message sizes change with the structure). The driver chains
     * this into the cache's rebuild hook; a serial point.
     */
    void invalidatePlan();

    /** Fused counterpart of startReceiveBoundBufs(). */
    void startReceiveBoundBufsFused();
    /**
     * Open one fused phase at a serial point (no task of the phase
     * running): recycle the phase's previous inbox into the payload
     * pool, hand each outbound message a pooled payload, arm the
     * per-message writer counts, and record the phase's pack/unpack
     * kernels and per-message bookkeeping in the profiler.
     */
    void beginFusedPhase(PlanPhase phase);
    /**
     * Pack sub-pack `p`'s outbound entries into their payload slices;
     * send each message this sub-pack was the last writer of.
     */
    void sendFusedSubPack(PlanPhase phase, int p);
    /**
     * Probe the message in recv slot `slot` (task-graph poll node); on
     * arrival move it into the inbox slot and record the polling cost.
     */
    bool pollFusedMessage(PlanPhase phase, int slot);
    /** Unpack (and prolongate) sub-pack `p`'s inbound entries. */
    void setFusedSubPack(PlanPhase phase, int p);

    /**
     * Payload buffers the fused path allocated because the pool held
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
     * startReceiveBoundBufs (bounds + flux, both paths). The driver
     * folds these into CycleStats so benches can report the per-face
     * vs fused coalescing win per cycle.
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
    void packAndSend(const BoundsChannel& ch);
    void unpack(const BoundsChannel& ch, const Message& msg);
    void packAndSendFlux(const FluxChannel& ch);
    void unpackFlux(const FluxChannel& ch, const Message& msg);

    /** Payload doubles for one bounds / flux channel. */
    std::size_t boundsPayloadCount(const BoundsChannel& ch) const;
    std::size_t fluxPayloadCount(const FluxChannel& ch) const;

    // Shared per-channel payload arithmetic: the per-face and fused
    // paths both call these, so their payloads agree bit for bit.
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
    /** Move a present message into its inbox slot, validating it. */
    void takeFusedMessage(PlanPhase phase, int slot);
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
     * Discard stale mailbox deliveries from an aborted cycle (both
     * per-face and coalesced formats). Classic worlds only — see the
     * body for why the sweep is wrong with concurrent rank drivers.
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
