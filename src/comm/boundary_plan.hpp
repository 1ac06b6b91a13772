/**
 * @file boundary_plan.hpp
 * BoundaryPlan: a persistent, phase-indexed plan of all boundary work
 * for the current mesh structure.
 *
 * The plan flattens every per-face BoundsChannel/FluxChannel of the
 * BoundaryBufferCache into a buffer table so that
 *
 *  - all pack/unpack (plus restrict-on-pack / prolong-on-unpack) work
 *    for a phase is split into a few sub-pack work lists (see
 *    PlanSubPack) that run as concurrent tasks, and
 *  - all traffic between one (src rank, dst rank) pair per phase is
 *    coalesced into ONE combined RankWorld mailbox message whose
 *    payload is the offset-directory concatenation of the per-face
 *    payloads (Parthenon's bvals_cc_in_one / AthenaK combined-buffer
 *    strategy).
 *
 * Message format: the payload is a flat array of doubles; entry e of
 * messageFor(phase, src, dst) occupies [offset, offset + count) and
 * carries exactly the doubles of entry e's channel, in the channel's
 * pack order (GhostExchange::packBoundsChannel and friends). Entries
 * are sorted by the cache's canonical channel key (not the cache's possibly
 * shuffled storage order), so independently built sender and receiver
 * replicas agree on the directory byte for byte. Rank pairs with no
 * adjacent blocks get no PlanMessage at all — the empty message is
 * elided, never sent.
 *
 * Lifecycle: the plan is generation-stamped against
 * BoundaryBufferCache::rebuildCount(), which moves on every restructure
 * and load-balance move. That stamp is the only staleness check:
 * ensureBuilt() rebuilds lazily at a serial point (GhostExchange's
 * task builders call it before adding a phase's tasks), and every
 * accessor asserts the generation still matches, so a stale plan is
 * structurally unusable rather than quietly wrong.
 *
 * Sub-packs (Parthenon's pack_size): the replica's owned blocks are
 * cut into contiguous Z-order ranges balanced by bounds payload
 * doubles, one range per sub-pack. Each sub-pack lists the plan
 * entries its blocks send and receive, so GhostExchange adds one pack
 * task and one unpack task per sub-pack and every worker takes a share
 * of each phase. The sub-pack count follows the space's concurrency: 1
 * on a serial space, kSubPacksPerThread per thread otherwise, so the
 * task executor's ready queue can even out uneven sub-packs.
 *
 * Thread safety: the rebuild state (built_/generation_/counters) is
 * guarded by mutex_ and annotated for clang's thread-safety analysis.
 * The message tables themselves are written only inside ensureBuilt()
 * — called at serial points on the owning rank's driver thread — and
 * are read lock-free by the sub-pack tasks.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "comm/boundary_buffers.hpp"
#include "comm/rank_world.hpp"
#include "mesh/mesh.hpp"
#include "util/thread_safety.hpp"

namespace vibe {

/** The two boundary phases the plan indexes. */
enum class PlanPhase
{
    Bounds = 0, ///< Ghost-cell exchange.
    Flux = 1,   ///< Flux correction at fine-coarse faces.
};

inline constexpr int kNumPlanPhases = 2;

/** Human-readable phase name (task labels, stall reports). */
const char* planPhaseName(PlanPhase phase);

/** One per-face channel's slice of a coalesced payload. */
struct PlanEntry
{
    /** Index into cache bounds() (Bounds phase) or flux() (Flux). */
    int channel = 0;
    /** First double of this entry within the combined payload. */
    std::size_t offset = 0;
    /** Payload doubles (wire cells/faces x conserved components). */
    std::size_t count = 0;
};

/** One coalesced (src rank -> dst rank) message for one phase. */
struct PlanMessage
{
    int src = 0, dst = 0;
    /** Rank-pair mailbox channel (CoalescedBounds/CoalescedFlux). */
    ChannelId id;
    /** Total payload doubles (sum of entry counts). */
    std::size_t doubles = 0;
    /** Modeled wire bytes — the sum over the message's channels. */
    double bytes = 0;
    /** Wire cells (Bounds) or faces (Flux) carried, for accounting. */
    std::int64_t wireUnits = 0;
    /** Offset directory, sorted by canonical channel key. */
    std::vector<PlanEntry> entries;
};

/** One entry of a sub-pack's work list: `entry` of local slot `slot`. */
struct PlanRow
{
    /** Index into localSendIds(phase) or localRecvIds(phase). */
    int slot = 0;
    /** Index into that message's entries. */
    int entry = 0;
};

/** A contiguous Z-order range of the replica's owned blocks. */
struct PlanSubPack
{
    /** The range, in Z (gid) order. */
    std::vector<MeshBlock*> blocks;
    /** Per phase: entries whose sender is in the range. */
    std::vector<PlanRow> sendRows[kNumPlanPhases];
    /** Per phase: distinct send slots sendRows writes. */
    std::vector<int> sendSlots[kNumPlanPhases];
    /** Per phase: entries whose receiver is in the range. */
    std::vector<PlanRow> recvRows[kNumPlanPhases];
    /** Per phase: distinct recv slots recvRows reads. */
    std::vector<int> recvSlots[kNumPlanPhases];
};

/**
 * Profiler arguments of one phase's pack and unpack kernels: per local
 * message in slot order, its rank and its entries' summed items (item
 * counts are integral, so the per-rank sums are exact in any order),
 * plus the mean innermost extent over all entries. Precomputed so each
 * phase records its kernels once, at a serial point.
 */
struct PlanPhaseProfile
{
    std::vector<int> sendRanks;
    std::vector<double> sendItems;
    double sendInnermost = 0;
    std::vector<int> setRanks;
    std::vector<double> setItems;
    double setInnermost = 0;
};

/**
 * The plan. Owned by GhostExchange alongside the BoundaryBufferCache
 * it is derived from; the cache must outlive the plan.
 */
class BoundaryPlan
{
  public:
    /**
     * `world` supplies the rank-pair universe: block owner ranks are
     * assigned by load balancing over the world's rank count, which
     * may exceed the mesh config's (a classic mesh modeling several
     * ranks under one driver). All three must outlive the plan.
     */
    BoundaryPlan(Mesh& mesh, const BoundaryBufferCache& cache,
                 const RankWorld& world);

    /**
     * Rebuild if unbuilt or stale; returns whether it rebuilt. Must be
     * called from the owning rank's driver thread at a serial point
     * (no phase of the plan in flight) — GhostExchange's task builders
     * do so.
     */
    bool ensureBuilt();

    /** True when the plan matches the cache's current structure. */
    bool current() const;

    /**
     * Rebuilds actually performed. Lazy: at most one per cache
     * rebuild, so never more than the cache's rebuildCount().
     */
    std::uint64_t buildCount() const;

    /** All messages for `phase`, sorted by (src, dst). */
    const std::vector<PlanMessage>& messages(PlanPhase phase) const;

    /** Indices into messages(phase) with src == rank. */
    const std::vector<int>& sendIds(PlanPhase phase, int rank) const;

    /** Indices into messages(phase) with dst == rank. */
    const std::vector<int>& recvIds(PlanPhase phase, int rank) const;

    /**
     * The coalesced message for a rank pair, or nullptr when the pair
     * shares no boundary (the message is elided, not sent empty).
     */
    const PlanMessage* messageFor(PlanPhase phase, int src,
                                  int dst) const;

    /**
     * Indices into messages(phase) this replica sends / receives: the
     * shard rank's pairs on a sharded replica, every pair on a classic
     * mesh (which steps all blocks). Position in the list is the
     * message's send / recv slot.
     */
    const std::vector<int>& localSendIds(PlanPhase phase) const;
    const std::vector<int>& localRecvIds(PlanPhase phase) const;

    /**
     * Sub-packs whose sendRows write each send slot. A message may be
     * sent once all of them have packed.
     */
    const std::vector<std::vector<int>>& slotWriters(PlanPhase phase) const;

    /** Send slot of recv slot r's message when this replica sends it
     *  too (self pairs; every pair on a classic mesh), else -1. */
    const std::vector<int>& recvSendSlot(PlanPhase phase) const;

    /** The sub-packs; never empty once built. */
    const std::vector<PlanSubPack>& subPacks() const;

    /** Sub-pack holding owned block `gid`. */
    int subPackOf(int gid) const;

    /** Profiler arguments for the phase's pack/unpack kernels. */
    const PlanPhaseProfile& profile(PlanPhase phase) const;

    /** Sub-packs per thread on a threaded space (see file comment). */
    static constexpr int kSubPacksPerThread = 3;

  private:
    void rebuild() VIBE_REQUIRES(mutex_);
    /** Cut the owned blocks into sub-packs and fill their rows. */
    void buildSubPacks() VIBE_REQUIRES(mutex_);
    /** Panic unless built against the cache's current generation. */
    void requireCurrent() const;

    Mesh* mesh_;
    const BoundaryBufferCache* cache_;
    const RankWorld* world_;

    /** Guards the rebuild state; see file comment for the discipline. */
    mutable Mutex mutex_;
    bool built_ VIBE_GUARDED_BY(mutex_) = false;
    /** cache_->rebuildCount() the tables were built against. */
    std::uint64_t generation_ VIBE_GUARDED_BY(mutex_) = 0;
    std::uint64_t build_count_ VIBE_GUARDED_BY(mutex_) = 0;

    /** Per-phase tables; written only under mutex_ at serial points. */
    std::vector<PlanMessage> messages_[kNumPlanPhases];
    std::vector<std::vector<int>> send_ids_[kNumPlanPhases];
    std::vector<std::vector<int>> recv_ids_[kNumPlanPhases];
    std::vector<int> local_send_[kNumPlanPhases];
    std::vector<int> local_recv_[kNumPlanPhases];
    std::vector<std::vector<int>> slot_writers_[kNumPlanPhases];
    std::vector<int> recv_send_slot_[kNumPlanPhases];
    PlanPhaseProfile profile_[kNumPlanPhases];
    std::vector<PlanSubPack> sub_packs_;
    /** Sub-pack index by gid; -1 for blocks this replica does not own. */
    std::vector<int> sub_pack_of_;
};

} // namespace vibe
