/**
 * @file boundary_buffers.hpp
 * Boundary-buffer cache: the directed communication channels between
 * neighboring MeshBlocks, with exact region calculus for same-level,
 * fine-to-coarse (restricted) and coarse-to-fine (prolongated)
 * exchanges, plus flux-correction channels at fine-coarse faces.
 *
 * Channels are enumerated from the receiver's perspective (one channel
 * per neighbor-list entry), mirroring Parthenon's tag map. The cache is
 * rebuilt after every mesh restructure; rebuilding sorts and then
 * (optionally) randomizes the boundary keys, reproducing the serial
 * cost the paper highlights in InitializeBufferCache (§VIII-A).
 */
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "comm/rank_world.hpp"
#include "mesh/mesh.hpp"
#include "util/random.hpp"

namespace vibe {

/** Inclusive index range. */
struct IndexRange
{
    int lo = 0;
    int hi = -1;

    int count() const { return hi >= lo ? hi - lo + 1 : 0; }
};

/** Inclusive 3-D index box (array-index space, ghosts included). */
struct Region3
{
    IndexRange i, j, k;

    std::int64_t cells() const
    {
        return std::int64_t{i.count()} * j.count() * k.count();
    }
};

/**
 * A directed ghost-cell channel. Geometry fields describe the
 * receiver-side target region and, where levels differ, the alignment
 * constants mapping receiver indices to sender indices:
 *
 * - levelDiff = 0: `send` and `recv` are congruent boxes.
 * - levelDiff = +1 (sender finer): receiving coarse cell C in dim d
 *   covers sender fine cells [2C - base2[d], 2C - base2[d] + 1]
 *   (interior-relative indices); the sender restricts on pack.
 * - levelDiff = -1 (sender coarser): receiver fine cell F in dim d lies
 *   in sender coarse cell (F - base[d]) >> 1 with intra-cell parity
 *   (F - base[d]) & 1; the wire carries the padded coarse slab `send`
 *   and the receiver prolongates on unpack.
 */
struct BoundsChannel
{
    ChannelId id;
    MeshBlock* sender = nullptr;
    MeshBlock* receiver = nullptr;
    int o1 = 0, o2 = 0, o3 = 0; ///< Direction from the receiver.
    int levelDiff = 0;          ///< sender level - receiver level.
    Region3 recv;               ///< Receiver target cells.
    Region3 send;               ///< Sender source cells (wire content).
    int base[3] = {0, 0, 0};    ///< Coarse->fine alignment (ld = -1).
    int base2[3] = {0, 0, 0};   ///< Fine->coarse alignment (ld = +1).

    /** Cells on the wire (the paper's "communicated cells" unit). */
    std::int64_t wireCells() const
    {
        return levelDiff == 1 ? recv.cells() : send.cells();
    }
};

/** A fine-to-coarse flux-correction channel across one shared face. */
struct FluxChannel
{
    ChannelId id;
    MeshBlock* sender = nullptr;   ///< Fine block.
    MeshBlock* receiver = nullptr; ///< Coarse block.
    int dir = 0;          ///< Face-normal dimension (0 = x1).
    int side = 1;         ///< +1: fine block on receiver's + side.
    int recvFaceIdx = 0;  ///< Receiver flux-array index along `dir`.
    int sendFaceIdx = 0;  ///< Sender flux-array index along `dir`.
    Region3 recvFaces;    ///< Receiver coarse faces (dir range is one).
    int base2[3] = {0, 0, 0}; ///< Transverse fine alignment.

    std::int64_t wireFaces() const { return recvFaces.cells(); }
};

/**
 * The cache of all channels for the current mesh structure, plus
 * per-block send/receive indexes. Owned by the ghost-exchange engine;
 * rebuilt by the driver after every restructure.
 */
class BoundaryBufferCache
{
  public:
    /**
     * @param randomize_keys Shuffle channel order after sorting, as
     *        Parthenon's InitializeBufferCache does (§VIII-A); the
     *        ablation bench toggles this.
     */
    BoundaryBufferCache(Mesh& mesh, bool randomize_keys,
                        std::uint64_t seed = 0x5eed);

    /** Rebuild all channels from the mesh (RebuildBufferCache). */
    void rebuild();

    const std::vector<BoundsChannel>& bounds() const { return bounds_; }
    const std::vector<FluxChannel>& flux() const { return flux_; }

    /** Indices into bounds() received by block `gid`. */
    const std::vector<int>& recvIndex(int gid) const
    {
        return recv_index_.at(gid);
    }

    /** Indices into flux() received by block `gid`. */
    const std::vector<int>& fluxRecvIndex(int gid) const
    {
        return flux_recv_index_.at(gid);
    }

    /** Ghost cells on the wire for one full exchange. */
    std::int64_t totalWireCells() const;
    /** Flux-correction faces on the wire for one full exchange. */
    std::int64_t totalWireFaces() const;
    /**
     * Flux-correction faces sent by blocks owned by `rank` in one
     * exchange (sender-attributed, so per-rank counts sum to
     * totalWireFaces across a team).
     */
    std::int64_t totalWireFacesFor(int rank) const;
    /** Channels whose endpoints live on different ranks. */
    std::size_t remoteChannelCount() const;
    /** Wire bytes crossing ranks in one exchange (all components). */
    double remoteWireBytes() const;

    /**
     * Number of cache rebuilds performed (serial-cost driver). The
     * cache is rebuilt on exactly the events that stale per-mesh block
     * tables (restructure, load-balance moves), so dependents — the
     * exchange's BoundaryPlan — stamp themselves with this count
     * instead of tracking remesh events themselves.
     */
    std::uint64_t rebuildCount() const { return rebuild_count_; }

  private:
    BoundsChannel makeBoundsChannel(MeshBlock& receiver,
                                    const NeighborBlock& nb) const;
    FluxChannel makeFluxChannel(MeshBlock& receiver,
                                const NeighborBlock& nb) const;

    Mesh* mesh_;
    bool randomize_keys_;
    Rng rng_;
    std::vector<BoundsChannel> bounds_;
    std::vector<FluxChannel> flux_;
    std::vector<std::vector<int>> recv_index_;
    std::vector<std::vector<int>> flux_recv_index_;
    std::uint64_t rebuild_count_ = 0;
};

} // namespace vibe
