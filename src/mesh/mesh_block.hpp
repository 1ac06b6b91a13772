/**
 * @file mesh_block.hpp
 * MeshBlock: a regular array of cells representing a subvolume of the
 * computational domain, the fundamental granularity of refinement
 * (paper §II-F).
 *
 * Every block carries `num_ghost` ghost-cell layers per active dimension
 * (4 for WENO5), packed conserved variables, a step-start copy for RK2,
 * face fluxes and derived fields.
 *
 * What is allocated and what is accounted differ on purpose. The
 * MemoryTracker and dataBytes() model Parthenon's device layout: every
 * array over the ghosted box, plus (optionally) the full-block
 * face-reconstruction scratch whose footprint the paper's §VIII-B
 * optimization targets, and the RK `dudt` register. Host storage is
 * smaller: only `cons` and `derived` are ghosted (exchange and the
 * stencils read their ghosts); `cons0` and the face fluxes, whose
 * ghosts nothing reads, cover the interior cells (resp. interior
 * faces) and are indexed with the same ghosted (k, j, i) through an
 * Array4 origin; the reconstruction scratch is per-chunk row scratch
 * in the flux kernel, and `dudt` is per-chunk row scratch in the
 * stage update.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "exec/exec_context.hpp"
#include "mesh/block_tree.hpp"
#include "mesh/logical_location.hpp"
#include "mesh/ownership_audit.hpp"
#include "mesh/variable.hpp"
#include "util/array4.hpp"

namespace vibe {

class BlockMemoryPool;

/**
 * Whether block data is materialized, only accounted (counting mode),
 * or absent entirely (a rank-sharded replica's view of a block owned
 * by another rank: structure and metadata are replicated, storage is
 * not — any attempt to read its arrays is a bug, which is what makes
 * direct cross-rank memory access structurally impossible).
 */
enum class DataMode { Real, Virtual, Shadow };

/** Physical extent and cell widths of one block. */
struct BlockGeometry
{
    double x1min = 0, x1max = 1;
    double x2min = 0, x2max = 1;
    double x3min = 0, x3max = 1;
    double dx1 = 1, dx2 = 1, dx3 = 1;

    /** Cell-center coordinate of interior cell index `i` (0-based). */
    double x1c(int i) const { return x1min + (i + 0.5) * dx1; }
    double x2c(int j) const { return x2min + (j + 0.5) * dx2; }
    double x3c(int k) const { return x3min + (k + 0.5) * dx3; }

    double cellVolume() const { return dx1 * dx2 * dx3; }
};

/** Interior/ghost cell-count description shared by all blocks of a mesh. */
struct BlockShape
{
    int ndim = 3;
    int nx1 = 16, nx2 = 16, nx3 = 16; ///< Interior cells per dimension.
    int ng = 4;                       ///< Ghost layers per active dim.

    int ni() const { return nx1 + 2 * ng; }
    int nj() const { return ndim >= 2 ? nx2 + 2 * ng : 1; }
    int nk() const { return ndim >= 3 ? nx3 + 2 * ng : 1; }

    int is() const { return ng; }
    int ie() const { return ng + nx1 - 1; }
    int js() const { return ndim >= 2 ? ng : 0; }
    int je() const { return ndim >= 2 ? ng + nx2 - 1 : 0; }
    int ks() const { return ndim >= 3 ? ng : 0; }
    int ke() const { return ndim >= 3 ? ng + nx3 - 1 : 0; }

    /** Interior cells (the "zones" of the figure of merit). */
    std::int64_t interiorCells() const
    {
        return std::int64_t{nx1} * (ndim >= 2 ? nx2 : 1) *
               (ndim >= 3 ? nx3 : 1);
    }
    /** Cells including ghosts. */
    std::int64_t totalCells() const
    {
        return std::int64_t{ni()} * nj() * nk();
    }
};

/**
 * One mesh block: structure, ownership and (optionally) data.
 *
 * Blocks are created by the Mesh; user code receives references. In
 * DataMode::Virtual no arrays are materialized, but every array is
 * registered with the MemoryTracker at its accounted (ghosted) size,
 * exactly as in DataMode::Real, so footprints match numeric runs. The
 * real storage of a Real block is the sum of its arrays' sizeBytes(),
 * less than dataBytes() (see the file comment).
 */
class MeshBlock
{
  public:
    /**
     * @param loc       Position in the refinement forest.
     * @param shape     Cell counts (shared by all blocks).
     * @param geom      Physical extents of this block.
     * @param registry  Variable declarations (outlives the block).
     * @param ctx       Execution context (mode + memory tracker).
     * @param account_recon Account per-block reconstruction bytes
     *                  (`mesh/recon`, the pre-§VIII-B layout) in the
     *                  tracker and dataBytes(); false models the
     *                  optimized layout. Nothing is allocated either
     *                  way: the flux kernel reconstructs into per-chunk
     *                  row scratch. Every other array is accounted
     *                  over the ghosted box; of those only cons and
     *                  derived are allocated over it (cons0 and the
     *                  fluxes cover the interior; dudt is accounted
     *                  only).
     * @param pool      Optional storage pool: array backing stores are
     *                  drawn from it and returned on destruction, and
     *                  buffers whose every cell is written before it
     *                  is read (cons0, fluxes) skip the zero-init
     *                  pass entirely. Must outlive the block.
     */
    /**
     * @param shadow Create without storage or tracker registration (a
     *               rank-sharded replica's non-owned block); the block
     *               can be materialize()d later when ownership arrives.
     */
    MeshBlock(const LogicalLocation& loc, const BlockShape& shape,
              const BlockGeometry& geom, const VariableRegistry& registry,
              const ExecContext& ctx, bool account_recon,
              BlockMemoryPool* pool = nullptr, bool shadow = false);
    ~MeshBlock();

    MeshBlock(const MeshBlock&) = delete;
    MeshBlock& operator=(const MeshBlock&) = delete;

    const LogicalLocation& loc() const { return loc_; }
    const BlockShape& shape() const { return shape_; }
    const BlockGeometry& geom() const { return geom_; }
    const VariableRegistry& registry() const { return *registry_; }

    int gid() const { return gid_; }
    void setGid(int gid) { gid_ = gid; }

    int rank() const { return rank_; }
    void setRank(int rank) { rank_ = rank; }

    /** Load-balance cost estimate (cells by default, §II-E). */
    double cost() const { return cost_; }
    void setCost(double cost) { cost_ = cost; }

    /** Cycle at which this block came into existence. */
    std::int64_t createdCycle() const { return created_cycle_; }
    void setCreatedCycle(std::int64_t cycle) { created_cycle_ = cycle; }

    RefinementFlag tag() const { return tag_; }
    void setTag(RefinementFlag tag) { tag_ = tag; }

    bool hasData() const { return mode_ == DataMode::Real; }
    DataMode mode() const { return mode_; }

    // Storage accessors. In VIBE_AUDIT_OWNERSHIP builds each access
    // asserts the calling thread owns this block (or is inside a
    // sanctioned materialize/unpack scope) — the runtime backstop for
    // the shadow-data-access lint rule; in normal builds auditAccess()
    // compiles to nothing.

    /** Packed conserved variables (Independent components). */
    RealArray4& cons()
    {
        auditAccess();
        return cons_;
    }
    const RealArray4& cons() const
    {
        auditAccess();
        return cons_;
    }
    /** Step-start copy used by RK averaging (interior cells only). */
    RealArray4& cons0()
    {
        auditAccess();
        return cons0_;
    }
    const RealArray4& cons0() const
    {
        auditAccess();
        return cons0_;
    }
    /** Derived variables. */
    RealArray4& derived()
    {
        auditAccess();
        return derived_;
    }
    const RealArray4& derived() const
    {
        auditAccess();
        return derived_;
    }
    /**
     * Face fluxes in direction `d` (0 = x1, 1 = x2, 2 = x3): the
     * interior faces, nx + 1 along `d`, face i sitting at the low side
     * of cell i.
     */
    RealArray4& flux(int d)
    {
        auditAccess();
        return flux_[d];
    }
    const RealArray4& flux(int d) const
    {
        auditAccess();
        return flux_[d];
    }

    /**
     * Bytes this block accounts for (identical in all data modes): the
     * ghosted device layout, not this host's smaller storage.
     */
    std::size_t dataBytes() const { return data_bytes_; }

    // --- Rank-sharded storage lifecycle -------------------------------

    /**
     * Allocate storage for a Shadow block (ownership arrived: a
     * migration landed here, or a restructure created it on its owner
     * rank). Draws from `pool` when given — the destination rank's
     * BlockMemoryPool — and registers with the context's tracker.
     * State-carrying arrays are zeroed exactly as at construction.
     */
    void materialize(const ExecContext& ctx, BlockMemoryPool* pool);

    /**
     * Release all storage (back into the pool it came from) and drop
     * the tracker registrations: the block's data now lives on another
     * rank and this replica keeps structure/metadata only.
     */
    void dematerialize();

    /**
     * Serialize the state that must survive a migration — the full
     * conserved and derived arrays, ghosts included — into a flat
     * payload (bitwise copies, so a migrated block is indistinguishable
     * from one that never moved). Scratch (cons0/flux) is
     * rebuilt every stage and does not travel.
     */
    std::vector<double> serializeState() const;

    /** Inverse of serializeState on a freshly materialized block. */
    void deserializeState(const std::vector<double>& payload);

    /** Elements serializeState produces for this block's shape. */
    std::size_t serializedStateCount() const;

  private:
    void auditAccess() const
    {
        ownership_audit::checkAccess(rank_);
    }

    /**
     * Add the canonical footprint to dataBytes(), registering each
     * array with `tracker` when one is given (the Shadow path passes
     * none): the one place the accounted sizes are written down.
     */
    void accountFootprint(MemoryTracker* tracker);

    void allocateAll(const ExecContext& ctx);
    void releaseAll();

    LogicalLocation loc_;
    BlockShape shape_;
    BlockGeometry geom_;
    const VariableRegistry* registry_;
    MemoryTracker* tracker_;
    BlockMemoryPool* pool_ = nullptr;
    DataMode mode_;
    bool account_recon_ = true;

    int gid_ = -1;
    int rank_ = 0;
    double cost_ = 1.0;
    std::int64_t created_cycle_ = 0;
    RefinementFlag tag_ = RefinementFlag::None;

    RealArray4 cons_, cons0_, derived_;
    RealArray4 flux_[3];

    std::size_t data_bytes_ = 0;
    std::vector<std::pair<std::string, std::size_t>> registered_;
};

} // namespace vibe
