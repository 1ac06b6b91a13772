/**
 * @file package_descriptor.hpp
 * The physics-package seam: everything the timestep driver needs from
 * a PDE system, and nothing else.
 *
 * Parthenon applications (VIBE among them) are packages plugged into a
 * framework core through a StateDescriptor: the package declares its
 * variables (names, component counts, metadata flags) and registers
 * callbacks for fluxes, derived fields, timestep estimation, refinement
 * tagging and initial conditions; the driver, mesh, ghost exchange,
 * flux correction and load balancer never mention the PDE. This header
 * is our equivalent. EvolutionDriver, TaskList, GradientTagger and
 * Experiment consume only this interface (plus PackageRegistry for
 * deck selection); concrete physics lives in pkg/burgers_package.*,
 * pkg/advection_package.* and pkg/reaction_package.*.
 *
 * A package implements each operator by handing its per-cell physics
 * (initial condition, Riemann row, source term, cell speed, derived
 * formula, mass summand, gradient components) to the matching
 * skeleton in pkg/fv_ops.hpp. The skeletons own the launches, the
 * profiler records, the face ranges and the gid-ordered history fold,
 * so packages never touch them; advection and reaction also share the
 * constant-velocity transport in pkg/transport.hpp. A package's
 * derived formula is one function, used by both fillDerivedBlock and
 * the stage-2 pass of rk2StageBlock.
 *
 * Every operator works on one block; the driver decides how blocks
 * are scheduled (stage-graph tasks for fluxes and the stage update;
 * one launch over the owned blocks for the timestep and the initial
 * derived fill). Contract notes, enforced by the equivalence tests
 * (the fv_ops.hpp skeletons satisfy them; a package recording its own
 * kernel row, like reaction's source term, must too):
 * - Block operators may run concurrently for distinct blocks and must
 *   touch only that block's data, so the task-graph executor can
 *   interleave them with ghost exchange.
 * - They attribute profiler records explicitly (the `*At` recording
 *   variants with the block's rank), never through the context's
 *   ambient phase or current rank, which concurrent blocks would race
 *   on.
 * - In counting mode (`!ctx.executing()`) operators record kernel
 *   costs but skip bodies; results must not be read.
 */
#pragma once

#include "comm/rank_world.hpp"
#include "mesh/mesh.hpp"
#include "pkg/fv_ops.hpp"

namespace vibe {

/**
 * Abstract physics package: variable registrations plus the driver
 * callbacks. Implementations are stateless operator collections over a
 * Mesh — all per-cycle mutable state lives in the MeshBlocks; the
 * package holds configuration only, so one instance may serve many
 * meshes and threads.
 */
class PackageDescriptor
{
  public:
    virtual ~PackageDescriptor() = default;

    /** Deck-facing package name (`<job> package = <name>`). */
    virtual const std::string& name() const = 0;

    /**
     * Variable declarations for this package: conserved (Independent)
     * variables with ghost/flux roles and Derived fields. The mesh
     * sizes every block's storage from this registry, so two packages
     * are interchangeable without touching mesh/ or comm/.
     */
    virtual VariableRegistry buildRegistry() const = 0;

    /** Set initial conditions on one block (interior AND ghosts). */
    virtual void initializeBlock(const ExecContext& ctx,
                                 MeshBlock& block) const = 0;

    /**
     * Reconstruction + fluxes for one block (stage-graph task). Reads
     * only the block's own data and chunk-private row scratch, so the
     * driver runs these tasks concurrently in every memory layout.
     */
    virtual void calculateFluxesBlock(Mesh& mesh,
                                      MeshBlock& block) const = 0;

    /** RK2 stage 1 or 2 of one block once its fluxes are final
     *  (stage-graph task): fvRk2StageBlock with the package's
     *  source term and derived formula. */
    virtual void rk2StageBlock(Mesh& mesh, MeshBlock& block, int stage,
                               double dt) const = 0;

    /** Recompute one block's Derived fields from its conserved state. */
    virtual void fillDerivedBlock(Mesh& mesh, MeshBlock& block) const = 0;

    /**
     * One block's CFL timestep, capped at `fallback_dt` (the cap is
     * also the counting-mode result, where no cell is read). The
     * driver takes the min over blocks and the rank AllReduce; min is
     * exact, so the step dt does not depend on how blocks are spread
     * over threads or ranks.
     */
    virtual double estimateTimestepBlock(Mesh& mesh, MeshBlock& block,
                                         double fallback_dt) const = 0;

    /**
     * Per-cycle history reduction (the conserved "mass" the driver
     * logs in CycleStats.mass) plus an AllReduce.
     */
    virtual double massHistory(Mesh& mesh, RankWorld& world) const = 0;

    /**
     * Refinement criterion for one block (numeric mode only);
     * counting-mode studies use an analytic tagger instead.
     */
    virtual RefinementFlag tagBlock(const MeshBlock& block,
                                    const ExecContext& ctx) const = 0;
};

} // namespace vibe
