/**
 * @file reaction_package.hpp
 * Advection + stiff two-species reaction: the workload that makes
 * per-block cost imbalance real.
 *
 *   da/dt + div(v a) = -T(a),   db/dt + div(v b) = +T(a),
 *   T(a) = rate * (a - c_eq(a)),
 *
 * where the equilibrium product concentration c_eq solves the
 * nonlinear balance c = a / (1 + stiffness * g(c) * exp(c - 1)),
 * g(c) = c^2 / (1 + c^2), by fixed-point iteration to `stiff_tol`
 * *per cell, every stage* — the structure of an equilibrium chemistry
 * network solve (in the spirit of Athena++'s gow17 network, where
 * photo-chemical rates are iterated per zone). Cells inside the
 * advected feature (a ~ 1) contract slowly and burn on the order of
 * a hundred iterations; quiescent floor cells (a ~ 1e-3) converge in
 * one or two. Per-block work therefore varies several-fold across the mesh
 * while the uniform cost model sees identical blocks — exactly the
 * imbalance measured-cost load balancing exists to fix.
 *
 * The source is antisymmetric per cell, so total (a + b) mass is
 * conserved to round-off on top of the flux-corrected transport, and
 * it is a pure function of local state — decomposition- and
 * thread-count-independence of the mesh state carries over unchanged.
 * Selected from the deck with `<job> package = reaction`.
 */
#pragma once

#include <string>

#include "comm/rank_world.hpp"
#include "pkg/package_descriptor.hpp"
#include "pkg/transport.hpp"

namespace vibe {

/**
 * Physics/numerics parameters for the reaction package: the shared
 * transport knobs plus the stiff source. Reconstruction defaults to
 * PLM (not WENO5): the package exists to make the stiff source a
 * first-order share of per-block work, so the transport stencil is
 * kept cheap.
 */
struct ReactionConfig : TransportConfig
{
    ReactionConfig() { recon = ReconMethod::Plm; }

    /** Reservoir->product relaxation rate (also caps dt at 0.5/rate). */
    double rate = 1.0;
    /**
     * Nonlinearity strength: larger = slower contraction = more
     * iterations in feature cells. The fixed-point map contracts for
     * a <~ 1.5 at the default; past ~5 it turns over-steep at a ~ 1
     * (|f'| > 1) and hot cells burn the full `max_iters` cap instead.
     */
    double stiffness = 3.0;
    /** Relative fixed-point convergence tolerance. */
    double stiffTol = 1e-12;
    /** Iteration cap (bounds pathological cells; see `stiffness`). */
    int maxIters = 200;

    /** Read the `<reaction>` deck block. */
    static ReactionConfig fromParams(const ParameterInput& pin);
};

/**
 * Reaction registry: one conserved two-component species vector
 * `chem` = (a, b) (ghost-exchanged, flux-corrected) and the derived
 * interaction density `chem_rate` = a * b.
 */
VariableRegistry makeReactionRegistry();

/** Stateless operator collection over a Mesh (configuration only). */
class ReactionPackage : public PackageDescriptor
{
  public:
    explicit ReactionPackage(const ReactionConfig& config)
        : config_(config)
    {
    }

    const ReactionConfig& config() const { return config_; }

    const std::string& name() const override;

    VariableRegistry buildRegistry() const override
    {
        return makeReactionRegistry();
    }

    /**
     * Equilibrium product concentration for reservoir value `a`,
     * iterated to config tolerance. Exposed so tests can pin the
     * iteration-count contrast between feature and floor cells.
     * @param iters_out If non-null, receives the iteration count.
     */
    double equilibrium(double a, int* iters_out = nullptr) const;

    void initializeBlock(const ExecContext& ctx,
                         MeshBlock& block) const override;

    /** Reconstruction + exact upwind fluxes (shared transport). */
    void
    calculateFluxesBlock(Mesh& mesh, MeshBlock& block) const override
    {
        transportFluxesBlock(mesh, block, config_);
    }

    /**
     * Stage update with the stiff source (kernel "ReactionSource"):
     * the per-cell equilibrium solve runs in the per-block task, so
     * its wall clock is attributed to the block — the signal the
     * measured cost model feeds on.
     */
    void rk2StageBlock(Mesh& mesh, MeshBlock& block, int stage,
                       double dt) const override;

    /** chem_rate = a * b. */
    void fillDerivedBlock(Mesh& mesh, MeshBlock& block) const override;

    /**
     * Advective CFL dt (shared transport), capped at 0.5/rate so the
     * explicit source relaxation stays stable. The cap is the same on
     * every block, so applying it per block leaves the step dt as is.
     */
    double estimateTimestepBlock(Mesh& mesh, MeshBlock& block,
                                 double fallback_dt) const override;

    /** Total (a + b) mass — conserved to round-off: the transport is
     *  flux-corrected and the source is antisymmetric per cell. */
    double massHistory(Mesh& mesh, RankWorld& world) const override;

    /**
     * Speed-weighted gradient of the reservoir species a (shared
     * transport): refinement tracks the advected feature, so refined
     * blocks are also the iteration-heavy ones.
     */
    RefinementFlag
    tagBlock(const MeshBlock& block, const ExecContext& ctx) const override
    {
        return transportTagBlock(block, ctx, config_);
    }

  private:
    ReactionConfig config_;
};

} // namespace vibe
