/**
 * @file advection_package.hpp
 * Linear advection: the second physics package, proving the
 * PackageDescriptor seam with a workload whose exact solution is
 * known.
 *
 *   dphi/dt + div(v phi) = 0,   v = (vx, vy, vz) constant,
 *   e = 0.5 phi^2               (derived "energy" density),
 *
 * discretized with the same Godunov machinery as Burgers — WENO5/PLM
 * reconstruction through the shared row-fused flux kernel
 * (fvCalculateFluxesBlock) — but with the exact upwind flux (the
 * Riemann solution of a linear equation).
 * Because v is constant the solution is the initial profile translated
 * rigidly, phi(x, t) = phi0(x - v t) with periodic wrap, so tests can
 * compare a full AMR run (ghost exchange, flux correction, mid-run
 * refine/derefine, pooling) against `analyticValue` directly.
 * Selected from the deck with `<job> package = advection`.
 */
#pragma once

#include <string>

#include "comm/rank_world.hpp"
#include "pkg/package_descriptor.hpp"
#include "pkg/transport.hpp"

namespace vibe {

/** Initial profiles offered by the package. */
enum class AdvectionProfile
{
    GaussianBlob, ///< Compact pulse (drives AMR around the feature).
    Sine,         ///< Smooth periodic field (accuracy studies).
};

AdvectionProfile advectionProfileFromName(const std::string& name);

/**
 * Physics/numerics parameters for the advection package: the shared
 * transport knobs (WENO5 by default) plus the initial profile.
 */
struct AdvectionConfig : TransportConfig
{
    AdvectionProfile ic = AdvectionProfile::GaussianBlob;

    /** Read the `<advection>` deck block. */
    static AdvectionConfig fromParams(const ParameterInput& pin);
};

/**
 * Advection registry: one conserved scalar `phi` (ghost-exchanged,
 * flux-corrected) and the derived energy `phi_energy`. Deliberately
 * disjoint from the Burgers names {u, q, d}: the registry test pins
 * down that packages own their variable sets.
 */
VariableRegistry makeAdvectionRegistry();

/** Stateless operator collection over a Mesh (configuration only). */
class AdvectionPackage : public PackageDescriptor
{
  public:
    explicit AdvectionPackage(const AdvectionConfig& config)
        : config_(config)
    {
    }

    const AdvectionConfig& config() const { return config_; }

    const std::string& name() const override;

    VariableRegistry buildRegistry() const override
    {
        return makeAdvectionRegistry();
    }

    /**
     * Exact solution at physical point (x, y, z) and time t: the
     * initial profile translated by v t with periodic wrap on the
     * unit domain. Inactive dimensions (ndim < 3) are pinned to 0.5
     * and do not translate, matching initializeBlock.
     */
    double analyticValue(double x, double y, double z, double t,
                         int ndim) const;

    void initializeBlock(const ExecContext& ctx,
                         MeshBlock& block) const override;

    /** Reconstruction + exact upwind fluxes (shared transport). */
    void
    calculateFluxesBlock(Mesh& mesh, MeshBlock& block) const override
    {
        transportFluxesBlock(mesh, block, config_);
    }

    void rk2StageBlock(Mesh& mesh, MeshBlock& block, int stage,
                       double dt) const override;

    /** e = 0.5 phi^2. */
    void fillDerivedBlock(Mesh& mesh, MeshBlock& block) const override;

    /** CFL dt from the constant speeds (shared transport). */
    double
    estimateTimestepBlock(Mesh& mesh, MeshBlock& block,
                          double fallback_dt) const override
    {
        return transportTimestepBlock(mesh, block, config_, fallback_dt);
    }

    /** Total phi mass — conserved to round-off by the flux-corrected
     *  scheme. */
    double massHistory(Mesh& mesh, RankWorld& world) const override;

    /** maxSpeed * max index-space gradient of phi (shared transport). */
    RefinementFlag
    tagBlock(const MeshBlock& block, const ExecContext& ctx) const override
    {
        return transportTagBlock(block, ctx, config_);
    }

  private:
    AdvectionConfig config_;
};

} // namespace vibe
