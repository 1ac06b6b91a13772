/**
 * @file transport.hpp
 * Constant-velocity transport du/dt + div(v u) = 0 shared by the
 * advection and reaction packages: the deck config and the three
 * operators it determines, on the pkg/fv_ops.hpp skeletons.
 */
#pragma once

#include <cmath>
#include <string>

#include "pkg/fv_ops.hpp"
#include "util/parameter_input.hpp"

namespace vibe {

/** Transport parameters common to the advection and reaction decks. */
struct TransportConfig
{
    /** Constant advection velocity (characteristic speed per dim). */
    double vx = 1.0, vy = 0.5, vz = 0.25;
    double cfl = 0.4; ///< CFL safety factor (advective).
    ReconMethod recon = ReconMethod::Weno5;
    /**
     * Refine when the speed-weighted index-space gradient
     * maxSpeed * max|grad u_0| exceeds this; derefine below
     * `derefineTol`. The weight tracks how fast the profile sweeps
     * through a block.
     */
    double refineTol = 0.08;
    double derefineTol = 0.02;

    /** Read the transport keys of deck block `block`; absent keys keep
     *  the current values. */
    void
    readParams(const ParameterInput& pin, const std::string& block)
    {
        vx = pin.getReal(block, "vx", vx);
        vy = pin.getReal(block, "vy", vy);
        vz = pin.getReal(block, "vz", vz);
        cfl = pin.getReal(block, "cfl", cfl);
        if (pin.has(block, "recon"))
            recon = reconMethodFromName(pin.getString(block, "recon", ""));
        refineTol = pin.getReal(block, "refine_tol", refineTol);
        derefineTol = pin.getReal(block, "derefine_tol", derefineTol);
    }

    /** Largest per-dimension speed among the active dimensions. */
    double
    maxSpeed(int ndim) const
    {
        double speed = std::fabs(vx);
        if (ndim >= 2)
            speed = std::max(speed, std::fabs(vy));
        if (ndim >= 3)
            speed = std::max(speed, std::fabs(vz));
        return speed;
    }
};

/** x wrapped into [0, 1) (periodic unit domain). */
inline double
wrap01(double x)
{
    x = std::fmod(x, 1.0);
    return x < 0.0 ? x + 1.0 : x;
}

/**
 * Exact upwind flux for one (k, j) row of faces [fis, fie]: the
 * Riemann solution of the linear equation selects the upwind
 * reconstructed state, F = vel * u_upwind. Face i's states of
 * component n are l/r[n * stride + i - fis].
 */
inline void
upwindRow(const double* l, const double* r, int stride, RealArray4& flux,
          double vel, int ncomp, int k, int j, int fis, int fie)
{
    const double* upwind = vel >= 0.0 ? l : r;
    for (int n = 0; n < ncomp; ++n)
        for (int i = fis; i <= fie; ++i)
            flux(n, k, j, i) = vel * upwind[n * stride + i - fis];
}

/** Flops of one upwind flux per component (compare kHllFlopsPerComp). */
inline constexpr double kUpwindFlopsPerComp = 2.0;

/** Reconstruction + exact upwind fluxes (kernel "CalculateFluxes"). */
inline void
transportFluxesBlock(Mesh& mesh, MeshBlock& block,
                     const TransportConfig& config)
{
    const double vel[3] = {config.vx, config.vy, config.vz};
    fvCalculateFluxesBlock(
        mesh, block, config.recon, kUpwindFlopsPerComp, 0,
        [&](const double* l, const double* r, int stride, RealArray4& flux,
            int d, int ncomp, int k, int j, int fis, int fie, double*) {
            upwindRow(l, r, stride, flux, vel[d], ncomp, k, j, fis, fie);
        });
}

/**
 * CFL timestep from the constant speeds (kernel "EstTimeMesh"); the
 * sweep runs like every package's so counting-mode work stays
 * comparable.
 */
inline double
transportTimestepBlock(Mesh& mesh, MeshBlock& block,
                       const TransportConfig& config, double fallback_dt)
{
    const double vel[3] = {config.vx, config.vy, config.vz};
    return fvEstimateTimestepBlock(
        mesh, block, config.cfl, fallback_dt,
        [&](int d, int, int, int) { return std::fabs(vel[d]); });
}

/** Speed-weighted gradient tag on component 0 ("FirstDerivative"). */
inline RefinementFlag
transportTagBlock(const MeshBlock& block, const ExecContext& ctx,
                  const TransportConfig& config)
{
    const double indicator = config.maxSpeed(block.shape().ndim) *
                             fvMaxGradient(block, ctx, 0, 1);
    return refinementFlagFor(indicator, config.refineTol,
                             config.derefineTol);
}

} // namespace vibe
