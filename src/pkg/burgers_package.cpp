#include "pkg/burgers_package.hpp"

#include <cmath>

#include "pkg/fv_ops.hpp"
#include "solver/riemann.hpp"
#include "util/logging.hpp"

namespace vibe {

BurgersConfig
BurgersConfig::fromParams(const ParameterInput& pin)
{
    BurgersConfig config;
    config.numScalars =
        pin.getInt("burgers", "num_scalars", config.numScalars);
    config.cfl = pin.getReal("burgers", "cfl", config.cfl);
    if (pin.has("burgers", "recon"))
        config.recon =
            reconMethodFromName(pin.getString("burgers", "recon", ""));
    config.refineTol =
        pin.getReal("burgers", "refine_tol", config.refineTol);
    config.derefineTol =
        pin.getReal("burgers", "derefine_tol", config.derefineTol);
    if (pin.has("burgers", "ic"))
        config.ic =
            initialConditionFromName(pin.getString("burgers", "ic", ""));
    return config;
}

const std::string&
BurgersPackage::name() const
{
    static const std::string package_name = "burgers";
    return package_name;
}

VariableRegistry
makeBurgersRegistry(int num_scalars)
{
    require(num_scalars >= 1,
            "Burgers benchmark requires at least one passive scalar");
    VariableRegistry registry;
    registry.add({"u", 3, kIndependent | kFillGhost | kWithFluxes});
    registry.add({"q", num_scalars, kIndependent | kFillGhost |
                                        kWithFluxes});
    registry.add({"d", 1, kDerived});
    return registry;
}

InitialCondition
initialConditionFromName(const std::string& name)
{
    if (name == "gaussian_blob")
        return InitialCondition::GaussianBlob;
    if (name == "sine")
        return InitialCondition::Sine;
    if (name == "ripple")
        return InitialCondition::Ripple;
    fatal("unknown initial condition '", name, "'");
}

void
BurgersPackage::initializeBlock(const ExecContext& ctx, MeshBlock& block,
                                InitialCondition ic) const
{
    const int ndim = block.shape().ndim;
    const int ncomp = block.registry().ncompConserved();
    constexpr double two_pi = 6.283185307179586;

    fvInitializeBlock(
        ctx, block,
        [&](RealArray4& cons, int k, int j, int i, double x, double y,
            double z) {
            const double dx = x - 0.5, dy = y - 0.5, dz = z - 0.5;
            const double r2 = dx * dx + dy * dy + dz * dz;
            const double r = std::sqrt(r2);

            double u1 = 0, u2 = 0, u3 = 0, q = 1e-3;
            switch (ic) {
              case InitialCondition::GaussianBlob: {
                const double amp = std::exp(-r2 / (2 * 0.08 * 0.08));
                u1 = amp;
                u2 = 0.5 * amp;
                u3 = 0.25 * amp;
                q = amp + 1e-3;
                break;
              }
              case InitialCondition::Sine: {
                u1 = 0.2 * std::sin(two_pi * x);
                u2 = ndim >= 2 ? 0.2 * std::sin(two_pi * y) : 0.0;
                u3 = ndim >= 3 ? 0.2 * std::sin(two_pi * z) : 0.0;
                q = 1.0 + 0.5 * std::sin(two_pi * (x + y + z));
                break;
              }
              case InitialCondition::Ripple: {
                // Outward radial pulse centered on a thin shell.
                const double shell = 0.12;
                const double amp = std::exp(
                    -(r - shell) * (r - shell) / (2 * 0.03 * 0.03));
                const double inv_r = r > 1e-12 ? 1.0 / r : 0.0;
                u1 = amp * dx * inv_r;
                u2 = ndim >= 2 ? amp * dy * inv_r : 0.0;
                u3 = ndim >= 3 ? amp * dz * inv_r : 0.0;
                q = amp + 1e-3;
                break;
              }
            }
            cons(0, k, j, i) = u1;
            cons(1, k, j, i) = u2;
            cons(2, k, j, i) = u3;
            for (int m = 3; m < ncomp; ++m)
                cons(m, k, j, i) = q / (1.0 + 0.1 * (m - 3));
        });
}

void
BurgersPackage::calculateFluxesBlock(Mesh& mesh, MeshBlock& block) const
{
    // HLL row; the chunk's scratch holds the (ul, ur, f) state triple.
    fvCalculateFluxesBlock(
        mesh, block, config_.recon, kHllFlopsPerComp, 3,
        [](const RealArray4& rl, const RealArray4& rr, RealArray4& flux,
           int d, int ncomp, int k, int j, int fis, int fie,
           double* scratch) {
            double* ul = scratch;
            double* ur = ul + ncomp;
            double* f = ur + ncomp;
            for (int i = fis; i <= fie; ++i) {
                for (int n = 0; n < ncomp; ++n) {
                    ul[n] = rl(n, k, j, i);
                    ur[n] = rr(n, k, j, i);
                }
                hllFlux(ul, ur, d, ncomp, f);
                for (int n = 0; n < ncomp; ++n)
                    flux(n, k, j, i) = f[n];
            }
        });
}

void
BurgersPackage::fillDerivedBlock(Mesh& mesh, MeshBlock& block) const
{
    // d = 0.5 q0 (u.u): 5 reads, 1 write, ~6 flops per cell.
    fvFillDerivedBlock(mesh, block, KernelCosts{6.0, 6.0 * sizeof(double)},
                       [](const RealArray4& cons, int k, int j, int i) {
                           const double u1 = cons(0, k, j, i);
                           const double u2 = cons(1, k, j, i);
                           const double u3 = cons(2, k, j, i);
                           const double q0 = cons(3, k, j, i);
                           return 0.5 * q0 * (u1 * u1 + u2 * u2 + u3 * u3);
                       });
}

double
BurgersPackage::estimateTimestepBlock(Mesh& mesh, MeshBlock& block,
                                      double fallback_dt) const
{
    const RealArray4& cons = block.cons();
    return fvEstimateTimestepBlock(
        mesh, block, config_.cfl, fallback_dt,
        [&](int d, int k, int j, int i) {
            return std::fabs(cons(d, k, j, i));
        });
}

double
BurgersPackage::massHistory(Mesh& mesh, RankWorld& world) const
{
    return fvMassHistory(mesh, world, KernelCosts{2.0, 1.0 * sizeof(double)},
                         [](const RealArray4& cons, int k, int j, int i) {
                             return cons(3, k, j, i);
                         });
}

RefinementFlag
BurgersPackage::tagBlock(const MeshBlock& block,
                         const ExecContext& ctx) const
{
    return refinementFlagFor(fvMaxGradient(block, ctx, 0, 3),
                             config_.refineTol, config_.derefineTol);
}

} // namespace vibe
