#include "pkg/advection_package.hpp"

#include <cmath>

#include "pkg/fv_ops.hpp"
#include "util/logging.hpp"

namespace vibe {

namespace {

constexpr double kTwoPi = 6.283185307179586;
/** Gaussian profile width and additive floor. */
constexpr double kBlobSigma = 0.08;
constexpr double kBlobFloor = 1e-3;

/** Periodic distance from `x` in [0, 1) to the domain center. */
inline double
centerDist(double x)
{
    const double d = std::fabs(x - 0.5);
    return std::min(d, 1.0 - d);
}

} // namespace

AdvectionProfile
advectionProfileFromName(const std::string& name)
{
    if (name == "gaussian_blob")
        return AdvectionProfile::GaussianBlob;
    if (name == "sine")
        return AdvectionProfile::Sine;
    fatal("unknown advection profile '", name, "'");
}

AdvectionConfig
AdvectionConfig::fromParams(const ParameterInput& pin)
{
    AdvectionConfig config;
    config.readParams(pin, "advection");
    if (pin.has("advection", "ic"))
        config.ic = advectionProfileFromName(
            pin.getString("advection", "ic", ""));
    return config;
}

const std::string&
AdvectionPackage::name() const
{
    static const std::string package_name = "advection";
    return package_name;
}

VariableRegistry
makeAdvectionRegistry()
{
    VariableRegistry registry;
    registry.add({"phi", 1, kIndependent | kFillGhost | kWithFluxes});
    registry.add({"phi_energy", 1, kDerived});
    return registry;
}

double
AdvectionPackage::analyticValue(double x, double y, double z, double t,
                                int ndim) const
{
    // Rigid translation: evaluate the t = 0 profile at x - v t.
    // Inactive dimensions sit at 0.5 and do not move.
    const double xs = wrap01(x - config_.vx * t);
    const double ys = ndim >= 2 ? wrap01(y - config_.vy * t) : 0.5;
    const double zs = ndim >= 3 ? wrap01(z - config_.vz * t) : 0.5;

    switch (config_.ic) {
      case AdvectionProfile::GaussianBlob: {
        const double dx = centerDist(xs);
        const double dy = centerDist(ys);
        const double dz = centerDist(zs);
        const double r2 = dx * dx + dy * dy + dz * dz;
        return std::exp(-r2 / (2 * kBlobSigma * kBlobSigma)) +
               kBlobFloor;
      }
      case AdvectionProfile::Sine:
        return 1.0 + 0.5 * std::sin(kTwoPi * (xs + ys + zs));
    }
    return 0.0; // unreachable
}

void
AdvectionPackage::initializeBlock(const ExecContext& ctx,
                                  MeshBlock& block) const
{
    const int ndim = block.shape().ndim;
    fvInitializeBlock(ctx, block,
                      [&](RealArray4& cons, int k, int j, int i, double x,
                          double y, double z) {
                          cons(0, k, j, i) =
                              analyticValue(x, y, z, 0.0, ndim);
                      });
}

void
AdvectionPackage::fillDerivedBlock(Mesh& mesh, MeshBlock& block) const
{
    // e = 0.5 phi^2: 1 read, 1 write, 2 flops per cell.
    fvFillDerivedBlock(mesh, block, KernelCosts{2.0, 2.0 * sizeof(double)},
                       [](const RealArray4& cons, int k, int j, int i) {
                           const double phi = cons(0, k, j, i);
                           return 0.5 * phi * phi;
                       });
}

double
AdvectionPackage::massHistory(Mesh& mesh, RankWorld& world) const
{
    return fvMassHistory(mesh, world, KernelCosts{2.0, 1.0 * sizeof(double)},
                         [](const RealArray4& cons, int k, int j, int i) {
                             return cons(0, k, j, i);
                         });
}

} // namespace vibe
