#include "pkg/reaction_package.hpp"

#include <cmath>

#include "exec/par_for.hpp"
#include "pkg/fv_ops.hpp"
#include "util/logging.hpp"

namespace vibe {

namespace {

/**
 * Feature width and quiescent floor. The profile is a quartic
 * super-Gaussian, exp(-r^4 / (2 sigma^4)): near-flat at the peak
 * abundance out to ~sigma, then a fast falloff. A plain Gaussian puts
 * only a handful of cells near the peak where the equilibrium solve
 * is expensive, so the volume-integrated stiff work rounds to noise;
 * the plateau holds hundreds of cells at peak cost, making the stiff
 * source a first-order share of step time — the balance signal this
 * package exists to create.
 */
constexpr double kBlobSigma = 0.22;
constexpr double kBlobFloor = 1e-3;
/**
 * Feature center, deliberately OFF the domain center: a centered blob
 * is shared symmetrically by the Z-order halves/quarters, so uniform
 * partitions would be accidentally balanced. At (0.3)^3 the hotspot
 * sits inside one octant and loads one rank — the imbalance this
 * package exists to create.
 */
constexpr double kBlobCenter = 0.3;

/** Periodic distance from `x` in [0, 1) to the feature center. */
inline double
centerDist(double x)
{
    const double d = std::fabs(x - kBlobCenter);
    return std::min(d, 1.0 - d);
}

/**
 * Solve c = a / (1 + stiffness * g(c) * exp(c - 1)), g(c) = c^2 /
 * (1 + c^2), by fixed-point iteration from c = a. At the default
 * stiffness the map contracts over the profile's range, with a
 * contraction factor that grows with a: feature cells (a ~ 1) burn
 * on the order of a hundred iterations (each with an exp, as in a
 * real rate evaluation) while floor cells converge in one or two —
 * the per-cell work contrast this package exists to produce.
 * `max_iters` bounds cells pushed outside the contractive range.
 */
inline double
equilibriumValue(const ReactionConfig& config, double a, int* iters_out)
{
    double c = a;
    int iters = 0;
    for (; iters < config.maxIters; ++iters) {
        const double c2 = c * c;
        const double rate_term =
            config.stiffness * (c2 / (1.0 + c2)) * std::exp(c - 1.0);
        const double next = a / (1.0 + rate_term);
        const double delta = std::fabs(next - c);
        c = next;
        if (delta <= config.stiffTol * (1.0 + std::fabs(c)))
            break;
    }
    if (iters_out)
        *iters_out = iters + 1;
    return c;
}

/**
 * Stiff source for one (k, j) row of interior cells: T = rate *
 * (a - c_eq(a)) moves reservoir into product; antisymmetric, so each
 * cell conserves a + b exactly. Pure function of local state — no
 * cross-cell accumulation — so any loop chunking is bitwise identical.
 */
inline void
sourceRow(const ReactionConfig& config, const RealArray4& cons,
          RealArray4& dudt, int k, int j, int is, int ie)
{
    for (int i = is; i <= ie; ++i) {
        const double a = cons(0, k, j, i);
        const double transfer =
            config.rate * (a - equilibriumValue(config, a, nullptr));
        dudt(0, k, j, i) -= transfer;
        dudt(1, k, j, i) += transfer;
    }
}

/**
 * Nominal per-cell source cost for counting mode: the real iteration
 * count is state-dependent (that is the point), so the model charges
 * a representative mid-range count.
 */
constexpr KernelCosts kSourceCosts{120.0, 4.0 * sizeof(double)};

} // namespace

ReactionConfig
ReactionConfig::fromParams(const ParameterInput& pin)
{
    ReactionConfig config;
    config.readParams(pin, "reaction");
    config.rate = pin.getReal("reaction", "rate", config.rate);
    config.stiffness =
        pin.getReal("reaction", "stiffness", config.stiffness);
    config.stiffTol = pin.getReal("reaction", "stiff_tol", config.stiffTol);
    config.maxIters = pin.getInt("reaction", "max_iters", config.maxIters);
    return config;
}

const std::string&
ReactionPackage::name() const
{
    static const std::string package_name = "reaction";
    return package_name;
}

VariableRegistry
makeReactionRegistry()
{
    VariableRegistry registry;
    registry.add({"chem", 2, kIndependent | kFillGhost | kWithFluxes});
    registry.add({"chem_rate", 1, kDerived});
    return registry;
}

double
ReactionPackage::equilibrium(double a, int* iters_out) const
{
    return equilibriumValue(config_, a, iters_out);
}

void
ReactionPackage::initializeBlock(const ExecContext& ctx,
                                 MeshBlock& block) const
{
    // Reservoir a: super-Gaussian plateau over a quiescent floor (see
    // kBlobSigma). Product b starts at the floor everywhere.
    fvInitializeBlock(ctx, block,
                      [](RealArray4& cons, int k, int j, int i, double x,
                         double y, double z) {
                          const double dx = centerDist(wrap01(x));
                          const double dy = centerDist(wrap01(y));
                          const double dz = centerDist(wrap01(z));
                          const double r2 = dx * dx + dy * dy + dz * dz;
                          const double s2 = kBlobSigma * kBlobSigma;
                          cons(0, k, j, i) =
                              std::exp(-(r2 * r2) / (2 * s2 * s2)) +
                              kBlobFloor;
                          cons(1, k, j, i) = kBlobFloor;
                      });
}

void
ReactionPackage::fluxDivergenceBlock(Mesh& mesh, MeshBlock& block) const
{
    fvFluxDivergenceBlock(mesh, block);

    const ExecContext& ctx = mesh.ctx();
    const BlockShape s = mesh.config().blockShape();
    recordKernelAt(ctx, "FluxDivergence", block.rank(),
                   "ReactionSource",
                   static_cast<double>(s.interiorCells()), kSourceCosts,
                   static_cast<double>(s.nx1));
    if (!ctx.executing())
        return;

    const RealArray4& cons = block.cons();
    RealArray4& dudt = block.dudt();
    parForExecRows(ctx, s.ks(), s.ke(), s.js(), s.je(),
                   [&](int, int k, int j) {
                       sourceRow(config_, cons, dudt, k, j, s.is(),
                                 s.ie());
                   });
}

void
ReactionPackage::fillDerivedBlock(Mesh& mesh, MeshBlock& block) const
{
    // chem_rate = a * b: 2 reads, 1 write, 1 flop per cell.
    fvFillDerivedBlock(mesh, block, KernelCosts{1.0, 3.0 * sizeof(double)},
                       [](const RealArray4& cons, int k, int j, int i) {
                           return cons(0, k, j, i) * cons(1, k, j, i);
                       });
}

double
ReactionPackage::estimateTimestepBlock(Mesh& mesh, MeshBlock& block,
                                       double fallback_dt) const
{
    // Explicit source stability: the relaxation removes at most
    // rate * a per unit time, so keep dt * rate <= 1/2.
    return std::min(
        transportTimestepBlock(mesh, block, config_, fallback_dt),
        0.5 / std::max(config_.rate, 1e-12));
}

double
ReactionPackage::massHistory(Mesh& mesh, RankWorld& world) const
{
    // Both species: the source only moves mass between them.
    return fvMassHistory(mesh, world, KernelCosts{4.0, 2.0 * sizeof(double)},
                         [](const RealArray4& cons, int k, int j, int i) {
                             return cons(0, k, j, i) + cons(1, k, j, i);
                         });
}

} // namespace vibe
