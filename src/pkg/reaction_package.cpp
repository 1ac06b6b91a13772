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

/** x wrapped into [0, 1) (periodic unit domain). */
inline double
wrap01(double x)
{
    x = std::fmod(x, 1.0);
    return x < 0.0 ? x + 1.0 : x;
}

/** Periodic distance from `x` in [0, 1) to the feature center. */
inline double
centerDist(double x)
{
    const double d = std::fabs(x - kBlobCenter);
    return std::min(d, 1.0 - d);
}

/** Exact upwind flux for one (k, j) row of faces [fis, fie]. */
inline void
upwindRow(const RealArray4& rl, const RealArray4& rr, RealArray4& flux,
          double vel, int ncomp, int k, int j, int fis, int fie)
{
    for (int i = fis; i <= fie; ++i)
        for (int n = 0; n < ncomp; ++n)
            flux(n, k, j, i) = vel >= 0.0 ? vel * rl(n, k, j, i)
                                          : vel * rr(n, k, j, i);
}

/** Flops of one upwind flux per component. */
constexpr double kUpwindFlopsPerComp = 2.0;

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
    config.vx = pin.getReal("reaction", "vx", 1.0);
    config.vy = pin.getReal("reaction", "vy", 0.5);
    config.vz = pin.getReal("reaction", "vz", 0.25);
    config.cfl = pin.getReal("reaction", "cfl", 0.4);
    config.recon =
        reconMethodFromName(pin.getString("reaction", "recon", "plm"));
    config.refineTol = pin.getReal("reaction", "refine_tol", 0.08);
    config.derefineTol = pin.getReal("reaction", "derefine_tol", 0.02);
    config.rate = pin.getReal("reaction", "rate", 1.0);
    config.stiffness = pin.getReal("reaction", "stiffness", 3.0);
    config.stiffTol = pin.getReal("reaction", "stiff_tol", 1e-12);
    config.maxIters = pin.getInt("reaction", "max_iters", 200);
    return config;
}

double
ReactionConfig::maxSpeed(int ndim) const
{
    double speed = std::fabs(vx);
    if (ndim >= 2)
        speed = std::max(speed, std::fabs(vy));
    if (ndim >= 3)
        speed = std::max(speed, std::fabs(vz));
    return speed;
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
    if (!block.hasData())
        return;
    const BlockShape& s = block.shape();
    const BlockGeometry& g = block.geom();
    RealArray4& cons = block.cons();

    // Reservoir a: super-Gaussian plateau over a quiescent floor (see
    // kBlobSigma). Product b starts at the floor everywhere. Interior
    // AND ghosts are filled so the first exchange starts consistent
    // (package convention).
    parForExec(ctx, 0, s.nk() - 1, 0, s.nj() - 1, 0, s.ni() - 1,
               [&](int k, int j, int i) {
                   const double x = g.x1c(i - s.is());
                   const double y =
                       s.ndim >= 2 ? g.x2c(j - s.js()) : 0.5;
                   const double z =
                       s.ndim >= 3 ? g.x3c(k - s.ks()) : 0.5;
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
ReactionPackage::calculateFluxesBlock(Mesh& mesh, MeshBlock& block) const
{
    const ExecContext& ctx = mesh.ctx();
    const BlockShape s = mesh.config().blockShape();
    const int ncomp = mesh.registry().ncompConserved();
    const int ndim = s.ndim;
    const double recon_flops =
        config_.recon == ReconMethod::Weno5 ? kWeno5Flops : kPlmFlops;
    const KernelCosts costs{
        ndim * ncomp * (2 * recon_flops + kUpwindFlopsPerComp),
        ndim * ncomp * 4.0 * sizeof(double)};

    recordKernelAt(ctx, "CalculateFluxes", block.rank(),
                   "CalculateFluxes",
                   static_cast<double>(s.interiorCells()), costs,
                   static_cast<double>(s.nx1));
    if (!ctx.executing())
        return;

    const double vel[3] = {config_.vx, config_.vy, config_.vz};
    RealArray4& cons = block.cons();
    for (int d = 0; d < ndim; ++d) {
        RealArray4* rl = block.reconL(d);
        RealArray4* rr = block.reconR(d);
        require(rl && rr, "reconstruction scratch missing");
        RealArray4& flux = block.flux(d);
        const int di = d == 0 ? 1 : 0;
        const int dj = d == 1 ? 1 : 0;
        const int dk = d == 2 ? 1 : 0;
        const int fis = s.is(), fie = s.ie() + di;
        const int fjs = s.js(), fje = s.je() + dj;
        const int fks = s.ks(), fke = s.ke() + dk;

        parForPackExec(ctx, 1, 0, ncomp - 1, fks, fke, fjs, fje,
                       [&](int, int, int n, int k, int j) {
                           reconRow(cons, *rl, *rr, config_.recon, n, k,
                                    j, fis, fie, di, dj, dk);
                       });

        parForExecRows(ctx, fks, fke, fjs, fje,
                       [&](int, int k, int j) {
                           upwindRow(*rl, *rr, flux, vel[d], ncomp, k,
                                     j, fis, fie);
                       });
    }
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
    const ExecContext& ctx = mesh.ctx();
    const BlockShape s = mesh.config().blockShape();
    // chem_rate = a * b: 2 reads, 1 write, 1 flop per cell.
    const KernelCosts costs{1.0, 3.0 * sizeof(double)};

    recordSerialAt(ctx, "FillDerived", block.rank(), "string_lookup",
                   static_cast<double>(mesh.registry().all().size()));
    RealArray4& cons = block.cons();
    RealArray4& derived = block.derived();
    parForAt(ctx, "FillDerived", block.rank(), "CalculateDerived", costs,
             s.ks(), s.ke(), s.js(), s.je(), s.is(), s.ie(),
             [&](int k, int j, int i) {
                 derived(0, k, j, i) = cons(0, k, j, i) * cons(1, k, j, i);
             });
}

double
ReactionPackage::estimateTimestepBlock(Mesh& mesh, MeshBlock& block,
                                       double fallback_dt) const
{
    const ExecContext& ctx = mesh.ctx();
    const BlockShape s = mesh.config().blockShape();
    const KernelCosts costs{10.0, 3.0 * sizeof(double)};

    double dt = fallback_dt / config_.cfl;
    const BlockGeometry& g = block.geom();
    parReduceAt(ctx, "EstimateTimestep", block.rank(), "EstTimeMesh",
                costs, ReduceOp::Min, dt, s.ks(), s.ke(), s.js(), s.je(),
                s.is(), s.ie(), [&](int, int, int, double& acc) {
                    constexpr double tiny = 1e-12;
                    double cell_dt =
                        g.dx1 / (std::fabs(config_.vx) + tiny);
                    if (s.ndim >= 2)
                        cell_dt = std::min(
                            cell_dt,
                            g.dx2 / (std::fabs(config_.vy) + tiny));
                    if (s.ndim >= 3)
                        cell_dt = std::min(
                            cell_dt,
                            g.dx3 / (std::fabs(config_.vz) + tiny));
                    acc = std::min(acc, cell_dt);
                });
    // Explicit source stability: the relaxation removes at most
    // rate * a per unit time, so keep dt * rate <= 1/2.
    return std::min(config_.cfl * dt,
                    0.5 / std::max(config_.rate, 1e-12));
}

double
ReactionPackage::massHistory(Mesh& mesh, RankWorld& world) const
{
    const ExecContext& ctx = mesh.ctx();
    PhaseScope scope(ctx.profiler(), "other");
    const BlockShape s = mesh.config().blockShape();
    const KernelCosts costs{4.0, 2.0 * sizeof(double)};

    // Gid-ordered per-block fold: bitwise independent of the rank
    // decomposition (see foldBlockPartials).
    std::vector<BlockPartial> partials;
    partials.reserve(mesh.ownedBlocks().size());
    for (MeshBlock* block : mesh.ownedBlocks()) {
        ctx.setCurrentRank(block->rank());
        RealArray4& cons = block->cons();
        const double vol = block->geom().cellVolume();
        double block_mass = 0.0;
        parReduce(ctx, "MassHistory", costs, ReduceOp::Sum, block_mass,
                  s.ks(), s.ke(), s.js(), s.je(), s.is(), s.ie(),
                  [&](int k, int j, int i, double& acc) {
                      acc += (cons(0, k, j, i) + cons(1, k, j, i)) *
                             vol;
                  });
        partials.push_back({block->gid(), block_mass});
    }
    const double mass =
        foldBlockPartials(mesh, world, std::move(partials));
    recordSerial(ctx, "collective", 1.0);
    return mass;
}

RefinementFlag
ReactionPackage::tagBlock(const MeshBlock& block,
                          const ExecContext& ctx) const
{
    require(block.hasData(),
            "gradient tagging requires numeric mode; use an analytic "
            "tagger in counting mode");
    const BlockShape& s = block.shape();
    const KernelCosts costs{120.0, 1.0 * sizeof(double)};
    double max_jump = 0.0;
    const RealArray4& cons = block.cons();
    parReduce(ctx, "FirstDerivative", costs, ReduceOp::Max, max_jump,
              s.ks(), s.ke(), s.js(), s.je(), s.is(), s.ie(),
              [&](int k, int j, int i, double& acc) {
                  const double gx = 0.5 * (cons(0, k, j, i + 1) -
                                           cons(0, k, j, i - 1));
                  double gy = 0.0, gz = 0.0;
                  if (s.ndim >= 2)
                      gy = 0.5 * (cons(0, k, j + 1, i) -
                                  cons(0, k, j - 1, i));
                  if (s.ndim >= 3)
                      gz = 0.5 * (cons(0, k + 1, j, i) -
                                  cons(0, k - 1, j, i));
                  acc = std::max(acc,
                                 std::sqrt(gx * gx + gy * gy + gz * gz));
              });
    const double indicator = config_.maxSpeed(s.ndim) * max_jump;
    if (indicator > config_.refineTol)
        return RefinementFlag::Refine;
    if (indicator < config_.derefineTol)
        return RefinementFlag::Derefine;
    return RefinementFlag::None;
}

} // namespace vibe
