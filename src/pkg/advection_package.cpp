#include "pkg/advection_package.hpp"

#include <cmath>

#include "exec/par_for.hpp"
#include "pkg/fv_ops.hpp"
#include "util/logging.hpp"

namespace vibe {

namespace {

constexpr double kTwoPi = 6.283185307179586;
/** Gaussian profile width and additive floor. */
constexpr double kBlobSigma = 0.08;
constexpr double kBlobFloor = 1e-3;

/** x wrapped into [0, 1) (periodic unit domain). */
inline double
wrap01(double x)
{
    x = std::fmod(x, 1.0);
    return x < 0.0 ? x + 1.0 : x;
}

/** Periodic distance from `x` in [0, 1) to the domain center. */
inline double
centerDist(double x)
{
    const double d = std::fabs(x - 0.5);
    return std::min(d, 1.0 - d);
}

/**
 * Exact upwind flux for one (k, j) row of faces [fis, fie]: the
 * Riemann solution of the linear equation selects the upwind
 * reconstructed state, F = v * phi_upwind.
 */
inline void
upwindRow(const RealArray4& rl, const RealArray4& rr, RealArray4& flux,
          double vel, int ncomp, int k, int j, int fis, int fie)
{
    for (int i = fis; i <= fie; ++i)
        for (int n = 0; n < ncomp; ++n)
            flux(n, k, j, i) = vel >= 0.0 ? vel * rl(n, k, j, i)
                                          : vel * rr(n, k, j, i);
}

/** Flops of one upwind flux per component (compare kHllFlopsPerComp). */
constexpr double kUpwindFlopsPerComp = 2.0;

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
    config.vx = pin.getReal("advection", "vx", 1.0);
    config.vy = pin.getReal("advection", "vy", 0.5);
    config.vz = pin.getReal("advection", "vz", 0.25);
    config.cfl = pin.getReal("advection", "cfl", 0.4);
    config.recon = reconMethodFromName(
        pin.getString("advection", "recon", "weno5"));
    config.refineTol = pin.getReal("advection", "refine_tol", 0.08);
    config.derefineTol = pin.getReal("advection", "derefine_tol", 0.02);
    config.ic = advectionProfileFromName(
        pin.getString("advection", "ic", "gaussian_blob"));
    return config;
}

double
AdvectionConfig::maxSpeed(int ndim) const
{
    double speed = std::fabs(vx);
    if (ndim >= 2)
        speed = std::max(speed, std::fabs(vy));
    if (ndim >= 3)
        speed = std::max(speed, std::fabs(vz));
    return speed;
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
    if (!block.hasData())
        return;
    const BlockShape& s = block.shape();
    const BlockGeometry& g = block.geom();
    RealArray4& cons = block.cons();

    // Fill interior AND ghosts so the first exchange starts consistent
    // (same convention as every package).
    parForExec(ctx, 0, s.nk() - 1, 0, s.nj() - 1, 0, s.ni() - 1,
               [&](int k, int j, int i) {
                   const double x = g.x1c(i - s.is());
                   const double y =
                       s.ndim >= 2 ? g.x2c(j - s.js()) : 0.5;
                   const double z =
                       s.ndim >= 3 ? g.x3c(k - s.ks()) : 0.5;
                   cons(0, k, j, i) =
                       analyticValue(x, y, z, 0.0, s.ndim);
               });
}

void
AdvectionPackage::calculateFluxesBlock(Mesh& mesh, MeshBlock& block) const
{
    const ExecContext& ctx = mesh.ctx();
    const BlockShape s = mesh.config().blockShape();
    const int ncomp = mesh.registry().ncompConserved();
    const int ndim = s.ndim;
    const double recon_flops =
        config_.recon == ReconMethod::Weno5 ? kWeno5Flops : kPlmFlops;
    // Per interior cell and direction: two reconstructed states plus
    // one upwind flux per component (cf. the Burgers HLL accounting).
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

        // Reconstruction through the shared row stencil kernel,
        // chunked over the block's (n, k, j) rows like Burgers.
        parForPackExec(ctx, 1, 0, ncomp - 1, fks, fke, fjs, fje,
                       [&](int, int, int n, int k, int j) {
                           reconRow(cons, *rl, *rr, config_.recon, n, k,
                                    j, fis, fie, di, dj, dk);
                       });

        // Upwind flux pass over the same faces.
        parForExecRows(ctx, fks, fke, fjs, fje,
                       [&](int, int k, int j) {
                           upwindRow(*rl, *rr, flux, vel[d], ncomp, k,
                                     j, fis, fie);
                       });
    }
}

void
AdvectionPackage::fluxDivergenceBlock(Mesh& mesh, MeshBlock& block) const
{
    fvFluxDivergenceBlock(mesh, block);
}

void
AdvectionPackage::fillDerivedBlock(Mesh& mesh, MeshBlock& block) const
{
    const ExecContext& ctx = mesh.ctx();
    const BlockShape s = mesh.config().blockShape();
    // e = 0.5 phi^2: 1 read, 1 write, 2 flops per cell.
    const KernelCosts costs{2.0, 2.0 * sizeof(double)};

    // String-based variable extraction, the §VIII-A serial overhead
    // every package pays per block.
    recordSerialAt(ctx, "FillDerived", block.rank(), "string_lookup",
                   static_cast<double>(mesh.registry().all().size()));
    RealArray4& cons = block.cons();
    RealArray4& derived = block.derived();
    parForAt(ctx, "FillDerived", block.rank(), "CalculateDerived", costs,
             s.ks(), s.ke(), s.js(), s.je(), s.is(), s.ie(),
             [&](int k, int j, int i) {
                 const double phi = cons(0, k, j, i);
                 derived(0, k, j, i) = 0.5 * phi * phi;
             });
}

double
AdvectionPackage::estimateTimestepBlock(Mesh& mesh, MeshBlock& block,
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
    return config_.cfl * dt;
}

double
AdvectionPackage::massHistory(Mesh& mesh, RankWorld& world) const
{
    const ExecContext& ctx = mesh.ctx();
    PhaseScope scope(ctx.profiler(), "other");
    const BlockShape s = mesh.config().blockShape();
    const KernelCosts costs{2.0, 1.0 * sizeof(double)};

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
                      acc += cons(0, k, j, i) * vol;
                  });
        partials.push_back({block->gid(), block_mass});
    }
    const double mass =
        foldBlockPartials(mesh, world, std::move(partials));
    recordSerial(ctx, "collective", 1.0);
    return mass;
}

RefinementFlag
AdvectionPackage::tagBlock(const MeshBlock& block,
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
    // Weight the gradient by the transport speed: how fast the
    // feature sweeps through this block, the characteristic-speed
    // criterion of this package.
    const double indicator = config_.maxSpeed(s.ndim) * max_jump;
    if (indicator > config_.refineTol)
        return RefinementFlag::Refine;
    if (indicator < config_.derefineTol)
        return RefinementFlag::Derefine;
    return RefinementFlag::None;
}

} // namespace vibe
