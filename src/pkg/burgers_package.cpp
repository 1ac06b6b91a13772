#include "pkg/burgers_package.hpp"

#include <cmath>
#include <vector>

#include "exec/par_for.hpp"
#include "pkg/fv_ops.hpp"
#include "solver/riemann.hpp"
#include "util/logging.hpp"

namespace vibe {

namespace {

// reconRow (the shared stencil kernel) lives in solver/reconstruct.hpp
// so every package reconstructs through the same definition.

/**
 * HLL-solve one (k, j) row of faces [fis, fie] into the flux array.
 * ul/ur/f are the caller's ncomp-sized per-chunk scratch slices.
 */
inline void
hllRow(const RealArray4& rl, const RealArray4& rr, RealArray4& flux,
       int d, int ncomp, int k, int j, int fis, int fie, double* ul,
       double* ur, double* f)
{
    for (int i = fis; i <= fie; ++i) {
        for (int n = 0; n < ncomp; ++n) {
            ul[n] = rl(n, k, j, i);
            ur[n] = rr(n, k, j, i);
        }
        hllFlux(ul, ur, d, ncomp, f);
        for (int n = 0; n < ncomp; ++n)
            flux(n, k, j, i) = f[n];
    }
}

} // namespace

BurgersConfig
BurgersConfig::fromParams(const ParameterInput& pin)
{
    BurgersConfig config;
    config.numScalars = pin.getInt("burgers", "num_scalars", 8);
    config.cfl = pin.getReal("burgers", "cfl", 0.4);
    config.recon =
        reconMethodFromName(pin.getString("burgers", "recon", "weno5"));
    config.refineTol = pin.getReal("burgers", "refine_tol", 0.08);
    config.derefineTol = pin.getReal("burgers", "derefine_tol", 0.02);
    config.ic =
        initialConditionFromName(pin.getString("burgers", "ic", "ripple"));
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
    if (!block.hasData())
        return;
    const BlockShape& s = block.shape();
    const BlockGeometry& g = block.geom();
    const int ncomp = block.registry().ncompConserved();
    RealArray4& cons = block.cons();
    constexpr double two_pi = 6.283185307179586;

    // Fill interior AND ghosts so the first exchange starts consistent.
    // Elementwise and unaccounted in the seed, so dispatching on the
    // execution space changes neither results nor profiler totals.
    parForExec(
        ctx, 0, s.nk() - 1, 0, s.nj() - 1, 0, s.ni() - 1,
        [&](int k, int j, int i) {
                const double x = g.x1c(i - s.is());
                const double y = s.ndim >= 2 ? g.x2c(j - s.js()) : 0.5;
                const double z = s.ndim >= 3 ? g.x3c(k - s.ks()) : 0.5;
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
                    u2 = s.ndim >= 2 ? 0.2 * std::sin(two_pi * y) : 0.0;
                    u3 = s.ndim >= 3 ? 0.2 * std::sin(two_pi * z) : 0.0;
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
                    u2 = s.ndim >= 2 ? amp * dy * inv_r : 0.0;
                    u3 = s.ndim >= 3 ? amp * dz * inv_r : 0.0;
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
    const ExecContext& ctx = mesh.ctx();
    const BlockShape s = mesh.config().blockShape();
    const int ncomp = mesh.registry().ncompConserved();
    const int ndim = s.ndim;
    const double recon_flops =
        config_.recon == ReconMethod::Weno5 ? kWeno5Flops : kPlmFlops;
    // Per interior cell: for each direction, ~1 face: two reconstructed
    // states and one HLL flux per component.
    const KernelCosts costs{
        ndim * ncomp * (2 * recon_flops + kHllFlopsPerComp),
        // Effective DRAM traffic: state read + recon write x2 + flux
        // write per direction (stencil reuse hits cache).
        ndim * ncomp * 4.0 * sizeof(double)};

    recordKernelAt(ctx, "CalculateFluxes", block.rank(),
                   "CalculateFluxes",
                   static_cast<double>(s.interiorCells()), costs,
                   static_cast<double>(s.nx1));
    if (!ctx.executing())
        return;

    RealArray4& cons = block.cons();
    // One (ul, ur, f) state triple per execution-space chunk, sized
    // once at launch setup (grow-only, so steady state allocates
    // nothing); the HLL body indexes it by chunk id. The old
    // thread_local scratch re-checked its size inside the innermost
    // flux loop, once per cell. Concurrent per-block flux tasks each
    // run on their own thread and so get their own buffer; chunks of
    // a top-level launch index disjoint slices of the launching
    // thread's buffer, which outlives the synchronous launch.
    static thread_local std::vector<double> hll_scratch;
    const std::size_t scratch_need =
        static_cast<std::size_t>(ctx.space().concurrency()) * 3 * ncomp;
    if (hll_scratch.size() < scratch_need)
        hll_scratch.resize(scratch_need);
    // Captured as a plain pointer: thread_locals are not captured by
    // lambdas, so without this a pool worker running a chunk would
    // resolve `hll_scratch` to its own (unsized) instance.
    double* const scratch_base = hll_scratch.data();
    for (int d = 0; d < ndim; ++d) {
        RealArray4* rl = block.reconL(d);
        RealArray4* rr = block.reconR(d);
        require(rl && rr, "reconstruction scratch missing");
        RealArray4& flux = block.flux(d);
        const int di = d == 0 ? 1 : 0;
        const int dj = d == 1 ? 1 : 0;
        const int dk = d == 2 ? 1 : 0;
        // Face range: interior faces of dim d, interior cells in
        // transverse dims.
        const int fis = s.is(), fie = s.ie() + di;
        const int fjs = s.js(), fje = s.je() + dj;
        const int fks = s.ks(), fke = s.ke() + dk;

        // Both passes are accounted by the per-block recordKernelAt
        // above; the launches only dispatch them on the space. The
        // reconstruction chunks the block's (n, k, j) rows.
        parForPackExec(ctx, 1, 0, ncomp - 1, fks, fke, fjs, fje,
                       [&](int, int, int n, int k, int j) {
                           reconRow(cons, *rl, *rr, config_.recon, n, k,
                                    j, fis, fie, di, dj, dk);
                       });

        // HLL pass over the same faces, one row per body call.
        parForExecRows(
            ctx, fks, fke, fjs, fje, [&](int chunk, int k, int j) {
                double* ul = scratch_base +
                             static_cast<std::size_t>(chunk) * 3 * ncomp;
                double* ur = ul + ncomp;
                hllRow(*rl, *rr, flux, d, ncomp, k, j, fis, fie, ul,
                       ur, ur + ncomp);
            });
    }
}

void
BurgersPackage::fluxDivergenceBlock(Mesh& mesh, MeshBlock& block) const
{
    fvFluxDivergenceBlock(mesh, block);
}

void
BurgersPackage::fillDerivedBlock(Mesh& mesh, MeshBlock& block) const
{
    const ExecContext& ctx = mesh.ctx();
    const BlockShape s = mesh.config().blockShape();
    // d = 0.5 q0 (u.u): 5 reads, 1 write, ~6 flops per cell.
    const KernelCosts costs{6.0, 6.0 * sizeof(double)};

    // String-based variable extraction (GetVariablesByFlag) is the
    // serial overhead the paper highlights (§VIII-A).
    recordSerialAt(ctx, "FillDerived", block.rank(), "string_lookup",
                   static_cast<double>(mesh.registry().all().size()));
    RealArray4& cons = block.cons();
    RealArray4& derived = block.derived();
    parForAt(ctx, "FillDerived", block.rank(), "CalculateDerived", costs,
             s.ks(), s.ke(), s.js(), s.je(), s.is(), s.ie(),
             [&](int k, int j, int i) {
                 const double u1 = cons(0, k, j, i);
                 const double u2 = cons(1, k, j, i);
                 const double u3 = cons(2, k, j, i);
                 const double q0 = cons(3, k, j, i);
                 derived(0, k, j, i) =
                     0.5 * q0 * (u1 * u1 + u2 * u2 + u3 * u3);
             });
}

double
BurgersPackage::estimateTimestepBlock(Mesh& mesh, MeshBlock& block,
                                      double fallback_dt) const
{
    const ExecContext& ctx = mesh.ctx();
    const BlockShape s = mesh.config().blockShape();
    const KernelCosts costs{10.0, 3.0 * sizeof(double)};

    double dt = fallback_dt / config_.cfl;
    const RealArray4& cons = block.cons();
    const BlockGeometry& g = block.geom();
    parReduceAt(ctx, "EstimateTimestep", block.rank(), "EstTimeMesh",
                costs, ReduceOp::Min, dt, s.ks(), s.ke(), s.js(), s.je(),
                s.is(), s.ie(), [&](int k, int j, int i, double& acc) {
                    constexpr double tiny = 1e-12;
                    double cell_dt =
                        g.dx1 / (std::fabs(cons(0, k, j, i)) + tiny);
                    if (s.ndim >= 2)
                        cell_dt = std::min(
                            cell_dt,
                            g.dx2 / (std::fabs(cons(1, k, j, i)) + tiny));
                    if (s.ndim >= 3)
                        cell_dt = std::min(
                            cell_dt,
                            g.dx3 / (std::fabs(cons(2, k, j, i)) + tiny));
                    acc = std::min(acc, cell_dt);
                });
    return config_.cfl * dt;
}

double
BurgersPackage::massHistory(Mesh& mesh, RankWorld& world) const
{
    const ExecContext& ctx = mesh.ctx();
    PhaseScope scope(ctx.profiler(), "other");
    const BlockShape s = mesh.config().blockShape();
    const KernelCosts costs{2.0, 1.0 * sizeof(double)};

    // Per-block partials folded in global gid order (foldBlockPartials)
    // so the sum is bitwise independent of how blocks shard over ranks
    // — plain running accumulation would entangle the fold with the
    // decomposition.
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
                      acc += cons(3, k, j, i) * vol;
                  });
        partials.push_back({block->gid(), block_mass});
    }
    const double mass =
        foldBlockPartials(mesh, world, std::move(partials));
    recordSerial(ctx, "collective", 1.0);
    return mass;
}

RefinementFlag
BurgersPackage::tagBlock(const MeshBlock& block,
                         const ExecContext& ctx) const
{
    require(block.hasData(),
            "gradient tagging requires numeric mode; use an analytic "
            "tagger in counting mode");
    const BlockShape& s = block.shape();
    // First-derivative indicator (the VIBE tagging kernel): maximum
    // index-space velocity jump over interior cells.
    const KernelCosts costs{120.0, 1.0 * sizeof(double)};
    double max_jump = 0.0;
    const RealArray4& cons = block.cons();
    parReduce(ctx, "FirstDerivative", costs, ReduceOp::Max, max_jump,
              s.ks(), s.ke(), s.js(), s.je(), s.is(), s.ie(),
              [&](int k, int j, int i, double& acc) {
                  double jump2 = 0.0;
                  for (int m = 0; m < 3; ++m) {
                      const double gx = 0.5 * (cons(m, k, j, i + 1) -
                                               cons(m, k, j, i - 1));
                      double gy = 0.0, gz = 0.0;
                      if (s.ndim >= 2)
                          gy = 0.5 * (cons(m, k, j + 1, i) -
                                      cons(m, k, j - 1, i));
                      if (s.ndim >= 3)
                          gz = 0.5 * (cons(m, k + 1, j, i) -
                                      cons(m, k - 1, j, i));
                      jump2 += gx * gx + gy * gy + gz * gz;
                  }
                  acc = std::max(acc, std::sqrt(jump2));
              });
    if (max_jump > config_.refineTol)
        return RefinementFlag::Refine;
    if (max_jump < config_.derefineTol)
        return RefinementFlag::Derefine;
    return RefinementFlag::None;
}

} // namespace vibe
