/**
 * @file fv_ops.hpp
 * The framework-owned finite-volume operator skeletons (Parthenon's
 * StateDescriptor split: one loop per operator, the package plugs in
 * its physics). Each `fv*` template owns the launch, the profiler
 * record (kernel name, per-item cost), the index and face ranges and,
 * for the history, the gid-ordered fold; the package passes its
 * per-cell physics as a callable. Callables are template parameters,
 * so they inline like hand-written loop bodies (the Burgers HLL row is
 * the hot path). Evaluation order is fixed here, so profiler tables
 * and state bits do not depend on which package supplied the physics,
 * and the bitwise guarantees proved for one package carry over.
 */
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "comm/rank_world.hpp"
#include "exec/par_for.hpp"
#include "mesh/mesh.hpp"
#include "solver/reconstruct.hpp"
#include "util/logging.hpp"

namespace vibe {

/**
 * Initial conditions on one block, interior AND ghosts so the first
 * exchange starts consistent: `init(cons, k, j, i, x, y, z)` fills a
 * cell from its centre (inactive dimensions sit at 0.5). Unaccounted.
 */
template <typename CellInit>
inline void
fvInitializeBlock(const ExecContext& ctx, MeshBlock& block,
                  CellInit&& init)
{
    if (!block.hasData())
        return;
    const BlockShape& s = block.shape();
    const BlockGeometry& g = block.geom();
    RealArray4& cons = block.cons();
    parForExec(ctx, 0, s.nk() - 1, 0, s.nj() - 1, 0, s.ni() - 1,
               [&](int k, int j, int i) {
                   const double x = g.x1c(i - s.is());
                   const double y =
                       s.ndim >= 2 ? g.x2c(j - s.js()) : 0.5;
                   const double z =
                       s.ndim >= 3 ? g.x3c(k - s.ks()) : 0.5;
                   init(cons, k, j, i, x, y, z);
               });
}

/**
 * Reconstruction + Riemann fluxes for one block (kernel
 * "CalculateFluxes"). Per direction d: `reconRow` over the face range,
 * then `row(rl, rr, flux, d, ncomp, k, j, fis, fie, scratch)` per
 * (k, j) row of faces, where `scratch` is `scratch_per_comp * ncomp`
 * doubles private to the chunk.
 */
template <typename RiemannRow>
inline void
fvCalculateFluxesBlock(Mesh& mesh, MeshBlock& block, ReconMethod recon,
                       double riemann_flops_per_comp, int scratch_per_comp,
                       RiemannRow&& row)
{
    const ExecContext& ctx = mesh.ctx();
    const BlockShape s = mesh.config().blockShape();
    const int ncomp = mesh.registry().ncompConserved();
    const int ndim = s.ndim;
    const double recon_flops =
        recon == ReconMethod::Weno5 ? kWeno5Flops : kPlmFlops;
    // Per interior cell and direction (~1 face): two reconstructed
    // states and one Riemann flux per component; DRAM traffic is the
    // state read, two recon writes and the flux write.
    const KernelCosts costs{
        ndim * ncomp * (2 * recon_flops + riemann_flops_per_comp),
        ndim * ncomp * 4.0 * sizeof(double)};

    // One record covers both passes; the launches only dispatch.
    recordKernelAt(ctx, "CalculateFluxes", block.rank(),
                   "CalculateFluxes",
                   static_cast<double>(s.interiorCells()), costs,
                   static_cast<double>(s.nx1));
    if (!ctx.executing())
        return;

    // Grow-only scratch of the launching thread, one slice per chunk,
    // passed as a plain pointer: a pool worker naming the thread_local
    // would resolve its own (unsized) instance.
    static thread_local std::vector<double> row_scratch;
    const std::size_t per_chunk =
        static_cast<std::size_t>(scratch_per_comp) * ncomp;
    const std::size_t need =
        static_cast<std::size_t>(ctx.space().concurrency()) * per_chunk;
    if (row_scratch.size() < need)
        row_scratch.resize(need);
    double* const scratch = row_scratch.data();

    RealArray4& cons = block.cons();
    for (int d = 0; d < ndim; ++d) {
        RealArray4* rl = block.reconL(d);
        RealArray4* rr = block.reconR(d);
        require(rl && rr, "reconstruction scratch missing");
        RealArray4& flux = block.flux(d);
        const int di = d == 0 ? 1 : 0;
        const int dj = d == 1 ? 1 : 0;
        const int dk = d == 2 ? 1 : 0;
        // Interior faces of dim d, interior cells transversely.
        const int fis = s.is(), fie = s.ie() + di;
        const int fjs = s.js(), fje = s.je() + dj;
        const int fks = s.ks(), fke = s.ke() + dk;

        parForPackExec(ctx, 1, 0, ncomp - 1, fks, fke, fjs, fje,
                       [&](int, int, int n, int k, int j) {
                           reconRow(cons, *rl, *rr, recon, n, k, j, fis,
                                    fie, di, dj, dk);
                       });

        parForExecRows(
            ctx, fks, fke, fjs, fje, [&](int chunk, int k, int j) {
                row(*rl, *rr, flux, d, ncomp, k, j, fis, fie,
                    scratch + static_cast<std::size_t>(chunk) * per_chunk);
            });
    }
}

/** dudt = -div(flux) for one block (kernel "FluxDivergence"). */
inline void
fvFluxDivergenceBlock(Mesh& mesh, MeshBlock& block)
{
    const ExecContext& ctx = mesh.ctx();
    const BlockShape s = mesh.config().blockShape();
    const int ncomp = mesh.registry().ncompConserved();
    const int ndim = s.ndim;
    const KernelCosts costs{ncomp * ndim * 3.0,
                            ncomp * (2.0 * ndim + 1.0) * sizeof(double)};

    const BlockGeometry& g = block.geom();
    const double inv_dx[3] = {1.0 / g.dx1, 1.0 / g.dx2, 1.0 / g.dx3};
    RealArray4& dudt = block.dudt();
    parForAt(ctx, "FluxDivergence", block.rank(), "FluxDivergence",
             costs, s.ks(), s.ke(), s.js(), s.je(), s.is(), s.ie(),
             [&](int k, int j, int i) {
                 for (int n = 0; n < ncomp; ++n) {
                     double div = (block.flux(0)(n, k, j, i + 1) -
                                   block.flux(0)(n, k, j, i)) *
                                  inv_dx[0];
                     if (ndim >= 2)
                         div += (block.flux(1)(n, k, j + 1, i) -
                                 block.flux(1)(n, k, j, i)) *
                                inv_dx[1];
                     if (ndim >= 3)
                         div += (block.flux(2)(n, k + 1, j, i) -
                                 block.flux(2)(n, k, j, i)) *
                                inv_dx[2];
                     dudt(n, k, j, i) = -div;
                 }
             });
}

/** derived(0) = formula(cons, k, j, i) (kernel "CalculateDerived"). */
template <typename CellFormula>
inline void
fvFillDerivedBlock(Mesh& mesh, MeshBlock& block, const KernelCosts& costs,
                   CellFormula&& formula)
{
    const ExecContext& ctx = mesh.ctx();
    const BlockShape s = mesh.config().blockShape();
    // String-based variable extraction (GetVariablesByFlag), the
    // §VIII-A serial overhead every package pays per block.
    recordSerialAt(ctx, "FillDerived", block.rank(), "string_lookup",
                   static_cast<double>(mesh.registry().all().size()));
    const RealArray4& cons = block.cons();
    RealArray4& derived = block.derived();
    parForAt(ctx, "FillDerived", block.rank(), "CalculateDerived", costs,
             s.ks(), s.ke(), s.js(), s.je(), s.is(), s.ie(),
             [&](int k, int j, int i) {
                 derived(0, k, j, i) = formula(cons, k, j, i);
             });
}

/**
 * One block's CFL timestep (kernel "EstTimeMesh"): cfl * min over
 * cells and active dims d of dx_d / speed(d, k, j, i), capped at
 * `fallback_dt` (the counting-mode result).
 */
template <typename CellSpeed>
inline double
fvEstimateTimestepBlock(Mesh& mesh, MeshBlock& block, double cfl,
                        double fallback_dt, CellSpeed&& speed)
{
    const ExecContext& ctx = mesh.ctx();
    const BlockShape s = mesh.config().blockShape();
    const KernelCosts costs{10.0, 3.0 * sizeof(double)};

    double dt = fallback_dt / cfl;
    const BlockGeometry& g = block.geom();
    parReduceAt(ctx, "EstimateTimestep", block.rank(), "EstTimeMesh",
                costs, ReduceOp::Min, dt, s.ks(), s.ke(), s.js(), s.je(),
                s.is(), s.ie(), [&](int k, int j, int i, double& acc) {
                    constexpr double tiny = 1e-12;
                    double cell_dt = g.dx1 / (speed(0, k, j, i) + tiny);
                    if (s.ndim >= 2)
                        cell_dt = std::min(
                            cell_dt, g.dx2 / (speed(1, k, j, i) + tiny));
                    if (s.ndim >= 3)
                        cell_dt = std::min(
                            cell_dt, g.dx3 / (speed(2, k, j, i) + tiny));
                    acc = std::min(acc, cell_dt);
                });
    return cfl * dt;
}

/** One block's contribution to a history reduction (wire format). */
struct BlockPartial
{
    int gid = 0;
    double value = 0;
};

/**
 * History reduction (kernel "MassHistory"): the volume integral of
 * `summand(cons, k, j, i)` over the owned blocks.
 */
template <typename CellSummand>
inline double
fvMassHistory(Mesh& mesh, RankWorld& world, const KernelCosts& costs,
              CellSummand&& summand)
{
    const ExecContext& ctx = mesh.ctx();
    PhaseScope scope(ctx.profiler(), "other");
    const BlockShape s = mesh.config().blockShape();

    std::vector<BlockPartial> partials;
    partials.reserve(mesh.ownedBlocks().size());
    for (MeshBlock* block : mesh.ownedBlocks()) {
        ctx.setCurrentRank(block->rank());
        const RealArray4& cons = block->cons();
        const double vol = block->geom().cellVolume();
        double block_mass = 0.0;
        parReduce(ctx, "MassHistory", costs, ReduceOp::Sum, block_mass,
                  s.ks(), s.ke(), s.js(), s.je(), s.is(), s.ie(),
                  [&](int k, int j, int i, double& acc) {
                      acc += summand(cons, k, j, i) * vol;
                  });
        partials.push_back({block->gid(), block_mass});
    }
    // All-gather (accounted as the AllReduce the real code issues) and
    // fold in global gid order: each partial is computed identically
    // wherever its block lives, so the sum is bitwise independent of
    // the rank decomposition.
    std::vector<BlockPartial> gathered = world.allGatherVec(
        mesh.collectiveRank(), std::move(partials),
        static_cast<double>(sizeof(double)), CollAccount::Reduce);
    std::sort(gathered.begin(), gathered.end(),
              [](const BlockPartial& a, const BlockPartial& b) {
                  return a.gid < b.gid;
              });
    double mass = 0.0;
    for (const BlockPartial& partial : gathered)
        mass += partial.value;
    recordSerial(ctx, "collective", 1.0);
    return mass;
}

/**
 * First-derivative indicator (kernel "FirstDerivative"): max over
 * interior cells of the index-space gradient norm of components
 * [comp_begin, comp_end). Numeric mode only.
 */
inline double
fvMaxGradient(const MeshBlock& block, const ExecContext& ctx,
              int comp_begin, int comp_end)
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
                  double jump2 = 0.0;
                  for (int m = comp_begin; m < comp_end; ++m) {
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
    return max_jump;
}

/** Refine above `refine_tol`, derefine below `derefine_tol`. */
inline RefinementFlag
refinementFlagFor(double indicator, double refine_tol,
                  double derefine_tol)
{
    if (indicator > refine_tol)
        return RefinementFlag::Refine;
    if (indicator < derefine_tol)
        return RefinementFlag::Derefine;
    return RefinementFlag::None;
}

} // namespace vibe
