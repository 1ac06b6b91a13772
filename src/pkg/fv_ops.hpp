/**
 * @file fv_ops.hpp
 * The framework-owned finite-volume operator skeletons (Parthenon's
 * StateDescriptor split: one loop per operator, the package plugs in
 * its physics). Each `fv*` template owns the launch, the profiler
 * record (kernel name, per-item cost), the index and face ranges and,
 * for the history, the gid-ordered fold; the package passes its
 * per-cell physics as a callable. Callables are template parameters,
 * so they inline like hand-written loop bodies (the flux row, which
 * reconstructs faces into row scratch and feeds them straight to the
 * package's Riemann row, is the hot path). Evaluation order is fixed
 * here, so profiler tables and state bits do not depend on which
 * package supplied the physics, and the bitwise guarantees proved for
 * one package carry over.
 */
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <type_traits>
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
 * "CalculateFluxes"). Per direction d, ONE row launch over the (k, j)
 * rows of faces: each row reconstructs every component's faces
 * [fis, fie] into chunk-private row scratch, then runs
 * `row(l, r, stride, flux, d, ncomp, k, j, fis, fie, scratch)` on it
 * right away. Face i's state of component n is l[n * stride + i - fis]
 * (resp. r); `scratch` is `scratch_per_comp * ncomp` more doubles
 * private to the chunk. No per-block face-state array exists, so the
 * row stays in cache between the two halves (Athena++'s per-row
 * wl_/wr_, AthenaK's team-scratch pencils).
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
    // states and one Riemann flux per component. The byte count models
    // the paper's per-block recon traffic (state read, two full-block
    // recon writes, flux write), not this host's row-fused kernel,
    // whose face states never leave the chunk's row scratch.
    const KernelCosts costs{
        ndim * ncomp * (2 * recon_flops + riemann_flops_per_comp),
        ndim * ncomp * 4.0 * sizeof(double)};

    // One record covers the block; the row launches only dispatch.
    recordKernelAt(ctx, "CalculateFluxes", block.rank(),
                   "CalculateFluxes",
                   static_cast<double>(s.interiorCells()), costs,
                   static_cast<double>(s.nx1));
    if (!ctx.executing())
        return;

    // Grow-only scratch of the launching thread, one slice per chunk,
    // passed as a plain pointer: a pool worker naming the thread_local
    // would resolve its own (unsized) instance. A slice holds the left
    // and right states of one row of faces (at most nx1 + 1, the x1
    // row) per component, then the Riemann row's own scratch.
    static thread_local std::vector<double> row_scratch;
    const int stride = s.nx1 + 1;
    const std::size_t states = static_cast<std::size_t>(stride) * ncomp;
    const std::size_t per_chunk =
        2 * states + static_cast<std::size_t>(scratch_per_comp) * ncomp;
    const std::size_t need =
        static_cast<std::size_t>(ctx.space().concurrency()) * per_chunk;
    if (row_scratch.size() < need)
        row_scratch.resize(need);
    double* const scratch = row_scratch.data();

    const RealArray4& cons = block.cons();
    // The scheme is a template argument of the row, so the stencil
    // branch is resolved once per block, not once per face.
    const auto sweep = [&](auto method) {
        // Stencil reach along d: face f reads cells f-3 .. f+2 (WENO5)
        // or f-2 .. f+1 (PLM).
        constexpr bool weno =
            decltype(method)::value == ReconMethod::Weno5;
        constexpr int reach_lo = weno ? -3 : -2, reach_hi = weno ? 2 : 1;
        for (int d = 0; d < ndim; ++d) {
            RealArray4& flux = block.flux(d);
            const int di = d == 0 ? 1 : 0;
            const int dj = d == 1 ? 1 : 0;
            const int dk = d == 2 ? 1 : 0;
            // Interior faces of dim d, interior cells transversely.
            const int fis = s.is(), fie = s.ie() + di;
            const int fjs = s.js(), fje = s.je() + dj;
            const int fks = s.ks(), fke = s.ke() + dk;
            const int nfaces = fie - fis + 1;
            // Element distance of one cell along d in (n, k, j, i).
            const std::ptrdiff_t step =
                &cons(0, dk, dj, di) - &cons(0, 0, 0, 0);

            parForExecRows(
                ctx, fks, fke, fjs, fje, [&](int chunk, int k, int j) {
                    double* const l =
                        scratch + static_cast<std::size_t>(chunk) * per_chunk;
                    double* const r = l + states;
                    for (int n = 0; n < ncomp; ++n)
                        reconRow<decltype(method)::value>(
                            cons.row(n, k, j, fis, nfaces, d, reach_lo,
                                     reach_hi),
                            step, nfaces,
                            l + static_cast<std::size_t>(n) * stride,
                            r + static_cast<std::size_t>(n) * stride);
                    row(l, r, stride, flux, d, ncomp, k, j, fis, fie,
                        r + states);
                });
        }
    };
    if (recon == ReconMethod::Weno5)
        sweep(std::integral_constant<ReconMethod, ReconMethod::Weno5>{});
    else
        sweep(std::integral_constant<ReconMethod, ReconMethod::Plm>{});
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

/** The source term of a package without one. */
inline constexpr auto kNoSource = [](const RealArray4&, int, int, int,
                                     double*, int) {};

/**
 * RK2 (Heun) stage `stage` of one block as ONE row pass. Per (k, j)
 * row, into chunk-private scratch d (cell i, component n at
 * d[n * nx + i - is]): d = -div(flux); `source(cons, k, j, i,
 * &d[i - is], nx)` adds the source term from the pre-update state;
 * stage 1 saves cons0 = cons; cons = wa * cons0 + wb * cons +
 * wc * dt * d (stage 1: u0 + dt L(u0), stage 2: (u0 + u + dt L(u)) /
 * 2); stage 2 sets derived(0) = formula(cons, k, j, i). Each cell's
 * arithmetic is that of the separate kernels, in their order, so no
 * bit moves; the profiler rows are theirs too ("FluxDivergence",
 * "WeightedSumData" for the save and the update, "CalculateDerived"),
 * modelling Parthenon's launches, not this one.
 */
template <typename CellSource, typename CellFormula>
inline void
fvRk2StageBlock(Mesh& mesh, MeshBlock& block, int stage, double dt,
                CellSource&& source, const KernelCosts& derived_costs,
                CellFormula&& formula)
{
    const ExecContext& ctx = mesh.ctx();
    const BlockShape s = mesh.config().blockShape();
    const int ncomp = mesh.registry().ncompConserved();
    const int ndim = s.ndim, rank = block.rank(), is = s.is(), nx = s.nx1;
    const double cells = static_cast<double>(s.interiorCells());
    const double nvars = static_cast<double>(mesh.registry().all().size());
    constexpr double w = sizeof(double);
    recordKernelAt(ctx, "FluxDivergence", rank, "FluxDivergence", cells,
                   {ncomp * ndim * 3.0, ncomp * (2 * ndim + 1) * w}, nx);
    if (stage == 1)
        recordKernelAt(ctx, "WeightedSumData", rank, "WeightedSumData",
                       cells, {0.0, ncomp * 2 * w}, nx);
    recordSerialAt(ctx, "WeightedSumData", rank, "string_lookup", nvars);
    if (stage == 2) {
        recordSerialAt(ctx, "FillDerived", rank, "string_lookup", nvars);
        recordKernelAt(ctx, "FillDerived", rank, "CalculateDerived", cells,
                       derived_costs, nx);
    }

    // Grow-only row scratch, one slice per chunk (as the flux kernel).
    static thread_local std::vector<double> row_scratch;
    const std::size_t per_chunk = static_cast<std::size_t>(ncomp) * nx;
    const auto need = ctx.space().concurrency() * per_chunk;
    if (row_scratch.size() < need)
        row_scratch.resize(need);
    double* const scratch = row_scratch.data();

    const BlockGeometry& g = block.geom();
    const double inv_dx[3] = {1.0 / g.dx1, 1.0 / g.dx2, 1.0 / g.dx3};
    const double wa = stage == 1 ? 1.0 : 0.5, wb = 1.0 - wa, wc = wa;
    RealArray4& cons = block.cons();
    RealArray4& cons0 = block.cons0();
    RealArray4& derived = block.derived();
    const RealArray4 &fx = block.flux(0), &fy = block.flux(1),
                     &fz = block.flux(2);
    // The pass is the update's launch: ncomp multiply-adds per cell.
    parForRowsAt(
        ctx, "WeightedSumData", rank, "WeightedSumData",
        {ncomp * 5.0, ncomp * 4 * w}, s.ks(), s.ke(), s.js(), s.je(), nx,
        [&](int chunk, int k, int j) {
            double* const d = scratch + chunk * per_chunk;
            for (int n = 0; n < ncomp; ++n) {
                // Faces i, i + 1 along x; the upper y, z faces are rows.
                const double* x = fx.row(n, k, j, is, nx + 1);
                const double* y0 = ndim < 2 ? x : fy.row(n, k, j, is, nx);
                const double* y1 =
                    ndim < 2 ? x : fy.row(n, k, j + 1, is, nx);
                const double* z0 = ndim < 3 ? x : fz.row(n, k, j, is, nx);
                const double* z1 =
                    ndim < 3 ? x : fz.row(n, k + 1, j, is, nx);
                double* dn = d + n * nx;
                for (int i = 0; i < nx; ++i) {
                    double div = (x[i + 1] - x[i]) * inv_dx[0];
                    if (ndim >= 2)
                        div += (y1[i] - y0[i]) * inv_dx[1];
                    if (ndim >= 3)
                        div += (z1[i] - z0[i]) * inv_dx[2];
                    dn[i] = -div;
                }
            }
            for (int i = 0; i < nx; ++i)
                source(cons, k, j, is + i, d + i, nx);
            for (int n = 0; n < ncomp; ++n) {
                double* u = cons.row(n, k, j, is, nx);
                double* u0 = cons0.row(n, k, j, is, nx);
                const double* dn = d + n * nx;
                if (stage == 1)
                    std::copy(u, u + nx, u0);
                for (int i = 0; i < nx; ++i)
                    u[i] = wa * u0[i] + wb * u[i] + wc * dt * dn[i];
            }
            if (stage == 2) {
                double* e = derived.row(0, k, j, is, nx);
                for (int i = 0; i < nx; ++i)
                    e[i] = formula(cons, k, j, is + i);
            }
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
