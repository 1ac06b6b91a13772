/**
 * @file fv_ops.hpp
 * PDE-agnostic finite-volume operators shared by physics packages.
 *
 * The flux-divergence update dudt = -div(flux) depends only on the
 * face fluxes a package already computed — not on the PDE — so every
 * package delegates here. One definition means the operator can
 * never diverge between packages, and the bitwise-equivalence
 * guarantees proved for one package transfer to the others.
 */
#pragma once

#include "exec/par_for.hpp"
#include "mesh/mesh.hpp"

namespace vibe {

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

} // namespace vibe
