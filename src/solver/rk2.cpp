#include "solver/rk2.hpp"

#include "exec/par_for.hpp"

namespace vibe {

namespace {

/** u <- wa*u0 + wb*u + wc*dt*dudt on one block. */
void
weightedSumBlock(Mesh& mesh, MeshBlock& block, double wa, double wb,
                 double wc, double dt)
{
    const ExecContext& ctx = mesh.ctx();
    const BlockShape s = mesh.config().blockShape();
    const int ncomp = mesh.registry().ncompConserved();
    // Per cell: ncomp fused multiply-adds over three registers.
    const KernelCosts costs{ncomp * 5.0, ncomp * 4.0 * sizeof(double)};

    recordSerialAt(ctx, "WeightedSumData", block.rank(), "string_lookup",
                   static_cast<double>(mesh.registry().all().size()));
    RealArray4& cons = block.cons();
    RealArray4& cons0 = block.cons0();
    RealArray4& dudt = block.dudt();
    parForAt(ctx, "WeightedSumData", block.rank(), "WeightedSumData",
             costs, s.ks(), s.ke(), s.js(), s.je(), s.is(), s.ie(),
             [&](int k, int j, int i) {
                 for (int n = 0; n < ncomp; ++n)
                     cons(n, k, j, i) = wa * cons0(n, k, j, i) +
                                        wb * cons(n, k, j, i) +
                                        wc * dt * dudt(n, k, j, i);
             });
}

} // namespace

void
saveStateBlock(Mesh& mesh, MeshBlock& block)
{
    const ExecContext& ctx = mesh.ctx();
    const BlockShape s = mesh.config().blockShape();
    const int ncomp = mesh.registry().ncompConserved();
    const KernelCosts costs{0.0, ncomp * 2.0 * sizeof(double)};

    RealArray4& cons = block.cons();
    RealArray4& cons0 = block.cons0();
    parForAt(ctx, "WeightedSumData", block.rank(), "WeightedSumData",
             costs, s.ks(), s.ke(), s.js(), s.je(), s.is(), s.ie(),
             [&](int k, int j, int i) {
                 for (int n = 0; n < ncomp; ++n)
                     cons0(n, k, j, i) = cons(n, k, j, i);
             });
}

void
stageUpdateBlock(Mesh& mesh, MeshBlock& block, int stage, double dt)
{
    if (stage == 1)
        weightedSumBlock(mesh, block, 1.0, 0.0, 1.0, dt);
    else
        weightedSumBlock(mesh, block, 0.5, 0.5, 0.5, dt);
}

} // namespace vibe
