/**
 * @file test_solver.cpp
 * Tests for reconstruction (WENO5/PLM), the HLL Riemann solver, the
 * Burgers package operators, RK2 stages, and prolongation/restriction
 * operators.
 */
#include <gtest/gtest.h>

#include <cmath>

#include "exec/kernel_profiler.hpp"
#include "exec/memory_tracker.hpp"
#include "mesh/mesh.hpp"
#include "mesh/prolong_restrict.hpp"
#include "pkg/burgers_package.hpp"
#include "solver/reconstruct.hpp"
#include "solver/riemann.hpp"

namespace vibe {
namespace {

// --- WENO5 ---

TEST(Weno5, ExactOnConstant)
{
    EXPECT_NEAR(weno5Face(3.0, 3.0, 3.0, 3.0, 3.0), 3.0, 1e-14);
}

TEST(Weno5, ExactOnLinear)
{
    // Cell averages of a linear function are its center values; the
    // interface value is the midpoint.
    EXPECT_NEAR(weno5Face(-2, -1, 0, 1, 2), 0.5, 1e-10);
    EXPECT_NEAR(weno5Face(4, 6, 8, 10, 12), 9.0, 1e-9);
}

TEST(Weno5, HighOrderOnParabola)
{
    // u(x) = x^2 cell averages on unit cells centered at -2..2:
    // avg over [i-1/2, i+1/2] = i^2 + 1/12. Interface value at
    // x = 1/2 is 1/4.
    const double a = 1.0 / 12.0;
    EXPECT_NEAR(weno5Face(4 + a, 1 + a, 0 + a, 1 + a, 4 + a), 0.25,
                1e-3);
}

TEST(Weno5, EssentiallyNonOscillatoryAtJump)
{
    // Step data: reconstruction must not overshoot the data range.
    const double v = weno5Face(0.0, 0.0, 0.0, 1.0, 1.0);
    EXPECT_GE(v, -1e-10);
    EXPECT_LE(v, 1.0 + 1e-10);
    const double w = weno5Face(1.0, 1.0, 1.0, 0.0, 0.0);
    EXPECT_GE(w, -0.2);
    EXPECT_LE(w, 1.2);
}

TEST(Weno5, FifthOrderConvergenceOnSmoothData)
{
    // Interface reconstruction error for sin(x) should shrink ~h^5.
    auto error_at = [](double h) {
        auto avg = [h](double center) {
            // Exact cell average of sin over [center-h/2, center+h/2].
            return (std::cos(center - h / 2) - std::cos(center + h / 2)) /
                   h;
        };
        const double x = 0.3;
        const double recon =
            weno5Face(avg(x - 2 * h), avg(x - h), avg(x), avg(x + h),
                      avg(x + 2 * h));
        return std::fabs(recon - std::sin(x + h / 2));
    };
    const double e1 = error_at(0.1);
    const double e2 = error_at(0.05);
    const double order = std::log2(e1 / e2);
    EXPECT_GT(order, 4.5);
}

// --- PLM ---

TEST(Plm, ExactOnLinear)
{
    EXPECT_NEAR(plmFace(1.0, 2.0, 3.0), 2.5, 1e-14);
}

TEST(Plm, LimitsAtExtrema)
{
    // Local max: slope limited to zero.
    EXPECT_NEAR(plmFace(1.0, 2.0, 1.0), 2.0, 1e-14);
    EXPECT_NEAR(plmFace(2.0, 1.0, 2.0), 1.0, 1e-14);
}

TEST(Plm, PicksSmallerSlope)
{
    // dm = 1, dp = 4 -> slope 1.
    EXPECT_NEAR(plmFace(0.0, 1.0, 5.0), 1.5, 1e-14);
}

// --- minmod ---

TEST(Minmod, Basics)
{
    EXPECT_DOUBLE_EQ(minmod(1.0, 2.0), 1.0);
    EXPECT_DOUBLE_EQ(minmod(-3.0, -2.0), -2.0);
    EXPECT_DOUBLE_EQ(minmod(1.0, -1.0), 0.0);
    EXPECT_DOUBLE_EQ(minmod(0.0, 5.0), 0.0);
}

// --- HLL ---

TEST(Hll, ConsistencyWithEqualStates)
{
    // F(u, u) must equal the physical flux.
    const int ncomp = 5;
    double u[5] = {0.7, -0.3, 0.2, 1.1, 0.4};
    double flux[5];
    hllFlux(u, u, 0, ncomp, flux);
    for (int m = 0; m < 3; ++m)
        EXPECT_NEAR(flux[m], 0.5 * u[0] * u[m], 1e-14);
    for (int m = 3; m < ncomp; ++m)
        EXPECT_NEAR(flux[m], u[0] * u[m], 1e-14);
}

TEST(Hll, UpwindsSupersonicRight)
{
    // Both speeds positive: flux is the left flux.
    double ul[4] = {1.0, 0.2, 0.0, 2.0};
    double ur[4] = {0.5, 0.1, 0.0, 3.0};
    double flux[4];
    hllFlux(ul, ur, 0, 4, flux);
    EXPECT_NEAR(flux[0], 0.5 * 1.0 * 1.0, 1e-14);
    EXPECT_NEAR(flux[3], 1.0 * 2.0, 1e-14);
}

TEST(Hll, UpwindsSupersonicLeft)
{
    double ul[4] = {-0.5, 0.0, 0.0, 2.0};
    double ur[4] = {-1.0, 0.0, 0.0, 3.0};
    double flux[4];
    hllFlux(ul, ur, 0, 4, flux);
    EXPECT_NEAR(flux[0], 0.5 * (-1.0) * (-1.0), 1e-14);
    EXPECT_NEAR(flux[3], (-1.0) * 3.0, 1e-14);
}

TEST(Hll, StagnantInterfaceAveragesFlux)
{
    double ul[4] = {0.0, 1.0, 0.0, 2.0};
    double ur[4] = {0.0, -1.0, 0.0, 4.0};
    double flux[4];
    hllFlux(ul, ur, 0, 4, flux);
    EXPECT_NEAR(flux[0], 0.0, 1e-14);
    EXPECT_NEAR(flux[3], 0.0, 1e-14);
}

TEST(Hll, DirectionSelectsVelocityComponent)
{
    double ul[4] = {0.0, 2.0, 0.0, 1.0};
    double ur[4] = {0.0, 2.0, 0.0, 1.0};
    double flux[4];
    hllFlux(ul, ur, 1, 4, flux); // y-direction: vel = u[1] = 2
    EXPECT_NEAR(flux[1], 0.5 * 2.0 * 2.0, 1e-14);
    EXPECT_NEAR(flux[3], 2.0 * 1.0, 1e-14);
}

// --- Fixture for package-level tests ---

struct SolverFixture
{
    KernelProfiler profiler;
    MemoryTracker tracker;
    VariableRegistry registry = makeBurgersRegistry(8);
    std::unique_ptr<ExecContext> ctx;
    std::unique_ptr<Mesh> mesh;
    std::unique_ptr<RankWorld> world;
    BurgersPackage package{BurgersConfig{}};

    explicit SolverFixture(int mesh_nx = 16, int block_nx = 8,
                           int levels = 1)
    {
        ctx = std::make_unique<ExecContext>(ExecMode::Execute,
                                            &profiler, &tracker);
        MeshConfig config;
        config.nx1 = config.nx2 = config.nx3 = mesh_nx;
        config.blockNx1 = config.blockNx2 = config.blockNx3 = block_nx;
        config.amrLevels = levels;
        mesh = std::make_unique<Mesh>(config, registry, *ctx);
        world = std::make_unique<RankWorld>(1);
    }
};

TEST(Burgers, FillDerivedComputesKineticEnergy)
{
    SolverFixture f;
    for (const auto& block : f.mesh->blocks()) {
        block->cons().fill(0.0);
        const BlockShape s = block->shape();
        for (int k = s.ks(); k <= s.ke(); ++k)
            for (int j = s.js(); j <= s.je(); ++j)
                for (int i = s.is(); i <= s.ie(); ++i) {
                    block->cons()(0, k, j, i) = 2.0;
                    block->cons()(1, k, j, i) = 1.0;
                    block->cons()(2, k, j, i) = 2.0;
                    block->cons()(3, k, j, i) = 0.5; // q0
                }
    }
    for (const auto& block : f.mesh->blocks())
        f.package.fillDerivedBlock(*f.mesh, *block);
    const BlockShape s = f.mesh->config().blockShape();
    // d = 0.5 * 0.5 * (4 + 1 + 4) = 2.25
    EXPECT_NEAR(f.mesh->block(0).derived()(0, s.ks(), s.js(), s.is()),
                2.25, 1e-14);
}

TEST(Burgers, EstimateTimestepCflScaling)
{
    SolverFixture f;
    for (const auto& block : f.mesh->blocks()) {
        block->cons().fill(0.0);
        const BlockShape s = block->shape();
        for (int k = s.ks(); k <= s.ke(); ++k)
            for (int j = s.js(); j <= s.je(); ++j)
                for (int i = s.is(); i <= s.ie(); ++i)
                    block->cons()(0, k, j, i) = 2.0; // |u| = 2
    }
    // dx = 1/16, cfl = 0.4 -> dt = 0.4 * (1/16) / 2 = 0.0125 on every
    // block; a 1.0 cap leaves it alone, a 1e-3 cap wins.
    for (const auto& block : f.mesh->blocks()) {
        EXPECT_NEAR(f.package.estimateTimestepBlock(*f.mesh, *block, 1.0),
                    0.0125, 1e-12);
        EXPECT_NEAR(
            f.package.estimateTimestepBlock(*f.mesh, *block, 1e-3), 1e-3,
            1e-15);
    }
}

TEST(Burgers, MassHistorySumsScalar)
{
    SolverFixture f;
    for (const auto& block : f.mesh->blocks()) {
        block->cons().fill(0.0);
        const BlockShape s = block->shape();
        for (int k = s.ks(); k <= s.ke(); ++k)
            for (int j = s.js(); j <= s.je(); ++j)
                for (int i = s.is(); i <= s.ie(); ++i)
                    block->cons()(3, k, j, i) = 2.0;
    }
    const double mass = f.package.massHistory(*f.mesh, *f.world);
    EXPECT_NEAR(mass, 2.0, 1e-12); // unit domain, q0 = 2 everywhere
}

TEST(Burgers, UniformStateIsUnchangedByBothStages)
{
    // A spatially constant state is a steady solution: every face
    // carries the same flux, so the divergence is exactly zero and
    // both stage updates leave the state bitwise as it was.
    SolverFixture f;
    for (const auto& block : f.mesh->blocks()) {
        const BlockShape s = block->shape();
        for (int n = 0; n < f.registry.ncompConserved(); ++n)
            for (int k = 0; k < s.nk(); ++k)
                for (int j = 0; j < s.nj(); ++j)
                    for (int i = 0; i < s.ni(); ++i)
                        block->cons()(n, k, j, i) = 0.3 + 0.1 * n;
    }
    const BlockShape s = f.mesh->config().blockShape();
    for (int stage = 1; stage <= 2; ++stage) {
        for (const auto& block : f.mesh->blocks()) {
            f.package.calculateFluxesBlock(*f.mesh, *block);
            f.package.rk2StageBlock(*f.mesh, *block, stage, 0.01);
        }
        for (const auto& block : f.mesh->blocks())
            for (int n = 0; n < f.registry.ncompConserved(); ++n)
                for (int k = s.ks(); k <= s.ke(); ++k)
                    for (int j = s.js(); j <= s.je(); ++j)
                        for (int i = s.is(); i <= s.ie(); ++i)
                            ASSERT_EQ(block->cons()(n, k, j, i),
                                      0.3 + 0.1 * n)
                                << "stage " << stage;
    }
}

TEST(Burgers, TagBlockFlagsSteepGradients)
{
    SolverFixture f;
    MeshBlock& block = f.mesh->block(0);
    const BlockShape s = block.shape();
    block.cons().fill(0.0);
    EXPECT_EQ(f.package.tagBlock(block, *f.ctx),
              RefinementFlag::Derefine);
    // Steep jump in u across the middle.
    for (int k = 0; k < s.nk(); ++k)
        for (int j = 0; j < s.nj(); ++j)
            for (int i = 0; i < s.ni(); ++i)
                block.cons()(0, k, j, i) = i > s.ni() / 2 ? 1.0 : 0.0;
    EXPECT_EQ(f.package.tagBlock(block, *f.ctx), RefinementFlag::Refine);
}

TEST(Burgers, ConfigFromParams)
{
    auto pin = ParameterInput::fromString(R"(
<burgers>
num_scalars = 4
cfl = 0.3
recon = plm
)");
    auto config = BurgersConfig::fromParams(pin);
    EXPECT_EQ(config.numScalars, 4);
    EXPECT_DOUBLE_EQ(config.cfl, 0.3);
    EXPECT_EQ(config.recon, ReconMethod::Plm);
    pin.set("burgers", "recon", "bogus");
    EXPECT_THROW(BurgersConfig::fromParams(pin), FatalError);
    EXPECT_THROW(initialConditionFromName("bogus"), FatalError);
}

// --- RK2 algebra ---

TEST(Rk2, StageAlgebra)
{
    // x1 fluxes -c * x_face and zero elsewhere: -div(flux) = c exactly
    // (dx = 1/16), so each stage's weights show in the new state.
    SolverFixture f;
    MeshBlock& block = f.mesh->block(0);
    const BlockShape s = block.shape();
    const auto set_divergence = [&](double c) {
        for (int d = 0; d < 3; ++d)
            block.flux(d).fill(0.0);
        for (int n = 0; n < block.flux(0).nvar(); ++n)
            for (int k = s.ks(); k <= s.ke(); ++k)
                for (int j = s.js(); j <= s.je(); ++j)
                    for (int i = s.is(); i <= s.ie() + 1; ++i)
                        block.flux(0)(n, k, j, i) =
                            -c * (i - s.is()) / 16.0;
    };
    block.cons().fill(2.0);
    set_divergence(1.0);
    f.package.rk2StageBlock(*f.mesh, block, 1, 0.1);
    // Stage 1 saves u0 = 2, then u = u0 + dt * 1 = 2.1.
    EXPECT_EQ(block.cons0()(0, s.ks(), s.js(), s.is()), 2.0);
    EXPECT_NEAR(block.cons()(0, s.ks(), s.js(), s.is()), 2.1, 1e-14);
    set_divergence(2.0);
    // u = 0.5*2 + 0.5*2.1 + 0.05*2 = 2.15; stage 2 also refreshes the
    // derived d = 0.5 q0 u.u from it.
    f.package.rk2StageBlock(*f.mesh, block, 2, 0.1);
    EXPECT_EQ(block.cons0()(0, s.ks(), s.js(), s.is()), 2.0);
    EXPECT_NEAR(block.cons()(0, s.ks(), s.js(), s.is()), 2.15, 1e-14);
    EXPECT_NEAR(block.derived()(0, s.ke(), s.je(), s.ie()),
                0.5 * 2.15 * 3 * 2.15 * 2.15, 1e-13);
}

TEST(Rk2, HeunIsSecondOrderOnScalarOde)
{
    // du/dt = -u via the same weights: error ~ dt^2 per step.
    auto step = [](double u, double dt) {
        const double u0 = u;
        double du = -u;
        u = u0 + dt * du;        // stage 1
        du = -u;
        return 0.5 * u0 + 0.5 * u + 0.5 * dt * du; // stage 2
    };
    auto integrate = [&](int n) {
        double u = 1.0;
        const double dt = 1.0 / n;
        for (int i = 0; i < n; ++i)
            u = step(u, dt);
        return std::fabs(u - std::exp(-1.0));
    };
    const double e1 = integrate(50);
    const double e2 = integrate(100);
    EXPECT_GT(std::log2(e1 / e2), 1.8);
}

// --- Prolongation / restriction operators ---

TEST(ProlongRestrict, RestrictionIsExactVolumeAverage)
{
    SolverFixture f(16, 8, 2);
    RefinementFlagMap flags;
    flags[{0, 0, 0, 0}] = RefinementFlag::Refine;
    auto restructure = f.mesh->applyTreeUpdate(f.mesh->updateTree(flags),
                                               0);
    ASSERT_EQ(restructure.refined.size(), 1u);
    MeshBlock* child = restructure.refined[0].children[0];
    MeshBlock& parent = *restructure.refined[0].parent;
    const BlockShape s = child->shape();
    // Distinct values per fine cell.
    for (int k = s.ks(); k <= s.ke(); ++k)
        for (int j = s.js(); j <= s.je(); ++j)
            for (int i = s.is(); i <= s.ie(); ++i)
                child->cons()(0, k, j, i) = i + 10 * j + 100 * k;
    restrictChildToParent(*f.ctx, *child, parent);
    double sum = 0;
    for (int dk = 0; dk < 2; ++dk)
        for (int dj = 0; dj < 2; ++dj)
            for (int di = 0; di < 2; ++di)
                sum += child->cons()(0, s.ks() + dk, s.js() + dj,
                                     s.is() + di);
    EXPECT_NEAR(parent.cons()(0, s.ks(), s.js(), s.is()), sum / 8.0,
                1e-13);
}

TEST(ProlongRestrict, ProlongationPreservesMeans)
{
    SolverFixture f(16, 8, 2);
    RefinementFlagMap flags;
    flags[{0, 0, 0, 0}] = RefinementFlag::Refine;
    auto restructure = f.mesh->applyTreeUpdate(f.mesh->updateTree(flags),
                                               0);
    MeshBlock& parent = *restructure.refined[0].parent;
    const BlockShape s = parent.shape();
    for (int k = 0; k < s.nk(); ++k)
        for (int j = 0; j < s.nj(); ++j)
            for (int i = 0; i < s.ni(); ++i)
                parent.cons()(0, k, j, i) =
                    std::sin(0.3 * i) + std::cos(0.2 * j) + 0.1 * k;

    for (MeshBlock* child : restructure.refined[0].children) {
        prolongateParentToChild(*f.ctx, parent, *child);
        // Every coarse cell's mean is preserved by the limited-slope
        // interpolation: check one covered coarse cell per child.
        double mean = 0;
        for (int dk = 0; dk < 2; ++dk)
            for (int dj = 0; dj < 2; ++dj)
                for (int di = 0; di < 2; ++di)
                    mean += child->cons()(0, s.ks() + dk, s.js() + dj,
                                          s.is() + di);
        mean /= 8.0;
        const int idx = child->loc().childIndexInParent();
        const int pi = s.is() + (idx & 1) * s.nx1 / 2;
        const int pj = s.js() + ((idx >> 1) & 1) * s.nx2 / 2;
        const int pk = s.ks() + ((idx >> 2) & 1) * s.nx3 / 2;
        EXPECT_NEAR(mean, parent.cons()(0, pk, pj, pi), 1e-13);
    }
}

TEST(ProlongRestrict, RoundTripIsIdentityOnMeans)
{
    SolverFixture f(16, 8, 2);
    RefinementFlagMap flags;
    flags[{0, 0, 0, 0}] = RefinementFlag::Refine;
    auto restructure = f.mesh->applyTreeUpdate(f.mesh->updateTree(flags),
                                               0);
    MeshBlock& parent = *restructure.refined[0].parent;
    const BlockShape s = parent.shape();
    for (int k = 0; k < s.nk(); ++k)
        for (int j = 0; j < s.nj(); ++j)
            for (int i = 0; i < s.ni(); ++i)
                parent.cons()(0, k, j, i) = 1.0 + 0.01 * (i + j + k);

    // Prolongate to all children, then restrict back: parent interior
    // must be recovered exactly (conservation round trip).
    RealArray4 original = parent.cons();
    for (MeshBlock* child : restructure.refined[0].children)
        prolongateParentToChild(*f.ctx, parent, *child);
    parent.cons().fill(0.0);
    for (MeshBlock* child : restructure.refined[0].children)
        restrictChildToParent(*f.ctx, *child, parent);
    for (int k = s.ks(); k <= s.ke(); ++k)
        for (int j = s.js(); j <= s.je(); ++j)
            for (int i = s.is(); i <= s.ie(); ++i)
                ASSERT_NEAR(parent.cons()(0, k, j, i),
                            original(0, k, j, i), 1e-13);
}

} // namespace
} // namespace vibe
