/**
 * @file test_pkg.cpp
 * The physics-package subsystem: PackageRegistry selection and errors,
 * per-package variable ownership, the advection package's physics
 * callables (derived energy, speed-weighted tag threshold), and its
 * correctness guarantees — analytic-solution accuracy on a uniform
 * mesh, mass conservation to round-off across mid-run
 * refine/derefine, and the same bitwise serial-vs-threaded
 * equivalence the Burgers package proves.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "comm/rank_world.hpp"
#include "driver/evolution_driver.hpp"
#include "driver/tagger.hpp"
#include "exec/execution_space.hpp"
#include "exec/kernel_profiler.hpp"
#include "exec/memory_tracker.hpp"
#include "pkg/advection_package.hpp"
#include "pkg/burgers_package.hpp"
#include "pkg/package_registry.hpp"
#include "util/logging.hpp"

namespace vibe {
namespace {

// --- PackageRegistry --------------------------------------------------

TEST(PackageRegistry, CreatesBothBuiltins)
{
    ParameterInput pin;
    auto burgers = PackageRegistry::instance().create("burgers", pin);
    ASSERT_NE(burgers, nullptr);
    EXPECT_EQ(burgers->name(), "burgers");

    auto advection =
        PackageRegistry::instance().create("advection", pin);
    ASSERT_NE(advection, nullptr);
    EXPECT_EQ(advection->name(), "advection");

    const auto names = PackageRegistry::instance().names();
    EXPECT_NE(std::find(names.begin(), names.end(), "burgers"),
              names.end());
    EXPECT_NE(std::find(names.begin(), names.end(), "advection"),
              names.end());
}

TEST(PackageRegistry, FromDeckSelectsPackage)
{
    auto deck = ParameterInput::fromString(R"(
<job>
package = advection
<advection>
vx = 2.0
)");
    auto package = PackageRegistry::fromDeck(deck);
    ASSERT_NE(package, nullptr);
    EXPECT_EQ(package->name(), "advection");
    EXPECT_DOUBLE_EQ(
        static_cast<const AdvectionPackage&>(*package).config().vx,
        2.0);

    // Default is the VIBE workload.
    ParameterInput empty;
    EXPECT_EQ(PackageRegistry::fromDeck(empty)->name(), "burgers");
}

TEST(PackageRegistry, UnknownNameIsFatalAndListsPackages)
{
    ParameterInput pin;
    try {
        PackageRegistry::instance().create("kelvin_helmholtz", pin);
        FAIL() << "expected FatalError";
    } catch (const FatalError& err) {
        const std::string what = err.what();
        EXPECT_NE(what.find("kelvin_helmholtz"), std::string::npos)
            << what;
        EXPECT_NE(what.find("burgers"), std::string::npos) << what;
        EXPECT_NE(what.find("advection"), std::string::npos) << what;
    }
}

TEST(PackageRegistry, DuplicateRegistrationIsFatal)
{
    EXPECT_THROW(PackageRegistry::instance().registerPackage(
                     "burgers",
                     [](const ParameterInput&)
                         -> std::unique_ptr<PackageDescriptor> {
                         return nullptr;
                     }),
                 FatalError);
}

TEST(PackageRegistry, PackagesOwnDisjointVariableSets)
{
    const VariableRegistry burgers = makeBurgersRegistry(4);
    const VariableRegistry advection = makeAdvectionRegistry();

    std::set<std::string> burgers_names;
    for (const auto& v : burgers.all())
        burgers_names.insert(v.name);
    for (const auto& v : advection.all())
        EXPECT_EQ(burgers_names.count(v.name), 0u)
            << "variable '" << v.name << "' claimed by both packages";

    // Advection: one ghost-exchanged, flux-corrected conserved scalar
    // plus one derived field.
    EXPECT_EQ(advection.ncompConserved(), 1);
    EXPECT_EQ(advection.ncompDerived(), 1);
    EXPECT_TRUE(advection.byName("phi").hasAll(kIndependent |
                                               kFillGhost |
                                               kWithFluxes));
    EXPECT_TRUE(advection.byName("phi_energy").hasAll(kDerived));
}

// --- Advection config -------------------------------------------------

TEST(Advection, ConfigFromParams)
{
    auto pin = ParameterInput::fromString(R"(
<advection>
vx = -0.5
vy = 0.25
cfl = 0.3
recon = plm
ic = sine
)");
    auto config = AdvectionConfig::fromParams(pin);
    EXPECT_DOUBLE_EQ(config.vx, -0.5);
    EXPECT_DOUBLE_EQ(config.vy, 0.25);
    EXPECT_DOUBLE_EQ(config.vz, 0.25); // default
    EXPECT_DOUBLE_EQ(config.cfl, 0.3);
    EXPECT_EQ(config.recon, ReconMethod::Plm);
    EXPECT_EQ(config.ic, AdvectionProfile::Sine);
    EXPECT_DOUBLE_EQ(config.maxSpeed(3), 0.5);
    EXPECT_DOUBLE_EQ(config.maxSpeed(1), 0.5);

    pin.set("advection", "recon", "bogus");
    EXPECT_THROW(AdvectionConfig::fromParams(pin), FatalError);
    EXPECT_THROW(advectionProfileFromName("bogus"), FatalError);
}

// --- Advection simulation fixtures ------------------------------------

struct AdvSim
{
    KernelProfiler profiler;
    MemoryTracker tracker;
    VariableRegistry registry = makeAdvectionRegistry();
    std::unique_ptr<ExecContext> ctx;
    std::unique_ptr<Mesh> mesh;
    std::unique_ptr<RankWorld> world;
    AdvectionPackage package;

    AdvSim(int mesh_nx, int block_nx, int levels,
           const AdvectionConfig& config, int num_threads)
        : package(config)
    {
        ctx = std::make_unique<ExecContext>(
            ExecMode::Execute, &profiler, &tracker,
            makeExecutionSpace(num_threads));
        MeshConfig mesh_config;
        mesh_config.nx1 = mesh_config.nx2 = mesh_config.nx3 = mesh_nx;
        mesh_config.blockNx1 = mesh_config.blockNx2 =
            mesh_config.blockNx3 = block_nx;
        mesh_config.amrLevels = levels;
        mesh_config.numThreads = num_threads;
        mesh = std::make_unique<Mesh>(mesh_config, registry, *ctx);
        world = std::make_unique<RankWorld>(2);
    }
};

// --- Advection physics callables -------------------------------------

/** Set every cell of `block` (ghosts included) to f(k, j, i). */
template <typename F>
void
fillPhi(MeshBlock& block, F&& f)
{
    const BlockShape s = block.shape();
    for (int k = 0; k < s.nk(); ++k)
        for (int j = 0; j < s.nj(); ++j)
            for (int i = 0; i < s.ni(); ++i)
                block.cons()(0, k, j, i) = f(k, j, i);
}

TEST(Advection, FillDerivedComputesEnergy)
{
    AdvSim sim(16, 8, 1, AdvectionConfig{}, 1);
    for (const auto& block : sim.mesh->blocks()) {
        fillPhi(*block, [](int, int, int) { return 3.0; });
        sim.package.fillDerivedBlock(*sim.mesh, *block);
    }
    const BlockShape s = sim.mesh->config().blockShape();
    // e = 0.5 * phi^2 = 4.5
    for (const auto& block : sim.mesh->blocks())
        EXPECT_DOUBLE_EQ(block->derived()(0, s.ks(), s.js(), s.is()), 4.5);
}

TEST(Advection, TagThresholdIsSpeedWeighted)
{
    // A ramp phi = 0.05 * i has index-space gradient 0.05 everywhere:
    // between derefine_tol (0.02) and refine_tol (0.08) at unit speed.
    // The indicator is maxSpeed * gradient, so the same block refines
    // when the flow is twice as fast and derefines when it is slow.
    const auto flag = [](double vx, double vy, double vz) {
        AdvectionConfig config;
        config.vx = vx;
        config.vy = vy;
        config.vz = vz;
        AdvSim sim(16, 8, 1, config, 1);
        MeshBlock& block = sim.mesh->block(0);
        fillPhi(block, [](int, int, int i) { return 0.05 * i; });
        return sim.package.tagBlock(block, *sim.ctx);
    };
    EXPECT_EQ(flag(1.0, 0.5, 0.25), RefinementFlag::None);
    EXPECT_EQ(flag(2.0, 0.5, 0.25), RefinementFlag::Refine);
    // The fastest active direction sets the weight, whatever its sign.
    EXPECT_EQ(flag(0.1, -2.0, 0.25), RefinementFlag::Refine);
    EXPECT_EQ(flag(0.2, 0.1, 0.1), RefinementFlag::Derefine);
}

/**
 * Mean absolute error of the final state against the exact translated
 * profile, over a full driver run on a uniform mesh.
 */
double
analyticError(int mesh_nx, int ncycles)
{
    AdvectionConfig config;
    config.ic = AdvectionProfile::Sine;
    // VIBE_NUM_THREADS (the CI matrix leg) routes the advection
    // integration runs through the threaded executor; results are
    // bitwise identical to serial by design.
    AdvSim sim(mesh_nx, mesh_nx / 2, 1, config, envNumThreads());
    GradientTagger tagger(sim.package);
    DriverConfig driver_config;
    driver_config.ncycles = ncycles;
    EvolutionDriver driver(*sim.mesh, sim.package, *sim.world, tagger,
                           driver_config);
    driver.initialize();
    driver.run();

    const BlockShape s = sim.mesh->config().blockShape();
    const double t = driver.time();
    double err = 0;
    std::int64_t cells = 0;
    for (const auto& block : sim.mesh->blocks()) {
        const BlockGeometry& g = block->geom();
        for (int k = s.ks(); k <= s.ke(); ++k)
            for (int j = s.js(); j <= s.je(); ++j)
                for (int i = s.is(); i <= s.ie(); ++i) {
                    const double exact = sim.package.analyticValue(
                        g.x1c(i - s.is()), g.x2c(j - s.js()),
                        g.x3c(k - s.ks()), t, s.ndim);
                    err += std::fabs(block->cons()(0, k, j, i) - exact);
                    ++cells;
                }
    }
    return err / static_cast<double>(cells);
}

TEST(Advection, MatchesAnalyticTranslationToDiscretizationError)
{
    // The smooth sine profile is translated rigidly; after a fixed
    // physical time the numerical state must match the analytic
    // solution to discretization error, and halving dx (which also
    // halves dt through the CFL) must shrink the error.
    const double coarse = analyticError(8, 4);
    const double fine = analyticError(16, 8); // same physical time
    EXPECT_TRUE(std::isfinite(coarse) && std::isfinite(fine));
    EXPECT_LT(fine, 0.02);
    EXPECT_LT(fine, coarse);
}

TEST(Advection, MassConservedAcrossRefineDerefine)
{
    // An analytic moving shell forces refine AND derefine while the
    // blob advects; flux correction + conservative restriction must
    // keep total phi mass at round-off through every restructure.
    AdvectionConfig config;
    AdvSim sim(16, 8, 2, config, envNumThreads());
    SphericalWaveTagger::Params wave;
    wave.cx = wave.cy = wave.cz = 0.28;
    wave.rMin = 0.08;
    wave.rMax = 0.35;
    wave.speed = 40.0;
    SphericalWaveTagger tagger(wave);
    DriverConfig driver_config;
    driver_config.ncycles = 12;
    driver_config.derefineGap = 2;
    EvolutionDriver driver(*sim.mesh, sim.package, *sim.world, tagger,
                           driver_config);
    driver.initialize();
    driver.run();

    const auto& history = driver.history();
    ASSERT_EQ(history.size(), 12u);
    int remesh = 0;
    for (const auto& stats : history)
        remesh += stats.refined + stats.derefined;
    EXPECT_GT(remesh, 0) << "workload must actually restructure";
    EXPECT_NEAR(history.back().mass, history.front().mass,
                1e-10 * std::fabs(history.front().mass) + 1e-14);
    for (const auto& stats : history) {
        EXPECT_TRUE(std::isfinite(stats.mass));
        EXPECT_GT(stats.dt, 0.0);
    }
}

// --- Bitwise equivalence: the same harness Burgers passes -------------

struct AdvRun
{
    std::vector<std::string> locs;
    std::vector<std::vector<double>> cons;
    std::vector<std::vector<double>> derived;
    std::vector<double> dts;
    std::int64_t remeshEvents = 0;
};

AdvRun
runAdvection(int num_threads)
{
    AdvRun out;
    AdvectionConfig config;
    AdvSim sim(16, 8, 2, config, num_threads);

    // Off-center fast shell: refines AND derefines within a few
    // cycles, so threaded runs cover the plan invalidate/rebuild path
    // mid-run.
    SphericalWaveTagger::Params wave;
    wave.cx = wave.cy = wave.cz = 0.28;
    wave.rMin = 0.08;
    wave.rMax = 0.35;
    wave.speed = 40.0;
    SphericalWaveTagger tagger(wave);

    DriverConfig driver_config;
    driver_config.ncycles = 8;
    driver_config.derefineGap = 2;
    EvolutionDriver driver(*sim.mesh, sim.package, *sim.world, tagger,
                           driver_config);
    driver.initialize();
    driver.run();

    for (const auto& stats : driver.history()) {
        out.dts.push_back(stats.dt);
        out.remeshEvents += stats.refined + stats.derefined;
    }
    for (const auto& block : sim.mesh->blocks()) {
        out.locs.push_back(block->loc().str());
        const RealArray4& cons = block->cons();
        out.cons.emplace_back(cons.data(), cons.data() + cons.size());
        const RealArray4& derived = block->derived();
        out.derived.emplace_back(derived.data(),
                                 derived.data() + derived.size());
    }
    return out;
}

void
expectBitwiseEqual(const AdvRun& a, const AdvRun& b,
                   const std::string& what)
{
    ASSERT_EQ(a.locs, b.locs) << what;
    ASSERT_EQ(a.dts.size(), b.dts.size()) << what;
    for (std::size_t c = 0; c < a.dts.size(); ++c)
        EXPECT_EQ(a.dts[c], b.dts[c]) << what << ", cycle " << c;
    ASSERT_EQ(a.cons.size(), b.cons.size()) << what;
    for (std::size_t blk = 0; blk < a.cons.size(); ++blk) {
        ASSERT_EQ(a.cons[blk].size(), b.cons[blk].size());
        EXPECT_EQ(std::memcmp(a.cons[blk].data(), b.cons[blk].data(),
                              a.cons[blk].size() * sizeof(double)),
                  0)
            << what << ", block " << a.locs[blk];
        EXPECT_EQ(std::memcmp(a.derived[blk].data(),
                              b.derived[blk].data(),
                              a.derived[blk].size() * sizeof(double)),
                  0)
            << what << " (derived), block " << a.locs[blk];
    }
}

TEST(Advection, ThreadedRunsMatchSerialBitwise)
{
    const AdvRun serial = runAdvection(1);
    EXPECT_GT(serial.remeshEvents, 0);
    for (int threads : {2, 4})
        expectBitwiseEqual(serial, runAdvection(threads),
                           "advection @" + std::to_string(threads) +
                               " threads vs serial");
}

} // namespace
} // namespace vibe
