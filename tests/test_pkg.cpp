/**
 * @file test_pkg.cpp
 * The physics-package subsystem: PackageRegistry selection and errors,
 * per-package variable ownership, the advection package's physics
 * callables (derived energy, speed-weighted tag threshold), and its
 * correctness guarantees — analytic-solution accuracy on a uniform
 * mesh, mass conservation to round-off across mid-run
 * refine/derefine, and the same bitwise serial-vs-threaded
 * equivalence the Burgers package proves. The shared row-fused flux
 * kernel is checked bitwise against the two-pass (full-block face
 * array) kernel it replaced, and the fused stage update against the
 * separate divergence, source, save, update and derived passes, for
 * every package and dimensionality.
 */
#include "fixture_knobs.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <random>
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
#include "pkg/reaction_package.hpp"
#include "solver/riemann.hpp"
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
    AdvSim sim(mesh_nx, mesh_nx / 2, 1, config, fixtureNumThreads());
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
    AdvSim sim(16, 8, 2, config, fixtureNumThreads());
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

// --- FvOps: row-fused fluxes against the two-pass layout -------------

/**
 * The two-pass flux kernel the row-fused one replaced, kept here as the
 * reference: per direction, reconstruct full-block left/right face
 * arrays over every (n, k, j) row, then run the Riemann row over every
 * (k, j) row reading them. `riemann(rl, rr, flux, d, ncomp, k, j, fis,
 * fie)` is the package's row on full-block arrays.
 */
template <typename RiemannRow>
std::vector<RealArray4>
twoPassFluxes(const MeshBlock& block, ReconMethod recon,
              RiemannRow&& riemann)
{
    const BlockShape s = block.shape();
    const RealArray4& cons = block.cons();
    const int ncomp = cons.nvar();
    std::vector<RealArray4> fluxes;
    for (int d = 0; d < s.ndim; ++d) {
        const int di = d == 0 ? 1 : 0;
        const int dj = d == 1 ? 1 : 0;
        const int dk = d == 2 ? 1 : 0;
        const int fis = s.is(), fie = s.ie() + di;
        const int fjs = s.js(), fje = s.je() + dj;
        const int fks = s.ks(), fke = s.ke() + dk;
        RealArray4 rl(ncomp, s.nk(), s.nj(), s.ni());
        RealArray4 rr(ncomp, s.nk(), s.nj(), s.ni());
        RealArray4 flux(ncomp, s.nk() + dk, s.nj() + dj, s.ni() + di);
        for (int n = 0; n < ncomp; ++n)
            for (int k = fks; k <= fke; ++k)
                for (int j = fjs; j <= fje; ++j)
                    for (int i = fis; i <= fie; ++i) {
                        auto c = [&](int shift) {
                            return cons(n, k + shift * dk, j + shift * dj,
                                        i + shift * di);
                        };
                        if (recon == ReconMethod::Weno5) {
                            rl(n, k, j, i) = weno5Face(c(-3), c(-2),
                                                       c(-1), c(0), c(1));
                            rr(n, k, j, i) = weno5Face(c(2), c(1), c(0),
                                                       c(-1), c(-2));
                        } else {
                            rl(n, k, j, i) = plmFace(c(-2), c(-1), c(0));
                            rr(n, k, j, i) = plmFace(c(1), c(0), c(-1));
                        }
                    }
        for (int k = fks; k <= fke; ++k)
            for (int j = fjs; j <= fje; ++j)
                riemann(rl, rr, flux, d, ncomp, k, j, fis, fie);
        fluxes.push_back(std::move(flux));
    }
    return fluxes;
}

/** The Burgers HLL row on full-block face arrays. */
void
hllRowTwoPass(const RealArray4& rl, const RealArray4& rr, RealArray4& flux,
              int d, int ncomp, int k, int j, int fis, int fie)
{
    std::vector<double> ul(ncomp), ur(ncomp), f(ncomp);
    for (int i = fis; i <= fie; ++i) {
        for (int n = 0; n < ncomp; ++n) {
            ul[n] = rl(n, k, j, i);
            ur[n] = rr(n, k, j, i);
        }
        hllFlux(ul.data(), ur.data(), d, ncomp, f.data());
        for (int n = 0; n < ncomp; ++n)
            flux(n, k, j, i) = f[n];
    }
}

/**
 * Fill a block's cells, ghosts included, with a rough signed field:
 * velocities of both signs (both HLL branches, both upwind sides) and
 * jumps large enough to switch the WENO weights and the PLM limiter.
 */
void
fillRough(MeshBlock& block)
{
    RealArray4& cons = block.cons();
    const BlockShape s = block.shape();
    for (int n = 0; n < cons.nvar(); ++n)
        for (int k = 0; k < s.nk(); ++k)
            for (int j = 0; j < s.nj(); ++j)
                for (int i = 0; i < s.ni(); ++i) {
                    const int h = ((n * 131 + k) * 31 + j) * 17 + i;
                    cons(n, k, j, i) = std::sin(0.7 * h + 0.3 * n) +
                                       0.25 * ((h * 7) % 5 - 2);
                }
}

/**
 * Run `package`'s row-fused flux kernel on an 8x4x2 block (cut to its
 * first ndim dimensions) filled by fillRough, and compare every face
 * flux bitwise against the two-pass reference.
 */
template <typename RiemannRow>
void
expectFusedMatchesTwoPass(const PackageDescriptor& package,
                          ReconMethod recon, RiemannRow&& riemann,
                          const std::string& what)
{
    const VariableRegistry registry = package.buildRegistry();
    for (int ndim = 1; ndim <= 3; ++ndim) {
        for (int threads : {1, 4}) {
            ExecContext ctx(ExecMode::Execute, nullptr, nullptr,
                            makeExecutionSpace(threads));
            MeshConfig config;
            config.ndim = ndim;
            config.nx1 = 16;
            config.nx2 = 8;
            config.nx3 = 4;
            config.blockNx1 = 8;
            config.blockNx2 = 4;
            config.blockNx3 = 2;
            config.amrLevels = 1;
            config.numThreads = threads;
            Mesh mesh(config, registry, ctx);
            MeshBlock& block = mesh.block(0);
            fillRough(block);

            package.calculateFluxesBlock(mesh, block);
            const std::vector<RealArray4> expected =
                twoPassFluxes(block, recon, riemann);

            const BlockShape s = block.shape();
            const std::string where = what + ", " + std::to_string(ndim) +
                                      "-D, " + std::to_string(threads) +
                                      " threads";
            ASSERT_EQ(expected.size(), static_cast<std::size_t>(ndim));
            for (int d = 0; d < ndim; ++d) {
                const int di = d == 0, dj = d == 1, dk = d == 2;
                const RealArray4& got = block.flux(d);
                std::int64_t faces = 0;
                for (int n = 0; n < got.nvar(); ++n)
                    for (int k = s.ks(); k <= s.ke() + dk; ++k)
                        for (int j = s.js(); j <= s.je() + dj; ++j)
                            for (int i = s.is(); i <= s.ie() + di; ++i) {
                                ++faces;
                                const double a = got(n, k, j, i);
                                const double b = expected[d](n, k, j, i);
                                ASSERT_EQ(std::memcmp(&a, &b, sizeof a), 0)
                                    << where << ", dir " << d << ", face ("
                                    << n << ", " << k << ", " << j << ", "
                                    << i << "): " << a << " vs " << b;
                            }
                EXPECT_GT(faces, 0) << where;
            }
        }
    }
}

TEST(FvOps, RowFusedFluxesMatchTwoPassReference)
{
    BurgersConfig burgers;
    burgers.numScalars = 2;
    expectFusedMatchesTwoPass(BurgersPackage(burgers), burgers.recon,
                              hllRowTwoPass, "burgers (WENO5)");

    // Mixed-sign velocities: faces upwind from both sides.
    const auto upwind = [](const TransportConfig& config) {
        return [config](const RealArray4& rl, const RealArray4& rr,
                        RealArray4& flux, int d, int ncomp, int k, int j,
                        int fis, int fie) {
            const double vel[3] = {config.vx, config.vy, config.vz};
            const double v = vel[d];
            for (int i = fis; i <= fie; ++i)
                for (int n = 0; n < ncomp; ++n)
                    flux(n, k, j, i) =
                        v >= 0.0 ? v * rl(n, k, j, i) : v * rr(n, k, j, i);
        };
    };
    AdvectionConfig advection;
    advection.vy = -0.5;
    ASSERT_EQ(advection.recon, ReconMethod::Weno5);
    expectFusedMatchesTwoPass(AdvectionPackage(advection), advection.recon,
                              upwind(advection), "advection (WENO5)");

    ReactionConfig reaction;
    reaction.vx = -1.0;
    ASSERT_EQ(reaction.recon, ReconMethod::Plm);
    expectFusedMatchesTwoPass(ReactionPackage(reaction), reaction.recon,
                              upwind(reaction), "reaction (PLM)");
}

// --- Fused stage update ---------------------------------------------

/**
 * Fill every element of `a` from a seeded stream: full-mantissa values
 * of both signs, with exact zeros of both signs mixed in, so a
 * reordered, contracted or dropped term shows in the bits.
 */
void
fillSeeded(RealArray4& a, std::uint64_t seed)
{
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> value(-1.0, 1.0);
    double* p = a.data();
    for (std::size_t e = 0; e < a.size(); ++e) {
        const std::uint64_t pick = rng() % 16;
        p[e] = pick == 0   ? 0.0
               : pick == 1 ? -0.0
                           : value(rng) * (1.0 + 0.25 * pick);
    }
}

/**
 * Test-local copy of the separate passes the fused stage update
 * replaced, on copies of the block's arrays: -div(flux) into a
 * full-block dudt, the package's `source(cons, dudt, k, j, i)` added
 * to it, the stage-1 state save, the weighted sum, and the stage-2
 * derived fill `formula(cons, k, j, i)`.
 */
template <typename Source, typename Formula>
void
threePassStage(const MeshBlock& block, int stage, double dt,
               Source&& source, Formula&& formula, RealArray4& cons,
               RealArray4& cons0, RealArray4& derived)
{
    const BlockShape s = block.shape();
    const int ncomp = cons.nvar();
    const BlockGeometry& g = block.geom();
    const double inv_dx[3] = {1.0 / g.dx1, 1.0 / g.dx2, 1.0 / g.dx3};
    const auto interior = [&](auto&& fn) {
        for (int k = s.ks(); k <= s.ke(); ++k)
            for (int j = s.js(); j <= s.je(); ++j)
                for (int i = s.is(); i <= s.ie(); ++i)
                    fn(k, j, i);
    };
    RealArray4 dudt(ncomp, s.nk(), s.nj(), s.ni());
    interior([&](int k, int j, int i) {
        for (int n = 0; n < ncomp; ++n) {
            double div = (block.flux(0)(n, k, j, i + 1) -
                          block.flux(0)(n, k, j, i)) *
                         inv_dx[0];
            if (s.ndim >= 2)
                div += (block.flux(1)(n, k, j + 1, i) -
                        block.flux(1)(n, k, j, i)) *
                       inv_dx[1];
            if (s.ndim >= 3)
                div += (block.flux(2)(n, k + 1, j, i) -
                        block.flux(2)(n, k, j, i)) *
                       inv_dx[2];
            dudt(n, k, j, i) = -div;
        }
    });
    interior([&](int k, int j, int i) { source(cons, dudt, k, j, i); });
    if (stage == 1)
        interior([&](int k, int j, int i) {
            for (int n = 0; n < ncomp; ++n)
                cons0(n, k, j, i) = cons(n, k, j, i);
        });
    const double wa = stage == 1 ? 1.0 : 0.5;
    const double wb = stage == 1 ? 0.0 : 0.5;
    const double wc = stage == 1 ? 1.0 : 0.5;
    interior([&](int k, int j, int i) {
        for (int n = 0; n < ncomp; ++n)
            cons(n, k, j, i) = wa * cons0(n, k, j, i) +
                               wb * cons(n, k, j, i) +
                               wc * dt * dudt(n, k, j, i);
    });
    if (stage == 2)
        interior([&](int k, int j, int i) {
            derived(0, k, j, i) = formula(cons, k, j, i);
        });
}

void
expectBitwiseEqual(const RealArray4& got, const RealArray4& want,
                   const std::string& what)
{
    ASSERT_EQ(got.size(), want.size()) << what;
    for (std::size_t e = 0; e < got.size(); ++e)
        ASSERT_EQ(std::memcmp(got.data() + e, want.data() + e,
                              sizeof(double)),
                  0)
            << what << ", element " << e << ": " << got.data()[e]
            << " vs " << want.data()[e];
}

/**
 * Run `package`'s fused stage update on an 8x4x2 block (cut to its
 * first ndim dimensions) whose state, step-start state, derived field
 * and fluxes are seeded rough fields, for both stages at 1 and 4
 * threads, and compare cons, cons0 and derived bitwise against the
 * three-pass reference.
 */
template <typename Source, typename Formula>
void
expectFusedStageMatchesThreePass(const PackageDescriptor& package,
                                 Source&& source, Formula&& formula,
                                 const std::string& what)
{
    const VariableRegistry registry = package.buildRegistry();
    std::uint64_t seed = 25;
    for (int ndim = 1; ndim <= 3; ++ndim)
        for (int threads : {1, 4})
            for (int stage = 1; stage <= 2; ++stage) {
                ExecContext ctx(ExecMode::Execute, nullptr, nullptr,
                                makeExecutionSpace(threads));
                MeshConfig config;
                config.ndim = ndim;
                config.nx1 = 16;
                config.nx2 = 8;
                config.nx3 = 4;
                config.blockNx1 = 8;
                config.blockNx2 = 4;
                config.blockNx3 = 2;
                config.amrLevels = 1;
                config.numThreads = threads;
                Mesh mesh(config, registry, ctx);
                MeshBlock& block = mesh.block(0);
                fillSeeded(block.cons(), ++seed);
                fillSeeded(block.cons0(), ++seed);
                fillSeeded(block.derived(), ++seed);
                for (int d = 0; d < ndim; ++d)
                    fillSeeded(block.flux(d), ++seed);

                RealArray4 cons = block.cons();
                RealArray4 cons0 = block.cons0();
                RealArray4 derived = block.derived();
                const double dt = 0.0371;
                threePassStage(block, stage, dt, source, formula, cons,
                               cons0, derived);
                package.rk2StageBlock(mesh, block, stage, dt);

                const std::string where =
                    what + ", " + std::to_string(ndim) + "-D, " +
                    std::to_string(threads) + " threads, stage " +
                    std::to_string(stage);
                expectBitwiseEqual(block.cons(), cons, where + ", cons");
                expectBitwiseEqual(block.cons0(), cons0, where + ", cons0");
                expectBitwiseEqual(block.derived(), derived,
                                   where + ", derived");
            }
}

TEST(FvOps, FusedStageUpdateMatchesThreePassReference)
{
    const auto no_source = [](const RealArray4&, RealArray4&, int, int,
                              int) {};

    BurgersConfig burgers;
    burgers.numScalars = 2;
    expectFusedStageMatchesThreePass(
        BurgersPackage(burgers), no_source,
        [](const RealArray4& cons, int k, int j, int i) {
            const double u1 = cons(0, k, j, i);
            const double u2 = cons(1, k, j, i);
            const double u3 = cons(2, k, j, i);
            return 0.5 * cons(3, k, j, i) *
                   (u1 * u1 + u2 * u2 + u3 * u3);
        },
        "burgers");

    expectFusedStageMatchesThreePass(
        AdvectionPackage(AdvectionConfig{}), no_source,
        [](const RealArray4& cons, int k, int j, int i) {
            return 0.5 * cons(0, k, j, i) * cons(0, k, j, i);
        },
        "advection");

    ReactionConfig config;
    config.rate = 1.7;
    const ReactionPackage reaction(config);
    expectFusedStageMatchesThreePass(
        reaction,
        [&](const RealArray4& cons, RealArray4& dudt, int k, int j,
            int i) {
            const double a = cons(0, k, j, i);
            const double transfer =
                config.rate * (a - reaction.equilibrium(a));
            dudt(0, k, j, i) -= transfer;
            dudt(1, k, j, i) += transfer;
        },
        [](const RealArray4& cons, int k, int j, int i) {
            return cons(0, k, j, i) * cons(1, k, j, i);
        },
        "reaction");
}

} // namespace
} // namespace vibe
