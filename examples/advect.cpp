/**
 * @file advect.cpp
 * Deck-driven runner: the full `<job> package` path from input file to
 * evolved mesh. Everything below the deck parse is package-agnostic —
 * the same lines drive Burgers or advection, with the package chosen
 * by name through the PackageRegistry exactly as Parthenon selects an
 * application. For the advection package the run is cross-checked
 * against the exact translated profile.
 *
 * The run goes through a RankTeam, so `<exec> num_ranks` shards the
 * mesh over that many concurrent drivers; one rank is the classic
 * driver, whose RankWorld models two ranks. A deck (or VIBE_* twin)
 * that sets a knob only the Experiment harness honours —
 * `<driver> checkpoint_every`, `<exec> fail_rank|fail_cycle`,
 * `<obs> trace|metrics` — is refused, naming the key, rather than run
 * as if the knob were unset.
 *
 * Build & run:  ./build/examples/advect [deck]
 *               (default deck: examples/advection.in, with a built-in
 *               fallback when run from another directory)
 */
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>

#include "driver/rank_team.hpp"
#include "driver/tagger.hpp"
#include "exec/kernel_profiler.hpp"
#include "pkg/advection_package.hpp"
#include "pkg/package_registry.hpp"
#include "util/table.hpp"

namespace {

/** The examples/advection.in deck, embedded so the binary works from
 *  any working directory. */
constexpr const char* kFallbackDeck = R"(
<job>
package = advection
<mesh>
nx1 = 32
<meshblock>
nx1 = 8
<amr>
num_levels = 2
derefine_gap = 2
<driver>
ncycles = 24
fixed_dt = 1.0
<advection>
ic = gaussian_blob
refine_tol = 0.1
derefine_tol = 0.03
)";

/**
 * The first knob resolved to a non-off value that only Experiment
 * honours, as "block/key = value"; "" when there is none.
 */
std::string
experimentOnlyKnob(const vibe::ParameterInput& pin,
                   const vibe::DriverConfig& driver)
{
    if (driver.checkpointEvery > 0)
        return "driver/checkpoint_every = " +
               std::to_string(driver.checkpointEvery);
    if (const int rank = pin.getInt("exec", "fail_rank", -1); rank >= 0)
        return "exec/fail_rank = " + std::to_string(rank);
    if (const std::int64_t cycle = pin.getInt64("exec", "fail_cycle", -1);
        cycle >= 0)
        return "exec/fail_cycle = " + std::to_string(cycle);
    for (const char* key : {"trace", "metrics"})
        if (const std::string path = pin.getString("obs", key, "");
            !path.empty())
            return std::string("obs/") + key + " = " + path;
    return "";
}

} // namespace

int
main(int argc, char** argv)
{
    using namespace vibe;

    const std::string deck_path =
        argc > 1 ? argv[1] : "examples/advection.in";
    ParameterInput pin;
    if (std::ifstream probe(deck_path); probe) {
        pin = ParameterInput::fromFile(deck_path);
        std::cout << "deck: " << deck_path << "\n";
    } else {
        pin = ParameterInput::fromString(kFallbackDeck);
        std::cout << "deck: built-in fallback ('" << deck_path
                  << "' not found)\n";
    }

    // Everything from here on names no PDE.
    auto package = PackageRegistry::fromDeck(pin);
    VariableRegistry registry = package->buildRegistry();
    MeshConfig mesh_config = MeshConfig::fromParams(pin);
    DriverConfig driver_config = DriverConfig::fromParams(pin);
    if (const std::string knob =
            experimentOnlyKnob(pin, driver_config);
        !knob.empty()) {
        std::cerr << "advect: " << knob
                  << " is set, but only the Experiment harness honours "
                     "it; this runner refuses the deck rather than "
                     "ignore the knob\n";
        return 1;
    }

    RankTeam team(
        mesh_config, registry, *package, driver_config,
        [&package](int) {
            return std::make_unique<GradientTagger>(*package);
        },
        ExecMode::Execute, /*modeled_ranks=*/2);

    std::cout << "package: " << package->name() << " (variables:";
    for (const auto& v : registry.all())
        std::cout << " " << v.name << "[" << v.ncomp << "]";
    std::cout << ")\n\n";

    team.run();
    const EvolutionDriver& driver = team.driver(0);
    const std::vector<CycleStats> history = team.aggregatedHistory();

    Table table("Evolution history");
    table.setHeader({"cycle", "time", "dt", "blocks", "refined",
                     "derefined", "mass"});
    for (const auto& s : history) {
        if (s.cycle % 3 != 0)
            continue;
        table.addRow({std::to_string(s.cycle), formatSig(s.time, 3),
                      formatSig(s.dt, 3), std::to_string(s.nblocks),
                      std::to_string(s.refined),
                      std::to_string(s.derefined),
                      formatSig(s.mass, 10)});
    }
    table.print(std::cout);

    if (history.empty()) {
        std::cout << "\nno cycles ran (ncycles = 0?)\n";
        return 0;
    }
    const double mass0 = history.front().mass;
    const double mass1 = history.back().mass;
    std::cout << "\nconservation: |mass drift| = "
              << formatSig(std::fabs(mass1 - mass0), 3) << "\n";

    // Advection has an exact solution: report the discretization
    // error of the final state against the translated profile, read
    // from each block's owner replica.
    if (const auto* advection =
            dynamic_cast<const AdvectionPackage*>(package.get())) {
        const BlockShape s = mesh_config.blockShape();
        double err = 0;
        std::int64_t cells = 0;
        for (const auto& replica : team.mesh(0).blocks()) {
            const MeshBlock* block = team.ownedBlock(replica->loc());
            const BlockGeometry& g = block->geom();
            for (int k = s.ks(); k <= s.ke(); ++k)
                for (int j = s.js(); j <= s.je(); ++j)
                    for (int i = s.is(); i <= s.ie(); ++i) {
                        const double exact = advection->analyticValue(
                            g.x1c(i - s.is()), g.x2c(j - s.js()),
                            g.x3c(k - s.ks()), driver.time(), s.ndim);
                        err += std::fabs(block->cons()(0, k, j, i) -
                                         exact);
                        ++cells;
                    }
        }
        std::cout << "analytic check: mean |phi - exact| = "
                  << formatSig(err / static_cast<double>(cells), 3)
                  << " after t = " << formatSig(driver.time(), 3)
                  << "\n";
    }
    KernelProfiler profiler;
    team.mergeInstrumentation(&profiler, nullptr);
    std::cout << "kernel launches recorded: " << profiler.totalLaunches()
              << "\n";
    return 0;
}
