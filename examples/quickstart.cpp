/**
 * @file quickstart.cpp
 * Minimal end-to-end tour of the library:
 *  1. run a small *numeric* Parthenon-VIBE simulation (real WENO5/HLL/
 *     RK2 on an adaptive mesh) and watch the mesh track the ripple;
 *  2. run the same configuration in *counting* mode and evaluate the
 *     H100/Sapphire-Rapids performance model;
 *  3. print the figure of merit (zone-cycles/sec, paper §III-A).
 *
 * Build & run:  ./build/examples/quickstart
 */
#include <iostream>

#include "core/experiment.hpp"
#include "util/table.hpp"

int
main()
{
    using namespace vibe;

    std::cout << "== Parthenon-VIBE quickstart ==\n\n";

    // --- 1. A real (numeric) AMR simulation ---------------------------
    ExperimentSpec numeric_spec;
    numeric_spec.meshSize = 32;
    numeric_spec.blockSize = 8;
    numeric_spec.amrLevels = 2;
    numeric_spec.ncycles = 8;
    numeric_spec.numeric = true;
    numeric_spec.platform = PlatformConfig::cpu(4);

    std::cout << "running numeric WENO5/HLL/RK2 on a " << "32^3 mesh, "
              << "block 8^3, 2 AMR levels, 8 cycles...\n";
    ExperimentResult numeric = Experiment(numeric_spec).run();

    Table evolution("Mesh evolution (numeric run)");
    evolution.setHeader({"cycle", "blocks", "cells", "refined",
                         "derefined", "mass"});
    for (const auto& s : numeric.history)
        evolution.addRow({std::to_string(s.cycle),
                          std::to_string(s.nblocks),
                          std::to_string(s.interiorCells),
                          std::to_string(s.refined),
                          std::to_string(s.derefined),
                          formatSig(s.mass, 6)});
    evolution.print(std::cout);

    std::cout << "\ntotal zone-cycles: " << numeric.zoneCycles
              << ", ghost cells communicated: " << numeric.commCells
              << "\n\n";

    // --- 2. The paper's workhorse config under the platform model -----
    ExperimentSpec perf_spec;
    perf_spec.meshSize = 64;
    perf_spec.blockSize = 16;
    perf_spec.amrLevels = 3;
    perf_spec.ncycles = 10;
    perf_spec.numeric = false; // counting mode

    Table fom_table("Figure of merit (modeled platforms)");
    fom_table.setHeader({"platform", "FOM (zone-cycles/s)",
                         "serial fraction", "memory (GB)", "OOM"});
    for (const PlatformConfig& platform :
         {PlatformConfig::cpu(96), PlatformConfig::gpu(1, 1),
          PlatformConfig::gpu(1, 12)}) {
        ExperimentSpec spec = perf_spec;
        spec.platform = platform;
        ExperimentResult result = Experiment(spec).run();
        fom_table.addRow({platform.label(), formatSci(result.fom(), 2),
                          formatPercent(result.serialFraction()),
                          formatFixed(result.report.memory.totalGB, 1),
                          result.oom() ? "yes" : "no"});
    }
    fom_table.print(std::cout);

    std::cout << "\nSee bench/ for the per-figure reproduction "
                 "harnesses (README.md, \"Paper figure map\").\n";
    return 0;
}
