/**
 * @file fixture_knobs.hpp
 * Test helper: run knobs for fixtures that have no input deck. They
 * resolve through ParameterInput like any run, so the CI matrix legs
 * (VIBE_NUM_THREADS) route the fixtures the same way they route runs.
 */
#pragma once

#include "mesh/mesh.hpp"
#include "util/parameter_input.hpp"

namespace vibe {

/**
 * `<exec> num_threads` on an empty deck: VIBE_NUM_THREADS, else 1.
 * Read through MeshConfig, so a value a run refuses
 * (VIBE_NUM_THREADS=0) fails the fixture before it starts.
 */
inline int
fixtureNumThreads()
{
    return MeshConfig::fromParams(ParameterInput()).numThreads;
}

} // namespace vibe
