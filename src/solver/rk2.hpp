/**
 * @file rk2.hpp
 * Second-order Runge-Kutta (Heun) stages over one MeshBlock.
 *
 * Parthenon's integrator expresses both the start-of-step copy and the
 * stage updates as weighted sums of registers; all three appear on the
 * GPU as the "WeightedSumData" kernel (paper Table III), and the
 * enclosing phase in the Fig. 11 breakdown carries the same name.
 *
 *   stage 1:  u  <- u0 + dt * L(u0)
 *   stage 2:  u  <- 1/2 u0 + 1/2 u + 1/2 dt * L(u)
 *
 * Both operators touch only the block's own registers and record with
 * explicit phase and rank, so distinct blocks may run concurrently.
 */
#pragma once

#include "mesh/mesh.hpp"

namespace vibe {

/** Copy the block's state into its step-start register (u0 <- u). */
void saveStateBlock(Mesh& mesh, MeshBlock& block);

/** RK2 stage update (1 or 2) for one block. */
void stageUpdateBlock(Mesh& mesh, MeshBlock& block, int stage,
                      double dt);

} // namespace vibe
