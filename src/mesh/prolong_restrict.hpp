/**
 * @file prolong_restrict.hpp
 * Inter-level data operators: restriction (fine -> coarse volume
 * average) and prolongation (coarse -> fine slope-limited linear
 * interpolation).
 *
 * Used in three places, mirroring Parthenon: (1) when AMR creates or
 * retires blocks (RedistributeAndRefineMeshBlocks), (2) restriction of
 * boundary data before fine->coarse sends (SendBoundBufs), and
 * (3) prolongation of received coarse slabs into fine ghosts
 * (SetBounds). Restriction is exactly conservative; prolongation uses
 * minmod-limited slopes and preserves the coarse mean in each cell.
 *
 * Prolongation computes the centre and the ndim limited slopes once
 * per coarse cell, then writes that cell's 2^ndim fine children. On
 * receive (GhostExchange::unpackBoundsChannel) this is two passes over
 * each channel: pass 1 fills per-coarse-cell scratch with the centre
 * and slopes, pass 2 walks the fine ghost rows and writes
 * `value = centre; value += ±0.25·slope_d` in d order.
 */
#pragma once

#include <cmath>

#include "exec/exec_context.hpp"
#include "mesh/mesh_block.hpp"

namespace vibe {

/** minmod(a, b): 0 on sign disagreement, else the smaller magnitude. */
inline double
minmod(double a, double b)
{
    if (a * b <= 0.0)
        return 0.0;
    return std::fabs(a) < std::fabs(b) ? a : b;
}

/**
 * Volume-average the full interior of `child` into the octant of
 * `parent` it covers. Kernel name "ProlongRestrictLoop".
 */
void restrictChildToParent(const ExecContext& ctx, const MeshBlock& child,
                           MeshBlock& parent);

/**
 * Fill the full interior of `child` by limited linear interpolation of
 * the `parent` octant covering it. Parent ghost cells supply edge
 * slopes. Kernel name "ProlongRestrictLoop".
 */
void prolongateParentToChild(const ExecContext& ctx,
                             const MeshBlock& parent, MeshBlock& child);

/**
 * Restrict the full interior of `child` into a flat coarse-octant
 * payload, for shipping to the parent's owner rank when a derefining
 * sibling set spans ranks. Arithmetic and iteration order are exactly
 * restrictChildToParent's, so a remote restriction is bitwise
 * identical to a local one. Layout: (n, kc, jc, ic), ic fastest.
 */
std::vector<double> restrictChildOctant(const ExecContext& ctx,
                                        const MeshBlock& child);

/**
 * Write a received coarse-octant payload into the region of `parent`
 * covered by the child at `child_loc` (the receiving half of a
 * cross-rank restriction).
 */
void applyRestrictedOctant(const ExecContext& ctx, MeshBlock& parent,
                           const LogicalLocation& child_loc,
                           const std::vector<double>& payload);

} // namespace vibe
