/**
 * @file reconstruct.hpp
 * Face-value reconstruction: fifth-order WENO (Jiang-Shu) and
 * slope-limited piecewise-linear (PLM), the two options Parthenon-VIBE
 * exposes (paper §II-G).
 *
 * Conventions: face `i` separates cells `i-1` and `i`. The "left" state
 * at a face is reconstructed from the upwind-left stencil, the "right"
 * state from the mirrored stencil.
 */
#pragma once

#include <string>

#include "util/array4.hpp"

namespace vibe {

/** Reconstruction scheme selector. */
enum class ReconMethod { Weno5, Plm };

/** Deck-name -> scheme ("weno5" | "plm"); fatal on anything else. */
ReconMethod reconMethodFromName(const std::string& name);

/**
 * WENO5 value at the *right* face (x_{i+1/2}) of the center cell, from
 * the 5-cell stencil (m2, m1, c, p1, p2) = cells i-2 .. i+2.
 *
 * Classic Jiang-Shu weights with epsilon = 1e-6. To obtain the state on
 * the other side of a face, call with the stencil reversed.
 */
double weno5Face(double m2, double m1, double c, double p1, double p2);

/**
 * PLM value at the right face of the center cell using a minmod-limited
 * slope over (m1, c, p1).
 */
double plmFace(double m1, double c, double p1);

/** Approximate flops of one weno5Face evaluation (cost model input). */
inline constexpr double kWeno5Flops = 62.0;
/** Approximate flops of one plmFace evaluation. */
inline constexpr double kPlmFlops = 8.0;

/**
 * Reconstruct one (n, k, j) row of left/right face states at faces
 * [fis, fie] in the direction with unit offsets (di, dj, dk). The
 * single definition of the stencil math shared by every package's
 * flux kernel — the packages cannot diverge numerically.
 */
inline void
reconRow(const RealArray4& cons, RealArray4& rl, RealArray4& rr,
         ReconMethod recon, int n, int k, int j, int fis, int fie,
         int di, int dj, int dk)
{
    for (int i = fis; i <= fie; ++i) {
        auto c = [&](int shift) {
            return cons(n, k + shift * dk, j + shift * dj,
                        i + shift * di);
        };
        double left, right;
        if (recon == ReconMethod::Weno5) {
            left = weno5Face(c(-3), c(-2), c(-1), c(0), c(1));
            right = weno5Face(c(2), c(1), c(0), c(-1), c(-2));
        } else {
            left = plmFace(c(-2), c(-1), c(0));
            right = plmFace(c(1), c(0), c(-1));
        }
        rl(n, k, j, i) = left;
        rr(n, k, j, i) = right;
    }
}

} // namespace vibe
