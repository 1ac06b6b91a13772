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

#include <cmath>
#include <cstddef>
#include <string>

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
inline double
weno5Face(double m2, double m1, double c, double p1, double p2)
{
    // Jiang & Shu (1996): three candidate stencils, smoothness
    // indicators beta_k, ideal weights (1/10, 6/10, 3/10).
    constexpr double eps = 1e-6;
    constexpr double thirteen_twelfths = 13.0 / 12.0;

    const double b0 = thirteen_twelfths * (m2 - 2 * m1 + c) *
                          (m2 - 2 * m1 + c) +
                      0.25 * (m2 - 4 * m1 + 3 * c) * (m2 - 4 * m1 + 3 * c);
    const double b1 = thirteen_twelfths * (m1 - 2 * c + p1) *
                          (m1 - 2 * c + p1) +
                      0.25 * (m1 - p1) * (m1 - p1);
    const double b2 = thirteen_twelfths * (c - 2 * p1 + p2) *
                          (c - 2 * p1 + p2) +
                      0.25 * (3 * c - 4 * p1 + p2) * (3 * c - 4 * p1 + p2);

    const double a0 = 0.1 / ((eps + b0) * (eps + b0));
    const double a1 = 0.6 / ((eps + b1) * (eps + b1));
    const double a2 = 0.3 / ((eps + b2) * (eps + b2));
    const double inv_sum = 1.0 / (a0 + a1 + a2);

    const double s0 = (2 * m2 - 7 * m1 + 11 * c) / 6.0;
    const double s1 = (-m1 + 5 * c + 2 * p1) / 6.0;
    const double s2 = (2 * c + 5 * p1 - p2) / 6.0;

    return (a0 * s0 + a1 * s1 + a2 * s2) * inv_sum;
}

/**
 * PLM value at the right face of the center cell using a minmod-limited
 * slope over (m1, c, p1).
 */
inline double
plmFace(double m1, double c, double p1)
{
    const double dp = p1 - c;
    const double dm = c - m1;
    double slope = 0.0;
    if (dp * dm > 0.0)
        slope = std::fabs(dp) < std::fabs(dm) ? dp : dm;
    return c + 0.5 * slope;
}

/** Approximate flops of one weno5Face evaluation (cost model input). */
inline constexpr double kWeno5Flops = 62.0;
/** Approximate flops of one plmFace evaluation. */
inline constexpr double kPlmFlops = 8.0;

/**
 * Reconstruct `nfaces` consecutive faces of one row into `left[f]` and
 * `right[f]`. `cell` points at the cell just right of face 0, and face
 * f's stencil is cell[f + s * step] for shifts s, so `step` is the
 * element distance of one cell along the reconstruction direction
 * while consecutive faces stay contiguous. The single definition of
 * the stencil math shared by every package's flux kernel — the
 * packages cannot diverge numerically.
 */
template <ReconMethod Method>
inline void
reconRow(const double* __restrict cell, std::ptrdiff_t step, int nfaces,
         double* __restrict left, double* __restrict right)
{
    for (int f = 0; f < nfaces; ++f) {
        const double* c = cell + f;
        if constexpr (Method == ReconMethod::Weno5) {
            left[f] = weno5Face(c[-3 * step], c[-2 * step], c[-step],
                                c[0], c[step]);
            right[f] = weno5Face(c[2 * step], c[step], c[0], c[-step],
                                 c[-2 * step]);
        } else {
            left[f] = plmFace(c[-2 * step], c[-step], c[0]);
            right[f] = plmFace(c[step], c[0], c[-step]);
        }
    }
}

} // namespace vibe
