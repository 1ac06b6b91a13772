/**
 * @file array4.hpp
 * Owning dense 4-D array (variable, k, j, i) used for MeshBlock data.
 *
 * Mirrors the layout Parthenon/Kokkos use for cell-centered variables:
 * the innermost (`i`) index is contiguous, matching the vectorization
 * and coalescing assumptions of the performance model. An array that
 * covers only part of a block (its interior cells, or the interior
 * faces of one direction) carries an index origin, as AMReX's
 * `Array4::begin` does, so every array of a block is indexed with the
 * same ghosted (k, j, i).
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/logging.hpp"

namespace vibe {

/** The (k, j, i) index of an array's first element. */
struct Origin3
{
    int k = 0, j = 0, i = 0;
};

/**
 * Owning contiguous 4-D array indexed (n, k, j, i).
 *
 * `n` is the variable/component index; (k, j, i) run over
 * [origin, origin + extent) per dimension — the block's ghosted cell
 * (or face) indices, whatever part of the block the array covers. The
 * origin is folded into one precomputed linear offset, so an element
 * costs one integer subtract more than a zero-origin array. In
 * VIBE_AUDIT_OWNERSHIP builds every element access and every row()
 * reach is bounds-checked and an index outside the array panics;
 * other builds check nothing.
 *
 * Storage is zero-initialized by the sizing constructor; the
 * storage-adopting constructor initializes at most once (zeroing is a
 * single `assign` pass over already-reserved memory, never
 * construct-then-fill), which is what lets a memory pool recycle
 * buffers without redundant clearing.
 */
template <typename T>
class Array4
{
  public:
    Array4() : nn_(0), nk_(0), nj_(0), ni_(0) {}

    Array4(int nn, int nk, int nj, int ni, Origin3 origin = {})
        : nn_(nn), nk_(nk), nj_(nj), ni_(ni),
          data_(static_cast<std::size_t>(nn) * nk * nj * ni, T{})
    {
        require(nn >= 0 && nk >= 0 && nj >= 0 && ni >= 0,
                "Array4 dimensions must be non-negative");
        setOrigin(origin);
    }

    /**
     * Adopt (possibly recycled) backing storage instead of allocating.
     *
     * With `zero_init` the contents are cleared in one pass; without
     * it, recycled contents are kept as-is — callers use this for
     * buffers every cell of which is written before it is read
     * (fluxes, cons0), skipping the clear entirely on a pool hit. The
     * vector is resized to the exact element count; a pool-fresh
     * vector arrives with reserved capacity and zero size, so even the
     * fresh path initializes each element exactly once.
     */
    Array4(int nn, int nk, int nj, int ni, std::vector<T>&& storage,
           bool zero_init, Origin3 origin = {})
        : nn_(nn), nk_(nk), nj_(nj), ni_(ni), data_(std::move(storage))
    {
        require(nn >= 0 && nk >= 0 && nj >= 0 && ni >= 0,
                "Array4 dimensions must be non-negative");
        const std::size_t need =
            static_cast<std::size_t>(nn) * nk * nj * ni;
        if (zero_init)
            data_.assign(need, T{});
        else
            data_.resize(need);
        setOrigin(origin);
    }

    /**
     * Move the backing storage out (e.g. back into a pool), leaving
     * the array empty with zero extents. The returned vector keeps its
     * size/capacity so a later adopter can skip reallocation.
     */
    std::vector<T> releaseStorage()
    {
        nn_ = nk_ = nj_ = ni_ = 0;
        setOrigin({});
        return std::move(data_);
    }

    T& operator()(int n, int k, int j, int i)
    {
        return data_[index(n, k, j, i)];
    }
    const T& operator()(int n, int k, int j, int i) const
    {
        return data_[index(n, k, j, i)];
    }

    /**
     * Pointer to element (n, k, j, i) for a row kernel that indexes
     * past it: the row runs `len` elements along i, and a stencil
     * around each may reach `lo` to `hi` cells along `axis` (0 = i,
     * 1 = j, 2 = k). Audit builds check the first and the last element
     * the row reaches, which bounds the box between them.
     */
    const T* row(int n, int k, int j, int i, [[maybe_unused]] int len,
                 [[maybe_unused]] int axis = 0, [[maybe_unused]] int lo = 0,
                 [[maybe_unused]] int hi = 0) const
    {
#if defined(VIBE_AUDIT_OWNERSHIP)
        const int dk = axis == 2, dj = axis == 1, di = axis == 0;
        index(n, k + lo * dk, j + lo * dj, i + lo * di);
        index(n, k + hi * dk, j + hi * dj, i + len - 1 + hi * di);
#endif
        return data_.data() + index(n, k, j, i);
    }
    T* row(int n, int k, int j, int i, int len, int axis = 0, int lo = 0,
           int hi = 0)
    {
        return const_cast<T*>(
            std::as_const(*this).row(n, k, j, i, len, axis, lo, hi));
    }

    int nvar() const { return nn_; }
    int nk() const { return nk_; }
    int nj() const { return nj_; }
    int ni() const { return ni_; }
    /** Index of the first element along (k, j, i). */
    const Origin3& origin() const { return origin_; }
    std::size_t size() const { return data_.size(); }
    std::size_t sizeBytes() const { return data_.size() * sizeof(T); }
    bool empty() const { return data_.empty(); }

    T* data() { return data_.data(); }
    const T* data() const { return data_.data(); }

    void fill(T value) { data_.assign(data_.size(), value); }

  private:
    void setOrigin(Origin3 origin)
    {
        origin_ = origin;
        offset_ = (static_cast<std::size_t>(origin.k) * nj_ + origin.j) *
                      ni_ +
                  origin.i;
    }

    std::size_t index(int n, int k, int j, int i) const
    {
#if defined(VIBE_AUDIT_OWNERSHIP)
        if (n < 0 || n >= nn_ || k < origin_.k || k >= origin_.k + nk_ ||
            j < origin_.j || j >= origin_.j + nj_ || i < origin_.i ||
            i >= origin_.i + ni_)
            panic("Array4 index (", n, ", ", k, ", ", j, ", ", i,
                  ") outside [0, ", nn_, ") x [", origin_.k, ", ",
                  origin_.k + nk_, ") x [", origin_.j, ", ",
                  origin_.j + nj_, ") x [", origin_.i, ", ",
                  origin_.i + ni_, ")");
#endif
        // Unsigned wrap-around is exact: the result is in range
        // whenever the index is.
        return ((static_cast<std::size_t>(n) * nk_ + k) * nj_ + j) * ni_ +
               i - offset_;
    }

    int nn_, nk_, nj_, ni_;
    Origin3 origin_;
    std::size_t offset_ = 0;
    std::vector<T> data_;
};

using RealArray4 = Array4<double>;

} // namespace vibe
