/**
 * @file array4.hpp
 * Owning dense 4-D array (variable, k, j, i) used for MeshBlock data.
 *
 * Mirrors the layout Parthenon/Kokkos use for cell-centered variables:
 * the innermost (`i`) index is contiguous, matching the vectorization
 * and coalescing assumptions of the performance model. A lightweight
 * non-owning 3-D slice is provided for per-variable access.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/logging.hpp"

namespace vibe {

/** Non-owning 3-D view into one variable of an Array4. */
template <typename T>
class Slice3
{
  public:
    Slice3(T* data, int nk, int nj, int ni)
        : data_(data), nk_(nk), nj_(nj), ni_(ni)
    {
    }

    T& operator()(int k, int j, int i)
    {
        return data_[(static_cast<std::size_t>(k) * nj_ + j) * ni_ + i];
    }
    const T& operator()(int k, int j, int i) const
    {
        return data_[(static_cast<std::size_t>(k) * nj_ + j) * ni_ + i];
    }

    int nk() const { return nk_; }
    int nj() const { return nj_; }
    int ni() const { return ni_; }
    T* data() { return data_; }
    const T* data() const { return data_; }
    std::size_t size() const
    {
        return static_cast<std::size_t>(nk_) * nj_ * ni_;
    }

  private:
    T* data_;
    int nk_, nj_, ni_;
};

/**
 * Owning contiguous 4-D array indexed (n, k, j, i).
 *
 * `n` is the variable/component index; (k, j, i) are cell indices
 * including ghosts. Storage is zero-initialized by the sizing
 * constructor; the storage-adopting constructor initializes at most
 * once (zeroing is a single `assign` pass over already-reserved
 * memory, never construct-then-fill), which is what lets a memory
 * pool recycle buffers without redundant clearing.
 */
template <typename T>
class Array4
{
  public:
    Array4() : nn_(0), nk_(0), nj_(0), ni_(0) {}

    Array4(int nn, int nk, int nj, int ni)
        : nn_(nn), nk_(nk), nj_(nj), ni_(ni),
          data_(static_cast<std::size_t>(nn) * nk * nj * ni, T{})
    {
        require(nn >= 0 && nk >= 0 && nj >= 0 && ni >= 0,
                "Array4 dimensions must be non-negative");
    }

    /**
     * Adopt (possibly recycled) backing storage instead of allocating.
     *
     * With `zero_init` the contents are cleared in one pass; without
     * it, recycled contents are kept as-is — callers use this for
     * buffers every cell of which is written before it is read
     * (fluxes, dudt), skipping the clear entirely on a pool hit. The
     * vector is resized to the exact element count; a pool-fresh
     * vector arrives with reserved capacity and zero size, so even the
     * fresh path initializes each element exactly once.
     */
    Array4(int nn, int nk, int nj, int ni, std::vector<T>&& storage,
           bool zero_init)
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
    }

    /**
     * Move the backing storage out (e.g. back into a pool), leaving
     * the array empty with zero extents. The returned vector keeps its
     * size/capacity so a later adopter can skip reallocation.
     */
    std::vector<T> releaseStorage()
    {
        nn_ = nk_ = nj_ = ni_ = 0;
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

    /** 3-D view of variable `n`. */
    Slice3<T> slice(int n)
    {
        return Slice3<T>(data_.data() + index(n, 0, 0, 0), nk_, nj_, ni_);
    }
    Slice3<const T> slice(int n) const
    {
        return Slice3<const T>(data_.data() + index(n, 0, 0, 0), nk_, nj_,
                               ni_);
    }

    int nvar() const { return nn_; }
    int nk() const { return nk_; }
    int nj() const { return nj_; }
    int ni() const { return ni_; }
    std::size_t size() const { return data_.size(); }
    std::size_t sizeBytes() const { return data_.size() * sizeof(T); }
    bool empty() const { return data_.empty(); }

    T* data() { return data_.data(); }
    const T* data() const { return data_.data(); }

    void fill(T value) { data_.assign(data_.size(), value); }

  private:
    std::size_t index(int n, int k, int j, int i) const
    {
        return ((static_cast<std::size_t>(n) * nk_ + k) * nj_ + j) * ni_ + i;
    }

    int nn_, nk_, nj_, ni_;
    std::vector<T> data_;
};

using RealArray4 = Array4<double>;

} // namespace vibe
