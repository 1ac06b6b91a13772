#include "mesh/block_memory_pool.hpp"

#include <algorithm>
#include <utility>

#include "exec/memory_tracker.hpp"

namespace vibe {

std::vector<double>
BlockMemoryPool::acquire(std::size_t count)
{
    const std::size_t bytes = count * sizeof(double);
    LockGuard lock(mutex_);
    live_bytes_ += bytes;
    auto it = free_.find(count);
    if (it != free_.end() && !it->second.empty()) {
        std::vector<double> storage = std::move(it->second.back());
        it->second.pop_back();
        idle_bytes_ -= bytes;
        --idle_buffers_;
        ++hits_;
        if (tracker_)
            tracker_->notePoolHit(bytes);
        return storage;
    }
    ++fresh_;
    if (tracker_)
        tracker_->notePoolMiss(bytes);
    // Reserve only: the adopter's resize/assign performs the single
    // initialization pass (see Array4's storage-adopting constructor).
    std::vector<double> storage;
    storage.reserve(count);
    return storage;
}

void
BlockMemoryPool::release(std::vector<double>&& storage)
{
    if (storage.empty())
        return;
    LockGuard lock(mutex_);
    live_bytes_ -= storage.size() * sizeof(double);
    idle_bytes_ += storage.size() * sizeof(double);
    ++idle_buffers_;
    peak_idle_bytes_ = std::max(peak_idle_bytes_, idle_bytes_);
    free_[storage.size()].push_back(std::move(storage));
}

void
BlockMemoryPool::trim()
{
    LockGuard lock(mutex_);
    free_.clear();
    idle_bytes_ = 0;
    idle_buffers_ = 0;
}

} // namespace vibe
