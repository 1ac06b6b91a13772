/**
 * @file fault_injector.cpp
 * Deterministic rank-failure injection.
 */
#include "driver/fault_injector.hpp"

#include "util/logging.hpp"

namespace vibe {

void
FaultInjector::maybeFail(int rank, std::int64_t cycle)
{
    // Immutable config first: every non-matching rank thread bails
    // here without reading the latch. armed() is implied by the match
    // (a disarmed injector has fail_rank_ == -1, never a real rank).
    if (rank != fail_rank_ || cycle != fail_cycle_ || rank < 0)
        return;
    if (fired_.exchange(true, std::memory_order_acq_rel))
        return;
    panic("injected fault: rank ", fail_rank_, " failed at cycle ",
          fail_cycle_);
}

} // namespace vibe
