/**
 * @file fault_injector.cpp
 * Deterministic rank-failure injection.
 */
#include "driver/fault_injector.hpp"

#include "util/env.hpp"
#include "util/logging.hpp"
#include "util/parameter_input.hpp"

namespace vibe {

FaultInjector
FaultInjector::fromEnv()
{
    return FaultInjector(envInt("VIBE_FAIL_RANK", -1),
                         envInt64("VIBE_FAIL_CYCLE", -1));
}

FaultInjector
FaultInjector::fromParams(const ParameterInput& pin)
{
    // Deck beats env beats default: each env knob only supplies the
    // default of its absent deck key. fail_cycle keeps full 64-bit
    // width so the deck and VIBE_FAIL_CYCLE accept the same range.
    const FaultInjector env = fromEnv();
    return FaultInjector(
        pin.getInt("exec", "fail_rank", env.fail_rank_),
        pin.getInt64("exec", "fail_cycle", env.fail_cycle_));
}

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
