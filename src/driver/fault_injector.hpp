/**
 * @file fault_injector.hpp
 * Deterministic rank-failure injection for recovery testing.
 *
 * An armed injector throws a PanicError on exactly one (rank, cycle)
 * point: the chosen rank's driver thread dies at the top of the chosen
 * cycle, while its peers are already advancing toward the cycle's
 * first collective (the dt allreduce) — the worst-case shape for the
 * abort path, since every survivor is blocked in a rendezvous when the
 * failure lands. Experiment arms it from its spec, whose unset fields
 * resolve `<exec> fail_rank` / `fail_cycle` (twins VIBE_FAIL_RANK /
 * VIBE_FAIL_CYCLE) through ParameterInput, one key at a time.
 *
 * The injector fires once per instance: after a supervised restart the
 * same Experiment-owned injector stays quiet, so a recovery test can
 * assert the rerun completes.
 */
#pragma once

#include <atomic>
#include <cstdint>

namespace vibe {

/** Throws on a chosen rank at a chosen cycle, exactly once. */
class FaultInjector
{
  public:
    FaultInjector() = default;
    FaultInjector(int fail_rank, std::int64_t fail_cycle)
        : fail_rank_(fail_rank), fail_cycle_(fail_cycle)
    {
    }

    /** True when a (rank, cycle) failure point is configured. */
    bool armed() const { return fail_rank_ >= 0 && fail_cycle_ >= 0; }
    int failRank() const { return fail_rank_; }
    std::int64_t failCycle() const { return fail_cycle_; }
    /** True once the fault has been delivered. */
    bool fired() const { return fired_.load(std::memory_order_acquire); }

    /**
     * Throw iff this is the armed (rank, cycle) and the injector has
     * not fired yet. Called at the top of every cycle by each rank's
     * driver concurrently: the guard checks the immutable (rank, cycle)
     * config first, so peer rank threads return without ever touching
     * the one-shot latch, and the latch itself is atomic — the matching
     * rank's write races with nothing.
     */
    void maybeFail(int rank, std::int64_t cycle);

  private:
    int fail_rank_ = -1;
    std::int64_t fail_cycle_ = -1;
    std::atomic<bool> fired_{false};
};

} // namespace vibe
