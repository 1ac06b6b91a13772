/**
 * @file trace.cpp
 * TraceRecorder implementation (see trace.hpp for the design).
 */
#include "obs/trace.hpp"

#include <algorithm>

#include "exec/thread_local_registry.hpp"

namespace vibe {

std::atomic<bool> TraceRecorder::enabled_{false};

const char*
traceCatName(TraceCat cat)
{
    switch (cat) {
    case TraceCat::Compute:
        return "compute";
    case TraceCat::Comm:
        return "comm";
    case TraceCat::Kernel:
        return "kernel";
    case TraceCat::Driver:
        return "driver";
    case TraceCat::Io:
        return "io";
    }
    return "unknown";
}

TraceRecorder&
TraceRecorder::instance()
{
    // Leaked on purpose (~TraceRecorder is deleted): span sites may
    // fire from detached drain threads during process teardown, after
    // static destructors would have run.
    static TraceRecorder* recorder = new TraceRecorder();
    return *recorder;
}

TraceRecorder::TraceRecorder()
    : epoch_(Clock::now()),
      buffers_(new ThreadLocalRegistry<ThreadBuffer>())
{
}

void
TraceRecorder::start()
{
    buffers_->forEach([](ThreadBuffer& buf) {
        buf.events.clear();
        buf.dropped = 0;
    });
    epoch_ = Clock::now();
    enabled_.store(true, std::memory_order_release);
}

void
TraceRecorder::stop()
{
    enabled_.store(false, std::memory_order_release);
}

std::vector<TraceEvent>
TraceRecorder::drain()
{
    stop();
    std::vector<TraceEvent> all;
    buffers_->forEach([&all](ThreadBuffer& buf) {
        all.insert(all.end(), buf.events.begin(), buf.events.end());
        buf.events.clear();
        buf.events.shrink_to_fit();
    });
    std::stable_sort(all.begin(), all.end(),
                     [](const TraceEvent& a, const TraceEvent& b) {
                         if (a.tsUs != b.tsUs)
                             return a.tsUs < b.tsUs;
                         return a.tid < b.tid;
                     });
    return all;
}

std::uint64_t
TraceRecorder::dropped() const
{
    std::uint64_t total = 0;
    buffers_->forEach(
        [&total](ThreadBuffer& buf) { total += buf.dropped; });
    return total;
}

TraceRecorder::ThreadBuffer&
TraceRecorder::localBuffer()
{
    ThreadBuffer& buf = buffers_->local();
    if (buf.tid < 0) {
        buf.tid = next_tid_.fetch_add(1, std::memory_order_relaxed);
        buf.events.reserve(kReserveEvents);
    }
    return buf;
}

int
TraceRecorder::threadTid()
{
    return localBuffer().tid;
}

void
TraceRecorder::record(TraceEvent event)
{
    ThreadBuffer& buf = localBuffer();
    if (buf.events.size() >= kMaxEvents) {
        ++buf.dropped;
        return;
    }
    // Grow geometrically up to the cap: fixed-size steps would recopy
    // the whole buffer every kReserveEvents appends (quadratic copying
    // on long traces); doubling keeps the total copy linear in the
    // events recorded.
    if (buf.events.size() == buf.events.capacity())
        buf.events.reserve(std::min(
            std::max(buf.events.capacity() * 2, kReserveEvents),
            kMaxEvents));
    event.tid = buf.tid;
    buf.events.push_back(event);
}

void
TraceRecorder::recordSpan(std::string_view name, TraceCat cat,
                          int rank, std::int64_t cycle,
                          std::string_view phase,
                          Clock::time_point begin, double seconds,
                          std::uint16_t flags, std::int64_t gid)
{
    TraceEvent event;
    event.kind = TraceEvent::Kind::Span;
    event.cat = cat;
    event.flags = flags;
    event.rank = rank;
    event.cycle = cycle;
    event.gid = gid;
    event.tsUs = usAt(begin);
    event.durUs = seconds * 1.0e6;
    detail::copyField(event.name, name);
    detail::copyField(event.phase, phase);
    record(event);
}

} // namespace vibe
