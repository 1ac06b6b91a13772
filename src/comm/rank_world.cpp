#include "comm/rank_world.hpp"

#include <chrono>
#include <thread>

#include "obs/trace.hpp"
#include "util/logging.hpp"

namespace vibe {

std::size_t
ChannelIdHash::operator()(const ChannelId& id) const
{
    LogicalLocationHash loc_hash;
    std::size_t h = loc_hash(id.sender);
    h ^= loc_hash(id.receiver) + 0x9e3779b97f4a7c15ull + (h << 6) +
         (h >> 2);
    const std::size_t dir =
        static_cast<std::size_t>(id.o1 + 1) * 9 +
        static_cast<std::size_t>(id.o2 + 1) * 3 +
        static_cast<std::size_t>(id.o3 + 1) +
        (static_cast<std::size_t>(id.kind) << 5);
    h ^= dir + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    return h;
}

RankWorld::RankWorld(int nranks, bool concurrent)
    : nranks_(nranks), concurrent_(concurrent)
{
    require(nranks >= 1, "RankWorld needs at least one rank");
    coll_slots_.assign(static_cast<std::size_t>(nranks), nullptr);
}

void
RankWorld::isend(const ChannelId& channel, int src, int dst,
                 std::vector<double> payload, double bytes)
{
    require(src >= 0 && src < nranks_ && dst >= 0 && dst < nranks_,
            "isend rank out of range: ", src, " -> ", dst);
    LockGuard lock(mutex_);
    if (src == dst) {
        ++traffic_.localMessages;
        traffic_.localBytes += bytes;
    } else {
        ++traffic_.remoteMessages;
        traffic_.remoteBytes += bytes;
    }
    if (channel.kind != ChannelKind::Block) {
        ++traffic_.boundaryMessages;
        traffic_.boundaryBytes += bytes;
    }
    mailboxes_[channel].push_back({src, dst, std::move(payload), bytes});
    ++pending_total_;
}

bool
RankWorld::iprobe(const ChannelId& channel)
{
    LockGuard lock(mutex_);
    ++traffic_.probes;
    auto it = mailboxes_.find(channel);
    return it != mailboxes_.end() && !it->second.empty();
}

std::optional<Message>
RankWorld::receive(const ChannelId& channel)
{
    LockGuard lock(mutex_);
    ++traffic_.tests;
    auto it = mailboxes_.find(channel);
    if (it == mailboxes_.end() || it->second.empty())
        return std::nullopt;
    Message msg = std::move(it->second.front());
    it->second.pop_front();
    --pending_total_;
    return msg;
}

Message
RankWorld::receiveWait(const ChannelId& channel, std::string_view what,
                       const std::function<std::string()>& awaited)
{
    // vibe-lint: allow(obs-isolation) peer-wait deadline bounding the
    // receive poll loop, not timing instrumentation.
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration_cast<
                              std::chrono::steady_clock::duration>(
                              std::chrono::duration<double>(
                                  kPeerWaitSeconds));
    for (;;) {
        if (std::optional<Message> msg = receive(channel))
            return std::move(*msg);
        if (!concurrent_)
            panic(what, " lost ", awaited());
        if (failed())
            panic(what, " aborted: ", failureReason());
        if (std::chrono::steady_clock::now() >= deadline)
            panic(what, " timed out waiting for ", awaited());
        std::this_thread::yield();
    }
}

std::size_t
RankWorld::discardPending(const ChannelId& channel)
{
    LockGuard lock(mutex_);
    auto it = mailboxes_.find(channel);
    if (it == mailboxes_.end())
        return 0;
    const std::size_t dropped = it->second.size();
    it->second.clear();
    pending_total_ -= dropped;
    return dropped;
}

std::size_t
RankWorld::pendingCount() const
{
    LockGuard lock(mutex_);
    return pending_total_;
}

void
RankWorld::allGather(double bytes_per_rank)
{
    LockGuard lock(mutex_);
    ++traffic_.allGathers;
    traffic_.collectiveBytes += bytes_per_rank * nranks_;
}

void
RankWorld::allReduce(double bytes)
{
    LockGuard lock(mutex_);
    ++traffic_.allReduces;
    traffic_.collectiveBytes += bytes;
}

void
RankWorld::accountTransfer(int src, int dst, double bytes)
{
    LockGuard lock(mutex_);
    if (src == dst) {
        ++traffic_.localMessages;
        traffic_.localBytes += bytes;
    } else {
        ++traffic_.remoteMessages;
        traffic_.remoteBytes += bytes;
    }
}

void
RankWorld::accountCollective(double bytes, CollAccount account)
{
    LockGuard lock(mutex_);
    switch (account) {
      case CollAccount::Gather:
        ++traffic_.allGathers;
        traffic_.collectiveBytes += bytes * nranks_;
        break;
      case CollAccount::Reduce:
        ++traffic_.allReduces;
        traffic_.collectiveBytes += bytes;
        break;
      case CollAccount::None:
        break;
    }
}

void
RankWorld::barrier(int rank)
{
    if (!concurrent_)
        return;
    rendezvous(
        rank, nullptr,
        [](const std::vector<const void*>&) -> std::shared_ptr<void> {
            return nullptr;
        },
        0.0, CollAccount::None);
}

double
RankWorld::allReduceValue(int rank, double value, CollOp op,
                          double bytes)
{
    if (!concurrent_) {
        accountCollective(bytes, CollAccount::Reduce);
        return value;
    }
    std::vector<double> mine{value};
    const std::vector<double> all =
        allGatherVec(rank, std::move(mine), bytes, CollAccount::Reduce);
    double result = all.front();
    for (std::size_t r = 1; r < all.size(); ++r) {
        switch (op) {
          case CollOp::Min:
            result = all[r] < result ? all[r] : result;
            break;
          case CollOp::Max:
            result = all[r] > result ? all[r] : result;
            break;
          case CollOp::Sum:
            result += all[r];
            break;
        }
    }
    return result;
}

void
RankWorld::markFailed(const std::string& reason)
{
    // Record the reason before publishing failed_: a waiter that
    // observes failed_ always re-acquires coll_mutex_ (condvar wakeup
    // or the next failureReason() call) before reading the string, so
    // it sees this write.
    {
        LockGuard lock(coll_mutex_);
        if (failure_reason_.empty() && !reason.empty())
            failure_reason_ = reason;
        failed_.store(true);
        coll_cv_.notify_all();
    }
}

std::string
RankWorld::failureReason() const
{
    LockGuard lock(coll_mutex_);
    return failureReasonLocked();
}

std::string
RankWorld::failureReasonLocked() const
{
    return failure_reason_.empty() ? std::string("a peer rank failed")
                                   : failure_reason_;
}

std::shared_ptr<void>
RankWorld::rendezvous(int rank, const void* contribution,
                      Combiner combine, double bytes,
                      CollAccount account)
{
    require(rank >= 0 && rank < nranks_,
            "collective rank out of range: ", rank);
    // The span covers arrival through release: on the last-arriving
    // rank it is nearly instant, on early ranks it IS the rendezvous
    // wait — the per-rank imbalance picture in the timeline.
    TraceSpan span("Rendezvous", TraceCat::Comm, rank);
    UniqueLock lock(coll_mutex_);
    if (failed_.load())
        panic("collective entered after a rank failed: ",
              failureReasonLocked());
    require(coll_slots_[rank] == nullptr,
            "rank ", rank, " entered a collective twice");
    const std::uint64_t my_generation = coll_generation_;
    coll_slots_[rank] = contribution;
    if (++coll_arrived_ == nranks_) {
        coll_result_ = combine(coll_slots_);
        coll_slots_.assign(static_cast<std::size_t>(nranks_), nullptr);
        coll_arrived_ = 0;
        ++coll_generation_;
        accountCollective(bytes, account);
        coll_cv_.notify_all();
    } else {
        // Explicit predicate loop: the analysis treats a predicate
        // lambda as a separate unannotated function, so guarded reads
        // stay in this scope where the capability is visibly held.
        while (coll_generation_ == my_generation && !failed_.load())
            coll_cv_.wait(lock);
        // Abort only if the collective genuinely cannot complete. If
        // the generation advanced, every rank contributed and the
        // result is ready — a failure flag raised by a peer *after* it
        // left this collective must not retroactively void it (that
        // would nondeterministically drop e.g. a checkpoint capture
        // that already gathered). The failure still stops this rank at
        // its next collective entry.
        if (coll_generation_ == my_generation)
            panic("collective aborted: ", failureReasonLocked());
    }
    // Copy the shared handle under the lock; a next-generation
    // collective cannot complete (and overwrite the result) until this
    // rank leaves, because it is one of the required participants.
    return coll_result_;
}

} // namespace vibe
