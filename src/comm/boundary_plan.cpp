#include "comm/boundary_plan.hpp"

#include <algorithm>
#include <tuple>

#include "exec/par_for.hpp"
#include "util/logging.hpp"

namespace vibe {

namespace {

/**
 * Canonical channel ordering: the cache's pre-shuffle sort key. The
 * cache may shuffle its storage order (<comm> randomize_buffer_keys),
 * so directory order must come from the channel identities themselves
 * — independently built sender and receiver replicas then agree on
 * every entry's offset regardless of their caches' storage order.
 */
auto
canonicalKey(const ChannelId& id)
{
    return std::make_tuple(id.receiver.level, id.receiver.lx3,
                           id.receiver.lx2, id.receiver.lx1,
                           id.sender.level, id.sender.lx3, id.sender.lx2,
                           id.sender.lx1, id.o1, id.o2, id.o3);
}

} // namespace

const char*
planPhaseName(PlanPhase phase)
{
    return phase == PlanPhase::Bounds ? "bounds" : "flux";
}

BoundaryPlan::BoundaryPlan(Mesh& mesh, const BoundaryBufferCache& cache,
                           const RankWorld& world)
    : mesh_(&mesh), cache_(&cache), world_(&world)
{
}

void
BoundaryPlan::invalidate()
{
    LockGuard lock(mutex_);
    built_ = false;
    ++invalidate_count_;
}

void
BoundaryPlan::ensureBuilt()
{
    LockGuard lock(mutex_);
    if (built_ && generation_ == cache_->rebuildCount())
        return;
    rebuild();
}

bool
BoundaryPlan::current() const
{
    LockGuard lock(mutex_);
    return built_ && generation_ == cache_->rebuildCount();
}

std::uint64_t
BoundaryPlan::invalidateCount() const
{
    LockGuard lock(mutex_);
    return invalidate_count_;
}

std::uint64_t
BoundaryPlan::buildCount() const
{
    LockGuard lock(mutex_);
    return build_count_;
}

void
BoundaryPlan::requireCurrent() const
{
    LockGuard lock(mutex_);
    require(built_, "BoundaryPlan used before ensureBuilt()");
    require(generation_ == cache_->rebuildCount(),
            "stale BoundaryPlan: built at cache generation ",
            generation_, " but the cache is at ", cache_->rebuildCount(),
            " (was invalidate() chained into the rebuild hook?)");
}

const std::vector<PlanMessage>&
BoundaryPlan::messages(PlanPhase phase) const
{
    requireCurrent();
    return messages_[static_cast<int>(phase)];
}

const std::vector<int>&
BoundaryPlan::sendIds(PlanPhase phase, int rank) const
{
    requireCurrent();
    return send_ids_[static_cast<int>(phase)].at(
        static_cast<std::size_t>(rank));
}

const std::vector<int>&
BoundaryPlan::recvIds(PlanPhase phase, int rank) const
{
    requireCurrent();
    return recv_ids_[static_cast<int>(phase)].at(
        static_cast<std::size_t>(rank));
}

const std::vector<int>&
BoundaryPlan::localSendIds(PlanPhase phase) const
{
    requireCurrent();
    return local_send_[static_cast<int>(phase)];
}

const std::vector<int>&
BoundaryPlan::localRecvIds(PlanPhase phase) const
{
    requireCurrent();
    return local_recv_[static_cast<int>(phase)];
}

const std::vector<std::vector<int>>&
BoundaryPlan::slotWriters(PlanPhase phase) const
{
    requireCurrent();
    return slot_writers_[static_cast<int>(phase)];
}

const std::vector<int>&
BoundaryPlan::recvSendSlot(PlanPhase phase) const
{
    requireCurrent();
    return recv_send_slot_[static_cast<int>(phase)];
}

const std::vector<PlanSubPack>&
BoundaryPlan::subPacks() const
{
    requireCurrent();
    return sub_packs_;
}

int
BoundaryPlan::subPackOf(int gid) const
{
    requireCurrent();
    const int p = sub_pack_of_.at(static_cast<std::size_t>(gid));
    require(p >= 0, "block ", gid, " is not owned by this replica");
    return p;
}

const PlanPhaseProfile&
BoundaryPlan::profile(PlanPhase phase) const
{
    requireCurrent();
    return profile_[static_cast<int>(phase)];
}

const PlanMessage*
BoundaryPlan::messageFor(PlanPhase phase, int src, int dst) const
{
    requireCurrent();
    const auto& msgs = messages_[static_cast<int>(phase)];
    const auto it = std::lower_bound(
        msgs.begin(), msgs.end(), std::make_pair(src, dst),
        [](const PlanMessage& m, const std::pair<int, int>& key) {
            return std::make_pair(m.src, m.dst) < key;
        });
    if (it == msgs.end() || it->src != src || it->dst != dst)
        return nullptr;
    return &*it;
}

void
BoundaryPlan::rebuild()
{
    const int nranks = world_->nranks();
    const int ncomp = mesh_->registry().ncompConserved();
    const std::size_t npairs =
        static_cast<std::size_t>(nranks) * nranks;

    for (int phase = 0; phase < kNumPlanPhases; ++phase) {
        auto& msgs = messages_[phase];
        msgs.clear();

        // Group channels by directed rank pair. Rank pairs that share
        // no boundary collect no entries and are elided entirely: no
        // PlanMessage, nothing on the wire, nothing to poll.
        std::vector<std::vector<PlanEntry>> pairs(npairs);
        const bool bounds = phase == static_cast<int>(PlanPhase::Bounds);
        const std::size_t nchannels =
            bounds ? cache_->bounds().size() : cache_->flux().size();
        auto endpoints = [&](int c) {
            if (bounds) {
                const BoundsChannel& ch = cache_->bounds()[c];
                return std::make_pair(ch.sender->rank(),
                                      ch.receiver->rank());
            }
            const FluxChannel& ch = cache_->flux()[c];
            return std::make_pair(ch.sender->rank(),
                                  ch.receiver->rank());
        };
        auto wire_units = [&](int c) {
            return bounds ? cache_->bounds()[c].wireCells()
                          : cache_->flux()[c].wireFaces();
        };
        auto id_of = [&](int c) -> const ChannelId& {
            return bounds ? cache_->bounds()[c].id
                          : cache_->flux()[c].id;
        };
        for (std::size_t c = 0; c < nchannels; ++c) {
            const auto [src, dst] = endpoints(static_cast<int>(c));
            require(src >= 0 && src < nranks && dst >= 0 &&
                        dst < nranks,
                    "channel endpoints outside the rank world: ", src,
                    " -> ", dst, " with ", nranks, " ranks");
            PlanEntry entry;
            entry.channel = static_cast<int>(c);
            entry.count = static_cast<std::size_t>(
                              wire_units(static_cast<int>(c))) *
                          ncomp;
            pairs[static_cast<std::size_t>(src) * nranks + dst]
                .push_back(entry);
        }

        const ChannelKind kind = bounds ? ChannelKind::CoalescedBounds
                                        : ChannelKind::CoalescedFlux;
        for (int src = 0; src < nranks; ++src) {
            for (int dst = 0; dst < nranks; ++dst) {
                auto& entries =
                    pairs[static_cast<std::size_t>(src) * nranks + dst];
                if (entries.empty())
                    continue;
                std::sort(entries.begin(), entries.end(),
                          [&](const PlanEntry& a, const PlanEntry& b) {
                              return canonicalKey(id_of(a.channel)) <
                                     canonicalKey(id_of(b.channel));
                          });
                PlanMessage msg;
                msg.src = src;
                msg.dst = dst;
                msg.id = coalescedChannelId(src, dst, kind);
                for (PlanEntry& entry : entries) {
                    entry.offset = msg.doubles;
                    msg.doubles += entry.count;
                    msg.wireUnits += wire_units(entry.channel);
                }
                // One coalesced message carries exactly the bytes the
                // per-face path would have split across its entries.
                msg.bytes = static_cast<double>(msg.doubles) *
                            sizeof(double);
                msg.entries = std::move(entries);
                msgs.push_back(std::move(msg));
            }
        }

        auto& send_ids = send_ids_[phase];
        auto& recv_ids = recv_ids_[phase];
        send_ids.assign(static_cast<std::size_t>(nranks), {});
        recv_ids.assign(static_cast<std::size_t>(nranks), {});
        for (std::size_t m = 0; m < msgs.size(); ++m) {
            send_ids[static_cast<std::size_t>(msgs[m].src)].push_back(
                static_cast<int>(m));
            recv_ids[static_cast<std::size_t>(msgs[m].dst)].push_back(
                static_cast<int>(m));
        }

        // A sharded replica plays its own rank's part; a classic mesh
        // steps every block, so it plays every rank's.
        if (mesh_->sharded()) {
            const auto me = static_cast<std::size_t>(mesh_->shardRank());
            local_send_[phase] = send_ids.at(me);
            local_recv_[phase] = recv_ids.at(me);
        } else {
            local_send_[phase].resize(msgs.size());
            for (std::size_t m = 0; m < msgs.size(); ++m)
                local_send_[phase][m] = static_cast<int>(m);
            local_recv_[phase] = local_send_[phase];
        }

        // The arguments the fused kernels have always been recorded
        // with, summed per message.
        PlanPhaseProfile& prof = profile_[phase];
        prof = PlanPhaseProfile{};
        std::size_t send_entries = 0;
        for (int id : local_send_[phase]) {
            const PlanMessage& m = msgs[static_cast<std::size_t>(id)];
            double items = 0;
            for (const PlanEntry& e : m.entries) {
                items += static_cast<double>(e.count);
                if (bounds) {
                    const BoundsChannel& ch = cache_->bounds()[e.channel];
                    prof.sendInnermost +=
                        (ch.levelDiff == 1 ? ch.recv : ch.send).i.count();
                } else {
                    prof.sendInnermost +=
                        cache_->flux()[e.channel].recvFaces.i.count();
                }
            }
            prof.sendRanks.push_back(m.src);
            prof.sendItems.push_back(items);
            send_entries += m.entries.size();
        }
        std::size_t set_entries = 0;
        for (int id : local_recv_[phase]) {
            const PlanMessage& m = msgs[static_cast<std::size_t>(id)];
            double items = 0;
            for (const PlanEntry& e : m.entries) {
                if (bounds) {
                    const BoundsChannel& ch = cache_->bounds()[e.channel];
                    items += static_cast<double>(ch.recv.cells()) * ncomp;
                    prof.setInnermost += ch.recv.i.count();
                } else {
                    const FluxChannel& ch = cache_->flux()[e.channel];
                    items += static_cast<double>(ch.wireFaces()) * ncomp;
                    prof.setInnermost += ch.recvFaces.i.count();
                }
            }
            prof.setRanks.push_back(m.dst);
            prof.setItems.push_back(items);
            set_entries += m.entries.size();
        }
        if (send_entries > 0)
            prof.sendInnermost /= static_cast<double>(send_entries);
        if (set_entries > 0)
            prof.setInnermost /= static_cast<double>(set_entries);
    }
    buildSubPacks();

    generation_ = cache_->rebuildCount();
    built_ = true;
    ++build_count_;

    // Serial cost: the directory walk touches every channel once, the
    // analogue of the cache's metadata-filling term.
    recordSerialAt(mesh_->ctx(), "BuildBoundaryPlan",
                   mesh_->collectiveRank(), "boundary_plan_metadata",
                   static_cast<double>(cache_->bounds().size() +
                                       cache_->flux().size()));
}

void
BoundaryPlan::buildSubPacks()
{
    const std::vector<MeshBlock*>& owned = mesh_->ownedBlocks();
    const std::size_t nblocks = owned.size();
    auto sender_gid = [&](int phase, int channel) {
        return phase == static_cast<int>(PlanPhase::Bounds)
                   ? cache_->bounds()[channel].sender->gid()
                   : cache_->flux()[channel].sender->gid();
    };
    auto receiver_gid = [&](int phase, int channel) {
        return phase == static_cast<int>(PlanPhase::Bounds)
                   ? cache_->bounds()[channel].receiver->gid()
                   : cache_->flux()[channel].receiver->gid();
    };

    // Balance weight per block (by gid): the bounds payload doubles it
    // packs plus those it unpacks (+1 so blocks without neighbors
    // still spread out).
    std::vector<double> weight(mesh_->numBlocks(), 1.0);
    const int bounds = static_cast<int>(PlanPhase::Bounds);
    const auto& bounds_msgs = messages_[bounds];
    for (int id : local_send_[bounds])
        for (const PlanEntry& e :
             bounds_msgs[static_cast<std::size_t>(id)].entries)
            weight[static_cast<std::size_t>(
                sender_gid(bounds, e.channel))] +=
                static_cast<double>(e.count);
    for (int id : local_recv_[bounds])
        for (const PlanEntry& e :
             bounds_msgs[static_cast<std::size_t>(id)].entries)
            weight[static_cast<std::size_t>(
                receiver_gid(bounds, e.channel))] +=
                static_cast<double>(e.count);

    // Contiguous Z-order cut at the weight quantiles; a forced cut
    // keeps every sub-pack non-empty.
    const int threads = mesh_->ctx().space().concurrency();
    const std::size_t target =
        threads <= 1 ? 1
                     : static_cast<std::size_t>(kSubPacksPerThread) *
                           static_cast<std::size_t>(threads);
    const std::size_t npacks =
        std::max<std::size_t>(1, std::min(target, nblocks));
    double total = 0;
    for (const MeshBlock* block : owned)
        total += weight[static_cast<std::size_t>(block->gid())];
    sub_packs_.assign(npacks, PlanSubPack{});
    sub_pack_of_.assign(mesh_->numBlocks(), -1);
    std::size_t p = 0;
    double acc = 0;
    for (std::size_t i = 0; i < nblocks; ++i) {
        const auto gid = static_cast<std::size_t>(owned[i]->gid());
        const bool must_cut = nblocks - i <= npacks - 1 - p;
        const bool quantile_cut =
            acc + 0.5 * weight[gid] >
            total * static_cast<double>(p + 1) /
                static_cast<double>(npacks);
        if (p + 1 < npacks && !sub_packs_[p].blocks.empty() &&
            (must_cut || quantile_cut))
            ++p;
        sub_packs_[p].blocks.push_back(owned[i]);
        sub_pack_of_[gid] = static_cast<int>(p);
        acc += weight[gid];
    }

    // Work lists. Rows are appended in slot order, so a sub-pack's
    // slot lists come out sorted and deduplicated by a back() check.
    auto pack_of = [&](int gid) {
        const int pack = sub_pack_of_.at(static_cast<std::size_t>(gid));
        require(pack >= 0, "plan entry touches block ", gid,
                ", which this replica does not own");
        return pack;
    };
    for (int phase = 0; phase < kNumPlanPhases; ++phase) {
        const auto& msgs = messages_[phase];
        const auto& send = local_send_[phase];
        const auto& recv = local_recv_[phase];
        auto& writers = slot_writers_[phase];
        writers.assign(send.size(), {});
        std::vector<int> send_slot_of(msgs.size(), -1);
        for (std::size_t s = 0; s < send.size(); ++s) {
            send_slot_of[static_cast<std::size_t>(send[s])] =
                static_cast<int>(s);
            const auto& entries =
                msgs[static_cast<std::size_t>(send[s])].entries;
            for (std::size_t e = 0; e < entries.size(); ++e) {
                const int pack =
                    pack_of(sender_gid(phase, entries[e].channel));
                PlanSubPack& sp = sub_packs_[static_cast<std::size_t>(pack)];
                sp.sendRows[phase].push_back(
                    {static_cast<int>(s), static_cast<int>(e)});
                if (sp.sendSlots[phase].empty() ||
                    sp.sendSlots[phase].back() != static_cast<int>(s)) {
                    sp.sendSlots[phase].push_back(static_cast<int>(s));
                    writers[s].push_back(pack);
                }
            }
        }
        for (std::vector<int>& packs : writers)
            std::sort(packs.begin(), packs.end());
        auto& recv_send = recv_send_slot_[phase];
        recv_send.assign(recv.size(), -1);
        for (std::size_t r = 0; r < recv.size(); ++r) {
            recv_send[r] = send_slot_of[static_cast<std::size_t>(recv[r])];
            const auto& entries =
                msgs[static_cast<std::size_t>(recv[r])].entries;
            for (std::size_t e = 0; e < entries.size(); ++e) {
                const int pack =
                    pack_of(receiver_gid(phase, entries[e].channel));
                PlanSubPack& sp = sub_packs_[static_cast<std::size_t>(pack)];
                sp.recvRows[phase].push_back(
                    {static_cast<int>(r), static_cast<int>(e)});
                if (sp.recvSlots[phase].empty() ||
                    sp.recvSlots[phase].back() != static_cast<int>(r))
                    sp.recvSlots[phase].push_back(static_cast<int>(r));
            }
        }
    }
}

} // namespace vibe
