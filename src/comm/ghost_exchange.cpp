#include "comm/ghost_exchange.hpp"

#include <algorithm>
#include <cmath>

#include "exec/par_for.hpp"
#include "mesh/prolong_restrict.hpp"
#include "obs/trace.hpp"
#include "util/logging.hpp"

namespace vibe {

namespace {

int
rangeStart(const Region3& r, int d)
{
    return d == 0 ? r.i.lo : d == 1 ? r.j.lo : r.k.lo;
}

int
rangeCount(const Region3& r, int d)
{
    return d == 0 ? r.i.count() : d == 1 ? r.j.count() : r.k.count();
}

} // namespace

GhostExchange::GhostExchange(Mesh& mesh, RankWorld& world,
                             BoundaryBufferCache& cache)
    : mesh_(&mesh), world_(&world), cache_(&cache),
      plan_(mesh, cache, world)
{
    const MeshConfig& config = mesh.config();
    if (mesh.ctx().executing() && config.amrLevels > 1) {
        const BlockShape shape = config.blockShape();
        const int min_nx = std::min(
            {shape.nx1, shape.ndim >= 2 ? shape.nx2 : shape.nx1,
             shape.ndim >= 3 ? shape.nx3 : shape.nx1});
        if (min_nx < 2 * shape.ng)
            fatal("numeric AMR runs require MeshBlockSize >= 2*num_ghost "
                  "(got ",
                  min_nx, " < ", 2 * shape.ng,
                  "); use counting mode for smaller blocks");
        if (shape.ng % 2 != 0)
            fatal("AMR requires an even ghost count, got ", shape.ng);
    }
}

void
GhostExchange::exchangeBounds()
{
    // Monolithic (non-graph) path: initialization and direct tests.
    // In-cycle exchanges run as task graphs and get per-task spans.
    TraceSpan span("ExchangeBounds", TraceCat::Comm,
                   mesh_->collectiveRank());
    // Monolithic callers are serial points, so the lazy rebuild may
    // happen right here.
    plan_.ensureBuilt();
    startReceiveBoundBufs();
    runFusedPhase(PlanPhase::Bounds);
}

void
GhostExchange::discardStaleDeliveries()
{
    // Classic single-driver world: any pending delivery at the top of
    // a cycle is stale garbage from an aborted cycle. With concurrent
    // rank drivers this sweep would be wrong: a neighbor rank may
    // legitimately run up to one stage ahead, and its early sends
    // queue in FIFO order until this rank's matching receive — exactly
    // MPI's eager-message semantics. Every rank pair's coalesced ids
    // are swept, constructed directly: the plan may be stale or
    // unbuilt here.
    std::size_t stale = 0;
    const int nranks = world_->nranks();
    for (int src = 0; src < nranks; ++src)
        for (int dst = 0; dst < nranks; ++dst) {
            stale += world_->discardPending(coalescedChannelId(
                src, dst, ChannelKind::CoalescedBounds));
            stale += world_->discardPending(coalescedChannelId(
                src, dst, ChannelKind::CoalescedFlux));
        }
    if (stale > 0)
        warn("ghost exchange discarded ", stale,
             " stale buffers left by an aborted cycle");
}

void
GhostExchange::packBoundsChannel(const BoundsChannel& ch,
                                 double* out) const
{
    require(ch.sender->hasData(), "pack from a storage-less block ",
            ch.sender->loc().str(),
            " (sender not owned by this rank?)");
    const int ncomp = mesh_->registry().ncompConserved();
    const BlockShape shape = mesh_->config().blockShape();
    const int ndim = shape.ndim;
    const RealArray4& cons = ch.sender->cons();
    std::size_t idx = 0;
    if (ch.levelDiff == 1) {
        // Restrict on send: iterate the receiver's coarse target
        // region; average the covering fine cells.
        const int lo[3] = {shape.is(), shape.js(), shape.ks()};
        const double inv = 1.0 / (1 << ndim);
        for (int n = 0; n < ncomp; ++n)
            for (int K = ch.recv.k.lo; K <= ch.recv.k.hi; ++K)
                for (int J = ch.recv.j.lo; J <= ch.recv.j.hi; ++J)
                    for (int I = ch.recv.i.lo; I <= ch.recv.i.hi;
                         ++I) {
                        const int fi =
                            lo[0] + 2 * (I - lo[0]) - ch.base2[0];
                        const int fj =
                            ndim >= 2
                                ? lo[1] + 2 * (J - lo[1]) - ch.base2[1]
                                : 0;
                        const int fk =
                            ndim >= 3
                                ? lo[2] + 2 * (K - lo[2]) - ch.base2[2]
                                : 0;
                        double sum = 0.0;
                        for (int dk = 0; dk <= (ndim >= 3 ? 1 : 0);
                             ++dk)
                            for (int dj = 0; dj <= (ndim >= 2 ? 1 : 0);
                                 ++dj)
                                for (int di = 0; di <= 1; ++di)
                                    sum += cons(n, fk + dk, fj + dj,
                                                fi + di);
                        out[idx++] = sum * inv;
                    }
    } else {
        // Same level or coarse slab: straight copy of the send box.
        for (int n = 0; n < ncomp; ++n)
            for (int k = ch.send.k.lo; k <= ch.send.k.hi; ++k)
                for (int j = ch.send.j.lo; j <= ch.send.j.hi; ++j)
                    for (int i = ch.send.i.lo; i <= ch.send.i.hi; ++i)
                        out[idx++] = cons(n, k, j, i);
    }
}

void
GhostExchange::countSend(double bytes)
{
    last_messages_.fetch_add(1);
    last_send_bytes_.fetch_add(static_cast<std::int64_t>(bytes));
}

void
GhostExchange::unpackBoundsChannel(const BoundsChannel& ch,
                                   const double* payload,
                                   std::size_t count) const
{
    const int ncomp = mesh_->registry().ncompConserved();
    const BlockShape shape = mesh_->config().blockShape();
    const int ndim = shape.ndim;
    RealArray4& cons = ch.receiver->cons();

    if (ch.levelDiff >= 0) {
        // Same level or pre-restricted: straight copy into recv box.
        // One size check up front, then unchecked indexing in the
        // per-cell loop (matching the slab branch below).
        require(count ==
                    static_cast<std::size_t>(ch.recv.cells()) * ncomp,
                "bounds payload size mismatch");
        std::size_t idx = 0;
        for (int n = 0; n < ncomp; ++n)
            for (int k = ch.recv.k.lo; k <= ch.recv.k.hi; ++k)
                for (int j = ch.recv.j.lo; j <= ch.recv.j.hi; ++j)
                    for (int i = ch.recv.i.lo; i <= ch.recv.i.hi; ++i)
                        cons(n, k, j, i) = payload[idx++];
        return;
    }

    // Coarse slab -> fine ghosts: slope-limited prolongation. Slope
    // neighbors come from the slab where available; where the missing
    // neighbor lies on the *receiver's* side of the interface (the
    // innermost ghost layer), it is restricted on the fly from the
    // receiver's own fine interior — the role of Parthenon's
    // receiver-side coarse buffer. Elsewhere the slope clamps to zero.
    const int lo[3] = {shape.is(), shape.js(), shape.ks()};
    const int nx[3] = {shape.nx1, ndim >= 2 ? shape.nx2 : 1,
                       ndim >= 3 ? shape.nx3 : 1};
    const int slab_lo[3] = {rangeStart(ch.send, 0), rangeStart(ch.send, 1),
                            rangeStart(ch.send, 2)};
    const int sc[3] = {rangeCount(ch.send, 0), rangeCount(ch.send, 1),
                       rangeCount(ch.send, 2)};
    const std::size_t slab_stride_n =
        static_cast<std::size_t>(sc[2]) * sc[1] * sc[0];
    require(count == slab_stride_n * ncomp,
            "slab payload size mismatch");
    auto slab_at = [&](int n, int ck, int cj, int ci) {
        return payload[(static_cast<std::size_t>(n) * sc[2] + ck) *
                           sc[1] * sc[0] +
                       static_cast<std::size_t>(cj) * sc[0] + ci];
    };

    // Coarse value at sender-local interior-relative index c_rel[3];
    // returns false if unobtainable from slab or receiver restriction.
    auto coarse_at = [&](int n, const int c_rel[3], double* out) {
        int s_idx[3];
        bool in_slab = true;
        for (int d = 0; d < 3; ++d) {
            s_idx[d] = c_rel[d] + lo[d] - slab_lo[d];
            if (s_idx[d] < 0 || s_idx[d] >= sc[d])
                in_slab = false;
        }
        if (in_slab) {
            *out = slab_at(n, s_idx[2], s_idx[1], s_idx[0]);
            return true;
        }
        // Restrict from the receiver's own interior if the coarse cell
        // maps entirely inside it.
        int f0[3] = {0, 0, 0};
        for (int d = 0; d < ndim; ++d) {
            f0[d] = ch.base[d] + 2 * c_rel[d];
            if (f0[d] < 0 || f0[d] + 1 >= nx[d])
                return false;
        }
        double sum = 0.0;
        for (int dk = 0; dk <= (ndim >= 3 ? 1 : 0); ++dk)
            for (int dj = 0; dj <= (ndim >= 2 ? 1 : 0); ++dj)
                for (int di = 0; di <= 1; ++di)
                    sum += cons(n, lo[2] * (ndim >= 3) + f0[2] + dk,
                                lo[1] * (ndim >= 2) + f0[1] + dj,
                                lo[0] + f0[0] + di);
        *out = sum / (1 << ndim);
        return true;
    };

    for (int n = 0; n < ncomp; ++n) {
        for (int k = ch.recv.k.lo; k <= ch.recv.k.hi; ++k)
            for (int j = ch.recv.j.lo; j <= ch.recv.j.hi; ++j)
                for (int i = ch.recv.i.lo; i <= ch.recv.i.hi; ++i) {
                    const int fidx[3] = {i, j, k};
                    int c_rel[3] = {0, 0, 0}; // interior-relative coarse
                    int p[3] = {0, 0, 0};     // fine parity in cell
                    for (int d = 0; d < ndim; ++d) {
                        const int t = fidx[d] - lo[d] - ch.base[d];
                        require(t >= 0, "negative alignment offset");
                        c_rel[d] = t >> 1;
                        p[d] = t & 1;
                    }
                    double center;
                    require(coarse_at(n, c_rel, &center),
                            "ghost prolongation center missing");
                    double value = center;
                    for (int d = 0; d < ndim; ++d) {
                        int cm[3] = {c_rel[0], c_rel[1], c_rel[2]};
                        int cp[3] = {c_rel[0], c_rel[1], c_rel[2]};
                        cm[d] -= 1;
                        cp[d] += 1;
                        double vm, vp;
                        double slope = 0.0;
                        if (coarse_at(n, cm, &vm) &&
                            coarse_at(n, cp, &vp))
                            slope = minmod(vp - center, center - vm);
                        value += (p[d] == 1 ? 0.25 : -0.25) * slope;
                    }
                    cons(n, k, j, i) = value;
                }
    }
}

void
GhostExchange::exchangeFluxCorrections()
{
    TraceSpan span("ExchangeFluxCorrections", TraceCat::Comm,
                   mesh_->collectiveRank());
    // Serial point for monolithic callers; see exchangeBounds().
    plan_.ensureBuilt();
    runFusedPhase(PlanPhase::Flux);
}

void
GhostExchange::packFluxChannel(const FluxChannel& ch, double* out) const
{
    require(ch.sender->hasData(), "flux pack from a storage-less block ",
            ch.sender->loc().str());
    const int ncomp = mesh_->registry().ncompConserved();
    const BlockShape shape = mesh_->config().blockShape();
    const int ndim = shape.ndim;
    const RealArray4& flux = ch.sender->flux(ch.dir);
    const int lo[3] = {shape.is(), shape.js(), shape.ks()};
    const int nfine = 1 << (ndim - 1);
    const double inv = 1.0 / nfine;
    std::size_t idx = 0;
    for (int n = 0; n < ncomp; ++n)
        for (int K = ch.recvFaces.k.lo; K <= ch.recvFaces.k.hi; ++K)
            for (int J = ch.recvFaces.j.lo; J <= ch.recvFaces.j.hi; ++J)
                for (int I = ch.recvFaces.i.lo; I <= ch.recvFaces.i.hi;
                     ++I) {
                    const int cidx[3] = {I, J, K};
                    int f[3];
                    for (int d = 0; d < 3; ++d) {
                        if (d == ch.dir) {
                            f[d] = ch.sendFaceIdx;
                        } else if (d < ndim) {
                            f[d] = lo[d] + 2 * (cidx[d] - lo[d]) -
                                   ch.base2[d];
                        } else {
                            f[d] = 0;
                        }
                    }
                    double sum = 0.0;
                    for (int dk = 0;
                         dk <= (ndim >= 3 && ch.dir != 2 ? 1 : 0); ++dk)
                        for (int dj = 0;
                             dj <= (ndim >= 2 && ch.dir != 1 ? 1 : 0);
                             ++dj)
                            for (int di = 0; di <= (ch.dir != 0 ? 1 : 0);
                                 ++di)
                                sum += flux(n, f[2] + dk, f[1] + dj,
                                            f[0] + di);
                    out[idx++] = sum * inv;
                }
}

void
GhostExchange::unpackFluxChannel(const FluxChannel& ch,
                                 const double* payload,
                                 std::size_t count) const
{
    const int ncomp = mesh_->registry().ncompConserved();
    // One size check up front, then unchecked indexing in the
    // per-face loop — the same hoist the bounds unpack has.
    require(count == static_cast<std::size_t>(ch.wireFaces()) * ncomp,
            "flux-correction payload size mismatch");
    RealArray4& flux = ch.receiver->flux(ch.dir);
    std::size_t idx = 0;
    for (int n = 0; n < ncomp; ++n)
        for (int K = ch.recvFaces.k.lo; K <= ch.recvFaces.k.hi; ++K)
            for (int J = ch.recvFaces.j.lo; J <= ch.recvFaces.j.hi; ++J)
                for (int I = ch.recvFaces.i.lo; I <= ch.recvFaces.i.hi;
                     ++I)
                    flux(n, K, J, I) = payload[idx++];
}

void
GhostExchange::applyPhysicalBoundaries()
{
    for (MeshBlock* block : mesh_->ownedBlocks())
        applyPhysicalBoundariesBlock(*block);
}

void
GhostExchange::applyPhysicalBoundariesBlock(MeshBlock& block)
{
    const ExecContext& ctx = mesh_->ctx();
    if (mesh_->config().periodic || !ctx.executing())
        return;
    const BlockShape shape = mesh_->config().blockShape();
    const int ncomp = mesh_->registry().ncompConserved();
    const BlockTree& tree = mesh_->tree();

    // Outflow (zero-gradient): clamp every ghost index to the
    // interior for directions without a neighbor.
    const auto& loc = block.loc();
    auto at_boundary = [&](int d, int side) {
        LogicalLocation probe = loc;
        std::int64_t* lx = d == 0   ? &probe.lx1
                           : d == 1 ? &probe.lx2
                                    : &probe.lx3;
        *lx += side;
        return !tree.validIndex(probe);
    };
    RealArray4& cons = block.cons();
    const int is = shape.is(), ie = shape.ie();
    const int js = shape.js(), je = shape.je();
    const int ks = shape.ks(), ke = shape.ke();
    auto clamp_fill = [&](int kl, int ku, int jl, int ju, int il,
                          int iu) {
        for (int n = 0; n < ncomp; ++n)
            for (int k = kl; k <= ku; ++k)
                for (int j = jl; j <= ju; ++j)
                    for (int i = il; i <= iu; ++i)
                        cons(n, k, j, i) =
                            cons(n, std::clamp(k, ks, ke),
                                 std::clamp(j, js, je),
                                 std::clamp(i, is, ie));
    };
    const int nk = shape.nk(), nj = shape.nj(), ni = shape.ni();
    if (at_boundary(0, -1))
        clamp_fill(0, nk - 1, 0, nj - 1, 0, is - 1);
    if (at_boundary(0, +1))
        clamp_fill(0, nk - 1, 0, nj - 1, ie + 1, ni - 1);
    if (shape.ndim >= 2 && at_boundary(1, -1))
        clamp_fill(0, nk - 1, 0, js - 1, 0, ni - 1);
    if (shape.ndim >= 2 && at_boundary(1, +1))
        clamp_fill(0, nk - 1, je + 1, nj - 1, 0, ni - 1);
    if (shape.ndim >= 3 && at_boundary(2, -1))
        clamp_fill(0, ks - 1, 0, nj - 1, 0, ni - 1);
    if (shape.ndim >= 3 && at_boundary(2, +1))
        clamp_fill(ke + 1, nk - 1, 0, nj - 1, 0, ni - 1);
}

// ---------------------------------------------------------------------
// BoundaryPlan phases.
//
// Every function below requires a current plan: the driver's graph
// builder (and the monolithic exchange entry points) call
// plan_.ensureBuilt() at a serial point first, and the accessors
// themselves panic on a stale generation. ensureBuilt() is NEVER
// called from in here — a rebuild racing a sub-pack task would be a
// data race on the plan tables.
//
// Concurrency: sub-pack tasks of one phase write disjoint payload
// slices (send) or disjoint receiver regions (set); each poll task
// writes only its own inbox slot; the writer counts are atomics whose
// acq_rel decrement orders every writer's packing before the isend.
// ---------------------------------------------------------------------

void
GhostExchange::invalidatePlan()
{
    plan_.invalidate();
    for (FusedPhaseState& st : fused_) {
        st.out.clear();
        st.inbox.clear();
    }
    LockGuard lock(pool_mutex_);
    for (auto& pool : pool_)
        pool.clear();
}

std::uint64_t
GhostExchange::freshPayloadAllocs() const
{
    LockGuard lock(pool_mutex_);
    return fresh_allocs_;
}

std::size_t
GhostExchange::pooledPayloads() const
{
    LockGuard lock(pool_mutex_);
    std::size_t held = 0;
    for (const auto& pool : pool_)
        held += pool.size();
    return held;
}

std::vector<double>
GhostExchange::acquirePayload(PlanPhase phase, std::size_t count)
{
    // Best fit: the smallest pooled buffer that already holds `count`
    // doubles, so a large payload is never spent on a small message
    // while the large one then allocates. On a rank team what a rank
    // receives from a peer serves its send back to that peer; only a
    // one-way message (flux corrections flow fine -> coarse) keeps
    // allocating on its sender and is dropped by the receiver's cap.
    auto& pool = pool_[static_cast<int>(phase)];
    std::size_t best = pool.size();
    for (std::size_t b = 0; b < pool.size(); ++b)
        if (pool[b].capacity() >= count &&
            (best == pool.size() ||
             pool[b].capacity() < pool[best].capacity()))
            best = b;
    if (best == pool.size()) {
        ++fresh_allocs_;
        return std::vector<double>(count);
    }
    std::vector<double> payload = std::move(pool[best]);
    pool[best] = std::move(pool.back());
    pool.pop_back();
    // Within capacity: no reallocation; only a grown tail is zeroed.
    payload.resize(count);
    return payload;
}

void
GhostExchange::recyclePayload(PlanPhase phase,
                              std::vector<double> payload,
                              std::size_t cap)
{
    if (payload.capacity() == 0)
        return;
    auto& pool = pool_[static_cast<int>(phase)];
    pool.push_back(std::move(payload));
    if (pool.size() <= cap)
        return;
    // Over the cap: drop the smallest buffer.
    auto smallest = std::min_element(
        pool.begin(), pool.end(), [](const auto& a, const auto& b) {
            return a.capacity() < b.capacity();
        });
    *smallest = std::move(pool.back());
    pool.pop_back();
}

void
GhostExchange::startReceiveBoundBufs()
{
    // Per-cycle state reset lives here, at the top of the cycle, so an
    // exchange that threw mid-cycle cannot leak wire counts, pending
    // receives, or stale mailbox deliveries into the next one.
    last_wire_cells_.store(0);
    last_messages_.store(0);
    last_send_bytes_.store(0);
    if (!world_->concurrent())
        discardStaleDeliveries();
    // One coalesced buffer to prepare per inbound rank pair — this is
    // the point of the plan: O(ranks) bookkeeping, not O(faces).
    recordSerialAt(mesh_->ctx(), "StartReceiveBoundBufs",
                   mesh_->collectiveRank(), "recv_buf_prepare",
                   static_cast<double>(
                       plan_.localRecvIds(PlanPhase::Bounds).size()));
}

void
GhostExchange::beginFusedPhase(PlanPhase phase)
{
    const ExecContext& ctx = mesh_->ctx();
    const bool bounds = phase == PlanPhase::Bounds;
    const auto& msgs = plan_.messages(phase);
    const auto& send = plan_.localSendIds(phase);
    const auto& recv = plan_.localRecvIds(phase);
    FusedPhaseState& st = fused_[static_cast<int>(phase)];

    {
        // The phase's pool holds at most one buffer per outbound plan
        // message — exactly what the next round of sends needs.
        LockGuard lock(pool_mutex_);
        for (Message& msg : st.inbox)
            recyclePayload(phase, std::move(msg.payload), send.size());
        for (std::vector<double>& unsent : st.out)
            recyclePayload(phase, std::move(unsent), send.size());
        st.out.resize(send.size());
        for (std::size_t s = 0; s < send.size(); ++s)
            st.out[s] =
                ctx.executing()
                    ? acquirePayload(
                          phase,
                          msgs[static_cast<std::size_t>(send[s])].doubles)
                    : std::vector<double>();
    }
    st.inbox.assign(recv.size(), Message{});
    const auto& writers = plan_.slotWriters(phase);
    if (st.writersLeft.size() != send.size())
        st.writersLeft = std::vector<std::atomic<int>>(send.size());
    for (std::size_t s = 0; s < send.size(); ++s)
        st.writersLeft[s].store(static_cast<int>(writers[s].size()),
                                std::memory_order_relaxed);

    // One record per phase, as one launch over the phase's entries:
    // the tables do not depend on how the sub-pack tasks interleave or
    // which workers run them.
    const PlanPhaseProfile& prof = plan_.profile(phase);
    if (!prof.sendRanks.empty())
        recordPackKernelItems(
            ctx, "SendBoundBufs", "SendBoundBufs",
            {1.0, 2.0 * sizeof(double)}, prof.sendRanks.data(),
            prof.sendItems.data(), static_cast<int>(prof.sendRanks.size()),
            prof.sendInnermost);
    for (int id : send) {
        const PlanMessage& m = msgs[static_cast<std::size_t>(id)];
        const bool remote = m.src != m.dst;
        recordSerialAt(ctx, "SendBoundBufs", m.src,
                       remote ? "msg_remote" : "msg_local", 1.0);
        recordSerialAt(ctx, "SendBoundBufs", m.src,
                       remote ? "msg_remote_bytes" : "msg_local_bytes",
                       m.bytes);
        // Directory bookkeeping is one item per entry, but it is paid
        // once per rank pair, not once per block.
        recordSerialAt(ctx, "SendBoundBufs", m.src, "bound_buf_metadata",
                       static_cast<double>(m.entries.size()));
    }
    if (!prof.setRanks.empty()) {
        const KernelCosts costs =
            bounds ? KernelCosts{1.0, 2.0 * sizeof(double)}
                   : KernelCosts{0.0, 2.0 * sizeof(double)};
        recordPackKernelItems(
            ctx, "SetBounds", "SetBounds", costs, prof.setRanks.data(),
            prof.setItems.data(), static_cast<int>(prof.setRanks.size()),
            prof.setInnermost);
    }
    if (bounds)
        for (int id : recv) {
            const PlanMessage& m = msgs[static_cast<std::size_t>(id)];
            recordSerialAt(ctx, "SetBounds", m.dst, "bound_buf_metadata",
                           static_cast<double>(m.entries.size()));
        }
}

void
GhostExchange::sendSubPackEntries(PlanPhase phase, int p)
{
    const int ph = static_cast<int>(phase);
    const PlanSubPack& pack =
        plan_.subPacks()[static_cast<std::size_t>(p)];
    FusedPhaseState& st = fused_[ph];
    if (mesh_->ctx().executing()) {
        const auto& msgs = plan_.messages(phase);
        const auto& send = plan_.localSendIds(phase);
        for (const PlanRow& row : pack.sendRows[ph]) {
            const PlanMessage& m =
                msgs[static_cast<std::size_t>(send[row.slot])];
            const PlanEntry& e =
                m.entries[static_cast<std::size_t>(row.entry)];
            double* out = st.out[static_cast<std::size_t>(row.slot)].data() +
                          e.offset;
            if (phase == PlanPhase::Bounds)
                packBoundsChannel(cache_->bounds()[e.channel], out);
            else
                packFluxChannel(cache_->flux()[e.channel], out);
        }
    }
    for (int slot : pack.sendSlots[ph])
        if (st.writersLeft[static_cast<std::size_t>(slot)].fetch_sub(
                1, std::memory_order_acq_rel) == 1)
            sendFusedMessage(phase, slot);
}

void
GhostExchange::sendFusedMessage(PlanPhase phase, int slot)
{
    const PlanMessage& m = plan_.messages(phase)[static_cast<std::size_t>(
        plan_.localSendIds(phase)[static_cast<std::size_t>(slot)])];
    if (phase == PlanPhase::Bounds)
        last_wire_cells_.fetch_add(m.wireUnits);
    countSend(m.bytes);
    world_->isend(m.id, m.src, m.dst,
                  std::move(fused_[static_cast<int>(phase)]
                                .out[static_cast<std::size_t>(slot)]),
                  m.bytes);
}

void
GhostExchange::acceptFusedMessage(PlanPhase phase, int slot, Message msg)
{
    const PlanMessage& m = plan_.messages(phase)[static_cast<std::size_t>(
        plan_.localRecvIds(phase)[static_cast<std::size_t>(slot)])];
    require(msg.src == m.src && msg.dst == m.dst, "coalesced ",
            planPhaseName(phase), " message rank mismatch: carried ",
            msg.src, " -> ", msg.dst, ", expected ", m.src, " -> ",
            m.dst);
    require(!mesh_->ctx().executing() || msg.payload.size() == m.doubles,
            "coalesced ", planPhaseName(phase),
            " payload size mismatch: ", msg.payload.size(),
            " doubles, directory says ", m.doubles);
    fused_[static_cast<int>(phase)].inbox[static_cast<std::size_t>(slot)] =
        std::move(msg);
}

bool
GhostExchange::pollFusedMessage(PlanPhase phase, int slot)
{
    const PlanMessage& m = plan_.messages(phase)[static_cast<std::size_t>(
        plan_.localRecvIds(phase)[static_cast<std::size_t>(slot)])];
    std::optional<Message> msg = world_->receive(m.id);
    if (!msg)
        return false;
    acceptFusedMessage(phase, slot, std::move(*msg));
    // One probe per rank pair, recorded on completion.
    recordSerialAt(mesh_->ctx(), "ReceiveBoundBufs", m.dst, "recv_poll",
                   1.0);
    return true;
}

void
GhostExchange::receiveFusedPhase(PlanPhase phase)
{
    const auto& msgs = plan_.messages(phase);
    const auto& ids = plan_.localRecvIds(phase);
    for (std::size_t r = 0; r < ids.size(); ++r) {
        const PlanMessage& m = msgs[static_cast<std::size_t>(ids[r])];
        acceptFusedMessage(
            phase, static_cast<int>(r),
            world_->receiveWait(m.id, "fused ghost exchange", [&] {
                return "the coalesced " +
                       std::string(planPhaseName(phase)) +
                       " message from rank " + std::to_string(m.src) +
                       " on rank " + std::to_string(m.dst);
            }));
    }
    recordSerialAt(mesh_->ctx(), "ReceiveBoundBufs",
                   mesh_->collectiveRank(), "recv_poll",
                   static_cast<double>(ids.size()));
}

void
GhostExchange::setSubPackEntries(PlanPhase phase, int p)
{
    if (!mesh_->ctx().executing())
        return;
    const int ph = static_cast<int>(phase);
    const PlanSubPack& pack =
        plan_.subPacks()[static_cast<std::size_t>(p)];
    const FusedPhaseState& st = fused_[ph];
    const auto& msgs = plan_.messages(phase);
    const auto& recv = plan_.localRecvIds(phase);
    // Each entry writes only its receiver's ghost region (or its own
    // flux faces), and prolongation's interior fallback reads cells no
    // unpack writes, so rows — and sub-packs — are independent.
    for (const PlanRow& row : pack.recvRows[ph]) {
        const PlanMessage& m =
            msgs[static_cast<std::size_t>(recv[row.slot])];
        const PlanEntry& e =
            m.entries[static_cast<std::size_t>(row.entry)];
        const double* payload =
            st.inbox[static_cast<std::size_t>(row.slot)].payload.data() +
            e.offset;
        if (phase == PlanPhase::Bounds)
            unpackBoundsChannel(cache_->bounds()[e.channel], payload,
                                e.count);
        else
            unpackFluxChannel(cache_->flux()[e.channel], payload, e.count);
    }
}

void
GhostExchange::runFusedPhase(PlanPhase phase)
{
    const ExecContext& ctx = mesh_->ctx();
    const int npacks = static_cast<int>(plan_.subPacks().size());
    // Outside a task graph the sub-packs are spread over the space as
    // one launch; counting mode executes no rows but still sends.
    beginFusedPhase(phase);
    parForEach(ctx, npacks, [&](int p) { sendSubPackEntries(phase, p); });
    receiveFusedPhase(phase);
    parForEach(ctx, npacks, [&](int p) { setSubPackEntries(phase, p); });
}

} // namespace vibe
