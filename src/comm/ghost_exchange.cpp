#include "comm/ghost_exchange.hpp"

#include <algorithm>
#include <cstddef>
#include <optional>
#include <string>

#include "exec/par_for.hpp"
#include "mesh/prolong_restrict.hpp"
#include "obs/trace.hpp"
#include "util/logging.hpp"

namespace vibe {

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
    // Outside a stage graph (initialization, direct tests, the
    // micro-bench): the same tasks in a graph of their own.
    TraceSpan span("ExchangeBounds", TraceCat::Comm,
                   mesh_->collectiveRank());
    TaskList tl;
    tl.setLabel("plan:bounds exchange");
    addBoundsTasks(tl);
    runGraph(tl);
}

void
GhostExchange::exchangeFluxCorrections()
{
    TraceSpan span("ExchangeFluxCorrections", TraceCat::Comm,
                   mesh_->collectiveRank());
    TaskList tl;
    tl.setLabel("plan:flux exchange");
    addFluxCorrTasks(tl);
    runGraph(tl);
}

void
GhostExchange::runGraph(TaskList& tl)
{
    // No cycle stamp: these graphs run outside the evolution loop's
    // per-cycle task accounting.
    tl.setTrace(mesh_->collectiveRank(), -1);
    tl.execute(rankExecOptions(mesh_->ctx().space(), *world_));
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
        // region row by row; each coarse row averages 2^(ndim-1) fine
        // rows, summed in (dk, dj, di) order.
        const int lo[3] = {shape.is(), shape.js(), shape.ks()};
        const double inv = 1.0 / (1 << ndim);
        const int fi = 2 * ch.recv.i.lo - lo[0] - ch.base2[0];
        const int ni = ch.recv.i.count();
        const int nrows = 1 << (ndim - 1);
        const double* rows[4];
        for (int n = 0; n < ncomp; ++n)
            for (int K = ch.recv.k.lo; K <= ch.recv.k.hi; ++K)
                for (int J = ch.recv.j.lo; J <= ch.recv.j.hi; ++J) {
                    const int fj = ndim >= 2 ? 2 * J - lo[1] - ch.base2[1]
                                             : 0;
                    const int fk = ndim >= 3 ? 2 * K - lo[2] - ch.base2[2]
                                             : 0;
                    int r = 0;
                    for (int dk = 0; dk <= (ndim >= 3 ? 1 : 0); ++dk)
                        for (int dj = 0; dj <= (ndim >= 2 ? 1 : 0); ++dj)
                            rows[r++] =
                                cons.row(n, fk + dk, fj + dj, fi, 2 * ni);
                    for (int I = 0; I < ni; ++I) {
                        double sum = 0.0;
                        for (r = 0; r < nrows; ++r) {
                            sum += rows[r][2 * I];
                            sum += rows[r][2 * I + 1];
                        }
                        out[idx++] = sum * inv;
                    }
                }
    } else {
        // Same level or coarse slab: straight copy of the send box,
        // one row per (n, k, j).
        const int ni = ch.send.i.count();
        for (int n = 0; n < ncomp; ++n)
            for (int k = ch.send.k.lo; k <= ch.send.k.hi; ++k)
                for (int j = ch.send.j.lo; j <= ch.send.j.hi; ++j) {
                    const double* row = cons.row(n, k, j, ch.send.i.lo, ni);
                    for (int i = 0; i < ni; ++i)
                        out[idx++] = row[i];
                }
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
        // Same level or pre-restricted: straight copy into the recv
        // box, one row per (n, k, j) after one size check up front.
        require(count ==
                    static_cast<std::size_t>(ch.recv.cells()) * ncomp,
                "bounds payload size mismatch");
        const int ni = ch.recv.i.count();
        for (int n = 0; n < ncomp; ++n)
            for (int k = ch.recv.k.lo; k <= ch.recv.k.hi; ++k)
                for (int j = ch.recv.j.lo; j <= ch.recv.j.hi; ++j) {
                    double* row = cons.row(n, k, j, ch.recv.i.lo, ni);
                    for (int i = 0; i < ni; ++i)
                        row[i] = payload[i];
                    payload += ni;
                }
        return;
    }

    // Coarse slab -> fine ghosts: slope-limited prolongation in two
    // passes per component. Pass 1 visits every coarse cell the recv
    // box covers and stores its centre and ndim minmod-limited slopes
    // in scratch; pass 2 walks the fine rows and writes
    // `value = centre; value += ±0.25·slope_d` in d order. A slope
    // neighbor comes from the slab where available; where it lies on
    // the *receiver's* side of the interface (the innermost ghost
    // layer), it is restricted from the receiver's own fine interior —
    // the role of Parthenon's receiver-side coarse buffer. Elsewhere
    // the slope clamps to zero. The coarse box lies inside the slab,
    // so only a neighbor one past a box edge can leave it, and where
    // it comes from is decided once per edge.
    const int lo[3] = {shape.is(), shape.js(), shape.ks()};
    const int nx[3] = {shape.nx1, ndim >= 2 ? shape.nx2 : 1,
                       ndim >= 3 ? shape.nx3 : 1};
    const IndexRange fine[3] = {ch.recv.i, ch.recv.j, ch.recv.k};
    const IndexRange slab[3] = {ch.send.i, ch.send.j, ch.send.k};
    // Coarse box [clo, chi] in sender interior-relative indices; slab
    // index = coarse index + off. Inactive dims are the single index 0.
    int clo[3] = {0, 0, 0}, chi[3] = {0, 0, 0}, off[3], sc[3];
    for (int d = 0; d < 3; ++d) {
        if (d < ndim) {
            const int t = fine[d].lo - lo[d] - ch.base[d];
            require(t >= 0, "negative alignment offset");
            clo[d] = t >> 1;
            chi[d] = (fine[d].hi - lo[d] - ch.base[d]) >> 1;
        }
        off[d] = lo[d] - slab[d].lo;
        sc[d] = slab[d].count();
        require(clo[d] + off[d] >= 0 && chi[d] + off[d] < sc[d],
                "ghost prolongation center missing");
    }
    const std::ptrdiff_t stride[3] = {1, sc[0],
                                      std::ptrdiff_t{sc[0]} * sc[1]};
    require(count == static_cast<std::size_t>(stride[2]) * sc[2] * ncomp,
            "slab payload size mismatch");

    // Where the neighbor one past each box edge comes from. A coarse
    // cell restricts from the receiver if its 2^ndim fine cells all lie
    // inside the receiver's interior.
    enum class Source { Slab, Receiver, None };
    Source edge[3][2] = {};
    for (int d = 0; d < ndim; ++d)
        for (int side = 0; side < 2; ++side) {
            const int c = side == 0 ? clo[d] - 1 : chi[d] + 1;
            if (c + off[d] >= 0 && c + off[d] < sc[d]) {
                edge[d][side] = Source::Slab;
                continue;
            }
            const int f = ch.base[d] + 2 * c;
            bool all = f >= 0 && f + 1 < nx[d];
            bool any = all;
            for (int e = 0; e < ndim; ++e) {
                if (e == d)
                    continue;
                const int f_lo = ch.base[e] + 2 * clo[e];
                const int f_hi = ch.base[e] + 2 * chi[e];
                all = all && f_lo >= 0 && f_hi + 1 < nx[e];
                any = any && f_hi >= 0 && f_lo + 1 < nx[e];
            }
            require(all == any,
                    "prolongation edge lies partly on the receiver");
            edge[d][side] = all ? Source::Receiver : Source::None;
        }
    auto restrict_receiver = [&](int n, const int c[3]) {
        int f[3] = {0, 0, 0};
        for (int d = 0; d < ndim; ++d)
            f[d] = lo[d] + ch.base[d] + 2 * c[d];
        double sum = 0.0;
        for (int dk = 0; dk <= (ndim >= 3 ? 1 : 0); ++dk)
            for (int dj = 0; dj <= (ndim >= 2 ? 1 : 0); ++dj)
                for (int di = 0; di <= 1; ++di)
                    sum += cons(n, f[2] + dk, f[1] + dj, f[0] + di);
        return sum / (1 << ndim);
    };

    // Grow-only scratch of the unpacking worker: per coarse cell, the
    // centre then the ndim slopes.
    static thread_local std::vector<double> scratch;
    const int per = 1 + ndim;
    const int ncell[3] = {chi[0] - clo[0] + 1, chi[1] - clo[1] + 1,
                          chi[2] - clo[2] + 1};
    const std::size_t need =
        static_cast<std::size_t>(ncell[2]) * ncell[1] * ncell[0] * per;
    if (scratch.size() < need)
        scratch.resize(need);
    const int ti0 = fine[0].lo - lo[0] - ch.base[0];
    const int nfi = fine[0].count();

    for (int n = 0; n < ncomp; ++n) {
        // Pass 1: centre and limited slopes, once per coarse cell.
        double* cell = scratch.data();
        for (int ck = clo[2]; ck <= chi[2]; ++ck)
            for (int cj = clo[1]; cj <= chi[1]; ++cj) {
                // Slab value of coarse cell (ck, cj, clo[0]).
                const double* srow =
                    payload +
                    ((static_cast<std::ptrdiff_t>(n) * sc[2] + ck +
                      off[2]) *
                         sc[1] +
                     cj + off[1]) *
                        sc[0] +
                    clo[0] + off[0];
                for (int ci = clo[0]; ci <= chi[0]; ++ci, cell += per) {
                    const int c[3] = {ci, cj, ck};
                    const double* centre = srow + (ci - clo[0]);
                    cell[0] = *centre;
                    for (int d = 0; d < ndim; ++d) {
                        double v[2];
                        bool have = true;
                        for (int side = 0; side < 2; ++side) {
                            const int step = side == 0 ? -1 : 1;
                            const bool inner = side == 0 ? c[d] > clo[d]
                                                         : c[d] < chi[d];
                            const Source src =
                                inner ? Source::Slab : edge[d][side];
                            if (src == Source::Slab) {
                                v[side] = centre[step * stride[d]];
                            } else if (src == Source::Receiver) {
                                int cn[3] = {ci, cj, ck};
                                cn[d] += step;
                                v[side] = restrict_receiver(n, cn);
                            } else {
                                have = false;
                            }
                        }
                        cell[1 + d] =
                            have ? minmod(v[1] - cell[0], cell[0] - v[0])
                                 : 0.0;
                    }
                }
            }

        // Pass 2: fine rows; parities and coarse rows are per row.
        for (int k = fine[2].lo; k <= fine[2].hi; ++k) {
            const int tk = ndim >= 3 ? k - lo[2] - ch.base[2] : 0;
            const double wz = (tk & 1) == 1 ? 0.25 : -0.25;
            for (int j = fine[1].lo; j <= fine[1].hi; ++j) {
                const int tj = ndim >= 2 ? j - lo[1] - ch.base[1] : 0;
                const double wy = (tj & 1) == 1 ? 0.25 : -0.25;
                const double* crow =
                    scratch.data() +
                    (static_cast<std::size_t>((tk >> 1) - clo[2]) *
                         ncell[1] +
                     static_cast<std::size_t>((tj >> 1) - clo[1])) *
                        ncell[0] * per;
                double* out = cons.row(n, k, j, fine[0].lo, nfi);
                for (int i = 0; i < nfi; ++i) {
                    const int t = ti0 + i;
                    const double* e = crow + ((t >> 1) - clo[0]) * per;
                    double value = e[0];
                    value += ((t & 1) == 1 ? 0.25 : -0.25) * e[1];
                    if (ndim >= 2)
                        value += wy * e[2];
                    if (ndim >= 3)
                        value += wz * e[3];
                    out[i] = value;
                }
            }
        }
    }
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
    // Fine face index of receiver face C: the sender's face layer
    // along `dir`, 2C - lo - base2 transversely. Each coarse row
    // averages up to two fine rows (dk, dj) and, unless the faces are
    // x1 faces, two faces per row (di), summed in (dk, dj, di) order.
    auto fine_start = [&](int d, int c) {
        return d == ch.dir ? ch.sendFaceIdx
               : d < ndim  ? 2 * c - lo[d] - ch.base2[d]
                           : 0;
    };
    const int fi = fine_start(0, ch.recvFaces.i.lo);
    const int ni = ch.recvFaces.i.count();
    const int nk2 = ndim >= 3 && ch.dir != 2 ? 2 : 1;
    const int nj2 = ndim >= 2 && ch.dir != 1 ? 2 : 1;
    const int wide = ch.dir != 0 ? 2 : 1;
    const double* rows[4];
    std::size_t idx = 0;
    for (int n = 0; n < ncomp; ++n)
        for (int K = ch.recvFaces.k.lo; K <= ch.recvFaces.k.hi; ++K)
            for (int J = ch.recvFaces.j.lo; J <= ch.recvFaces.j.hi;
                 ++J) {
                const int fj = fine_start(1, J);
                const int fk = fine_start(2, K);
                int nrows = 0;
                for (int dk = 0; dk < nk2; ++dk)
                    for (int dj = 0; dj < nj2; ++dj)
                        rows[nrows++] = flux.row(n, fk + dk, fj + dj, fi,
                                                 wide * ni);
                for (int I = 0; I < ni; ++I) {
                    double sum = 0.0;
                    for (int r = 0; r < nrows; ++r)
                        for (int di = 0; di < wide; ++di)
                            sum += rows[r][wide * I + di];
                    out[idx++] = sum * inv;
                }
            }
}

void
GhostExchange::unpackFluxChannel(const FluxChannel& ch,
                                 const double* payload,
                                 std::size_t count) const
{
    const int ncomp = mesh_->registry().ncompConserved();
    // One size check up front, then one row per (n, K, J) — the same
    // hoist the bounds unpack has.
    require(count == static_cast<std::size_t>(ch.wireFaces()) * ncomp,
            "flux-correction payload size mismatch");
    RealArray4& flux = ch.receiver->flux(ch.dir);
    const int ni = ch.recvFaces.i.count();
    for (int n = 0; n < ncomp; ++n)
        for (int K = ch.recvFaces.k.lo; K <= ch.recvFaces.k.hi; ++K)
            for (int J = ch.recvFaces.j.lo; J <= ch.recvFaces.j.hi; ++J) {
                double* row = flux.row(n, K, J, ch.recvFaces.i.lo, ni);
                for (int i = 0; i < ni; ++i)
                    row[i] = payload[i];
                payload += ni;
            }
}

void
GhostExchange::applyPhysicalBoundariesBlock(MeshBlock& block) const
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
// The task builders are the serial points: they make the plan current
// (ensurePlan) before any task of theirs can run, and every task body
// below requires a current plan — the accessors panic on a stale
// generation. ensureBuilt() is NEVER called from a task body: a
// rebuild racing a sub-pack task would be a data race on the plan
// tables.
//
// Concurrency: sub-pack tasks of one phase write disjoint payload
// slices (send) or disjoint receiver regions (set); each poll task
// writes only its own inbox slot; the writer counts are atomics whose
// acq_rel decrement orders every writer's packing before the isend.
// ---------------------------------------------------------------------

void
GhostExchange::ensurePlan()
{
    if (!plan_.ensureBuilt())
        return;
    for (FusedPhaseState& st : fused_) {
        st.out.clear();
        st.inbox.clear();
    }
    LockGuard lock(pool_mutex_);
    for (auto& pool : pool_)
        pool.clear();
}

GhostExchange::BoundsTaskIds
GhostExchange::addBoundsTasks(TaskList& tl)
{
    ensurePlan();
    beginFusedPhase(PlanPhase::Bounds);
    const int ph = static_cast<int>(PlanPhase::Bounds);
    const auto& packs = plan_.subPacks();
    const int npacks = static_cast<int>(packs.size());
    const TaskId t_start = tl.addTask(
        "StartReceiveBoundBufs",
        [this] {
            startReceiveBoundBufs();
            return TaskStatus::Complete;
        },
        {}, TaskCategory::Comm);
    BoundsTaskIds ids;
    for (int p = 0; p < npacks; ++p)
        ids.send.push_back(tl.addTask(
            "SendBoundBufs:plan:bounds:p" + std::to_string(p),
            [this, p] {
                sendSubPackEntries(PlanPhase::Bounds, p);
                return TaskStatus::Complete;
            },
            {t_start}, TaskCategory::Comm));
    // One poll per inbound coalesced message — O(rank pairs), not
    // O(blocks x faces). A message this graph sends itself is polled
    // once its writers finished; a peer's message is polled from the
    // start of the phase.
    const std::vector<TaskId> polls = addPollTasks(
        tl, PlanPhase::Bounds, "ReceiveBoundBufs", ids.send, {t_start});
    for (int p = 0; p < npacks; ++p) {
        const PlanSubPack& pack = packs[static_cast<std::size_t>(p)];
        std::vector<TaskId> deps;
        for (int slot : pack.recvSlots[ph])
            deps.push_back(polls[static_cast<std::size_t>(slot)]);
        if (deps.empty())
            deps.push_back(t_start);
        ids.set.push_back(tl.addTask(
            "SetBounds:plan:bounds:p" + std::to_string(p),
            [this, blocks = &pack.blocks, p] {
                setSubPackEntries(PlanPhase::Bounds, p);
                // Each block's physical fill follows its own unpacks.
                for (MeshBlock* block : *blocks)
                    applyPhysicalBoundariesBlock(*block);
                return TaskStatus::Complete;
            },
            std::move(deps), TaskCategory::Comm));
    }
    return ids;
}

std::vector<TaskId>
GhostExchange::addFluxCorrTasks(TaskList& tl,
                                std::vector<std::vector<TaskId>> send_deps)
{
    ensurePlan();
    beginFusedPhase(PlanPhase::Flux);
    const int ph = static_cast<int>(PlanPhase::Flux);
    const auto& packs = plan_.subPacks();
    const int npacks = static_cast<int>(packs.size());
    require(send_deps.size() <= packs.size(),
            "flux-correction send deps for ", send_deps.size(),
            " sub-packs, the plan has ", packs.size());
    send_deps.resize(packs.size());
    std::vector<TaskId> sends;
    for (int p = 0; p < npacks; ++p)
        sends.push_back(tl.addTask(
            "FluxCorrSend:plan:flux:p" + std::to_string(p),
            [this, p] {
                sendSubPackEntries(PlanPhase::Flux, p);
                return TaskStatus::Complete;
            },
            std::move(send_deps[static_cast<std::size_t>(p)]),
            TaskCategory::Comm));
    // A peer's corrections are polled once this rank's own are out.
    const std::vector<TaskId> polls =
        addPollTasks(tl, PlanPhase::Flux, "FluxCorrRecv", sends, sends);
    std::vector<TaskId> applies;
    for (int p = 0; p < npacks; ++p) {
        // Apply after the corrections p's own blocks send: a block
        // both sends (fine side) and receives (coarse side) fluxes.
        std::vector<TaskId> deps{sends[static_cast<std::size_t>(p)]};
        for (int slot : packs[static_cast<std::size_t>(p)].recvSlots[ph])
            deps.push_back(polls[static_cast<std::size_t>(slot)]);
        applies.push_back(tl.addTask(
            "FluxCorrApply:plan:flux:p" + std::to_string(p),
            [this, p] {
                setSubPackEntries(PlanPhase::Flux, p);
                return TaskStatus::Complete;
            },
            std::move(deps), TaskCategory::Comm));
    }
    return applies;
}

std::vector<TaskId>
GhostExchange::addPollTasks(TaskList& tl, PlanPhase phase,
                            const char* label,
                            const std::vector<TaskId>& sends,
                            const std::vector<TaskId>& peer_deps)
{
    const auto& msgs = plan_.messages(phase);
    const auto& recv = plan_.localRecvIds(phase);
    const auto& writers = plan_.slotWriters(phase);
    const auto& send_slot = plan_.recvSendSlot(phase);
    std::vector<TaskId> polls;
    polls.reserve(recv.size());
    for (std::size_t r = 0; r < recv.size(); ++r) {
        const PlanMessage& m = msgs[static_cast<std::size_t>(recv[r])];
        std::vector<TaskId> deps = peer_deps;
        if (send_slot[r] >= 0) {
            deps.clear();
            for (int p : writers[static_cast<std::size_t>(send_slot[r])])
                deps.push_back(sends[static_cast<std::size_t>(p)]);
        }
        const int slot = static_cast<int>(r);
        polls.push_back(tl.addTask(
            std::string(label) + ":plan:" + planPhaseName(phase) + ":r" +
                std::to_string(m.src) + ">r" + std::to_string(m.dst),
            [this, phase, slot] {
                return pollFusedMessage(phase, slot) ? TaskStatus::Complete
                                                     : TaskStatus::Iterate;
            },
            std::move(deps), TaskCategory::Comm));
    }
    return polls;
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

bool
GhostExchange::pollFusedMessage(PlanPhase phase, int slot)
{
    const PlanMessage& m = plan_.messages(phase)[static_cast<std::size_t>(
        plan_.localRecvIds(phase)[static_cast<std::size_t>(slot)])];
    std::optional<Message> msg = world_->receive(m.id);
    if (!msg)
        return false;
    require(msg->src == m.src && msg->dst == m.dst, "coalesced ",
            planPhaseName(phase), " message rank mismatch: carried ",
            msg->src, " -> ", msg->dst, ", expected ", m.src, " -> ",
            m.dst);
    require(!mesh_->ctx().executing() || msg->payload.size() == m.doubles,
            "coalesced ", planPhaseName(phase),
            " payload size mismatch: ", msg->payload.size(),
            " doubles, directory says ", m.doubles);
    fused_[static_cast<int>(phase)].inbox[static_cast<std::size_t>(slot)] =
        std::move(*msg);
    // One probe per rank pair, recorded on completion.
    recordSerialAt(mesh_->ctx(), "ReceiveBoundBufs", m.dst, "recv_poll",
                   1.0);
    return true;
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

} // namespace vibe
