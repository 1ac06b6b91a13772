#include "driver/load_balance.hpp"

#include <algorithm>
#include <utility>

#include "exec/par_for.hpp"
#include "obs/trace.hpp"

namespace vibe {

namespace {

/** Migration channel for the block at `loc` (kind = whole-block). */
ChannelId
migrationChannel(const LogicalLocation& loc)
{
    ChannelId id;
    id.sender = loc;
    id.receiver = loc;
    id.kind = ChannelKind::Block;
    return id;
}

/** One rank's cost contribution: (gid, cost) per owned block. */
struct CostEntry
{
    int gid = 0;
    double cost = 0;
};

} // namespace

LoadBalanceStats
loadBalance(Mesh& mesh, RankWorld& world,
            const LoadBalanceOptions& options)
{
    const ExecContext& ctx = mesh.ctx();
    const int nranks = world.nranks();
    // vibe-lint: allow(owned-blocks) the partitioner is replicated
    // structure code: every rank walks the full (identical) block list
    // to compute the same cost split, touching metadata only — never
    // block storage.
    const auto& blocks = mesh.blocks();
    LoadBalanceStats stats;
    if (blocks.empty())
        return stats;

    const int my_rank = mesh.collectiveRank();

    // Costs are exchanged with an AllGather (one entry per block). On
    // the sharded path this is a real rendezvous — each rank
    // contributes its owned blocks' costs and receives the full map —
    // which also synchronizes the team before any storage moves.
    // Uniform mode weighs blocks by interior cells (the historical
    // §II-E estimate); measured mode gathers the EMA estimates the
    // cost model folded onto the blocks.
    const bool measured = options.costMode == LbCostMode::Measured;
    std::vector<CostEntry> local_costs;
    local_costs.reserve(mesh.ownedBlocks().size());
    for (const MeshBlock* block : mesh.ownedBlocks())
        local_costs.push_back(
            {block->gid(),
             measured ? block->cost()
                      : static_cast<double>(
                            block->shape().interiorCells())});
    const std::vector<CostEntry> gathered = world.allGatherVec(
        my_rank, std::move(local_costs),
        static_cast<double>(sizeof(double)) *
            static_cast<double>(blocks.size()) / nranks,
        CollAccount::Gather);
    recordSerial(ctx, "collective", 1.0);
    // The partition walk itself is serial host work.
    recordSerial(ctx, "lb_partition", static_cast<double>(blocks.size()));

    std::vector<double> cost_of(blocks.size(), 0.0);
    for (const CostEntry& entry : gathered)
        cost_of.at(static_cast<std::size_t>(entry.gid)) = entry.cost;

    // Measured mode: sync every replica's block-cost metadata to the
    // gathered values — non-owners carry stale estimates between
    // gathers, and downstream consumers (refinement inheritance,
    // checkpoint restore re-shards) expect one replicated cost map.
    // Uniform mode leaves the metadata alone: the cost a block carries
    // (inherited across remeshes, serialized through migration and
    // checkpoints) must not be clobbered with cell counts just because
    // this run ignores it.
    if (measured)
        for (std::size_t b = 0; b < blocks.size(); ++b)
            blocks[b]->setCost(cost_of[b]);

    double total_cost = 0;
    for (double cost : cost_of)
        total_cost += cost;
    const double target = total_cost / nranks;

    // Greedy prefix partition over the Z-ordered list: rank r takes
    // blocks until the running cost passes (r+1) * target, but never
    // starves trailing ranks of remaining blocks. Inputs are gathered
    // (identical on every replica), so the partition is too.
    std::vector<int> new_rank(blocks.size(), 0);
    double cum = 0;
    int rank = 0;
    for (std::size_t b = 0; b < blocks.size(); ++b) {
        const std::size_t remaining = blocks.size() - b;
        const int ranks_left = nranks - rank;
        if (static_cast<std::size_t>(ranks_left) >= remaining) {
            // One block per remaining rank.
            rank = nranks - static_cast<int>(remaining);
        }
        new_rank[b] = rank;
        cum += cost_of[b];
        if (cum >= target * (rank + 1) && rank + 1 < nranks)
            ++rank;
    }

    // Price the proposal before moving any storage: per-rank cost
    // under the proposed partition vs. the current assignment.
    std::vector<double> rank_cost(nranks, 0.0);
    std::vector<double> cur_cost(nranks, 0.0);
    bool any_move = false;
    for (std::size_t b = 0; b < blocks.size(); ++b) {
        rank_cost[new_rank[b]] += cost_of[b];
        cur_cost.at(static_cast<std::size_t>(blocks[b]->rank())) +=
            cost_of[b];
        any_move = any_move || blocks[b]->rank() != new_rank[b];
    }
    const double mean_cost = total_cost / nranks;

    // Hysteresis: with measured (jittery) costs the greedy split can
    // flip a boundary block every few cycles; each flip ships real
    // storage on the sharded path. Adopt only when the projected
    // max/mean imbalance improvement clears the trigger. Inputs are
    // gathered and ranks replicated, so every replica takes the same
    // branch — no collective is needed for the decision itself.
    if (any_move && options.imbalanceTrigger > 0) {
        const double cur_max =
            *std::max_element(cur_cost.begin(), cur_cost.end());
        const double new_max =
            *std::max_element(rank_cost.begin(), rank_cost.end());
        const double improvement =
            mean_cost > 0 ? (cur_max - new_max) / mean_cost : 0.0;
        if (improvement < options.imbalanceTrigger) {
            stats.adopted = false;
            stats.maxRankCost = cur_max;
            stats.meanRankCost = mean_cost;
            return stats;
        }
    }

    const bool sharded = mesh.sharded();

    // Pass 1 — departures: a sharded replica serializes every block it
    // owns that is leaving and posts the payload before looking at any
    // arrival, so migration cannot deadlock (all sends are
    // non-blocking and precede all receives on every rank).
    if (sharded) {
        for (std::size_t b = 0; b < blocks.size(); ++b) {
            MeshBlock& block = *blocks[b];
            if (block.rank() != my_rank || new_rank[b] == my_rank)
                continue;
            std::vector<double> payload = block.serializeState();
            const double bytes =
                static_cast<double>(payload.size()) * sizeof(double);
            // vibe-lint: allow(coalesced-comm) ChannelKind::Block
            // migration payload, not boundary traffic; one message per
            // moved block at a collectively synchronized point.
            world.isend(migrationChannel(block.loc()), my_rank,
                        new_rank[b], std::move(payload), bytes);
            block.dematerialize();
        }
    }

    // Pass 2 — relabel and account. Every replica applies the full
    // relabeling so owner lookups stay replicated.
    std::vector<std::size_t> arrivals;
    for (std::size_t b = 0; b < blocks.size(); ++b) {
        MeshBlock& block = *blocks[b];
        if (block.rank() == new_rank[b])
            continue;
        ++stats.movedBlocks;
        stats.movedBytes += static_cast<double>(block.dataBytes());
        if (sharded) {
            stats.migratedStorageBytes +=
                static_cast<double>(block.serializedStateCount()) *
                sizeof(double);
            if (new_rank[b] == my_rank)
                arrivals.push_back(b);
        } else {
            world.accountTransfer(block.rank(), new_rank[b],
                                  static_cast<double>(block.dataBytes()));
        }
        block.setRank(new_rank[b]);
    }

    // Pass 3 — arrivals: materialize from THIS rank's pool and unpack
    // the serialized state. Peers' sends were posted in their pass 1,
    // so a bounded poll wait suffices.
    if (sharded) {
        TraceSpan span("MigrateBlocks", TraceCat::Comm, my_rank);
        for (std::size_t b : arrivals) {
            MeshBlock& block = *blocks[b];
            const Message msg = world.receiveWait(
                migrationChannel(block.loc()), "block migration",
                [&] { return block.loc().str(); });
            mesh.realizeBlock(block);
            block.deserializeState(msg.payload);
        }
        if (stats.movedBlocks > 0)
            mesh.refreshOwnership();
    }

    stats.maxRankCost =
        *std::max_element(rank_cost.begin(), rank_cost.end());
    stats.meanRankCost = mean_cost;
    return stats;
}

} // namespace vibe
