#include "mesh/mesh_block.hpp"

#include "exec/memory_tracker.hpp"
#include "mesh/block_memory_pool.hpp"
#include "util/logging.hpp"

namespace vibe {

MeshBlock::MeshBlock(const LogicalLocation& loc, const BlockShape& shape,
                     const BlockGeometry& geom,
                     const VariableRegistry& registry,
                     const ExecContext& ctx, bool account_recon,
                     BlockMemoryPool* pool, bool shadow)
    : loc_(loc), shape_(shape), geom_(geom), registry_(&registry),
      tracker_(ctx.tracker()), pool_(pool),
      mode_(shadow ? DataMode::Shadow
                   : (ctx.executing() ? DataMode::Real
                                      : DataMode::Virtual)),
      account_recon_(account_recon)
{
    cost_ = static_cast<double>(shape_.interiorCells());
    if (mode_ == DataMode::Shadow) {
        // Structure only: compute the canonical byte footprint (load
        // balancing and the memory model need it on every replica) but
        // allocate nothing and register nothing.
        const int ncons = registry_->ncompConserved();
        const int nder = registry_->ncompDerived();
        const int ni = shape_.ni(), nj = shape_.nj(), nk = shape_.nk();
        const auto cell_bytes = [&](int nvar, int dk, int dj, int di) {
            return static_cast<std::size_t>(nvar) * (nk + dk) *
                   (nj + dj) * (ni + di) * sizeof(double);
        };
        data_bytes_ = 3 * cell_bytes(ncons, 0, 0, 0) +
                      cell_bytes(nder, 0, 0, 0) +
                      cell_bytes(ncons, 0, 0, 1);
        if (shape_.ndim >= 2)
            data_bytes_ += cell_bytes(ncons, 0, 1, 0);
        if (shape_.ndim >= 3)
            data_bytes_ += cell_bytes(ncons, 1, 0, 0);
        if (account_recon_)
            data_bytes_ += static_cast<std::size_t>(2 * shape_.ndim) *
                           cell_bytes(ncons, 0, 0, 0);
        return;
    }
    allocateAll(ctx);
}

MeshBlock::~MeshBlock()
{
    releaseAll();
}

void
MeshBlock::releaseAll()
{
    if (pool_ && mode_ == DataMode::Real) {
        pool_->release(cons_.releaseStorage());
        pool_->release(cons0_.releaseStorage());
        pool_->release(dudt_.releaseStorage());
        pool_->release(derived_.releaseStorage());
        for (int d = 0; d < 3; ++d)
            pool_->release(flux_[d].releaseStorage());
    }
    if (tracker_)
        for (const auto& [label, bytes] : registered_)
            tracker_->deallocate(label, bytes);
    registered_.clear();
}

void
MeshBlock::materialize(const ExecContext& ctx, BlockMemoryPool* pool)
{
    require(mode_ == DataMode::Shadow,
            "materialize() requires a Shadow block: ", loc_.str());
    pool_ = pool;
    tracker_ = ctx.tracker();
    mode_ = ctx.executing() ? DataMode::Real : DataMode::Virtual;
    data_bytes_ = 0; // allocateAll re-accumulates the identical total
    allocateAll(ctx);
}

void
MeshBlock::dematerialize()
{
    require(mode_ != DataMode::Shadow,
            "dematerialize() on an already-shadow block: ", loc_.str());
    releaseAll();
    if (mode_ == DataMode::Real) {
        // Unpooled arrays (or a Virtual block's nothing) still need
        // their extents cleared so any stale view faults loudly.
        cons_ = RealArray4();
        cons0_ = RealArray4();
        dudt_ = RealArray4();
        derived_ = RealArray4();
        for (int d = 0; d < 3; ++d)
            flux_[d] = RealArray4();
    }
    mode_ = DataMode::Shadow;
}

std::size_t
MeshBlock::serializedStateCount() const
{
    const std::size_t cells = static_cast<std::size_t>(shape_.ni()) *
                              shape_.nj() * shape_.nk();
    return cells * (static_cast<std::size_t>(
                        registry_->ncompConserved()) +
                    registry_->ncompDerived());
}

std::vector<double>
MeshBlock::serializeState() const
{
    require(mode_ == DataMode::Real,
            "serializeState() requires materialized data: ", loc_.str());
    std::vector<double> payload;
    payload.reserve(serializedStateCount());
    payload.insert(payload.end(), cons_.data(),
                   cons_.data() + cons_.size());
    payload.insert(payload.end(), derived_.data(),
                   derived_.data() + derived_.size());
    return payload;
}

void
MeshBlock::deserializeState(const std::vector<double>& payload)
{
    require(mode_ == DataMode::Real,
            "deserializeState() requires materialized storage: ",
            loc_.str());
    require(payload.size() == cons_.size() + derived_.size(),
            "migrated block payload size mismatch for ", loc_.str(),
            ": got ", payload.size(), ", expected ",
            cons_.size() + derived_.size());
    std::copy(payload.begin(),
              payload.begin() + static_cast<std::ptrdiff_t>(cons_.size()),
              cons_.data());
    std::copy(payload.begin() + static_cast<std::ptrdiff_t>(cons_.size()),
              payload.end(), derived_.data());
}

void
MeshBlock::registerAllocation(const ExecContext& ctx,
                              const std::string& label, std::size_t bytes)
{
    data_bytes_ += bytes;
    if (ctx.tracker()) {
        ctx.tracker()->allocate(label, bytes);
        registered_.emplace_back(label, bytes);
    }
}

void
MeshBlock::allocateAll(const ExecContext& ctx)
{
    const int ncons = registry_->ncompConserved();
    const int nder = registry_->ncompDerived();
    const int ni = shape_.ni();
    const int nj = shape_.nj();
    const int nk = shape_.nk();
    const auto cell_bytes = [&](int nvar, int dk, int dj, int di) {
        return static_cast<std::size_t>(nvar) * (nk + dk) * (nj + dj) *
               (ni + di) * sizeof(double);
    };

    if (mode_ == DataMode::Real) {
        // Pooled path: recycled storage, and buffers whose every cell
        // is written before it is read (fluxes, dudt)
        // skip the clearing pass — state-carrying arrays are zeroed in
        // a single assign, so results are bit-identical to the
        // allocate-and-zero path.
        const auto make = [&](int nvar, int dk, int dj, int di,
                              bool zero) {
            if (pool_) {
                const std::size_t count = static_cast<std::size_t>(
                                              nvar) *
                                          (nk + dk) * (nj + dj) *
                                          (ni + di);
                return RealArray4(nvar, nk + dk, nj + dj, ni + di,
                                  pool_->acquire(count), zero);
            }
            return RealArray4(nvar, nk + dk, nj + dj, ni + di);
        };
        cons_ = make(ncons, 0, 0, 0, true);
        cons0_ = make(ncons, 0, 0, 0, true);
        dudt_ = make(ncons, 0, 0, 0, false);
        derived_ = make(nder, 0, 0, 0, true);
        flux_[0] = make(ncons, 0, 0, 1, false);
        if (shape_.ndim >= 2)
            flux_[1] = make(ncons, 0, 1, 0, false);
        if (shape_.ndim >= 3)
            flux_[2] = make(ncons, 1, 0, 0, false);
    }

    registerAllocation(ctx, "mesh/cons", cell_bytes(ncons, 0, 0, 0));
    registerAllocation(ctx, "mesh/cons0", cell_bytes(ncons, 0, 0, 0));
    registerAllocation(ctx, "mesh/dudt", cell_bytes(ncons, 0, 0, 0));
    registerAllocation(ctx, "mesh/derived", cell_bytes(nder, 0, 0, 0));
    registerAllocation(ctx, "mesh/flux", cell_bytes(ncons, 0, 0, 1));
    if (shape_.ndim >= 2)
        registerAllocation(ctx, "mesh/flux", cell_bytes(ncons, 0, 1, 0));
    if (shape_.ndim >= 3)
        registerAllocation(ctx, "mesh/flux", cell_bytes(ncons, 1, 0, 0));
    if (account_recon_) {
        // The paper's auxiliary-variable term (§VIII-B): two face states
        // per direction at full block resolution. Accounted only: the
        // flux kernel reconstructs into per-chunk row scratch.
        registerAllocation(
            ctx, "mesh/recon",
            static_cast<std::size_t>(2 * shape_.ndim) *
                cell_bytes(ncons, 0, 0, 0));
    }
}

} // namespace vibe
