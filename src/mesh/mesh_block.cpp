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
        // Structure only: the canonical byte footprint (load balancing
        // and the memory model need it on every replica), but nothing
        // allocated and nothing registered.
        accountFootprint(nullptr);
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
MeshBlock::accountFootprint(MemoryTracker* tracker)
{
    const int ncons = registry_->ncompConserved();
    const int nder = registry_->ncompDerived();
    const int ni = shape_.ni(), nj = shape_.nj(), nk = shape_.nk();
    // Every term over the ghosted box: Parthenon's device layout, the
    // footprint the memory model and Fig. 10 describe.
    const auto cell_bytes = [&](int nvar, int dk, int dj, int di) {
        return static_cast<std::size_t>(nvar) * (nk + dk) * (nj + dj) *
               (ni + di) * sizeof(double);
    };
    const auto account = [&](const char* label, std::size_t bytes) {
        data_bytes_ += bytes;
        if (tracker) {
            tracker->allocate(label, bytes);
            registered_.emplace_back(label, bytes);
        }
    };
    account("mesh/cons", cell_bytes(ncons, 0, 0, 0));
    account("mesh/cons0", cell_bytes(ncons, 0, 0, 0));
    account("mesh/dudt", cell_bytes(ncons, 0, 0, 0));
    account("mesh/derived", cell_bytes(nder, 0, 0, 0));
    account("mesh/flux", cell_bytes(ncons, 0, 0, 1));
    if (shape_.ndim >= 2)
        account("mesh/flux", cell_bytes(ncons, 0, 1, 0));
    if (shape_.ndim >= 3)
        account("mesh/flux", cell_bytes(ncons, 1, 0, 0));
    if (account_recon_) {
        // The paper's auxiliary-variable term (§VIII-B): two face states
        // per direction at full block resolution. Accounted only: the
        // flux kernel reconstructs into per-chunk row scratch.
        account("mesh/recon", static_cast<std::size_t>(2 * shape_.ndim) *
                                  cell_bytes(ncons, 0, 0, 0));
    }
}

void
MeshBlock::allocateAll(const ExecContext& ctx)
{
    if (mode_ == DataMode::Real) {
        const int ncons = registry_->ncompConserved();
        const int nder = registry_->ncompDerived();
        const int ni = shape_.ni(), nj = shape_.nj(), nk = shape_.nk();
        // Interior extents; RK scratch and face fluxes are never read
        // in the ghosts, so they cover the interior only and index it
        // from the first interior cell.
        const int nx = shape_.ie() - shape_.is() + 1;
        const int ny = shape_.je() - shape_.js() + 1;
        const int nz = shape_.ke() - shape_.ks() + 1;
        const Origin3 interior{shape_.ks(), shape_.js(), shape_.is()};
        // Pooled path: recycled storage, and buffers whose every cell
        // is written before it is read skip the clearing pass — cons0
        // (the stage-1 update copies cons into it) and the fluxes.
        // State-carrying arrays are zeroed in a single assign, so
        // results are bit-identical to the allocate-and-zero path.
        const auto make = [&](int nvar, int ek, int ej, int ei,
                              Origin3 origin, bool zero) {
            if (pool_) {
                const std::size_t count =
                    static_cast<std::size_t>(nvar) * ek * ej * ei;
                return RealArray4(nvar, ek, ej, ei, pool_->acquire(count),
                                  zero, origin);
            }
            return RealArray4(nvar, ek, ej, ei, origin);
        };
        cons_ = make(ncons, nk, nj, ni, {}, true);
        cons0_ = make(ncons, nz, ny, nx, interior, false);
        derived_ = make(nder, nk, nj, ni, {}, true);
        flux_[0] = make(ncons, nz, ny, nx + 1, interior, false);
        if (shape_.ndim >= 2)
            flux_[1] = make(ncons, nz, ny + 1, nx, interior, false);
        if (shape_.ndim >= 3)
            flux_[2] = make(ncons, nz + 1, ny, nx, interior, false);
    }

    accountFootprint(ctx.tracker());
}

} // namespace vibe
