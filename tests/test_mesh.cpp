/**
 * @file test_mesh.cpp
 * Tests for variables, MeshBlock allocation/accounting, Mesh
 * construction, geometry, neighbor lists and AMR restructuring.
 */
#include <gtest/gtest.h>

#include <string>

#include "exec/kernel_profiler.hpp"
#include "exec/memory_tracker.hpp"
#include "mesh/mesh.hpp"
#include "mesh/variable.hpp"
#include "pkg/burgers_package.hpp"
#include "util/logging.hpp"

namespace vibe {
namespace {

// --- VariableRegistry ---

TEST(VariableRegistry, BurgersLayout)
{
    auto reg = makeBurgersRegistry(8);
    EXPECT_EQ(reg.ncompConserved(), 11); // 3 + num_scalar (paper §VIII-B)
    EXPECT_EQ(reg.ncompDerived(), 1);
    EXPECT_EQ(reg.offsetOf("u"), 0);
    EXPECT_EQ(reg.offsetOf("q"), 3);
    EXPECT_EQ(reg.offsetOf("d"), 0); // derived pack
}

TEST(VariableRegistry, PackByFlags)
{
    auto reg = makeBurgersRegistry(4);
    const auto& pack = reg.packByFlags(kIndependent | kWithFluxes);
    EXPECT_EQ(pack.ncompTotal, 7);
    ASSERT_EQ(pack.entries.size(), 2u);
    EXPECT_EQ(pack.entries[0].name, "u");
    EXPECT_EQ(pack.entries[1].offset, 3);
}

TEST(VariableRegistry, PackCacheAvoidsRescan)
{
    auto reg = makeBurgersRegistry(4);
    reg.packByFlags(kIndependent);
    const auto compares = reg.stringCompares();
    reg.packByFlags(kIndependent); // cached
    EXPECT_EQ(reg.stringCompares(), compares);
    EXPECT_EQ(reg.lookupCalls(), 2u);
}

TEST(VariableRegistry, ByNameCountsCompares)
{
    auto reg = makeBurgersRegistry(4);
    reg.byName("q");
    EXPECT_GE(reg.stringCompares(), 2u);
    EXPECT_THROW(reg.byName("nope"), FatalError);
}

TEST(VariableRegistry, RejectsDuplicatesAndBadFlags)
{
    VariableRegistry reg;
    reg.add({"a", 1, kIndependent});
    EXPECT_THROW(reg.add({"a", 1, kIndependent}), FatalError);
    EXPECT_THROW(reg.add({"b", 1, kIndependent | kDerived}), PanicError);
    EXPECT_THROW(reg.add({"c", 0, kIndependent}), PanicError);
}

// --- BlockShape ---

TEST(BlockShape, IndexHelpers3D)
{
    BlockShape s;
    s.ndim = 3;
    s.nx1 = s.nx2 = s.nx3 = 16;
    s.ng = 4;
    EXPECT_EQ(s.ni(), 24);
    EXPECT_EQ(s.is(), 4);
    EXPECT_EQ(s.ie(), 19);
    EXPECT_EQ(s.interiorCells(), 4096);
    EXPECT_EQ(s.totalCells(), 24 * 24 * 24);
}

TEST(BlockShape, IndexHelpers1D)
{
    BlockShape s;
    s.ndim = 1;
    s.nx1 = 8;
    s.ng = 4;
    EXPECT_EQ(s.nj(), 1);
    EXPECT_EQ(s.nk(), 1);
    EXPECT_EQ(s.js(), 0);
    EXPECT_EQ(s.je(), 0);
    EXPECT_EQ(s.interiorCells(), 8);
}

// --- MeshConfig ---

TEST(MeshConfig, ValidatesDivisibility)
{
    MeshConfig config;
    config.nx1 = config.nx2 = config.nx3 = 60;
    config.blockNx1 = config.blockNx2 = config.blockNx3 = 16;
    EXPECT_THROW(config.validate(), FatalError);
}

TEST(MeshConfig, FromParams)
{
    auto pin = ParameterInput::fromString(R"(
<mesh>
nx1 = 64
<meshblock>
nx1 = 16
<amr>
num_levels = 2
)");
    auto config = MeshConfig::fromParams(pin);
    EXPECT_EQ(config.nx1, 64);
    EXPECT_EQ(config.nx2, 64); // defaults to nx1
    EXPECT_EQ(config.blockNx1, 16);
    EXPECT_EQ(config.amrLevels, 2);
    EXPECT_EQ(config.treeConfig().maxLevel, 1);
    EXPECT_EQ(config.nbx1(), 4);
}

// --- MeshBlock allocation & memory accounting ---

struct MeshFixtureBits
{
    KernelProfiler profiler;
    MemoryTracker tracker;
    VariableRegistry registry = makeBurgersRegistry(8);
};

TEST(MeshBlock, RealModeAllocatesArrays)
{
    MeshFixtureBits bits;
    ExecContext ctx(ExecMode::Execute, &bits.profiler, &bits.tracker);
    MeshConfig config;
    config.nx1 = config.nx2 = config.nx3 = 16;
    config.blockNx1 = config.blockNx2 = config.blockNx3 = 8;
    config.amrLevels = 1;
    Mesh mesh(config, bits.registry, ctx);
    MeshBlock& block = mesh.block(0);
    EXPECT_TRUE(block.hasData());
    EXPECT_EQ(block.cons().nvar(), 11);
    EXPECT_EQ(block.cons().ni(), 16); // 8 + 2*4 ghosts
    // Fluxes cover the interior faces only: 8 + 1 along their direction.
    EXPECT_EQ(block.flux(0).ni(), 9);
    EXPECT_EQ(block.flux(2).nk(), 9);
    EXPECT_GT(bits.tracker.currentBytes(), 0u);
}

TEST(MeshBlock, InteriorScratchShapes)
{
    // cons0 and the face fluxes cover the interior only, indexed from
    // the first interior cell; cons and derived keep their ghosts, and
    // dudt is accounted but not allocated. Real bytes per B16 block
    // with 7 components, by dimension; the accounted (ghosted)
    // footprint stays the 3-D 4,852,224 B.
    const std::size_t real_bytes[3] = {3384u, 81664u, 1845248u};
    for (int ndim = 1; ndim <= 3; ++ndim) {
        KernelProfiler profiler;
        MemoryTracker tracker;
        const VariableRegistry registry = makeBurgersRegistry(4);
        ExecContext ctx(ExecMode::Execute, &profiler, &tracker);
        MeshConfig config;
        config.ndim = ndim;
        config.nx1 = config.nx2 = config.nx3 = 32; // 2^ndim blocks
        config.amrLevels = 1;
        config.optimizeAuxMemory = true;
        Mesh mesh(config, registry, ctx);
        ASSERT_EQ(mesh.numBlocks(), std::size_t{1} << ndim);
        const MeshBlock& block = mesh.block(0);
        const BlockShape s = block.shape();
        const int nx = 16, ny = ndim >= 2 ? 16 : 1, nz = ndim >= 3 ? 16 : 1;
        const auto expect_shape = [&](const RealArray4& a, int ek, int ej,
                                      int ei, const char* what) {
            SCOPED_TRACE(std::string(what) + ", " + std::to_string(ndim) +
                         "-D");
            EXPECT_EQ(a.nvar(), 7);
            EXPECT_EQ(a.nk(), ek);
            EXPECT_EQ(a.nj(), ej);
            EXPECT_EQ(a.ni(), ei);
            EXPECT_EQ(a.origin().k, s.ks());
            EXPECT_EQ(a.origin().j, s.js());
            EXPECT_EQ(a.origin().i, s.is());
        };
        expect_shape(block.cons0(), nz, ny, nx, "cons0");
        expect_shape(block.flux(0), nz, ny, nx + 1, "flux(0)");
        if (ndim >= 2)
            expect_shape(block.flux(1), nz, ny + 1, nx, "flux(1)");
        else
            EXPECT_TRUE(block.flux(1).empty());
        if (ndim >= 3)
            expect_shape(block.flux(2), nz + 1, ny, nx, "flux(2)");
        else
            EXPECT_TRUE(block.flux(2).empty());
        EXPECT_EQ(block.cons().ni(), s.ni());
        EXPECT_EQ(block.cons().origin().i, 0);

        std::size_t bytes = block.cons().sizeBytes() +
                            block.cons0().sizeBytes() +
                            block.derived().sizeBytes();
        for (int d = 0; d < 3; ++d)
            bytes += block.flux(d).sizeBytes();
        EXPECT_EQ(bytes, real_bytes[ndim - 1]) << ndim << "-D";
        if (ndim == 3) {
            EXPECT_EQ(block.dataBytes(), 4852224u);
            EXPECT_EQ(tracker.labelBytes("mesh/cons0") / mesh.numBlocks(),
                      7u * 24u * 24u * 24u * sizeof(double));
            EXPECT_EQ(tracker.labelBytes("mesh/dudt") / mesh.numBlocks(),
                      7u * 24u * 24u * 24u * sizeof(double));
        }
    }
}

TEST(MeshBlock, VirtualModeAccountsSameBytes)
{
    MeshFixtureBits real_bits, virt_bits;
    MeshConfig config;
    config.nx1 = config.nx2 = config.nx3 = 16;
    config.blockNx1 = config.blockNx2 = config.blockNx3 = 8;
    config.amrLevels = 1;
    {
        ExecContext ctx(ExecMode::Execute, &real_bits.profiler,
                        &real_bits.tracker);
        Mesh mesh(config, real_bits.registry, ctx);
        ExecContext vctx(ExecMode::Count, &virt_bits.profiler,
                         &virt_bits.tracker);
        Mesh vmesh(config, virt_bits.registry, vctx);
        EXPECT_FALSE(vmesh.block(0).hasData());
        EXPECT_TRUE(vmesh.block(0).cons().empty());
        EXPECT_EQ(real_bits.tracker.currentBytes(),
                  virt_bits.tracker.currentBytes());
        EXPECT_EQ(real_bits.tracker.currentBytes(),
                  virt_bits.tracker.peakBytes());
    }
    // Blocks released on mesh destruction.
    EXPECT_EQ(real_bits.tracker.currentBytes(), 0u);
    EXPECT_EQ(virt_bits.tracker.currentBytes(), 0u);
}

TEST(MeshBlock, AuxReconMatchesPaperFormulaPerBlock)
{
    // §VIII-B: per block, aux = B x 6 x (nx1+2ng)^3 x (3+num_scalar)
    // with nx1 = 8, ng = 4, num_scalar = 8 -> 2,162,688 bytes.
    MeshFixtureBits bits;
    ExecContext ctx(ExecMode::Count, &bits.profiler, &bits.tracker);
    MeshConfig config;
    config.nx1 = config.nx2 = config.nx3 = 16;
    config.blockNx1 = config.blockNx2 = config.blockNx3 = 8;
    config.amrLevels = 1;
    Mesh mesh(config, bits.registry, ctx);
    EXPECT_EQ(bits.tracker.labelBytes("mesh/recon") / mesh.numBlocks(),
              8u * 6u * 16u * 16u * 16u * 11u);
}

TEST(MeshBlock, OptimizedLayoutDropsPerBlockRecon)
{
    MeshFixtureBits bits;
    ExecContext ctx(ExecMode::Count, &bits.profiler, &bits.tracker);
    MeshConfig config;
    config.nx1 = config.nx2 = config.nx3 = 64;
    config.blockNx1 = config.blockNx2 = config.blockNx3 = 8;
    config.amrLevels = 1;
    config.optimizeAuxMemory = true;
    Mesh mesh(config, bits.registry, ctx);
    EXPECT_EQ(bits.tracker.labelBytes("mesh/recon"), 0u);
    EXPECT_GT(bits.tracker.labelBytes("mesh/recon_pool"), 0u);
    // Pool is independent of block count: 512 blocks share it, so it
    // is far below the per-block layout's footprint.
    EXPECT_LT(bits.tracker.labelBytes("mesh/recon_pool"),
              512u * 8u * 6u * 16u * 16u * 16u * 11u);
}

// --- Mesh geometry & neighbors ---

TEST(Mesh, GeometryPartitionsDomain)
{
    MeshFixtureBits bits;
    ExecContext ctx(ExecMode::Count, &bits.profiler, &bits.tracker);
    MeshConfig config;
    config.nx1 = config.nx2 = config.nx3 = 32;
    config.blockNx1 = config.blockNx2 = config.blockNx3 = 16;
    config.amrLevels = 1;
    Mesh mesh(config, bits.registry, ctx);
    ASSERT_EQ(mesh.numBlocks(), 8u);
    const auto geom = mesh.geometryFor({0, 1, 0, 0});
    EXPECT_DOUBLE_EQ(geom.x1min, 0.5);
    EXPECT_DOUBLE_EQ(geom.x1max, 1.0);
    EXPECT_DOUBLE_EQ(geom.dx1, 0.5 / 16);
    // Finer level halves the extent.
    const auto fine = mesh.geometryFor({1, 2, 0, 0});
    EXPECT_DOUBLE_EQ(fine.x1min, 0.5);
    EXPECT_DOUBLE_EQ(fine.x1max, 0.75);
}

TEST(Mesh, CellCentersNest)
{
    MeshFixtureBits bits;
    ExecContext ctx(ExecMode::Count, &bits.profiler, &bits.tracker);
    MeshConfig config;
    config.nx1 = config.nx2 = config.nx3 = 16;
    config.blockNx1 = config.blockNx2 = config.blockNx3 = 8;
    config.amrLevels = 2;
    Mesh mesh(config, bits.registry, ctx);
    const auto coarse = mesh.geometryFor({0, 0, 0, 0});
    const auto fine = mesh.geometryFor({1, 0, 0, 0});
    // Two fine cells tile each coarse cell exactly.
    EXPECT_DOUBLE_EQ(coarse.dx1, 2 * fine.dx1);
    EXPECT_NEAR(coarse.x1c(0), 0.5 * (fine.x1c(0) + fine.x1c(1)), 1e-15);
}

TEST(Mesh, ZOrderGidsMatchTree)
{
    MeshFixtureBits bits;
    ExecContext ctx(ExecMode::Count, &bits.profiler, &bits.tracker);
    MeshConfig config;
    config.nx1 = config.nx2 = config.nx3 = 32;
    config.blockNx1 = config.blockNx2 = config.blockNx3 = 8;
    config.amrLevels = 1;
    Mesh mesh(config, bits.registry, ctx);
    const auto order = mesh.tree().leavesZOrder();
    for (std::size_t g = 0; g < mesh.numBlocks(); ++g)
        EXPECT_EQ(mesh.block(static_cast<int>(g)).loc(), order[g]);
}

TEST(Mesh, NeighborListsMatchTreeCounts)
{
    MeshFixtureBits bits;
    ExecContext ctx(ExecMode::Count, &bits.profiler, &bits.tracker);
    MeshConfig config;
    config.nx1 = config.nx2 = config.nx3 = 32;
    config.blockNx1 = config.blockNx2 = config.blockNx3 = 8;
    config.amrLevels = 1;
    Mesh mesh(config, bits.registry, ctx);
    for (const auto& block : mesh.blocks())
        EXPECT_EQ(mesh.neighbors(block->gid()).size(), 26u);
    EXPECT_EQ(mesh.totalNeighborLinks(), 26u * mesh.numBlocks());
}

TEST(Mesh, RestructureRefine)
{
    MeshFixtureBits bits;
    ExecContext ctx(ExecMode::Count, &bits.profiler, &bits.tracker);
    MeshConfig config;
    config.nx1 = config.nx2 = config.nx3 = 32;
    config.blockNx1 = config.blockNx2 = config.blockNx3 = 8;
    config.amrLevels = 2;
    Mesh mesh(config, bits.registry, ctx);
    const std::size_t before = mesh.numBlocks();

    RefinementFlagMap flags;
    flags[{0, 0, 0, 0}] = RefinementFlag::Refine;
    auto update = mesh.updateTree(flags);
    auto restructure = mesh.applyTreeUpdate(update, 5);

    EXPECT_EQ(mesh.numBlocks(), before - 1 + 8);
    ASSERT_EQ(restructure.refined.size(), 1u);
    EXPECT_EQ(restructure.refined[0].children.size(), 8u);
    for (MeshBlock* child : restructure.refined[0].children) {
        EXPECT_EQ(child->createdCycle(), 5);
        EXPECT_EQ(child->rank(),
                  restructure.refined[0].parent->rank());
    }
    // gids renumbered consecutively.
    for (std::size_t g = 0; g < mesh.numBlocks(); ++g)
        EXPECT_EQ(mesh.block(static_cast<int>(g)).gid(),
                  static_cast<int>(g));
}

TEST(Mesh, RestructureDerefine)
{
    MeshFixtureBits bits;
    ExecContext ctx(ExecMode::Count, &bits.profiler, &bits.tracker);
    MeshConfig config;
    config.nx1 = config.nx2 = config.nx3 = 32;
    config.blockNx1 = config.blockNx2 = config.blockNx3 = 8;
    config.amrLevels = 2;
    Mesh mesh(config, bits.registry, ctx);
    RefinementFlagMap flags;
    flags[{0, 0, 0, 0}] = RefinementFlag::Refine;
    mesh.applyTreeUpdate(mesh.updateTree(flags), 0);
    const std::size_t refined_count = mesh.numBlocks();

    RefinementFlagMap deref;
    for (int idx = 0; idx < 8; ++idx)
        deref[LogicalLocation{0, 0, 0, 0}.child(
            idx & 1, (idx >> 1) & 1, (idx >> 2) & 1)] =
            RefinementFlag::Derefine;
    auto restructure = mesh.applyTreeUpdate(mesh.updateTree(deref), 9);
    EXPECT_EQ(mesh.numBlocks(), refined_count - 8 + 1);
    ASSERT_EQ(restructure.derefined.size(), 1u);
    EXPECT_EQ(restructure.derefined[0].children.size(), 8u);
    EXPECT_EQ(restructure.derefined[0].parent->createdCycle(), 9);
}

TEST(Mesh, TrackerFollowsRestructure)
{
    MeshFixtureBits bits;
    ExecContext ctx(ExecMode::Count, &bits.profiler, &bits.tracker);
    MeshConfig config;
    config.nx1 = config.nx2 = config.nx3 = 32;
    config.blockNx1 = config.blockNx2 = config.blockNx3 = 8;
    config.amrLevels = 2;
    Mesh mesh(config, bits.registry, ctx);
    const std::size_t base_bytes = bits.tracker.currentBytes();
    const std::size_t per_block = base_bytes / mesh.numBlocks();

    RefinementFlagMap flags;
    flags[{0, 0, 0, 0}] = RefinementFlag::Refine;
    {
        auto restructure =
            mesh.applyTreeUpdate(mesh.updateTree(flags), 0);
        // Parent still alive inside the restructure record.
        EXPECT_EQ(bits.tracker.currentBytes(),
                  base_bytes + 8 * per_block);
    }
    // Parent released with the record.
    EXPECT_EQ(bits.tracker.currentBytes(), base_bytes + 7 * per_block);
}

TEST(Mesh, TotalInteriorCells)
{
    MeshFixtureBits bits;
    ExecContext ctx(ExecMode::Count, &bits.profiler, &bits.tracker);
    MeshConfig config;
    config.nx1 = config.nx2 = config.nx3 = 32;
    config.blockNx1 = config.blockNx2 = config.blockNx3 = 16;
    config.amrLevels = 1;
    Mesh mesh(config, bits.registry, ctx);
    EXPECT_EQ(mesh.totalInteriorCells(), 32 * 32 * 32);
}

TEST(Mesh, FindByLocation)
{
    MeshFixtureBits bits;
    ExecContext ctx(ExecMode::Count, &bits.profiler, &bits.tracker);
    MeshConfig config;
    config.nx1 = config.nx2 = config.nx3 = 32;
    config.blockNx1 = config.blockNx2 = config.blockNx3 = 16;
    config.amrLevels = 1;
    Mesh mesh(config, bits.registry, ctx);
    ASSERT_NE(mesh.find({0, 1, 1, 0}), nullptr);
    EXPECT_EQ(mesh.find({0, 1, 1, 0})->loc(),
              (LogicalLocation{0, 1, 1, 0}));
    EXPECT_EQ(mesh.find({1, 0, 0, 0}), nullptr);
}

} // namespace
} // namespace vibe
