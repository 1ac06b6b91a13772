/**
 * @file calibration.hpp
 * Calibration constants tying the mechanistic performance model to the
 * paper's measured numbers.
 *
 * The model is mechanistic where mechanism is knowable from public
 * hardware specs (roofline bounds, occupancy arithmetic, message
 * counting) and *calibrated* where the paper measured software
 * inefficiency that cannot be derived from first principles (Kokkos
 * reduction throughput, Open MPI per-probe cost, the IPC leak of
 * open-mpi/ompi#12849). Every constant below names the paper anchor it
 * was fitted against; README.md's "Paper figure map" names the bench
 * that prints the paper-vs-model comparison for each figure.
 */
#pragma once

namespace vibe {

/** Host-side serial cost table (seconds per recorded item). */
struct SerialCosts
{
    // Anchor: GPU-1R, mesh 128 / block 8 / 3 levels spends ~2659 s of
    // 2782 s in serial host code (Fig. 9), i.e. ~6.5 s/cycle over the
    // ~400-cycle paper run assumed in kPaperRunCycles.
    double treeUpdateFlags = 0.10e-6;   ///< Per leaf, per tree update.
    double treeUpdateChanges = 30e-6;   ///< Per refined/merged node.
    double blockListRebuild = 0.5e-6;   ///< Per block, per restructure.
    double neighborSearch = 0.8e-6;     ///< Per neighbor link.
    double bufferCacheKeys = 0.40e-6;   ///< Per key x log2(n): sort+shuffle.
    double bufferCacheMetadata = 3.2e-6; ///< Per channel (ViewOfViews fill).
    double recvBufPrepare = 0.6e-6;     ///< Per expected buffer.
    double boundBufMetadata = 1.6e-6;   ///< Per channel, per exchange.
    double recvPoll = 1.1e-6;           ///< Per MPI_Iprobe/Test pair.
    double stringLookup = 0.25e-6;      ///< Per variable string compare.
    double refineCheck = 5.0e-6;        ///< Per block (CheckAllRefinement).
    double dtReduce = 0.5e-6;           ///< Per block-local min fold.
    double lbPartition = 0.3e-6;        ///< Per block, per LB pass.

    // Messaging (§II-D). Anchor: ReceiveBoundBufs grows 3.6x from
    // B16 -> B8 on CPU (§IV-B) — message-count dominated.
    double msgLocalLatency = 1.3e-6;
    double msgRemoteLatency = 2.5e-6;
    double localCopyGBs = 25.0;        ///< Same-rank buffer memcpy.
    double remoteIntraNodeGBs = 18.0;  ///< Shared-memory / IPC transport.
    double remoteInterNodeGBs = 12.5;  ///< NIC bandwidth (Section V).
    double interNodeExtraLatency = 2.0e-6;

    // Collectives. Anchor: single-GPU FOM peaks near 12 ranks/GPU and
    // degrades beyond (Fig. 8); CPU serial time only creeps up at
    // 72-96 ranks (Fig. 7).
    double collectiveBaseCpu = 20e-6;
    double collectivePerRankCpu = 1.5e-6;
    double collectiveBaseGpu = 60e-6;
    double collectivePerRankGpu = 12e-6;

    /**
     * Rank-scaling saturation: distributed serial work divides by
     * effective ranks R/(1 + R/rankSaturation), capturing the load
     * imbalance and shared-resource contention that flatten the Fig. 7
     * serial curve past ~64 cores.
     */
    double rankSaturation = 64.0;
    /** GPU-host processes contend harder (driver serialization, MPS):
     *  saturation is much earlier, putting the Fig. 8 knee near
     *  12 ranks/GPU once collectives start growing. */
    double gpuRankSaturation = 9.0;

    /** Extra host->device copy per metadata item on GPU targets
     *  (RebuildBufferCache anchor: ~13.3% of GPU-1R runtime). */
    double gpuMetadataH2d = 8.0e-6;
};

/** GPU kernel-efficiency calibration (per kernel, see kernel_model). */
struct GpuKernelTuning
{
    /** Fraction of FP64 peak reachable by well-shaped kernels. */
    double computeEfficiencyCap = 0.85;
    /** Occupancy at which HBM bandwidth saturates (streaming). */
    double bwSaturationOccupancy = 0.25;
    /** Per-launch overhead (driver + Kokkos dispatch), amortized by
     *  Parthenon's block-pack batching (~8 blocks/launch of the
     *  raw 5-6 us CUDA launch cost). */
    double launchOverhead = 0.8e-6;
    /** Minimum kernel duration (tail/teardown). */
    double minKernelTime = 3.0e-6;
};

/** CPU kernel-efficiency calibration. */
struct CpuKernelTuning
{
    /** Achievable fraction of AVX-512 FP64 peak in WENO-like loops.
     *  Anchor: CPU 96R total ~325 s for mesh 128 / B8 / L3 (Fig. 11). */
    double vectorEfficiency = 0.022;
    /** Innermost extent at which vector efficiency saturates. */
    double vectorSaturationWidth = 16.0;
    /** Per-parallel-loop dispatch overhead (OpenMP-ish). */
    double loopOverhead = 1.5e-6;
    /** Per-core share of DRAM bandwidth actually achieved by the
     *  block-sparse access pattern (§VII-A sparsity, CPU side). */
    double perCoreBandwidthShare = 0.45;
};

/** Device/host memory model (Fig. 10, OOM walls). */
struct MemoryModelConstants
{
    // Anchor: 1 GPU x 12 ranks reaches 75.5 GB for mesh 128 / block 8 /
    // 3 levels (§IV-E); 16 ranks OOMs (Fig. 8).
    double gpuDriverBasePerRankGB = 0.45; ///< CUDA ctx + Open MPI SMSC.
    double cpuDriverBasePerRankGB = 0.35;
    /** open-mpi/ompi#12849: IPC cache leak per remote message. */
    double ipcLeakBytesPerRemoteMsg = 1400.0;
    /** Registered send+recv staging per remote wire byte. */
    double bufferRegistrationFactor = 2.0;
    /** Assumed paper production-run length for cumulative terms. */
    double paperRunCycles = 400.0;
};

/** One place to grab all tunables. */
struct Calibration
{
    SerialCosts serial;
    GpuKernelTuning gpu;
    CpuKernelTuning cpu;
    MemoryModelConstants memory;
};

} // namespace vibe
