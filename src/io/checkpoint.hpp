/**
 * @file checkpoint.hpp
 * Versioned binary checkpoints of the full experiment state.
 *
 * A checkpoint captures everything a bitwise-identical continuation
 * needs: the block-tree leaf set (logical locations in Z/gid order),
 * cycle and time, per-block creation cycles, and every block's
 * conserved + derived arrays (ghosts included) via the same
 * MeshBlock::serializeState payload block migration uses. Scratch
 * (cons0/flux) is rebuilt every stage and never travels;
 * dt is re-estimated at the top of every cycle; the taggers are
 * stateless given (time, cycle) — so the image is closed under restart
 * and RNG-free at checkpoint boundaries.
 *
 * Rank ownership is deliberately NOT captured: restore re-shards the
 * blocks through the PR-5 ownership/materialize/migration path, which
 * is what lets a snapshot written at R ranks resume at any rank or
 * thread count. Per-rank shard sections are gathered through the
 * RankWorld collectives in gid order, so the encoded bytes are
 * identical regardless of the writer's num_ranks/num_threads.
 *
 * On-disk layout (native endianness; single-platform format):
 *
 *   [ magic "VIBECKPT" (8) ][ version u32 ][ payload size u64 ]
 *   [ payload crc32 u32 ][ payload... ]
 *
 * The CRC covers the payload only, so any flipped byte is reported as
 * a checksum mismatch naming the expected and found values, while a
 * damaged preamble is reported as a magic/version/truncation error —
 * each naming the file.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mesh/logical_location.hpp"
#include "util/logging.hpp"

namespace vibe {

class Mesh;
class RankWorld;

/**
 * Deterministic restore failure: the checkpoint image cannot be applied
 * to this run's configuration (package/mesh/block-shape/variable
 * mismatch, inconsistent tree, ...). Retrying the attempt with the same
 * image fails identically, so the supervised recovery loop rethrows
 * these immediately instead of burning the restart budget on them.
 */
class RestoreError : public FatalError
{
  public:
    using FatalError::FatalError;
};

/** fatal() variant for restore validation: throws RestoreError. */
template <typename... Args>
[[noreturn]] void
restoreFatal(Args&&... args)
{
    throw RestoreError(detail::concat(std::forward<Args>(args)...));
}

/** One block's slice of a checkpoint, in gid (Z-order) position. */
struct CheckpointBlockRecord
{
    LogicalLocation loc;
    std::int64_t createdCycle = 0;
    /**
     * Load-balance cost estimate (format v2+). Travels in the owner's
     * gathered frame — replicas may hold estimates that are stale
     * between cost gathers, and only the owner's is current — so a
     * restored run resumes with warm measured costs instead of
     * re-learning them. 0 in images written before v2; restore keeps
     * the block's default then.
     */
    double cost = 0;
    /** MeshBlock::serializeState payload (cons + derived, ghosts). */
    std::vector<double> state;
};

/** Decoded (or to-be-encoded) checkpoint contents. */
struct CheckpointImage
{
    // Mesh/package identity, validated against the restoring run.
    int ndim = 3;
    int nx1 = 0, nx2 = 0, nx3 = 0;
    int blockNx1 = 0, blockNx2 = 0, blockNx3 = 0;
    int numGhost = 0;
    int amrLevels = 0;
    int ncompConserved = 0;
    int ncompDerived = 0;
    std::string package;

    std::int64_t cycle = 0;
    double time = 0;

    /** Blocks in gid order (the tree's Z-order after renumbering). */
    std::vector<CheckpointBlockRecord> blocks;
};

/**
 * Checkpoint file format version this build writes and accepts.
 * v2 added the per-block load-balance cost to each block record.
 */
inline constexpr std::uint32_t kCheckpointVersion = 2;

/**
 * Capture the current experiment state as a collective: every rank
 * serializes its owned blocks, the shards are all-gathered through
 * `world`, and each participant assembles the identical gid-ordered
 * image. On a classic (non-sharded) mesh the gather is a pass-through
 * and the image is built from the local blocks directly — the encoded
 * bytes match a sharded capture of the same state exactly.
 */
CheckpointImage captureCheckpoint(const Mesh& mesh, RankWorld& world,
                                  const std::string& package_name,
                                  std::int64_t cycle, double time);

/** Encode an image into the on-disk byte layout (preamble + payload). */
std::vector<std::uint8_t> encodeCheckpoint(const CheckpointImage& image);

/**
 * Decode checkpoint bytes, validating magic, version, size and CRC.
 * `origin` names the source (file path) in every error message.
 * Throws FatalError with an actionable message on any mismatch.
 */
CheckpointImage decodeCheckpoint(const std::vector<std::uint8_t>& bytes,
                                 const std::string& origin);

/** Reads and validates checkpoint files. */
class CheckpointReader
{
  public:
    /**
     * Read and decode `path`. Rejects missing, truncated, corrupt and
     * version-mismatched files with errors naming the file, the
     * expected/found magic and version, and the expected/found CRC.
     */
    static CheckpointImage read(const std::string& path);
};

} // namespace vibe
