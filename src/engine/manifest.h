/// \file manifest.h
/// Checkpoint/restart for long sweeps: the run manifest is a sweep-spec
/// fingerprint plus a (grid point, replica) completion ledger, appended to
/// alongside the sink output. An interrupted run_sweep resumes by replaying
/// recorded replicas and computing only the missing ones — with the
/// splitmix64 replica sharding, the resumed run restarts each partially
/// complete point at the exact replica boundary and its output is
/// bit-identical to an uninterrupted run at any thread count (docs/ENGINE.md
/// pins the contract).
///
/// Safety rules:
///   - The ledger grows through engine::append_log: the header is published
///     atomically once, and each record is one whole line carrying its own
///     FNV-1a digest. A kill mid-append leaves at most one torn final line,
///     which parse_manifest drops; any earlier bad line is corruption.
///   - A manifest whose fingerprint does not match the sweep it is resumed
///     against (edited axes, different seed or repetitions, an engine whose
///     output semantics changed) hard-fails with manifest_error rather than
///     silently mixing rows from two different experiments.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/append_log.h"
#include "engine/error.h"
#include "engine/sweep.h"

namespace manhattan::engine {

/// Raised on a truncated, corrupt or mismatched manifest. A state error in
/// the engine taxonomy (engine/error.h): durable state disagrees with what
/// this binary expects, and no retry can fix that. The message names the
/// file and what disagreed. (Manifest *I/O* failures raise engine::error
/// with class io instead — those may be transient and are retried.)
class manifest_error : public error {
 public:
    explicit manifest_error(const std::string& what) : error(errc::state, what) {}
};

/// Bumped whenever the engine's per-replica output semantics change (row
/// aggregation, seeding scheme, recorded fields): a manifest written by an
/// incompatible binary must not resume, so this tag feeds the fingerprint.
inline constexpr std::uint64_t engine_output_version = 1;

/// The scalars one completed replica contributes to its sweep row — exactly
/// what the sweep driver aggregates, so replaying a record reproduces the
/// row bit-for-bit (wall_seconds included: a replayed row reports the wall
/// time of the run that actually computed it).
struct replica_stat {
    double time = 0.0;                  ///< flooding time (steps)
    bool completed = false;             ///< all agents informed
    std::optional<std::uint64_t> cz_step;  ///< Central-Zone informing step
    double suburb_diameter = 0.0;
    double wall_seconds = 0.0;
    std::vector<double> message_times;  ///< per-message flooding time
    std::vector<std::uint8_t> message_completed;

    friend bool operator==(const replica_stat&, const replica_stat&) = default;
};

/// One ledger entry: replica \p replica of grid point \p point completed
/// with \p stat. Records are sparse (replicas finish out of order); the
/// resume path skips exactly the recorded pairs.
struct replica_record {
    std::size_t point = 0;
    std::size_t replica = 0;
    replica_stat stat;

    friend bool operator==(const replica_record&, const replica_record&) = default;
};

/// The on-disk checkpoint state of one run_sweep call.
struct run_manifest {
    /// Version of the text format (the header's "manhattan-manifest vN").
    /// The fingerprint does not hash it: sweep_fingerprint keeps hashing the
    /// v1 constant, so every pinned fingerprint and cache key stays valid.
    static constexpr std::uint32_t format_version = 2;

    std::uint64_t fingerprint = 0;  ///< sweep_fingerprint of the owning sweep
    std::size_t points = 0;         ///< expanded grid size
    std::size_t repetitions = 0;    ///< replicas per point
    std::vector<replica_record> records;  ///< completion order, sparse

    /// records indexed as table[point][replica] (nullptr = not completed).
    /// Throws manifest_error on an out-of-range or duplicate record.
    [[nodiscard]] std::vector<std::vector<const replica_record*>> by_point() const;

    /// Every (point, replica) pair recorded?
    [[nodiscard]] bool complete() const;

    friend bool operator==(const run_manifest&, const run_manifest&) = default;
};

/// Fingerprint of a fully-expanded sweep: a hash over every output-affecting
/// field of every grid point — the fields core::for_each_field visits
/// (core/scenario_fields.h) — plus the replica count and
/// engine_output_version. intra_threads is deliberately excluded — the
/// determinism contract makes it (like --threads) a wall-clock-only knob, so
/// resuming at a different thread count is legal.
[[nodiscard]] std::uint64_t sweep_fingerprint(std::span<const sweep_point> points,
                                              std::size_t repetitions);

/// Convenience overload: expand the spec, then fingerprint it.
[[nodiscard]] std::uint64_t sweep_fingerprint(const sweep_spec& spec);

/// Canonical 16-hex-char lower-case rendering of a fingerprint — the form
/// the manifest header, the result cache's file names, and every mismatch
/// diagnostic use.
[[nodiscard]] std::string fingerprint_hex(std::uint64_t fingerprint);

/// Diagnose a fingerprint mismatch: the first output-affecting field that
/// differs between two expanded sweeps, as "repetitions (3 vs 5)",
/// "point 2: radius (<16 hex digits> vs <16 hex digits>)" or
/// "point 0: topology (absent vs present)" — empty when the expansions are
/// identical (then only engine_output_version can explain a digest
/// difference). Compares exactly the words sweep_fingerprint hashes, named
/// by their dotted field path ("topology.blocked.size", "trace.x").
[[nodiscard]] std::string first_spec_difference(std::span<const sweep_point> a,
                                                std::size_t repetitions_a,
                                                std::span<const sweep_point> b,
                                                std::size_t repetitions_b);

/// Serialize / parse the manifest text format (see docs/ENGINE.md). Doubles
/// are stored as IEEE-754 bit patterns, so a round trip is always exact.
/// The parser drops a final line that is unterminated or fails its digest —
/// the torn tail a kill mid-append leaves — and throws manifest_error on a
/// bad header or any earlier bad line.
[[nodiscard]] std::string serialize_manifest(const run_manifest& manifest);
[[nodiscard]] run_manifest parse_manifest(const std::string& text);

/// Atomic save (see atomic_write_file). Throws engine::error (class io) on
/// an I/O failure.
void save_manifest(const run_manifest& manifest, const std::string& path);

/// Load and validate a manifest file (parse_manifest's torn-tail rule).
/// Throws manifest_error on a missing or corrupt file.
[[nodiscard]] run_manifest load_manifest(const std::string& path);

/// Reduce one scenario run's outcome (which carries n-sized vectors) to the
/// scalars its sweep row aggregates — the ledger's replica_stat. The single
/// definition run_sweep and the fabric workers share, so a record is
/// bit-identical no matter which process computed it.
[[nodiscard]] replica_stat reduce_outcome(const core::scenario_outcome& out);

/// Aggregate one grid point's replica stats into its sweep row — the exact
/// reduction run_sweep performs, exposed so a resumed, merged or fabric-
/// drained sweep re-derives rows bit-identical to an uninterrupted run
/// (stats must be in replica order, one per repetition).
[[nodiscard]] sweep_row aggregate_sweep_row(const sweep_point& point,
                                            std::span<const replica_stat> stats);

/// Thread-safe checkpoint writer for one run_sweep call: workers record()
/// replicas as they complete, and each record's line is appended to the
/// ledger file in one write() before record() returns (engine::append_log;
/// its file comment says when it syncs and what a crash loses). flush()
/// publishes whatever a failed publish left pending and syncs the whole
/// tail (run_sweep calls it once the workers drained — also on the error
/// path, so a failed sweep keeps its completed work; a fabric worker calls
/// it before it releases a batch). A resume computes again whatever a
/// crash lost.
///
/// The first publish of an adopted ledger (one built from a manifest that
/// already holds records: a resume, a restarted fabric owner) rewrites it
/// atomically, so it never appends after a torn tail left by a kill.
///
/// Failure handling (engine::append_log's): each publish retries transient
/// I/O errors with exponential backoff. A mid-run publish that still fails
/// is *reported and skipped* — the log keeps the records in memory and the
/// next publish writes them too, so a recovered disk loses nothing and a
/// broken one never aborts the sweep mid-flight. Only flush() (the final
/// publish, after the workers drained) surfaces the failure.
///
/// Fault injection (engine/fault.h): record() hits site "ledger.record" —
/// a crash rule publishes the ledger first, so the on-disk record count is
/// exactly the fatal hit number (the CI resume smoke's SIGKILL) — and every
/// publish hits "ledger.publish" inside its retry loop.
class checkpoint_ledger {
 public:
    checkpoint_ledger(run_manifest manifest, std::string path);

    /// Record one completed replica (any worker thread).
    void record(std::size_t point, std::size_t replica, replica_stat stat);

    /// Publish every unpublished record (after the workers drained). Throws
    /// engine::error (class io) when the publish fails even after retries.
    void flush();

    /// Driver-only (after workers drained): the accumulated manifest.
    [[nodiscard]] const run_manifest& manifest() const noexcept { return manifest_; }

    /// Driver-only (after workers drained): the ledger file's log.
    [[nodiscard]] const append_log& log() const noexcept { return log_; }

 private:
    /// Hand records [published_, end) to the log under mutex_. \p flush:
    /// sync and rethrow a persistent publish failure (flush) vs
    /// report-and-continue (worker-side checkpoints).
    void publish_locked(bool flush);

    std::mutex mutex_;
    run_manifest manifest_;
    append_log log_;
    std::size_t published_ = 0;  ///< records handed to the log
};

}  // namespace manhattan::engine
