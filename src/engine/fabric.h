/// \file fabric.h
/// Crash-tolerant multi-worker sweep fabric: several cooperating processes
/// drain one parameter sweep through a shared manifest directory, with
/// lease-based work claiming, stale-lease reclaim, and quarantine for work
/// that keeps failing. The single-process checkpoint/restart of
/// engine/manifest.h generalises here from "one ledger, one owner" to "one
/// spec, many owner ledgers" — docs/FABRIC.md pins the protocol.
///
/// Directory layout (`DIR` below):
///   sweep.spec               the fully-expanded sweep as one
///                            "manhattan-fabric v2" JSON document (the
///                            codec/json.h scenario codec: IEEE-754 bit
///                            patterns) + its
///                            fingerprint; written once by init_fabric,
///                            read-only after
///   leases/batch-<b>.lease   held claim on replica batch b (owner +
///                            attempts inside; mtime = heartbeat)
///   quarantine/pair-<p>-<r>  (point, replica) abandoned after repeated
///                            failures (reason inside)
///   quarantine/batch-<b>     batch abandoned after too many lease reclaims
///   ledger-<owner>.manifest  per-worker completion ledger (run_manifest
///                            format, sparse over the full grid)
///
/// Coverage comes from these files alone: a (point, replica) pair is done
/// when some ledger records it or a quarantine marker names it (a batch
/// marker names all its pairs), and a batch is terminal when every pair in
/// it is done. Workers and the merge read them through one scan.
///
/// Work unit: the (point, replica) grid is flattened point-major and cut
/// into batches of `batch` consecutive pairs. A worker claims a batch by
/// creating its lease file with O_CREAT|O_EXCL — the filesystem arbitrates,
/// so exactly one claimer wins. While draining, the worker's heartbeat
/// thread refreshes the lease mtime; a lease whose mtime lags by more than
/// the TTL is *stale* (its owner was SIGKILLed, wedged, or lost its
/// heartbeat) and any worker may reclaim it: rename the lease to its tomb
/// (rename arbitrates — exactly one reclaimer wins), then recreate it with
/// the attempts counter bumped. The tomb carries `attempts` across crashes,
/// so a batch that keeps killing its owners eventually exceeds
/// max_batch_attempts and is quarantined instead of wedging the fabric.
///
/// Determinism contract: every replica's seed is a pure function of the
/// spec (engine::replica_seed), every record is bit-identical no matter
/// which worker computes it (wall_seconds excepted), and rows re-aggregate
/// through engine::aggregate_sweep_row — so merged output is byte-identical
/// to an uninterrupted single-process run_sweep, under arbitrary kills,
/// reclaims and duplicated work.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "engine/error.h"
#include "engine/manifest.h"
#include "engine/runner.h"
#include "engine/sweep.h"

namespace manhattan::engine {

class result_sink;

/// Fabric work ended without full, clean coverage: a graceful stop (SIGTERM
/// → stop flag) interrupted the drain, or quarantined work left holes in
/// the grid. Checkpointed state is on disk — another worker, a restart, or
/// sweep-merge --allow-partial picks it up. Binaries translate this into
/// exit_partial (bench::guarded_main does it for every bench).
class fabric_partial : public error {
 public:
    explicit fabric_partial(const std::string& what) : error(errc::runtime, what) {}
};

/// The parsed contents of DIR/sweep.spec: everything a worker needs to
/// drain the sweep without the originating binary's flags.
struct fabric_spec {
    std::uint64_t fingerprint = 0;  ///< sweep_fingerprint(points, repetitions)
    std::size_t repetitions = 0;
    std::size_t batch = 1;          ///< (point, replica) pairs per lease
    std::vector<sweep_point> points;

    [[nodiscard]] std::size_t pair_count() const noexcept {
        return points.size() * repetitions;
    }
    [[nodiscard]] std::size_t batch_count() const noexcept {
        return batch == 0 ? 0 : (pair_count() + batch - 1) / batch;
    }
    /// Flat pair index -> (point, replica), point-major.
    [[nodiscard]] std::pair<std::size_t, std::size_t> pair(std::size_t flat) const noexcept {
        return {flat / repetitions, flat % repetitions};
    }
};

/// Serialize / parse the sweep.spec document (docs/FABRIC.md): the format
/// tag, fingerprint, repetitions, batch and one {index, label, scenario}
/// entry per point, each scenario in the codec/json.h scenario codec. Doubles are
/// IEEE-754 bit patterns, so the round trip is exact and the parsed spec
/// re-fingerprints to the stored value — parse_fabric_spec verifies that
/// and throws engine::error (class state) on any disagreement (a spec
/// edited by hand, truncated, in the old v1 text format, or written by an
/// incompatible engine).
[[nodiscard]] std::string serialize_fabric_spec(const fabric_spec& spec);
[[nodiscard]] fabric_spec parse_fabric_spec(const std::string& text);

/// Create DIR (plus leases/ and quarantine/) and publish sweep.spec for
/// \p spec. Idempotent and multi-worker safe: when a spec already exists it
/// must carry the same fingerprint and batch size — a mismatch throws
/// engine::error (class state) rather than mixing two experiments in one
/// directory. Returns the expanded spec.
fabric_spec init_fabric(const std::string& dir, const sweep_spec& spec, std::size_t batch);

/// Load and validate DIR/sweep.spec. Throws engine::error: class state on a
/// missing/corrupt spec, class io (transient) on read failure.
[[nodiscard]] fabric_spec load_fabric(const std::string& dir);

/// Worker knobs. Everything except `dir` and `owner` has a sane default.
struct fabric_options {
    std::string dir;    ///< fabric directory (init_fabric ran, or will)
    std::string owner;  ///< stable worker id; names this worker's ledger

    std::chrono::milliseconds lease_ttl{10'000};  ///< heartbeat staleness bound
    std::chrono::milliseconds poll{200};          ///< claim-scan / wait interval

    /// In-process tries per (point, replica) before the pair is quarantined.
    std::size_t max_replica_attempts = 3;
    /// Lease claims (first + reclaims) per batch before it is quarantined —
    /// the counter survives crashes via the lease tomb.
    std::size_t max_batch_attempts = 3;

    /// Per-replica wall-clock deadline (0 = no watchdog). A replica that
    /// exceeds it triggers deadline_action from the heartbeat thread.
    std::chrono::milliseconds replica_deadline{0};
    /// Called with the stuck (point, replica). Default (empty): quarantine
    /// the pair on disk, then terminate the process without unwinding — the
    /// lease goes stale and surviving workers re-drain the batch, skipping
    /// the poisoned pair. Tests install a recording hook instead.
    std::function<void(std::size_t point, std::size_t replica)> deadline_action;

    /// Graceful-stop flag (SIGTERM handler sets it): the worker finishes
    /// the in-flight batch, publishes its ledger, releases its lease, and
    /// returns with stopped=true.
    const std::atomic<bool>* stop = nullptr;
};

/// What one run_fabric_worker call did / observed.
struct fabric_report {
    bool complete = false;   ///< every pair recorded or quarantined
    bool stopped = false;    ///< graceful stop before coverage
    std::size_t fresh = 0;   ///< replicas this worker computed
    std::size_t skipped = 0; ///< pairs found already recorded elsewhere
    std::size_t quarantined_pairs = 0;    ///< pairs this worker quarantined
    std::size_t quarantined_batches = 0;  ///< batches this worker quarantined
};

/// Drain the fabric: claim batches, run missing replicas, record them in
/// this worker's ledger, and keep going until every batch is terminal (or
/// the stop flag rises). Blocks while other live workers hold leases —
/// their work counts towards coverage; if they die, their leases go stale
/// and this worker reclaims. Throws engine::error on unrecoverable
/// failures (a corrupt spec or any corrupt, foreign or disagreeing ledger
/// = state, persistent ledger I/O = io).
fabric_report run_fabric_worker(const fabric_options& opts, const run_options& run = {});

/// The union of every worker ledger in DIR, plus coverage bookkeeping.
struct fabric_merge {
    run_manifest manifest;  ///< merged records, point-major replica-minor
    std::vector<std::pair<std::size_t, std::size_t>> quarantined;  ///< sorted
    std::vector<std::pair<std::size_t, std::size_t>> missing;      ///< sorted

    [[nodiscard]] bool complete() const noexcept {
        return quarantined.empty() && missing.empty();
    }
};

/// Merge every ledger-<owner>.manifest in DIR (filename order): validate
/// each against the spec, union their records, and verify that duplicated
/// pairs — recomputed after a lease reclaim — agree on every field except
/// wall_seconds (a true disagreement means non-deterministic or mixed-up
/// state and throws engine::error, class state). Quarantine markers and
/// never-recorded pairs are reported, not errors. The same coverage scan
/// the workers run, so merge and workers never disagree on what is done.
[[nodiscard]] fabric_merge merge_fabric(const std::string& dir, const fabric_spec& spec);

/// Re-derive the sweep rows of \p points from the records of \p manifest
/// (its repetitions per point) and stream them to \p sinks in expansion
/// order — bit-identical to an uninterrupted run_sweep (same
/// aggregate_sweep_row reduction). Points with missing or quarantined
/// replicas are skipped when \p allow_partial, otherwise throw
/// engine::error (class state), as does a manifest over a different number
/// of points. Returns the number of rows emitted.
std::size_t replay_rows(std::span<const sweep_point> points, const run_manifest& manifest,
                        std::span<result_sink* const> sinks, bool allow_partial = false);

}  // namespace manhattan::engine
