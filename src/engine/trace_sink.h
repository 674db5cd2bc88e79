/// \file trace_sink.h
/// Structured engine telemetry as a JSONL event stream: one self-contained
/// JSON object per line, appended by whoever observes something (run_sweep,
/// its workers, a bench harness) and published to disk through the
/// engine's append-only log (engine/append_log.h, which says when it syncs
/// and what a power cut loses): each event is appended in one write()
/// before emit() returns. A kill -9 at any instant leaves complete,
/// parseable lines, possibly followed by one unterminated final line from
/// an interrupted append, which readers skip.
///
/// Event vocabulary (docs/OBSERVABILITY.md pins the schema; the CI
/// trace-validate job parses every line and checks the begin/end pairing):
///   - every line:    "event", "seq" (dense, 0-based), "t" (seconds since
///                    the sink was opened)
///   - run_sweep:     sweep_begin/sweep_end (spec fingerprint, grid shape,
///                    phase totals, pool utilization, metrics snapshot),
///                    point_begin/point_end (aggregation bracket, in
///                    expansion order), replica_begin/replica_end (per
///                    freshly computed replica: seed, steps, wall seconds,
///                    per-phase timings — replayed replicas emit nothing,
///                    they were computed by an earlier process).
///
/// Thread-safe: emit() may be called from any worker; lines are serialized
/// under one mutex (emission is per-replica rare, never per-step).
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <mutex>
#include <string>
#include <vector>

#include "engine/append_log.h"
#include "engine/metrics.h"
#include "util/telemetry.h"
#include "util/timer.h"

namespace manhattan::engine {

struct pool_stats;

/// One key plus a pre-rendered JSON value. Build with the static helpers —
/// they own quoting/formatting so call sites stay one line per field.
struct trace_field {
    std::string key;
    std::string rendered;  ///< valid JSON value text

    [[nodiscard]] static trace_field num(std::string key, double value);
    [[nodiscard]] static trace_field num(std::string key, std::uint64_t value);
    [[nodiscard]] static trace_field boolean(std::string key, bool value);
    [[nodiscard]] static trace_field str(std::string key, const std::string& value);
    /// \p json must already be valid JSON (an object/array built by the
    /// phases/metrics helpers below).
    [[nodiscard]] static trace_field raw(std::string key, std::string json);
};

/// Render a phase profile as a JSON object:
/// {"advance_s": ..., "grid_rebuild_s": ..., "scan_s": ..., "components_s":
///  ..., "total_s": ..., "steps": <advance call count>}.
[[nodiscard]] std::string phases_json(const util::phase_profile& profile);

/// Render a metrics snapshot list as a JSON array of
/// {"name", "kind", "value"} / {"name", "kind", "bounds", "counts"} objects.
[[nodiscard]] std::string metrics_json(const std::vector<metric_snapshot>& snapshots);

/// Render pool utilization as a JSON object ("workers", "tasks_run",
/// "queue_wait_s", "busy_s" per worker, "busy_fraction", "alive_s").
[[nodiscard]] std::string pool_json(const pool_stats& stats);

/// The JSONL writer. Construction publishes an empty file (an unwritable
/// destination fails before any work is spent — the atomic_file_sink rule);
/// emit() appends its line, and flush() / destruction sync the file.
///
/// Failure handling is the append log's, shared with the checkpoint ledger:
/// each publish retries transient I/O errors (fault site "trace.publish").
/// A publish from emit() that still fails is reported once, the log keeps
/// its lines for the next publish, and the caller carries on — a trace
/// write failure never aborts the sweep it observes. Only flush() throws.
class trace_sink {
 public:
    /// Throws std::invalid_argument when \p path cannot be written.
    explicit trace_sink(std::string path);

    /// Flushes; failures are reported to stderr rather than thrown
    /// (destructors must not throw).
    ~trace_sink();

    trace_sink(const trace_sink&) = delete;
    trace_sink& operator=(const trace_sink&) = delete;

    /// Append one event line (thread-safe). "event", "seq" and "t" are
    /// added by the sink; \p fields follow in the given order.
    void emit(const std::string& event, std::initializer_list<trace_field> fields);
    void emit(const std::string& event, const std::vector<trace_field>& fields);

    /// Publish whatever a failed append left pending and sync everything
    /// emitted so far (thread-safe). Throws engine::error (class io) when
    /// the publish fails even after retries.
    void flush();

    /// Events emitted so far.
    [[nodiscard]] std::size_t events() const;

    /// Sweep-scoped event streams within one process share a sink; each
    /// run_sweep call claims the next id to label its events (thread-safe).
    [[nodiscard]] std::size_t next_sweep_id();

    /// The trace file's log (read it once the emitters stopped).
    [[nodiscard]] const append_log& log() const noexcept { return log_; }

 private:
    util::timer clock_;

    mutable std::mutex mutex_;
    append_log log_;
    std::size_t seq_ = 0;
    std::size_t sweeps_ = 0;
};

}  // namespace manhattan::engine
