/// \file runner.h
/// The replica fan-out layer: run N independent copies of one scenario
/// across a thread pool with deterministic per-replica seeding.
///
/// Seeding scheme: replica r receives the r-th output of a splitmix64
/// stream seeded with the scenario's base seed (the xoshiro-recommended
/// expansion, see rng/splitmix64.h). The seed vector is a pure function of
/// (base seed, replica count), and every outcome is written into its own
/// pre-sized slot — so results are bit-identical for any thread count,
/// including 1, and independent of OS scheduling.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/scenario.h"

namespace manhattan::engine {

class progress_reporter;
class thread_pool;
class trace_sink;

/// Execution knobs shared by every engine entry point (bench binaries map
/// `--threads=` / `--reps=` straight onto these).
struct run_options {
    std::size_t threads = 0;  ///< worker count; 0 = hardware concurrency
    std::size_t chunk = 1;    ///< replicas per work unit in run_replicas /
                              ///< flooding_times (1 = best balance; the sweep
                              ///< driver always schedules per-replica)

    /// Caller-owned shared pool (optional). When set, run_sweep and
    /// run_fabric_worker schedule on it instead of constructing their own —
    /// a long-lived daemon runs every job on one pool instead of respawning
    /// worker threads per request. `threads` is ignored then; outcomes are
    /// bit-identical either way (the determinism contract is thread-count
    /// independent).
    thread_pool* pool = nullptr;

    // Observability hooks (both optional, both observation-only: results are
    // bit-identical with or without them — docs/OBSERVABILITY.md).
    trace_sink* trace = nullptr;            ///< JSONL event stream (sweep driver)
    progress_reporter* progress = nullptr;  ///< live progress/ETA (sweep driver)
};

/// The per-replica seeds run_replicas assigns: the first \p count outputs
/// of splitmix64(base_seed). Exposed so tests and sinks can label replicas.
/// Prefix-stable: replica_seeds(s, n) is a prefix of replica_seeds(s, m)
/// for n <= m — seed r never depends on the batch size. That property is
/// what lets a resumed sweep (engine/manifest.h) restart a partially
/// complete grid point at the exact replica boundary: the remaining
/// replicas get exactly the seeds the uninterrupted run would have used.
[[nodiscard]] std::vector<std::uint64_t> replica_seeds(std::uint64_t base_seed,
                                                       std::size_t count);

/// Run \p repetitions independent replicas of \p base (identical except for
/// the derived seed) and return their outcomes in replica order. Thread-safe
/// and deterministic (see file comment). Throws what run_scenario throws.
[[nodiscard]] std::vector<core::scenario_outcome> run_replicas(
    const core::scenario& base, std::size_t repetitions, const run_options& opts = {});

/// Same, on a caller-owned pool (the sweep driver reuses one pool across
/// every grid point instead of respawning workers per row).
[[nodiscard]] std::vector<core::scenario_outcome> run_replicas(
    thread_pool& pool, const core::scenario& base, std::size_t repetitions,
    std::size_t chunk = 1);

/// Flooding times (steps of message 0) of \p repetitions replicas.
/// Incomplete runs contribute the steps they took (max_steps for the
/// paper's flood).
[[nodiscard]] std::vector<double> flooding_times(const core::scenario& base,
                                                 std::size_t repetitions,
                                                 const run_options& opts = {});

}  // namespace manhattan::engine
