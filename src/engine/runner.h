/// \file runner.h
/// The replica fan-out layer: run N independent copies of one scenario
/// across a thread pool with deterministic per-replica seeding.
///
/// Seeding scheme: replica r receives replica_seed(base seed, r), the r-th
/// output of a splitmix64 stream seeded with the scenario's base seed (the
/// xoshiro-recommended expansion, see rng/splitmix64.h), computed in O(1).
/// Every outcome is written into its own pre-sized slot — so results are
/// bit-identical for any thread count, including 1, and independent of OS
/// scheduling.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/scenario.h"
#include "rng/splitmix64.h"

namespace manhattan::engine {

class progress_reporter;
class thread_pool;
class trace_sink;

/// Execution knobs shared by every engine entry point (bench binaries map
/// `--threads=` / `--reps=` straight onto these).
struct run_options {
    std::size_t threads = 0;  ///< worker count; 0 = hardware concurrency

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

/// The seed of replica \p replica: the (replica + 1)-th output of
/// splitmix64(base_seed), which is splitmix64(base_seed + replica * gamma)()
/// and costs O(1). Seed r never depends on how many replicas run — that is
/// what lets a resumed sweep (engine/manifest.h) restart a partially
/// complete grid point at the exact replica boundary, and a fabric worker
/// (engine/fabric.h) seed any pair it claims.
[[nodiscard]] constexpr std::uint64_t replica_seed(std::uint64_t base_seed,
                                                   std::size_t replica) noexcept {
    return rng::splitmix64(base_seed + replica * rng::splitmix64::gamma)();
}

/// Run \p repetitions independent replicas of \p base (identical except for
/// the derived seed) and return their outcomes in replica order. Thread-safe
/// and deterministic (see file comment). Throws what run_scenario throws.
[[nodiscard]] std::vector<core::scenario_outcome> run_replicas(
    const core::scenario& base, std::size_t repetitions, const run_options& opts = {});

/// Flooding times (steps of message 0) of \p repetitions replicas.
/// Incomplete runs contribute the steps they took (max_steps for the
/// paper's flood).
[[nodiscard]] std::vector<double> flooding_times(const core::scenario& base,
                                                 std::size_t repetitions,
                                                 const run_options& opts = {});

}  // namespace manhattan::engine
