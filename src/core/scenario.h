/// \file scenario.h
/// One-call experiment driver: build a model + walker + partition + spread
/// simulation from a declarative description, run it, return the results.
/// Every bench binary and example is a thin loop over run_scenario().
#pragma once

#include <cstdint>
#include <string>

#include "core/flooding.h"
#include "core/params.h"
#include "mobility/factory.h"

namespace manhattan::core {

/// Declarative description of one spread experiment. The default is the
/// paper's workload — one message flooding from one source, described by the
/// mode / gossip_p / source fields. Multi-message / multi-source workloads
/// set `spread` instead; when `spread.messages` is non-empty it takes
/// precedence and the three legacy fields are ignored (see
/// effective_spread() and docs/WORKLOADS.md).
struct scenario {
    net_params params;                  ///< n, L, R, v
    /// The street plan agents move on. Defaults to the paper's Manhattan
    /// grid, which is the bit-identical legacy path: every field below means
    /// exactly what it did before topologies existed, and a pure-grid
    /// scenario fingerprints/serializes unchanged. street_graph topologies
    /// route trips over the explicit plan (docs/TOPOLOGY.md).
    geom::topology_spec topology;
    mobility::model_kind model = mobility::model_kind::mrwp;
    mobility::model_options model_opts; ///< baselines' tunables
    propagation mode = propagation::one_hop;
    double gossip_p = 1.0;              ///< forward probability (gossip mode)
    source_placement source = source_placement::random_agent;
    spread_spec spread;                 ///< multi-message workload (empty =
                                        ///< one message from the fields above)
    std::uint64_t seed = 1;
    bool stationary_start = true;       ///< false: uniform positions + fresh trips
    double warmup_time = 0.0;           ///< extra mixing time before flooding starts
    std::uint64_t max_steps = 1'000'000;
    bool record_timeline = false;
    bool with_cell_partition = true;    ///< track Central-Zone metrics when feasible

    /// Intra-replica worker threads for the per-step loop (mobility advance,
    /// grid rebuild, neighbourhood scans): 1 = the plain serial path,
    /// 0 = hardware concurrency, k = a k-worker pool. Outcomes are
    /// bit-identical for every value (see docs/PERF.md); this knob only
    /// trades wall-clock. Prefer it for few large replicas; when fanning
    /// many replicas through engine::run_replicas, leave it at 1 — the
    /// replica level already saturates the cores, and each replica would
    /// otherwise spawn its own inner pool.
    std::size_t intra_threads = 1;

    /// The workload this scenario runs: `spread` verbatim when it has
    /// messages, otherwise one message synthesised from mode / gossip_p /
    /// source (the stop rule of `spread` applies either way). Message seeds
    /// are placeholders here — run_scenario derives them from `seed` XOR the
    /// message index (docs/WORKLOADS.md pins the scheme).
    [[nodiscard]] spread_spec effective_spread() const;
};

/// Output of one scenario run.
struct scenario_outcome {
    spread_result spread;            ///< per-message results; the paper's
                                     ///< flood is spread.messages[0]
    double wall_seconds = 0.0;
    /// Per-phase step-loop timings — the replica-level telemetry snapshot
    /// (all zeros while util::telemetry is disabled). Observation only:
    /// every other field is bit-identical with telemetry on or off.
    util::phase_profile phases;
    double cell_side = 0.0;          ///< 0 when no partition was built
    double suburb_diameter = 0.0;    ///< S; 0 when no partition was built
    std::size_t suburb_cells = 0;
    std::size_t central_cells = 0;
};

/// Run one scenario. Throws on invalid parameters.
///
/// Re-entrant: every run constructs its own rng (from sc.seed), walker,
/// spatial index and partition, and mobility models are stateless w.r.t.
/// agents (see mobility/model.h) — concurrent calls from different threads
/// never share mutable state. engine::run_replicas relies on this.
[[nodiscard]] scenario_outcome run_scenario(const scenario& sc);

}  // namespace manhattan::core
