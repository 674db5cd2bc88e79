/// \file sweep.h
/// Declarative parameter-grid experiments: "vary n / R / v / model over a
/// grid, M replicas each" as data instead of hand-rolled nested loops. The
/// driver expands the grid, runs every pending (point, replica) pair in one
/// thread_pool::fan_out (claimed in point-major order), aggregates each row
/// through stats::summary / bootstrap, and streams each row into the result
/// sinks as soon as its point's pairs are done (see sink.h).
///
/// Reproducibility contract: each grid point uses the spec's base seed, so
/// every row is bit-identical to a standalone engine::run_replicas (and
/// engine::flooding_times) call with the same scenario — at any thread count.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/scenario.h"
#include "engine/runner.h"
#include "stats/bootstrap.h"
#include "stats/summary.h"

namespace manhattan::engine {

class result_sink;

/// One fully-resolved grid point.
struct sweep_point {
    core::scenario sc;
    std::size_t index = 0;  ///< row index in expansion order
    std::string label;      ///< "n=16000 R=9.32 v=0.96 model=mrwp"
};

/// A parameter grid over a prototype scenario. Every non-empty axis is
/// swept (cartesian product, last axis fastest); empty axes keep the base
/// scenario's value. Axis semantics:
///   - n: sets params.n and, when standard_case (the default), L = sqrt(n)
///   - c1: sets R = c1 * sqrt(ln n)   (mutually exclusive with radius)
///   - radius: sets R directly
///   - speed: sets v directly         (mutually exclusive with speed_factor)
///   - speed_factor: sets v = factor * paper::speed_bound(R)
///   - model / mode / gossip_p: scenario-diversity axes (mode and gossip_p
///     write through into an already-materialised spread workload)
///   - num_sources: materialises the spread workload and sets every
///     message's source-set size (placement / random_k specs only; throws
///     for explicit id lists)
///   - num_messages: materialises the spread workload and resizes the
///     message list, cycling through the existing messages when growing
///   - block_ratio: topology axis — replaces the topology with a graded
///     street plan (street_graph_spec::graded over the point's side with
///     `street_blocks` blocks per axis and the given common ratio)
///   - blocked_fraction: topology axis — blocks that fraction of the plan's
///     segments (connectivity-preserving, seeded by the point's base seed;
///     geom::with_blocked_fraction). Starts from the point's current street
///     plan, or from the uniform `street_blocks` plan when the point is
///     still on the grid topology
struct sweep_spec {
    core::scenario base;          ///< prototype: seed, source, max_steps, ...
    std::size_t repetitions = 3;  ///< replicas per grid point
    bool standard_case = true;    ///< n axis also sets L = sqrt(n)

    std::vector<std::size_t> n;
    std::vector<double> c1;
    std::vector<double> radius;
    std::vector<double> speed;
    std::vector<double> speed_factor;
    std::vector<mobility::model_kind> model;
    std::vector<core::propagation> mode;
    std::vector<double> gossip_p;
    std::vector<std::size_t> num_sources;
    std::vector<std::size_t> num_messages;
    std::vector<double> block_ratio;        ///< street-plan block-size ratios
    std::vector<double> blocked_fraction;   ///< fractions of segments to block

    /// Blocks per axis the topology axes materialise their street plans
    /// with; ignored unless block_ratio / blocked_fraction is swept.
    std::int32_t street_blocks = 8;

    /// Expand into the fully-resolved point list. Throws std::invalid_argument
    /// on conflicting axes (c1 & radius, speed & speed_factor), zero
    /// num_sources / num_messages values, a num_sources axis over explicit
    /// source id lists, topology-axis values the street-plan builders
    /// reject, model kinds the point's topology cannot run, or grid points
    /// whose parameters fail validation.
    [[nodiscard]] std::vector<sweep_point> expand() const;
};

/// Aggregated result of one grid point (F.21 struct return). The headline
/// statistics (times, summary, mean_ci, completed_fraction) describe
/// message 0 — identical to the whole workload for single-message sweeps;
/// the message_* vectors carry one aggregate per message for multi-message
/// workloads.
struct sweep_row {
    sweep_point point;
    std::vector<double> times;              ///< per-replica flooding times, seed order
    stats::summary summary;                 ///< of `times`
    stats::interval mean_ci;                ///< 95% percentile-bootstrap CI of the mean
    double completed_fraction = 0.0;        ///< replicas that informed everyone
    std::vector<double> message_mean_times;          ///< per-message mean flooding time
    std::vector<double> message_completed_fraction;  ///< per-message completion rate
    std::optional<double> mean_cz_step;     ///< mean Central-Zone informing step
    std::optional<double> max_cz_step;      ///< worst Central-Zone informing step
    double cz_fraction = 0.0;               ///< replicas whose CZ filled (with partition)
    double suburb_diameter = 0.0;           ///< S at these parameters (0 = no partition)
    double wall_seconds = 0.0;              ///< summed replica wall time (CPU work)
};

/// Everything a sweep produced.
struct sweep_result {
    std::vector<sweep_row> rows;  ///< expansion order
    double wall_seconds = 0.0;    ///< driver wall-clock (parallel) time
};

/// Checkpoint/restart controls for run_sweep (the machinery lives in
/// engine/manifest.h; docs/ENGINE.md documents format and contract). With an
/// empty manifest_path run_sweep behaves exactly as before.
struct checkpoint_options {
    /// Ledger location, appended to alongside the sink output. When
    /// the file already exists, run_sweep resumes from it: recorded replicas
    /// are replayed (their rows re-aggregate bit-identically and stream to
    /// the sinks in expansion order), finished grid points are skipped, and
    /// partially complete points restart at the exact replica boundary. A
    /// manifest whose fingerprint does not match the spec fails with
    /// engine::manifest_error instead of silently mixing experiments.
    std::string manifest_path;
};

/// Run the sweep. Rows are delivered to every sink in expansion order, each
/// as soon as its point's replicas complete (later points keep computing
/// while earlier rows stream out — an interrupted sweep keeps its finished
/// rows). run_sweep never calls sink->finish(): the composer does, so one
/// sink may span several sweeps (bench::sink_set automates this). Sinks may
/// be empty. Throws what run_scenario throws (the lowest failing pair's
/// exception), and what a sink, the progress reporter or the trace throws,
/// only after every pair ran. On a failed pair the manifest, when enabled,
/// is still flushed, so completed replicas survive a failed sweep.
sweep_result run_sweep(const sweep_spec& spec, const run_options& opts = {},
                       std::span<result_sink* const> sinks = {},
                       const checkpoint_options& checkpoint = {});

}  // namespace manhattan::engine
