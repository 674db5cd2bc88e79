/// \file flood.h
/// One flooding replica stepped by the benchmark, the standalone kernel
/// probes, and the flood workloads built from them. The sweep and service
/// workloads reuse the replica and kernel probes at their own scenario size.
#pragma once

#include <cstdint>
#include <vector>

#include "common.h"
#include "engine/thread_pool.h"
#include "util/telemetry.h"

namespace perfbench {

/// The paper's standard case: L = sqrt(n), R = c1 sqrt(ln n), v at the
/// slow-mobility bound.
struct scenario_size {
    std::size_t n = 0;
    double side = 0.0;
    double radius = 0.0;
    double speed = 0.0;
};
[[nodiscard]] scenario_size standard_case(std::size_t n, double c1);

/// Summed per-worker busy seconds of a pool snapshot.
[[nodiscard]] double busy_seconds(const manhattan::engine::pool_stats& stats);

/// One MRWP one_hop replica, built and stepped through the public API.
struct replica_run {
    std::uint64_t steps = 0;
    std::uint64_t flooding_time = 0;
    std::size_t informed = 0;
    std::uint64_t positions_digest = 0;
    double setup_s = 0.0;   ///< model + walker + flooding_sim construction
    double walker_s = 0.0;  ///< walker construction alone
    double loop_s = 0.0;    ///< the step loop
    std::vector<double> step_ms;  ///< wall time of each step
    manhattan::util::phase_profile phases;  ///< zeros unless telemetry is on
    std::uint64_t pool_tasks = 0;           ///< pool tasks during the loop (telemetry on)
    double pool_busy_s = 0.0;               ///< summed worker busy time (telemetry on)
};

/// Run one replica from \p seed: to completion when \p budget is 0, else
/// for at most \p budget steps. A null \p pool is the serial path. A traced
/// replica records a span per call and per step (with the step's phases
/// from flooding_sim::profile() as child spans) and keeps per-step times;
/// the caller switches the tracer and telemetry on.
[[nodiscard]] replica_run run_replica(const scenario_size& size, std::uint64_t seed,
                                      std::uint64_t budget,
                                      manhattan::engine::thread_pool* pool, bool traced);

/// Serial and 4-lane replicas must agree bit for bit.
void check_replicas(outcome& out, const replica_run& serial, const replica_run& lanes);

/// The per-layer step metrics (core.step_ms_*, phase seconds, pool tasks
/// per step and busy fraction) from traced serial and pooled replicas.
void add_replica_metrics(report& out, const std::vector<replica_run>& serial,
                         const std::vector<replica_run>& lanes, std::size_t workers);

/// Standalone kernel calls at \p size: walker advance and grid rebuild at
/// one and at pool-size lanes, the rebuild's computed bandwidth, and the
/// cost of an empty lane dispatch. Runs for about \p budget_s seconds.
void add_kernel_metrics(report& out, const scenario_size& size, std::uint64_t seed,
                        manhattan::engine::thread_pool& pool, double budget_s);

/// Replica probe for workloads that do not step replicas themselves: a few
/// traced serial and pooled replicas at \p size feed add_replica_metrics.
void add_replica_probe(outcome& out, const scenario_size& size, std::uint64_t seed,
                       manhattan::engine::thread_pool& pool, double budget_s);

/// The flood workloads: \p n agents, to completion (budget 0) or for a
/// fixed step budget, serially and on a 4-worker pool.
void run_flood(const options& opt, std::size_t n, std::uint64_t budget, outcome& out);

}  // namespace perfbench
