#include "engine/sweep.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "engine/manifest.h"
#include "engine/progress.h"
#include "geom/street_graph.h"
#include "engine/sink.h"
#include "engine/thread_pool.h"
#include "engine/trace_sink.h"
#include "mobility/factory.h"
#include "rng/rng.h"
#include "util/table.h"
#include "util/timer.h"

namespace manhattan::engine {

namespace {

/// One resolved value of one axis, applied to a scenario under construction.
template <typename T, typename Apply>
void sweep_axis(std::vector<core::scenario>& acc, const std::vector<T>& axis, Apply apply) {
    if (axis.empty()) {
        return;
    }
    std::vector<core::scenario> next;
    next.reserve(acc.size() * axis.size());
    for (const auto& sc : acc) {
        for (const T& value : axis) {
            core::scenario expanded = sc;
            apply(expanded, value);
            next.push_back(expanded);
        }
    }
    acc = std::move(next);
}

/// Source-set size of a message spec (placement / random_k count, or the
/// explicit id list's length).
std::size_t source_count(const core::message_spec& msg) {
    return msg.sources.how == core::source_spec::kind::explicit_ids ? msg.sources.ids.size()
                                                                    : msg.sources.count;
}

std::string point_label(const core::scenario& sc) {
    std::string label = "n=" + util::fmt(sc.params.n) + " R=" + util::fmt(sc.params.radius) +
                        " v=" + util::fmt(sc.params.speed);
    if (sc.model != mobility::model_kind::mrwp) {
        label += " model=" + mobility::model_kind_name(sc.model);
    }
    if (!sc.topology.is_grid()) {
        // Street-topology annotations: segment counts are pure functions of
        // the spec, so labels stay stable across hosts and thread counts.
        label += " topo=streets";
        if (!sc.topology.street.blocked.empty()) {
            label += " blocked=" + util::fmt(sc.topology.street.blocked.size());
        }
        if (!sc.topology.street.one_way.empty()) {
            label += " oneway=" + util::fmt(sc.topology.street.one_way.size());
        }
    }
    if (sc.mode == core::propagation::per_component) {
        label += " mode=per_component";
    } else if (sc.mode == core::propagation::gossip) {
        label += " gossip_p=" + util::fmt(sc.gossip_p);
    }
    // Spread-workload annotations, only when they deviate from the paper's
    // one-message / one-source default (existing labels stay unchanged).
    if (!sc.spread.messages.empty()) {
        if (sc.spread.messages.size() > 1) {
            label += " msgs=" + util::fmt(sc.spread.messages.size());
        }
        const std::size_t sources = source_count(sc.spread.messages.front());
        if (sources > 1) {
            label += " src=" + util::fmt(sources);
        }
    }
    return label;
}

}  // namespace

std::vector<sweep_point> sweep_spec::expand() const {
    if (repetitions == 0) {
        throw std::invalid_argument("sweep_spec: repetitions must be positive");
    }
    if (!c1.empty() && !radius.empty()) {
        throw std::invalid_argument("sweep_spec: c1 and radius axes are mutually exclusive");
    }
    if (!speed.empty() && !speed_factor.empty()) {
        throw std::invalid_argument(
            "sweep_spec: speed and speed_factor axes are mutually exclusive");
    }
    for (const std::size_t k : num_sources) {
        if (k == 0) {
            throw std::invalid_argument("sweep_spec: num_sources values must be positive");
        }
    }
    for (const std::size_t m : num_messages) {
        if (m == 0) {
            throw std::invalid_argument("sweep_spec: num_messages values must be positive");
        }
    }

    std::vector<core::scenario> grid{base};
    const bool std_case = standard_case;
    sweep_axis(grid, n, [std_case](core::scenario& sc, std::size_t value) {
        sc.params.n = value;
        if (std_case) {
            sc.params.side = std::sqrt(static_cast<double>(value));
        }
    });
    sweep_axis(grid, c1, [](core::scenario& sc, double value) {
        sc.params.radius = value * std::sqrt(std::log(static_cast<double>(sc.params.n)));
    });
    sweep_axis(grid, radius,
               [](core::scenario& sc, double value) { sc.params.radius = value; });
    sweep_axis(grid, speed, [](core::scenario& sc, double value) { sc.params.speed = value; });
    sweep_axis(grid, speed_factor, [](core::scenario& sc, double value) {
        sc.params.speed = value * core::paper::speed_bound(sc.params.radius);
    });
    // Topology axes run after the n axis so the street plans they build span
    // the point's final side. block_ratio defines the plan; blocked_fraction
    // then removes segments from it (or from the uniform default plan).
    const std::int32_t blocks = street_blocks;
    sweep_axis(grid, block_ratio, [blocks](core::scenario& sc, double value) {
        sc.topology = geom::topology_spec::streets(
            geom::street_graph_spec::graded(sc.params.side, blocks, value));
    });
    sweep_axis(grid, blocked_fraction, [blocks](core::scenario& sc, double value) {
        geom::street_graph_spec plan =
            sc.topology.is_grid() ? geom::street_graph_spec::uniform(sc.params.side, blocks)
                                  : sc.topology.street;
        sc.topology = geom::topology_spec::streets(
            geom::with_blocked_fraction(std::move(plan), value, sc.seed));
    });
    sweep_axis(grid, model,
               [](core::scenario& sc, mobility::model_kind value) { sc.model = value; });
    // mode / gossip_p write through into an already-materialised spread
    // workload (e.g. one a --source= flag or an earlier expansion built), so
    // axis order never silently drops a setting.
    sweep_axis(grid, mode, [](core::scenario& sc, core::propagation value) {
        sc.mode = value;
        for (auto& msg : sc.spread.messages) {
            msg.mode = value;
        }
    });
    sweep_axis(grid, gossip_p, [](core::scenario& sc, double value) {
        sc.gossip_p = value;
        sc.mode = core::propagation::gossip;
        for (auto& msg : sc.spread.messages) {
            msg.gossip_p = value;
            msg.mode = core::propagation::gossip;
        }
    });
    sweep_axis(grid, num_sources, [](core::scenario& sc, std::size_t value) {
        sc.spread = sc.effective_spread();
        for (auto& msg : sc.spread.messages) {
            if (msg.sources.how == core::source_spec::kind::explicit_ids) {
                throw std::invalid_argument(
                    "sweep_spec: num_sources axis cannot resize an explicit source id list");
            }
            msg.sources.count = value;
        }
    });
    sweep_axis(grid, num_messages, [](core::scenario& sc, std::size_t value) {
        sc.spread = sc.effective_spread();
        const auto proto = sc.spread.messages;
        sc.spread.messages.resize(value);
        for (std::size_t i = proto.size(); i < value; ++i) {
            sc.spread.messages[i] = proto[i % proto.size()];
        }
    });

    std::vector<sweep_point> points;
    points.reserve(grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i) {
        grid[i].params.validate();
        grid[i].topology.validate(grid[i].params.side);
        mobility::check_model_topology(grid[i].model, grid[i].topology, grid[i].model_opts);
        grid[i].spread.stop.validate();
        for (const auto& msg : grid[i].spread.messages) {
            msg.sources.validate(grid[i].params.n);  // fail at expand, not mid-sweep
        }
        points.push_back({grid[i], i, point_label(grid[i])});
    }
    return points;
}

/// Workers reduce outcomes immediately, so a big sweep's memory stays
/// O(points x reps) scalars (declared in manifest.h; fabric workers share
/// this definition).
replica_stat reduce_outcome(const core::scenario_outcome& out) {
    const core::message_result& flood = out.spread.messages[0];
    replica_stat stat{static_cast<double>(flood.flooding_time), flood.completed,
                      flood.central_zone_informed_step, out.suburb_diameter,
                      out.wall_seconds,
                      {}, {}};
    stat.message_times.reserve(out.spread.messages.size());
    stat.message_completed.reserve(out.spread.messages.size());
    for (const auto& msg : out.spread.messages) {
        stat.message_times.push_back(static_cast<double>(msg.flooding_time));
        stat.message_completed.push_back(msg.completed ? 1 : 0);
    }
    return stat;
}

namespace {

/// Load (or initialise) the checkpoint ledger for this sweep. A pre-existing
/// manifest is validated against the spec fingerprint and grid shape — a
/// mismatch hard-fails so an edited sweep can never silently mix rows with a
/// stale ledger.
std::unique_ptr<checkpoint_ledger> open_ledger(const checkpoint_options& checkpoint,
                                               std::span<const sweep_point> points,
                                               std::size_t reps) {
    if (checkpoint.manifest_path.empty()) {
        return nullptr;
    }
    const std::uint64_t fingerprint = sweep_fingerprint(points, reps);
    run_manifest manifest;
    const bool exists = [&] {
        std::ifstream probe(checkpoint.manifest_path);
        return probe.good();
    }();
    if (exists) {
        manifest = load_manifest(checkpoint.manifest_path);
        if (manifest.fingerprint != fingerprint || manifest.points != points.size() ||
            manifest.repetitions != reps) {
            throw manifest_error(
                "manifest: '" + checkpoint.manifest_path +
                "' does not match this sweep (manifest fingerprint " +
                fingerprint_hex(manifest.fingerprint) + ", " +
                std::to_string(manifest.points) + " points x " +
                std::to_string(manifest.repetitions) + " reps; sweep fingerprint " +
                fingerprint_hex(fingerprint) + ", " + std::to_string(points.size()) +
                " points x " + std::to_string(reps) +
                " reps). The axes, seed, repetitions or engine version changed since the "
                "checkpoint was written — delete the manifest or rerun without --resume=");
        }
    } else {
        manifest.fingerprint = fingerprint;
        manifest.points = points.size();
        manifest.repetitions = reps;
    }
    return std::make_unique<checkpoint_ledger>(std::move(manifest), checkpoint.manifest_path);
}

}  // namespace

sweep_row aggregate_sweep_row(const sweep_point& point,
                              std::span<const replica_stat> stats) {
    const std::size_t reps = stats.size();
    sweep_row row;
    row.point = point;
    row.times.reserve(reps);
    std::size_t completed = 0;
    double cz_sum = 0.0;
    double cz_max = 0.0;
    std::size_t cz_count = 0;
    for (const auto& stat : stats) {
        row.times.push_back(stat.time);
        completed += stat.completed ? 1 : 0;
        if (stat.cz_step) {
            cz_sum += static_cast<double>(*stat.cz_step);
            cz_max = std::max(cz_max, static_cast<double>(*stat.cz_step));
            ++cz_count;
        }
        row.wall_seconds += stat.wall_seconds;
    }
    row.summary = stats::summarize(row.times);
    // Deterministic bootstrap stream per point (driver thread only).
    rng::rng boot_gen(point.sc.seed ^ 0x626f6f7473747261ULL);
    row.mean_ci = stats::bootstrap_mean_ci(row.times, 0.95, 1000, boot_gen);
    row.completed_fraction = static_cast<double>(completed) / static_cast<double>(reps);
    if (cz_count > 0) {
        row.mean_cz_step = cz_sum / static_cast<double>(cz_count);
        row.max_cz_step = cz_max;
    }
    row.cz_fraction = static_cast<double>(cz_count) / static_cast<double>(reps);
    row.suburb_diameter = stats.front().suburb_diameter;
    const std::size_t messages = stats.front().message_times.size();
    row.message_mean_times.assign(messages, 0.0);
    row.message_completed_fraction.assign(messages, 0.0);
    for (const auto& stat : stats) {
        for (std::size_t m = 0; m < messages; ++m) {
            row.message_mean_times[m] += stat.message_times[m];
            row.message_completed_fraction[m] += stat.message_completed[m];
        }
    }
    for (std::size_t m = 0; m < messages; ++m) {
        row.message_mean_times[m] /= static_cast<double>(reps);
        row.message_completed_fraction[m] /= static_cast<double>(reps);
    }
    return row;
}

sweep_result run_sweep(const sweep_spec& spec, const run_options& opts,
                       std::span<result_sink* const> sinks,
                       const checkpoint_options& checkpoint) {
    const util::timer clock;
    const auto points = spec.expand();
    const std::size_t reps = spec.repetitions;

    trace_sink* const trace = opts.trace;
    progress_reporter* const progress = opts.progress;
    const std::size_t sweep_id = trace != nullptr ? trace->next_sweep_id() : 0;

    // Checkpoint/restart: replay recorded replicas into their slots and only
    // compute the missing ones. Because seeds[p] is a pure function of the
    // point's base seed, a partially complete point restarts at the exact
    // replica boundary and the resumed output is bit-identical.
    const auto ledger = open_ledger(checkpoint, points, reps);

    // Queue every (point, replica) pair upfront on one pool: replicas of a
    // slow grid point overlap with replicas of fast ones, so workers never
    // idle between points. Each stat lands in its (point, rep) slot —
    // output is independent of scheduling.
    std::vector<std::vector<replica_stat>> replica_stats(points.size());
    std::vector<std::vector<std::uint64_t>> seeds(points.size());
    std::vector<std::vector<std::future<void>>> pending(points.size());
    for (std::size_t p = 0; p < points.size(); ++p) {
        replica_stats[p].resize(reps);
        seeds[p] = replica_seeds(points[p].sc.seed, reps);
        pending[p].reserve(reps);
    }
    // Copy the replayed stats out of the ledger *before* workers start:
    // record() grows the manifest's record vector, so pointers into it are
    // only stable while the sweep is single-threaded.
    std::vector<std::vector<std::uint8_t>> done(points.size(),
                                                std::vector<std::uint8_t>(reps, 0));
    std::size_t replayed = 0;
    if (ledger != nullptr) {
        const auto table = ledger->manifest().by_point();
        for (std::size_t p = 0; p < points.size(); ++p) {
            for (std::size_t r = 0; r < reps; ++r) {
                if (table[p][r] != nullptr) {
                    replica_stats[p][r] = table[p][r]->stat;
                    done[p][r] = 1;
                    ++replayed;
                }
            }
        }
    }

    // A caller-supplied pool (opts.pool) is shared across sweeps — the
    // daemon's steady-state path; otherwise this sweep owns a fresh one.
    std::optional<thread_pool> owned_pool;
    thread_pool& pool = opts.pool != nullptr ? *opts.pool : owned_pool.emplace(opts.threads);

    if (trace != nullptr) {
        trace->emit("sweep_begin",
                    {trace_field::num("sweep", sweep_id),
                     trace_field::str("fingerprint",
                                      std::to_string(sweep_fingerprint(points, reps))),
                     trace_field::num("points", points.size()),
                     trace_field::num("repetitions", reps),
                     trace_field::num("replicas", points.size() * reps),
                     trace_field::num("replayed", replayed),
                     trace_field::num("threads", pool.size())});
    }
    if (progress != nullptr) {
        progress->add_replayed(replayed);
    }

    // Sweep-level phase aggregation (trace only): workers fold their
    // replica's profile in under a mutex — per replica, not per step, so
    // contention is negligible. Zeros unless telemetry is enabled.
    std::mutex profile_mutex;
    util::phase_profile sweep_phases;

    for (std::size_t p = 0; p < points.size(); ++p) {
        for (std::size_t r = 0; r < reps; ++r) {
            if (done[p][r] != 0) {
                continue;  // replayed from the manifest
            }
            pending[p].push_back(pool.submit([&replica_stats, &seeds, &points, &ledger,
                                              &profile_mutex, &sweep_phases, trace, progress,
                                              sweep_id, p, r] {
                core::scenario sc = points[p].sc;
                sc.seed = seeds[p][r];
                if (trace != nullptr) {
                    trace->emit("replica_begin", {trace_field::num("sweep", sweep_id),
                                                  trace_field::num("point", p),
                                                  trace_field::num("replica", r),
                                                  trace_field::str("seed",
                                                                   std::to_string(sc.seed))});
                }
                const core::scenario_outcome out = core::run_scenario(sc);
                replica_stat stat = reduce_outcome(out);
                if (trace != nullptr) {
                    trace->emit("replica_end",
                                {trace_field::num("sweep", sweep_id),
                                 trace_field::num("point", p),
                                 trace_field::num("replica", r),
                                 trace_field::str("seed", std::to_string(sc.seed)),
                                 trace_field::num("steps", out.spread.steps),
                                 trace_field::num("time", stat.time),
                                 trace_field::boolean("completed", stat.completed),
                                 trace_field::num("wall_s", stat.wall_seconds),
                                 trace_field::raw("phases", phases_json(out.phases))});
                    const std::lock_guard<std::mutex> lock(profile_mutex);
                    sweep_phases += out.phases;
                }
                replica_stats[p][r] = stat;
                if (ledger != nullptr) {
                    ledger->record(p, r, std::move(stat));
                }
                if (progress != nullptr) {
                    progress->replica_done();
                }
            }));
        }
    }

    // Deliver each row to the sinks as soon as its replicas complete, in
    // expansion order — a killed multi-hour sweep keeps every finished row
    // in its CSV/JSON files. Point p+1 keeps computing while p streams.
    sweep_result result;
    result.rows.reserve(points.size());
    std::exception_ptr first_error;
    for (std::size_t p = 0; p < points.size(); ++p) {
        for (auto& f : pending[p]) {
            try {
                f.get();
            } catch (...) {
                if (!first_error) {
                    first_error = std::current_exception();
                }
            }
        }
        if (first_error) {
            continue;  // keep draining remaining futures before rethrowing
        }

        if (trace != nullptr) {
            trace->emit("point_begin", {trace_field::num("sweep", sweep_id),
                                        trace_field::num("point", p),
                                        trace_field::str("label", points[p].label)});
        }

        sweep_row row = aggregate_sweep_row(points[p], replica_stats[p]);
        for (result_sink* sink : sinks) {
            sink->on_row(row);
        }
        if (trace != nullptr) {
            trace->emit("point_end",
                        {trace_field::num("sweep", sweep_id), trace_field::num("point", p),
                         trace_field::str("label", points[p].label),
                         trace_field::num("mean_time", row.summary.mean),
                         trace_field::num("completed_fraction", row.completed_fraction),
                         trace_field::num("wall_s", row.wall_seconds)});
        }
        if (progress != nullptr) {
            progress->point_done();
        }
        result.rows.push_back(std::move(row));
    }
    if (ledger != nullptr) {
        // Final publish — also on the error path, so completed replicas
        // survive a failed sweep and the next --resume= picks them up. A
        // persistent publish failure must not mask the sweep's own error.
        try {
            ledger->flush();
        } catch (...) {
            if (!first_error) {
                first_error = std::current_exception();
            }
        }
    }
    if (trace != nullptr) {
        // sweep_end lands even on the error path (error flag set), so every
        // sweep_begin in a surviving trace has its matching end unless the
        // process died — which the publish-per-event buffering tolerates.
        // emit() never throws on I/O; a trace that still cannot be written
        // surfaces from flush(), and never masks the sweep's own error.
        std::lock_guard<std::mutex> lock(profile_mutex);
        trace->emit("sweep_end",
                    {trace_field::num("sweep", sweep_id),
                     trace_field::num("points", result.rows.size()),
                     trace_field::num("replicas_fresh",
                                      points.size() * reps >= replayed
                                          ? points.size() * reps - replayed
                                          : 0),
                     trace_field::num("replayed", replayed),
                     trace_field::boolean("error", first_error != nullptr),
                     trace_field::num("wall_s", clock.seconds()),
                     trace_field::raw("phases", phases_json(sweep_phases)),
                     trace_field::raw("pool", pool_json(pool.stats())),
                     trace_field::raw("metrics", metrics_json(pool.metrics().snapshot()))});
        try {
            trace->flush();
        } catch (...) {
            if (!first_error) {
                first_error = std::current_exception();
            }
        }
    }
    if (first_error) {
        std::rethrow_exception(first_error);
    }
    result.wall_seconds = clock.seconds();
    return result;
}

}  // namespace manhattan::engine
