#include "flood.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>

#include "core/flooding.h"
#include "core/params.h"
#include "geom/uniform_grid.h"
#include "mobility/factory.h"
#include "mobility/walker.h"
#include "rng/rng.h"

namespace perfbench {

namespace mh = manhattan;

scenario_size standard_case(std::size_t n, double c1) {
    const double radius = c1 * std::sqrt(std::log(static_cast<double>(n)));
    const auto p = mh::core::net_params::standard_case(n, radius,
                                                       mh::core::paper::speed_bound(radius));
    return {p.n, p.side, p.radius, p.speed};
}

namespace {

std::uint64_t digest(std::span<const mh::geom::vec2> positions) {
    std::uint64_t h = 1469598103934665603ULL;
    for (const mh::geom::vec2& p : positions) {
        std::uint64_t bits[2];
        std::memcpy(&bits[0], &p.x, sizeof bits[0]);
        std::memcpy(&bits[1], &p.y, sizeof bits[1]);
        h = (h ^ bits[0]) * 1099511628211ULL;
        h = (h ^ bits[1]) * 1099511628211ULL;
    }
    return h;
}

// flooding_sim::profile() phases, in util::phase order, as the layer that
// owns each one.
constexpr const char* phase_layer[mh::util::phase_count] = {"mobility", "geom", "core", "core"};
constexpr const char* phase_call[mh::util::phase_count] = {"walker::advance",
                                                           "uniform_grid::rebuild", "scan",
                                                           "components"};

}  // namespace

double busy_seconds(const mh::engine::pool_stats& stats) {
    double total = 0.0;
    for (const double s : stats.worker_busy_seconds) {
        total += s;
    }
    return total;
}

replica_run run_replica(const scenario_size& size, std::uint64_t seed, std::uint64_t budget,
                        mh::engine::thread_pool* pool, bool traced) {
    replica_run r;
    const auto t_setup = steady::now();
    std::shared_ptr<const mh::mobility::mobility_model> model;
    {
        const span s("mobility", "make_model");
        model = mh::mobility::make_model(mh::mobility::model_kind::mrwp, size.side);
    }
    std::optional<mh::mobility::walker> agents;
    {
        const span s("mobility", "walker");
        const auto t_walker = steady::now();
        agents.emplace(model, size.n, size.speed, mh::rng::rng(seed));
        r.walker_s = since(t_walker);
    }
    mh::core::flood_config cfg;
    cfg.max_steps = budget > 0 ? budget : 1'000'000;
    cfg.record_timeline = false;
    std::optional<mh::core::flooding_sim> sim;
    {
        const span s("core", "flooding_sim");
        sim.emplace(std::move(*agents), size.radius, cfg, nullptr,
                    pool != nullptr ? &pool->executor() : nullptr);
    }
    r.setup_s = since(t_setup);

    const bool pool_stats = pool != nullptr && traced;
    const mh::engine::pool_stats before = pool_stats ? pool->stats() : mh::engine::pool_stats{};
    const auto t_loop = steady::now();
    if (traced) {
        tracer& tr = tracer::global();
        while (!sim->all_informed() && sim->steps_taken() < cfg.max_steps) {
            const span s("core", "flooding_sim::step");
            const mh::util::phase_profile start = sim->profile();
            const double t0 = tr.now();
            const auto c0 = steady::now();
            (void)sim->step();
            r.step_ms.push_back(since(c0) * 1e3);
            const mh::util::phase_profile& end = sim->profile();
            double t = t0;
            for (std::size_t p = 0; p < mh::util::phase_count; ++p) {
                const double d = end.seconds[p] - start.seconds[p];
                if (d > 0.0) {
                    tr.record(phase_layer[p], phase_call[p], t, t + d);
                    t += d;
                }
            }
        }
    } else {
        while (!sim->all_informed() && sim->steps_taken() < cfg.max_steps) {
            const auto c0 = steady::now();
            (void)sim->step();
            r.step_ms.push_back(since(c0) * 1e3);
        }
    }
    r.loop_s = since(t_loop);
    if (pool_stats) {
        const mh::engine::pool_stats after = pool->stats();
        r.pool_tasks = after.tasks_run - before.tasks_run;
        r.pool_busy_s = busy_seconds(after) - busy_seconds(before);
    }
    // A flood completes on the step that informs its last agent, so the
    // steps taken are the flooding time (or the budget when incomplete).
    r.steps = sim->steps_taken();
    r.flooding_time = r.steps;
    r.informed = sim->informed_count();
    r.positions_digest = digest(sim->agents().positions());
    r.phases = sim->profile();
    return r;
}

void check_replicas(outcome& out, const replica_run& serial, const replica_run& lanes) {
    out.check(serial.flooding_time == lanes.flooding_time &&
                  serial.informed == lanes.informed &&
                  serial.positions_digest == lanes.positions_digest,
              "serial vs 4-lane replica: flooding_time " + std::to_string(serial.flooding_time) +
                  " vs " + std::to_string(lanes.flooding_time) + ", informed_count " +
                  std::to_string(serial.informed) + " vs " + std::to_string(lanes.informed));
}

void add_replica_metrics(report& out, const std::vector<replica_run>& serial,
                         const std::vector<replica_run>& lanes, std::size_t workers) {
    const auto add_engine = [&](const std::vector<replica_run>& runs, const std::string& engine) {
        std::vector<double> steps;
        std::vector<double> phase[3];
        for (const replica_run& r : runs) {
            steps.insert(steps.end(), r.step_ms.begin(), r.step_ms.end());
            for (std::size_t p = 0; p < 3; ++p) {
                phase[p].push_back(r.phases.seconds[p]);
            }
        }
        out.add("core.step_ms_p50." + engine, median(steps), "ms", steps.size());
        const tail_value p90 = tail(steps, 0.9);
        out.add("core.step_ms_p90." + engine, p90.value, "ms", steps.size(), p90.note(0.9));
        out.add("mobility.advance_s." + engine, median(phase[0]), "s", runs.size(),
                "per replica");
        out.add("geom.grid_rebuild_s." + engine, median(phase[1]), "s", runs.size(),
                "per replica");
        out.add("core.scan_s." + engine, median(phase[2]), "s", runs.size(), "per replica");
    };
    add_engine(serial, "serial");
    add_engine(lanes, "lanes4");

    std::uint64_t tasks = 0;
    std::uint64_t steps = 0;
    double busy = 0.0;
    double loop = 0.0;
    for (const replica_run& r : lanes) {
        tasks += r.pool_tasks;
        steps += r.steps;
        busy += r.pool_busy_s;
        loop += r.loop_s;
    }
    out.add("engine.pool.tasks_per_step",
            steps > 0 ? static_cast<double>(tasks) / static_cast<double>(steps) : 0.0, "count",
            lanes.size());
    out.add("engine.pool.busy_fraction.lanes4",
            loop > 0.0 ? busy / (static_cast<double>(workers) * loop) : 0.0, "ratio",
            lanes.size());
}

void add_kernel_metrics(report& out, const scenario_size& size, std::uint64_t seed,
                        mh::engine::thread_pool& pool, double budget_s) {
    const auto model = mh::mobility::make_model(mh::mobility::model_kind::mrwp, size.side);
    mh::mobility::walker agents(model, size.n, size.speed, mh::rng::rng(seed));
    mh::geom::uniform_grid grid(size.side, size.radius);
    mh::util::parallel_executor& lanes = pool.executor();

    std::vector<double> advance1;
    std::vector<double> advance4;
    std::vector<double> rebuild1;
    std::vector<double> rebuild4;
    const auto t0 = steady::now();
    while ((since(t0) < budget_s && advance1.size() < 400) || advance1.size() < 5) {
        timed_ms(advance1, "mobility", "walker::step", [&] { agents.step(); });
        timed_ms(advance4, "mobility", "walker::step", [&] { agents.step(lanes); });
        timed_ms(rebuild1, "geom", "uniform_grid::rebuild",
                 [&] { grid.rebuild(agents.positions()); });
        timed_ms(rebuild4, "geom", "uniform_grid::rebuild",
                 [&] { grid.rebuild(agents.positions(), lanes); });
    }
    std::vector<double> dispatch;
    for (int i = 0; i < 400; ++i) {
        timed_ms(dispatch, "util.parallel", "parallel_executor::run", [&] {
            lanes.run(lanes.lanes(), [](std::size_t, std::size_t, std::size_t) {});
        });
    }
    for (double& d : dispatch) {
        d *= 1e3;  // ms -> us
    }

    out.add("mobility.advance_ms.lanes1", median(advance1), "ms", advance1.size());
    out.add("mobility.advance_ms.lanes4", median(advance4), "ms", advance4.size());
    out.add("geom.rebuild_ms.lanes1", median(rebuild1), "ms", rebuild1.size());
    out.add("geom.rebuild_ms.lanes4", median(rebuild4), "ms", rebuild4.size());
    // Bytes a serial counting-sort rebuild moves, from the array sizes: per
    // agent a position read and bucket id write (count pass), a count
    // increment, and in the scatter the bucket id and position reads, a
    // cursor increment and the item and sorted-position writes; per bucket
    // the offset reset, prefix sum and cursor copy. Computed, not measured.
    const double bytes = 92.0 * static_cast<double>(size.n) +
                         40.0 * static_cast<double>(grid.bucket_count());
    out.add("geom.rebuild_gbps_computed", bytes / (median(rebuild1) * 1e-3) / 1e9, "GB/s",
            rebuild1.size(), "computed bytes / serial rebuild time");
    out.add("util.parallel.dispatch_us", median(dispatch), "us", dispatch.size(),
            "empty run() over every lane of a " + std::to_string(pool.size()) + "-worker pool");
}

void add_replica_probe(outcome& out, const scenario_size& size, std::uint64_t seed,
                       mh::engine::thread_pool& pool, double budget_s) {
    std::vector<replica_run> serial;
    std::vector<replica_run> lanes;
    const auto t0 = steady::now();
    for (std::uint64_t i = 0; (since(t0) < budget_s && i < 200) || i < 3; ++i) {
        const std::uint64_t replica_seed = derive_seed(seed, i);
        serial.push_back(run_replica(size, replica_seed, 0, nullptr, true));
        lanes.push_back(run_replica(size, replica_seed, 0, &pool, true));
        check_replicas(out, serial.back(), lanes.back());
    }
    add_replica_metrics(out.per_layer, serial, lanes, pool.size());
}

void run_flood(const options& opt, std::size_t n, std::uint64_t budget, outcome& out) {
    const scenario_size size = standard_case(n, 1.0);
    std::unique_ptr<mh::engine::thread_pool> pool;
    tracer::global().set_enabled(opt.trace);
    {
        const span s("engine", "thread_pool");
        pool = std::make_unique<mh::engine::thread_pool>(4);
    }
    tracer::global().set_enabled(false);

    std::vector<double> setup;
    std::vector<double> walker_ms;
    std::vector<double> serial_ms;
    std::vector<double> lanes_ms;
    std::vector<double> serial_steps_ms;
    std::vector<double> lanes_steps_ms;
    std::vector<double> traced_serial_ms;
    std::vector<double> flooding_times;
    std::vector<replica_run> traced_serial;
    std::vector<replica_run> traced_lanes;

    // One untimed round first, so the pool's workers, the allocator and the
    // caches are warm when timing starts.
    {
        const std::uint64_t seed = derive_seed(opt.seed, 1u << 21);
        const replica_run serial = run_replica(size, seed, budget, nullptr, false);
        check_replicas(out, serial, run_replica(size, seed, budget, pool.get(), false));
    }

    // A traced run alternates untraced and traced rounds, so the tracing
    // overhead is measured inside one run.
    const io_counters io_before = read_io();
    const auto t0 = steady::now();
    for (std::uint64_t round = 0; since(t0) < opt.seconds || round < (opt.trace ? 2u : 1u);
         ++round) {
        const bool traced = opt.trace && round % 2 == 1;
        const std::uint64_t seed = derive_seed(opt.seed, round);
        replica_run serial;
        replica_run lanes;
        {
            const mh::util::telemetry::scoped_enable telemetry(traced);
            tracer::global().set_enabled(traced);
            serial = run_replica(size, seed, budget, nullptr, traced);
            lanes = run_replica(size, seed, budget, pool.get(), traced);
            tracer::global().set_enabled(false);
        }
        check_replicas(out, serial, lanes);
        const double serial_step_ms =
            serial.loop_s / static_cast<double>(std::max<std::uint64_t>(serial.steps, 1)) * 1e3;
        const double lanes_step_ms =
            lanes.loop_s / static_cast<double>(std::max<std::uint64_t>(lanes.steps, 1)) * 1e3;
        if (traced) {
            traced_serial_ms.push_back(serial_step_ms);
            traced_serial.push_back(std::move(serial));
            traced_lanes.push_back(std::move(lanes));
            continue;
        }
        setup.push_back(serial.setup_s);
        setup.push_back(lanes.setup_s);
        walker_ms.push_back(serial.walker_s * 1e3);
        walker_ms.push_back(lanes.walker_s * 1e3);
        serial_ms.push_back(serial_step_ms);
        lanes_ms.push_back(lanes_step_ms);
        serial_steps_ms.insert(serial_steps_ms.end(), serial.step_ms.begin(),
                               serial.step_ms.end());
        lanes_steps_ms.insert(lanes_steps_ms.end(), lanes.step_ms.begin(), lanes.step_ms.end());
        flooding_times.push_back(static_cast<double>(serial.flooding_time));
    }
    out.span_mark = tracer::global().size();
    const io_counters io_after = read_io();
    const double window_s = since(t0);
    const double fds_end = static_cast<double>(open_fd_count());
    const double threads_end = proc_status("Threads");
    const double vm_mb_end = proc_status("VmSize") / 1024.0;

    const std::size_t rounds = serial_ms.size();
    out.end_to_end.add("setup_s", median(setup), "s", setup.size(),
                       "model + walker + flooding_sim construction");
    out.end_to_end.add("base_ms", median(serial_steps_ms), "ms", serial_steps_ms.size(),
                       "serial step, median over steps");
    out.end_to_end.add("variant_ms", median(lanes_steps_ms), "ms", lanes_steps_ms.size(),
                       "4-lane step, median over steps");
    out.detail.add("steps_per_s_serial", 1e3 / median(serial_ms), "1/s", rounds);
    out.detail.add("steps_per_s_lanes4", 1e3 / median(lanes_ms), "1/s", rounds);
    out.detail.add("flooding_time", median(flooding_times), "steps", rounds,
                   budget > 0 ? "step budget " + std::to_string(budget) : "to completion");
    out.detail.add("mobility.walker_setup_ms_p50", median(walker_ms), "ms", walker_ms.size());

    if (opt.trace) {
        add_replica_metrics(out.per_layer, traced_serial, traced_lanes, pool->size());
        tracer::global().set_enabled(true);
        add_kernel_metrics(out.per_layer, size, derive_seed(opt.seed, 1u << 20), *pool, 1.5);
        tracer::global().set_enabled(false);
        add_process_metrics(out.per_layer, io_before, io_after, window_s, fds_end, threads_end,
                            vm_mb_end, 1);
        out.per_layer.add("trace.overhead_frac",
                          median(traced_serial_ms) / median(serial_ms) - 1.0, "ratio",
                          traced_serial_ms.size(),
                          "traced / untraced serial ms per step, minus 1");
    }
}

}  // namespace perfbench
