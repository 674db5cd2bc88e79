// Unit tests for the observability layer (docs/OBSERVABILITY.md): the
// telemetry switch and phase profiler, the metrics registry, the JSONL trace
// sink, the progress reporter — and the contract that underwrites all of it:
// telemetry is observation only, so flood/spread outputs are bit-identical
// with telemetry on or off, at any thread count.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/scenario.h"
#include "engine/error.h"
#include "engine/fault.h"
#include "engine/metrics.h"
#include "engine/progress.h"
#include "engine/runner.h"
#include "engine/sink.h"
#include "engine/sweep.h"
#include "engine/thread_pool.h"
#include "engine/trace_sink.h"
#include "util/telemetry.h"
#include "util/timer.h"

namespace {

namespace core = manhattan::core;
namespace engine = manhattan::engine;
namespace util = manhattan::util;
namespace telemetry = manhattan::util::telemetry;
namespace fault = manhattan::engine::fault;

core::scenario small_scenario() {
    core::scenario sc;
    const std::size_t n = 1200;
    sc.params = core::net_params::standard_case(
        n, 3.0 * std::sqrt(std::log(static_cast<double>(n))), 1.0);
    sc.seed = 42;
    sc.max_steps = 50'000;
    return sc;
}

/// A unique temp path per test (the suite may run in parallel with others).
std::string temp_path(const std::string& tag) {
    return testing::TempDir() + "telemetry_test." + tag + "." +
           std::to_string(::getpid()) + ".jsonl";
}

/// Disarm the fault registry (including a MANHATTAN_FAULT plan from the
/// environment) for the test body and again on exit.
struct fault_guard {
    fault_guard() {
        (void)fault::armed();
        fault::configure("");
    }
    ~fault_guard() { fault::configure(""); }
};

std::string slurp(const std::string& path) {
    std::ifstream in(path);
    return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

// ----------------------------------------------------------------- switch ---

TEST(telemetry_switch_test, off_by_default_and_scoped_enable_restores) {
    EXPECT_FALSE(telemetry::enabled());
    {
        const telemetry::scoped_enable on;
        EXPECT_TRUE(telemetry::enabled());
        {
            const telemetry::scoped_enable off(false);
            EXPECT_FALSE(telemetry::enabled());
        }
        EXPECT_TRUE(telemetry::enabled());
    }
    EXPECT_FALSE(telemetry::enabled());
}

TEST(telemetry_switch_test, phase_timer_is_inert_while_disabled) {
    util::phase_profile profile;
    { const util::phase_timer t(profile, util::phase::advance); }
    EXPECT_EQ(profile, util::phase_profile{});

    const telemetry::scoped_enable on;
    { const util::phase_timer t(profile, util::phase::advance); }
    EXPECT_EQ(profile.calls[0], 1u);
    EXPECT_GE(profile.seconds[0], 0.0);
}

TEST(telemetry_switch_test, phase_profile_accumulates_and_merges) {
    util::phase_profile a;
    a.add(util::phase::advance, 1.0);
    a.add(util::phase::scan, 2.0);
    util::phase_profile b;
    b.add(util::phase::scan, 3.0);
    a += b;
    EXPECT_DOUBLE_EQ(a.seconds[static_cast<std::size_t>(util::phase::scan)], 5.0);
    EXPECT_EQ(a.calls[static_cast<std::size_t>(util::phase::scan)], 2u);
    EXPECT_DOUBLE_EQ(a.total_seconds(), 6.0);
}

TEST(timer_test, lap_returns_splits_and_seconds_keeps_total) {
    util::timer t;
    const double lap1 = t.lap();
    const double lap2 = t.lap();
    const double total = t.seconds();
    EXPECT_GE(lap1, 0.0);
    EXPECT_GE(lap2, 0.0);
    EXPECT_GE(total, lap1);  // total spans both laps
}

// ---------------------------------------------------------------- metrics ---

TEST(metrics_test, instruments_count_with_the_switch_off) {
    // The switch gates clock reads at their call sites, not the instruments:
    // operational counters (cache, admission, pool tasks) always count.
    ASSERT_FALSE(telemetry::enabled());
    engine::counter c;
    engine::gauge g;
    engine::fixed_histogram h({1.0, 10.0});
    c.add(3);
    g.add(1.5);
    g.add(2.5);
    h.observe(0.5);
    h.observe(5.0);
    h.observe(100.0);  // overflow bucket
    EXPECT_EQ(c.value(), 3u);
    EXPECT_DOUBLE_EQ(g.value(), 4.0);
    EXPECT_EQ(h.counts(), (std::vector<std::uint64_t>{1, 1, 1}));
    g.set(0.5);
    EXPECT_DOUBLE_EQ(g.value(), 0.5);

    const telemetry::scoped_enable on;  // and the same with it on
    c.add(2);
    h.observe(0.5);
    EXPECT_EQ(c.value(), 5u);
    EXPECT_EQ(h.total(), 4u);
}

TEST(metrics_test, histogram_rejects_bad_bounds) {
    EXPECT_THROW(engine::fixed_histogram({}), std::invalid_argument);
    EXPECT_THROW(engine::fixed_histogram({2.0, 1.0}), std::invalid_argument);
    EXPECT_THROW(engine::fixed_histogram({1.0, 1.0}), std::invalid_argument);
}

TEST(metrics_test, registry_returns_stable_refs_and_rejects_kind_mismatch) {
    engine::metrics_registry reg;
    engine::counter& c1 = reg.get_counter("a.count");
    engine::counter& c2 = reg.get_counter("a.count");
    EXPECT_EQ(&c1, &c2);
    (void)reg.get_gauge("a.gauge");
    (void)reg.get_histogram("a.hist", {1.0, 2.0});
    EXPECT_THROW((void)reg.get_gauge("a.count"), std::invalid_argument);
    EXPECT_THROW((void)reg.get_counter("a.hist"), std::invalid_argument);
    EXPECT_THROW((void)reg.get_histogram("a.hist", {1.0, 3.0}), std::invalid_argument);

    const auto snap = reg.snapshot();
    ASSERT_EQ(snap.size(), 3u);  // sorted by name
    EXPECT_EQ(snap[0].name, "a.count");
    EXPECT_EQ(snap[1].name, "a.gauge");
    EXPECT_EQ(snap[2].name, "a.hist");
}

TEST(metrics_test, aggregate_snapshots_sums_by_name) {
    const telemetry::scoped_enable on;
    engine::metrics_registry a;
    engine::metrics_registry b;
    a.get_counter("c").add(2);
    b.get_counter("c").add(5);
    a.get_gauge("g").add(1.0);
    b.get_gauge("g").add(0.5);
    a.get_histogram("h", {1.0}).observe(0.5);
    b.get_histogram("h", {1.0}).observe(2.0);
    b.get_counter("only_b").add(1);

    const std::vector<std::vector<engine::metric_snapshot>> sets{a.snapshot(),
                                                                 b.snapshot()};
    const auto merged = engine::aggregate_snapshots(sets);
    ASSERT_EQ(merged.size(), 4u);
    EXPECT_EQ(merged[0].name, "c");
    EXPECT_DOUBLE_EQ(merged[0].value, 7.0);
    EXPECT_DOUBLE_EQ(merged[1].value, 1.5);
    EXPECT_EQ(merged[2].counts, (std::vector<std::uint64_t>{1, 1}));
    EXPECT_DOUBLE_EQ(merged[3].value, 1.0);

    engine::metrics_registry c;
    (void)c.get_gauge("c");  // same name, different kind
    const std::vector<std::vector<engine::metric_snapshot>> bad{a.snapshot(),
                                                                c.snapshot()};
    EXPECT_THROW((void)engine::aggregate_snapshots(bad), std::invalid_argument);
}

// ------------------------------------------------------------- pool stats ---

TEST(pool_stats_test, counts_every_task_and_times_them_only_while_enabled) {
    engine::thread_pool pool(2);
    for (int i = 0; i < 4; ++i) {
        pool.submit([] {}).get();
    }
    // Disabled: every task counts, but no clock is read for its timings.
    const engine::pool_stats off = pool.stats();
    EXPECT_EQ(off.tasks_run, 4u);
    EXPECT_DOUBLE_EQ(off.queue_wait_seconds, 0.0);
    for (const auto c : off.queue_wait_counts) {
        EXPECT_EQ(c, 0u);
    }
    for (const double b : off.worker_busy_seconds) {
        EXPECT_EQ(b, 0.0);
    }

    const telemetry::scoped_enable on;
    std::atomic<int> hits{0};
    for (int i = 0; i < 8; ++i) {
        pool.submit([&hits] { ++hits; }).get();
    }
    const engine::pool_stats s = pool.stats();
    EXPECT_EQ(hits.load(), 8);
    EXPECT_EQ(s.workers, 2u);
    EXPECT_EQ(s.tasks_run, 12u);
    EXPECT_EQ(s.queue_wait_counts.size(), s.queue_wait_bounds.size() + 1);
    std::uint64_t waits = 0;
    for (const auto c : s.queue_wait_counts) {
        waits += c;
    }
    EXPECT_EQ(waits, 8u);
    EXPECT_GT(s.alive_seconds, 0.0);
    EXPECT_GE(s.busy_fraction(), 0.0);
    EXPECT_LE(s.busy_fraction(), 1.0);
}

/// The pool registry's value for \p name: a counter's count or a
/// histogram's total.
std::uint64_t pool_metric(const engine::thread_pool& pool, const std::string& name) {
    for (const engine::metric_snapshot& m : pool.metrics().snapshot()) {
        if (m.name != name) {
            continue;
        }
        std::uint64_t total = static_cast<std::uint64_t>(m.value);
        for (const std::uint64_t c : m.counts) {
            total += c;
        }
        return total;
    }
    ADD_FAILURE() << "no pool metric " << name;
    return 0;
}

double total_busy(const engine::pool_stats& s) {
    double busy = 0.0;
    for (const double b : s.worker_busy_seconds) {
        busy += b;
    }
    return busy;
}

TEST(pool_stats_test, lane_runs_measured_only_while_enabled) {
    engine::thread_pool pool(4);
    auto& ex = pool.executor();
    const std::thread::id caller = std::this_thread::get_id();
    // Each run's caller lane waits until a worker ran a lane, so every run
    // has helper lane time to account for.
    const auto run_with_a_helper = [&] {
        std::atomic<bool> helper_ran{false};
        ex.run(ex.lanes(), [&](std::size_t, std::size_t, std::size_t) {
            if (std::this_thread::get_id() != caller) {
                std::this_thread::sleep_for(std::chrono::microseconds(50));
                helper_ran = true;
                return;
            }
            const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(10);
            while (!helper_ran.load() && std::chrono::steady_clock::now() < give_up) {
                std::this_thread::yield();
            }
        });
    };

    constexpr int kRuns = 20;
    for (int r = 0; r < kRuns; ++r) {
        run_with_a_helper();
    }
    EXPECT_EQ(pool_metric(pool, "pool.lane_runs"), 0u);  // disabled: nothing recorded
    EXPECT_EQ(pool_metric(pool, "pool.lane_start_skew_s"), 0u);
    EXPECT_EQ(pool_metric(pool, "pool.lane_imbalance_ratio"), 0u);
    EXPECT_EQ(total_busy(pool.stats()), 0.0);

    const telemetry::scoped_enable on;
    for (int r = 0; r < kRuns; ++r) {
        run_with_a_helper();
    }
    const engine::pool_stats s = pool.stats();
    EXPECT_EQ(pool_metric(pool, "pool.lane_runs"), static_cast<std::uint64_t>(kRuns));
    EXPECT_EQ(pool_metric(pool, "pool.lane_start_skew_s"), static_cast<std::uint64_t>(kRuns));
    EXPECT_EQ(pool_metric(pool, "pool.lane_imbalance_ratio"),
              static_cast<std::uint64_t>(kRuns));
    EXPECT_GT(total_busy(s), 0.0);  // helper lane time is worker busy time
    // Lanes are not queued tasks.
    EXPECT_EQ(s.tasks_run, 0u);
    EXPECT_EQ(pool_metric(pool, "pool.queue_wait_s"), 0u);
}

// ------------------------------------------------- determinism (tentpole) ---

/// The hard constraint of the observability layer: enabling telemetry must
/// not perturb a single bit of the simulation output, at any combination of
/// replica threads and intra-replica lanes.
TEST(telemetry_determinism_test, spread_results_bit_identical_on_or_off) {
    for (const std::size_t intra : {1u, 2u, 8u}) {
        core::scenario sc = small_scenario();
        sc.intra_threads = intra;
        const core::scenario_outcome off = core::run_scenario(sc);
        EXPECT_EQ(off.phases, util::phase_profile{});  // no timing leaked

        const telemetry::scoped_enable enable;
        const core::scenario_outcome on = core::run_scenario(sc);

        EXPECT_EQ(on.spread.steps, off.spread.steps) << "intra=" << intra;
        EXPECT_EQ(on.spread.completed, off.spread.completed);
        ASSERT_EQ(on.spread.messages.size(), off.spread.messages.size());
        for (std::size_t m = 0; m < on.spread.messages.size(); ++m) {
            EXPECT_EQ(on.spread.messages[m].flooding_time,
                      off.spread.messages[m].flooding_time);
            EXPECT_EQ(on.spread.messages[m].informed_at,
                      off.spread.messages[m].informed_at)
                << "intra=" << intra << " message=" << m;
            EXPECT_EQ(on.spread.messages[m].sources, off.spread.messages[m].sources);
        }
        // The enabled run measured something, and the phases tile the loop:
        // every accumulated second is non-negative, advance ran every step.
        EXPECT_GT(on.phases.total_seconds(), 0.0);
        for (const double s : on.phases.seconds) {
            EXPECT_GE(s, 0.0);
        }
        EXPECT_EQ(on.phases.calls[static_cast<std::size_t>(util::phase::advance)],
                  on.spread.steps);
    }
}

TEST(telemetry_determinism_test, replica_fanout_bit_identical_on_or_off) {
    const core::scenario sc = small_scenario();
    const auto off = engine::flooding_times(sc, 4, {.threads = 2});
    const telemetry::scoped_enable enable;
    for (const std::size_t threads : {1u, 2u, 8u}) {
        engine::run_options opts;
        opts.threads = threads;
        EXPECT_EQ(engine::flooding_times(sc, 4, opts), off) << "threads=" << threads;
    }
}

TEST(telemetry_determinism_test, sweep_csv_byte_identical_with_observability_on) {
    engine::sweep_spec spec;
    spec.base = small_scenario();
    spec.c1 = {2.5, 3.5};
    spec.repetitions = 2;

    const auto run_csv = [&spec](engine::run_options opts) {
        std::ostringstream csv;
        engine::csv_sink sink(csv);
        engine::result_sink* sinks[] = {&sink};
        (void)engine::run_sweep(spec, opts, sinks);
        return csv.str();
    };

    const std::string plain = run_csv({.threads = 2});

    const telemetry::scoped_enable enable;
    engine::trace_sink trace(temp_path("csv"));
    std::ostringstream progress_out;
    engine::progress_reporter progress(
        2, 4, {.min_interval_seconds = 0.0, .out = &progress_out});
    engine::run_options loud;
    loud.threads = 1;  // different thread count AND telemetry on
    loud.trace = &trace;
    loud.progress = &progress;
    const std::string traced = run_csv(loud);

    EXPECT_EQ(traced, plain);
    EXPECT_GT(trace.events(), 0u);
    EXPECT_EQ(progress.replicas_done(), 4u);
    std::remove(temp_path("csv").c_str());
}

// ------------------------------------------------------------- trace sink ---

TEST(trace_sink_test, unwritable_path_throws_before_any_work) {
    EXPECT_THROW(engine::trace_sink("/nonexistent-dir/x/trace.jsonl"),
                 std::invalid_argument);
}

TEST(trace_sink_test, publishes_complete_lines_per_event) {
    const std::string path = temp_path("per_event");
    {
        engine::trace_sink sink(path);
        EXPECT_EQ(slurp(path), "");  // constructor publishes an empty file
        sink.emit("a", {engine::trace_field::num("k", std::uint64_t{1})});
        // On disk as one whole line when emit() returns, so a kill here
        // loses nothing emitted.
        const std::string at1 = slurp(path);
        EXPECT_EQ(at1.find("\"event\": \"a\""), at1.find("{") + 1);
        EXPECT_EQ(at1.find('\n'), at1.size() - 1);
        sink.emit("b", {});
        sink.emit("c", {});
        const std::string at3 = slurp(path);
        EXPECT_EQ(at3.rfind(at1, 0), 0u);  // appended after, never rewritten
        EXPECT_NE(at3.find("\"event\": \"c\""), std::string::npos);
        sink.emit("d", {});
        EXPECT_NE(slurp(path).find("\"event\": \"d\""), std::string::npos);
    }  // destructor flush
    const std::string final_text = slurp(path);
    EXPECT_NE(final_text.find("\"event\": \"d\""), std::string::npos);

    // Envelope: every line carries event/seq/t, seq is dense from 0.
    std::istringstream lines(final_text);
    std::string line;
    std::size_t seq = 0;
    while (std::getline(lines, line)) {
        EXPECT_EQ(line.front(), '{');
        EXPECT_EQ(line.back(), '}');
        EXPECT_NE(line.find("\"event\": \""), std::string::npos);
        EXPECT_NE(line.find("\"seq\": " + std::to_string(seq) + ","), std::string::npos);
        EXPECT_NE(line.find("\"t\": "), std::string::npos);
        ++seq;
    }
    EXPECT_EQ(seq, 4u);
    std::remove(path.c_str());
}

TEST(trace_sink_test, publish_faults_never_fail_the_sweep) {
    const fault_guard guard;
    engine::sweep_spec spec;
    spec.base = small_scenario();
    spec.c1 = {2.5, 3.5};
    spec.repetitions = 2;
    const auto run_csv = [&spec](engine::trace_sink* trace) {
        std::ostringstream csv;
        engine::csv_sink sink(csv);
        engine::result_sink* sinks[] = {&sink};
        engine::run_options opts;
        opts.threads = 2;
        opts.trace = trace;
        (void)engine::run_sweep(spec, opts, sinks);
        return csv.str();
    };
    const std::string plain = run_csv(nullptr);

    // fail:2 is absorbed by one publish's retries; fail:7 exhausts the
    // first publish's (reported once, events kept buffered) and the next
    // publish carries them.
    for (const char* plan : {"trace.publish:fail:2", "trace.publish:fail:7"}) {
        const std::string path = temp_path("fault");
        engine::trace_sink trace(path);
        fault::configure(plan);
        EXPECT_EQ(run_csv(&trace), plain) << plan;
        EXPECT_NO_THROW(trace.flush()) << plan;
        std::istringstream lines(slurp(path));
        std::string line;
        std::size_t seq = 0;
        while (std::getline(lines, line)) {
            EXPECT_NE(line.find("\"seq\": " + std::to_string(seq) + ","), std::string::npos)
                << plan;
            ++seq;
        }
        EXPECT_EQ(seq, trace.events()) << plan;
        std::remove(path.c_str());
    }
}

TEST(trace_sink_test, persistent_publish_failure_surfaces_only_from_flush) {
    const fault_guard guard;
    const std::string path = temp_path("persistent");
    engine::trace_sink sink(path);
    fault::configure("trace.publish:fail:100");
    EXPECT_NO_THROW(sink.emit("a", {}));  // reported, kept buffered
    EXPECT_EQ(slurp(path), "");
    EXPECT_THROW(sink.flush(), engine::error);
    fault::configure("");  // the disk recovers: the buffered event lands
    sink.flush();
    EXPECT_NE(slurp(path).find("\"event\": \"a\""), std::string::npos);
    std::remove(path.c_str());
}

TEST(trace_sink_test, field_builders_render_json_values) {
    EXPECT_EQ(engine::trace_field::num("k", 1.5).rendered, "1.5");
    // 17 significant digits: the bytes %.17g prints.
    EXPECT_EQ(engine::trace_field::num("k", 0.1).rendered, "0.10000000000000001");
    EXPECT_EQ(engine::trace_field::num("k", -0.0).rendered, "-0");
    using lim = std::numeric_limits<double>;
    for (const double v : {0.1, -0.0, lim::denorm_min(), lim::max(), lim::infinity(),
                           -lim::infinity(), lim::quiet_NaN(), -lim::quiet_NaN()}) {
        char expected[32];
        std::snprintf(expected, sizeof expected, "%.17g", v);
        EXPECT_EQ(engine::trace_field::num("k", v).rendered, expected);
    }
    EXPECT_EQ(engine::trace_field::num("k", std::uint64_t{7}).rendered, "7");
    EXPECT_EQ(engine::trace_field::boolean("k", true).rendered, "true");
    EXPECT_EQ(engine::trace_field::str("k", "a\"b\\c\nd").rendered,
              "\"a\\\"b\\\\c\\nd\"");
    EXPECT_EQ(engine::trace_field::str("k", "a\x01").rendered, "\"a\\u0001\"");
    EXPECT_EQ(engine::trace_field::raw("k", "{\"x\": 1}").rendered, "{\"x\": 1}");
}

TEST(trace_sink_test, sweep_events_bracket_points_and_replicas) {
    engine::sweep_spec spec;
    spec.base = small_scenario();
    spec.c1 = {2.5, 3.5};
    spec.repetitions = 2;

    const std::string path = temp_path("sweep");
    engine::trace_sink trace(path);
    engine::run_options opts;
    opts.threads = 2;
    opts.trace = &trace;
    (void)engine::run_sweep(spec, opts, {});

    const std::string text = slurp(path);
    const auto count = [&text](const std::string& needle) {
        std::size_t hits = 0;
        for (std::size_t at = text.find(needle); at != std::string::npos;
             at = text.find(needle, at + 1)) {
            ++hits;
        }
        return hits;
    };
    EXPECT_EQ(count("\"event\": \"sweep_begin\""), 1u);
    EXPECT_EQ(count("\"event\": \"sweep_end\""), 1u);
    EXPECT_EQ(count("\"event\": \"point_begin\""), 2u);
    EXPECT_EQ(count("\"event\": \"point_end\""), 2u);
    EXPECT_EQ(count("\"event\": \"replica_begin\""), 4u);
    EXPECT_EQ(count("\"event\": \"replica_end\""), 4u);
    EXPECT_EQ(count("\"fingerprint\": \""), 1u);
    EXPECT_EQ(count("\"phases\": {"), 5u);  // 4 replica_end + sweep_end
    EXPECT_EQ(count("\"pool\": {"), 1u);
    EXPECT_EQ(count("\"metrics\": ["), 1u);

    // The begin of a replica always precedes its end, and the sweep events
    // bracket everything.
    EXPECT_LT(text.find("sweep_begin"), text.find("replica_begin"));
    EXPECT_GT(text.rfind("sweep_end"), text.rfind("replica_end"));
    std::remove(path.c_str());
}

// --------------------------------------------------------------- progress ---

TEST(progress_test, renders_counts_rate_and_replayed) {
    std::ostringstream out;
    engine::progress_reporter progress(
        2, 6, {.min_interval_seconds = 0.0, .out = &out});
    progress.add_replayed(2);
    EXPECT_EQ(progress.replicas_done(), 2u);
    EXPECT_NE(progress.last_line().find("replicas 2/6 (2 replayed)"),
              std::string::npos);
    progress.replica_done();
    progress.replica_done();
    progress.point_done();
    EXPECT_NE(progress.last_line().find("points 1/2"), std::string::npos);
    EXPECT_NE(progress.last_line().find("replicas 4/6"), std::string::npos);
    EXPECT_NE(progress.last_line().find("replicas/s"), std::string::npos);
    progress.finish();
    const std::string text = out.str();
    EXPECT_EQ(text.back(), '\n');
    // Plain-line mode (no TTY): no carriage returns.
    EXPECT_EQ(text.find('\r'), std::string::npos);
}

TEST(progress_test, throttles_below_min_interval) {
    std::ostringstream out;
    engine::progress_reporter progress(1, 100,
                                       {.min_interval_seconds = 3600.0, .out = &out});
    for (int i = 0; i < 50; ++i) {
        progress.replica_done();
    }
    EXPECT_TRUE(out.str().empty());  // nothing rendered inside the interval
    progress.finish();               // force
    EXPECT_NE(out.str().find("replicas 50/100"), std::string::npos);
}

}  // namespace
