// Unit tests for the parallel experiment engine: thread-pool semantics
// (every task runs exactly once, exceptions propagate), the pool's lane
// team (exact lane coverage across spin/park handoffs, concurrent and
// nested run() callers, lane exceptions), deterministic
// replica sharding (bit-identical results at 1, 2 and 8 threads), sweep-grid
// expansion, and the structured result sinks.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "codec/json.h"
#include "engine/runner.h"
#include "engine/sink.h"
#include "engine/sweep.h"
#include "engine/thread_pool.h"
#include "rng/splitmix64.h"
#include "util/telemetry.h"

namespace {

namespace codec = manhattan::codec;
namespace core = manhattan::core;
namespace engine = manhattan::engine;

core::scenario small_scenario() {
    core::scenario sc;
    const std::size_t n = 1200;
    sc.params = core::net_params::standard_case(
        n, 3.0 * std::sqrt(std::log(static_cast<double>(n))), 1.0);
    sc.seed = 42;
    sc.max_steps = 50'000;
    return sc;
}

// ------------------------------------------------------------ thread pool ---

TEST(thread_pool_test, parallel_for_runs_every_index_exactly_once) {
    constexpr std::size_t kCount = 1000;
    std::vector<std::atomic<int>> hits(kCount);
    engine::thread_pool pool(4);
    pool.parallel_for(kCount, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < kCount; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
    }
}

TEST(thread_pool_test, parallel_for_with_one_thread_and_large_chunks) {
    std::atomic<int> total{0};
    engine::thread_pool pool(1);
    pool.parallel_for(37, [&](std::size_t) { total.fetch_add(1); }, 8);
    EXPECT_EQ(total.load(), 37);
}

TEST(thread_pool_test, parallel_for_propagates_exceptions) {
    engine::thread_pool pool(2);
    std::atomic<int> ran{0};
    EXPECT_THROW(pool.parallel_for(64,
                                   [&](std::size_t i) {
                                       ran.fetch_add(1);
                                       if (i == 13) {
                                           throw std::runtime_error("replica 13 failed");
                                       }
                                   }),
                 std::runtime_error);
    EXPECT_GE(ran.load(), 1);
}

TEST(thread_pool_test, submit_returns_future_carrying_result_or_exception) {
    engine::thread_pool pool(2);
    std::atomic<bool> ran{false};
    auto ok = pool.submit([&] { ran = true; });
    auto bad = pool.submit([] { throw std::invalid_argument("boom"); });
    ok.get();
    EXPECT_TRUE(ran.load());
    EXPECT_THROW(bad.get(), std::invalid_argument);
}

TEST(thread_pool_test, zero_resolves_to_hardware_concurrency) {
    engine::thread_pool pool(0);
    EXPECT_EQ(pool.size(), engine::default_thread_count());
    EXPECT_GE(pool.size(), 1u);
}

// ---------------------------------------------------------- pool executor ---

TEST(pool_executor_test, covers_the_index_space_in_contiguous_ascending_lanes) {
    engine::thread_pool pool(4);
    auto& ex = pool.executor();
    EXPECT_EQ(ex.lanes(), 4u);

    constexpr std::size_t kCount = 103;
    std::vector<std::atomic<int>> hits(kCount);
    std::array<std::pair<std::size_t, std::size_t>, 4> ranges;
    ex.run(kCount, [&](std::size_t lane, std::size_t begin, std::size_t end) {
        ranges[lane] = {begin, end};
        for (std::size_t i = begin; i < end; ++i) {
            hits[i].fetch_add(1);
        }
    });
    for (std::size_t i = 0; i < kCount; ++i) {
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
    }
    // Lanes are the deterministic balanced contiguous partition.
    std::size_t expect_begin = 0;
    for (std::size_t l = 0; l < 4; ++l) {
        EXPECT_EQ(ranges[l].first, expect_begin);
        EXPECT_EQ(ranges[l].first, ex.lane_begin(kCount, l));
        expect_begin = ranges[l].second;
    }
    EXPECT_EQ(expect_begin, kCount);
}

TEST(pool_executor_test, empty_count_and_exceptions) {
    engine::thread_pool pool(2);
    auto& ex = pool.executor();
    bool called = false;
    ex.run(0, [&](std::size_t, std::size_t, std::size_t) { called = true; });
    EXPECT_FALSE(called);
    EXPECT_THROW(
        ex.run(10,
               [](std::size_t lane, std::size_t, std::size_t) {
                   if (lane == 1) {
                       throw std::runtime_error("lane 1 failed");
                   }
               }),
        std::runtime_error);
    // The pool survives a throwing run and stays usable.
    std::atomic<int> total{0};
    ex.run(7, [&](std::size_t, std::size_t begin, std::size_t end) {
        total.fetch_add(static_cast<int>(end - begin));
    });
    EXPECT_EQ(total.load(), 7);
}

/// Runs \p count indices through \p ex and checks exact coverage: every
/// index once, every lane its lane_begin range. \p hits is scratch of at
/// least \p count entries, all zero on entry and on return.
void expect_exact_cover(manhattan::util::parallel_executor& ex, std::size_t count,
                        std::vector<std::atomic<int>>& hits) {
    std::atomic<bool> ranges_ok{true};
    ex.run(count, [&](std::size_t lane, std::size_t begin, std::size_t end) {
        if (begin != ex.lane_begin(count, lane) || end != ex.lane_begin(count, lane + 1)) {
            ranges_ok = false;
        }
        for (std::size_t i = begin; i < end; ++i) {
            hits[i].fetch_add(1);
        }
    });
    EXPECT_TRUE(ranges_ok.load()) << "count " << count;
    for (std::size_t i = 0; i < count; ++i) {
        ASSERT_EQ(hits[i].exchange(0), 1) << "index " << i << " of " << count;
    }
}

/// Wait for \p f, but fail and exit instead of hanging when it never
/// completes (a deadlocked pool would also hang its own destructor).
void await_or_exit(std::future<void>& f, const char* what) {
    if (f.wait_for(std::chrono::seconds(20)) != std::future_status::ready) {
        ADD_FAILURE() << what << " did not finish within 20 s (deadlock)";
        std::fflush(stdout);
        std::_Exit(1);
    }
    f.get();
}

TEST(pool_executor_test, back_to_back_tiny_runs_cross_the_spin_and_park_boundary) {
    engine::thread_pool pool(4);
    auto& ex = pool.executor();
    std::vector<std::atomic<int>> hits(2 * ex.lanes() + 1);
    for (std::size_t r = 0; r < 10'000; ++r) {
        // Counts 1 .. 2 * lanes + 1, so many runs leave lanes empty.
        expect_exact_cover(ex, 1 + r % hits.size(), hits);
        if (r % 97 == 96) {
            // Pauses just under, at and past the spin window, so workers
            // park and are woken again by the next run().
            std::this_thread::sleep_for(engine::thread_pool::lane_spin * (1 + r / 97 % 3) / 2);
        }
    }
}

TEST(pool_executor_test, runs_while_another_thread_drives_submit_and_parallel_for) {
    engine::thread_pool pool(4);
    auto& ex = pool.executor();
    std::thread replicas([&pool] {
        constexpr std::size_t kCount = 257;
        std::vector<std::atomic<int>> hits(kCount);
        for (int round = 0; round < 200; ++round) {
            std::atomic<int> ran{0};
            pool.submit([&ran] { ran.fetch_add(1); }).get();
            pool.parallel_for(kCount, [&](std::size_t i) { hits[i].fetch_add(1); });
            EXPECT_EQ(ran.load(), 1);
            for (std::size_t i = 0; i < kCount; ++i) {
                ASSERT_EQ(hits[i].exchange(0), 1) << "parallel_for index " << i;
            }
        }
    });
    std::vector<std::atomic<int>> hits(1000);
    for (std::size_t r = 0; r < 2000; ++r) {
        expect_exact_cover(ex, 1 + r * 7 % hits.size(), hits);
    }
    replicas.join();
}

TEST(pool_executor_test, several_throwing_lanes_rethrow_the_lowest_and_every_lane_runs) {
    engine::thread_pool pool(4);
    auto& ex = pool.executor();
    constexpr std::size_t kCount = 100;
    for (int round = 0; round < 50; ++round) {
        std::vector<std::atomic<int>> hits(kCount);
        try {
            ex.run(kCount, [&](std::size_t lane, std::size_t begin, std::size_t end) {
                for (std::size_t i = begin; i < end; ++i) {
                    hits[i].fetch_add(1);
                }
                if (lane == 1 || lane == 3) {
                    throw std::runtime_error("lane " + std::to_string(lane));
                }
            });
            ADD_FAILURE() << "run() swallowed the lane exceptions";
        } catch (const std::runtime_error& e) {
            EXPECT_STREQ(e.what(), "lane 1");
        }
        for (std::size_t i = 0; i < kCount; ++i) {
            ASSERT_EQ(hits[i].load(), 1) << "index " << i << ", round " << round;
        }
    }
    // The pool stays usable after throwing runs.
    std::vector<std::atomic<int>> hits(kCount);
    expect_exact_cover(ex, kCount, hits);
}

TEST(pool_executor_test, two_external_threads_run_concurrently) {
    engine::thread_pool pool(4);
    auto& ex = pool.executor();
    const auto drive = [&ex](std::size_t stride) {
        std::vector<std::atomic<int>> hits(600);
        for (std::size_t r = 0; r < 1000; ++r) {
            expect_exact_cover(ex, 1 + r * stride % hits.size(), hits);
        }
    };
    std::thread a(drive, 5);
    std::thread b(drive, 11);
    a.join();
    b.join();
}

TEST(pool_executor_test, every_worker_in_a_task_runs_the_same_pool_executor) {
    constexpr std::size_t kWorkers = 4;
    engine::thread_pool pool(kWorkers);
    auto& ex = pool.executor();
    std::atomic<std::size_t> started{0};
    std::vector<std::future<void>> tasks;
    for (std::size_t w = 0; w < kWorkers; ++w) {
        tasks.push_back(pool.submit([&ex, &started, w] {
            // Hold every worker inside a task before any run() starts, so no
            // idle worker is left to take lanes.
            started.fetch_add(1);
            const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(10);
            while (started.load() < kWorkers && std::chrono::steady_clock::now() < give_up) {
                std::this_thread::yield();
            }
            std::vector<std::atomic<int>> hits(64 + w);
            for (std::size_t r = 0; r < 50; ++r) {
                expect_exact_cover(ex, 1 + (r * 13 + w) % hits.size(), hits);
            }
        }));
    }
    for (auto& task : tasks) {
        await_or_exit(task, "a task calling executor().run() on its own pool");
    }
}

/// The pool registry's count for counter \p name.
std::uint64_t pool_counter(const engine::thread_pool& pool, const std::string& name) {
    for (const engine::metric_snapshot& m : pool.metrics().snapshot()) {
        if (m.name == name) {
            return static_cast<std::uint64_t>(m.value);
        }
    }
    ADD_FAILURE() << "no pool counter " << name;
    return 0;
}

TEST(pool_executor_test, caller_only_runs_are_counted_with_telemetry_off) {
    ASSERT_FALSE(manhattan::util::telemetry::enabled());
    constexpr std::size_t kWorkers = 4;
    constexpr std::uint64_t kRuns = 7;
    engine::thread_pool pool(kWorkers);
    // Hold every worker inside a task, so no helper is left to claim a lane
    // and the test thread runs every lane of its run()s.
    std::atomic<std::size_t> started{0};
    std::atomic<bool> release{false};
    std::vector<std::future<void>> tasks;
    for (std::size_t w = 0; w < kWorkers; ++w) {
        tasks.push_back(pool.submit([&] {
            started.fetch_add(1);
            const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(10);
            while (!release.load() && std::chrono::steady_clock::now() < give_up) {
                std::this_thread::yield();
            }
        }));
    }
    const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (started.load() < kWorkers && std::chrono::steady_clock::now() < give_up) {
        std::this_thread::yield();
    }
    ASSERT_EQ(started.load(), kWorkers);
    std::vector<std::atomic<int>> hits(40);
    for (std::uint64_t r = 0; r < kRuns; ++r) {
        expect_exact_cover(pool.executor(), hits.size(), hits);
    }
    release = true;
    for (auto& task : tasks) {
        await_or_exit(task, "a task holding its worker");
    }
    EXPECT_EQ(pool_counter(pool, "pool.team_runs"), kRuns);
    EXPECT_EQ(pool_counter(pool, "pool.caller_only_runs"), kRuns);
    EXPECT_EQ(pool_counter(pool, "pool.lane_runs"), 0u);  // telemetry-gated

    // A one-worker pool's run() is the caller's inline call: neither counts.
    engine::thread_pool one(1);
    expect_exact_cover(one.executor(), hits.size(), hits);
    EXPECT_EQ(pool_counter(one, "pool.team_runs"), 0u);
    EXPECT_EQ(pool_counter(one, "pool.caller_only_runs"), 0u);
}

TEST(serial_executor_test, runs_inline_as_one_lane) {
    manhattan::util::serial_executor ex;
    EXPECT_EQ(ex.lanes(), 1u);
    std::vector<std::size_t> seen;
    ex.run(5, [&](std::size_t lane, std::size_t begin, std::size_t end) {
        EXPECT_EQ(lane, 0u);
        for (std::size_t i = begin; i < end; ++i) {
            seen.push_back(i);
        }
    });
    EXPECT_EQ(seen, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

// --------------------------------------------------------- replica runner ---

TEST(runner_test, replica_seeds_are_the_splitmix_stream) {
    const auto seeds = engine::replica_seeds(123, 4);
    manhattan::rng::splitmix64 reference(123);
    ASSERT_EQ(seeds.size(), 4u);
    for (const auto seed : seeds) {
        EXPECT_EQ(seed, reference());
    }
    EXPECT_EQ(std::set<std::uint64_t>(seeds.begin(), seeds.end()).size(), 4u);
}

TEST(runner_test, results_bit_identical_across_thread_counts) {
    const auto sc = small_scenario();
    constexpr std::size_t kReps = 6;
    const auto t1 = engine::flooding_times(sc, kReps, {.threads = 1});
    const auto t2 = engine::flooding_times(sc, kReps, {.threads = 2});
    const auto t8 = engine::flooding_times(sc, kReps, {.threads = 8});
    ASSERT_EQ(t1.size(), kReps);
    EXPECT_EQ(t1, t2);
    EXPECT_EQ(t1, t8);
    // And the chunk size must not matter either.
    const auto chunked = engine::flooding_times(sc, kReps, {.threads = 3, .chunk = 4});
    EXPECT_EQ(t1, chunked);
}

TEST(runner_test, outcomes_match_serial_run_scenario) {
    auto sc = small_scenario();
    const auto outcomes = engine::run_replicas(sc, 3, {.threads = 2});
    const auto seeds = engine::replica_seeds(sc.seed, 3);
    ASSERT_EQ(outcomes.size(), 3u);
    for (std::size_t r = 0; r < 3; ++r) {
        core::scenario replica = sc;
        replica.seed = seeds[r];
        const auto reference = core::run_scenario(replica);
        EXPECT_EQ(outcomes[r].spread, reference.spread);
    }
}

TEST(runner_test, replica_errors_propagate) {
    auto sc = small_scenario();
    sc.params.radius = -1.0;  // invalid: every replica throws
    EXPECT_THROW((void)engine::run_replicas(sc, 4, {.threads = 2}), std::invalid_argument);
}

// ------------------------------------------------------------------ sweep ---

TEST(sweep_test, expands_cartesian_grid_last_axis_fastest) {
    engine::sweep_spec spec;
    spec.base = small_scenario();
    spec.n = {1000, 2000};
    spec.c1 = {2.0, 3.0, 4.0};
    spec.speed_factor = {1.0};
    const auto points = spec.expand();
    ASSERT_EQ(points.size(), 6u);
    EXPECT_EQ(points[0].sc.params.n, 1000u);
    EXPECT_EQ(points[2].sc.params.n, 1000u);
    EXPECT_EQ(points[3].sc.params.n, 2000u);
    for (std::size_t i = 0; i < points.size(); ++i) {
        EXPECT_EQ(points[i].index, i);
        const auto& p = points[i].sc.params;
        const double c1 = (i % 3 == 0) ? 2.0 : (i % 3 == 1) ? 3.0 : 4.0;
        EXPECT_DOUBLE_EQ(p.side, std::sqrt(static_cast<double>(p.n)));
        EXPECT_DOUBLE_EQ(p.radius, c1 * std::sqrt(std::log(static_cast<double>(p.n))));
        EXPECT_DOUBLE_EQ(p.speed, core::paper::speed_bound(p.radius));
        EXPECT_FALSE(points[i].label.empty());
    }
}

TEST(sweep_test, empty_axes_keep_base_values) {
    engine::sweep_spec spec;
    spec.base = small_scenario();
    const auto points = spec.expand();
    ASSERT_EQ(points.size(), 1u);
    EXPECT_EQ(points[0].sc.params.n, spec.base.params.n);
    EXPECT_DOUBLE_EQ(points[0].sc.params.radius, spec.base.params.radius);
}

TEST(sweep_test, conflicting_axes_throw) {
    engine::sweep_spec spec;
    spec.base = small_scenario();
    spec.c1 = {3.0};
    spec.radius = {5.0};
    EXPECT_THROW((void)spec.expand(), std::invalid_argument);

    engine::sweep_spec spec2;
    spec2.base = small_scenario();
    spec2.speed = {0.5};
    spec2.speed_factor = {1.0};
    EXPECT_THROW((void)spec2.expand(), std::invalid_argument);

    engine::sweep_spec spec3;
    spec3.base = small_scenario();
    spec3.repetitions = 0;
    EXPECT_THROW((void)spec3.expand(), std::invalid_argument);
}

TEST(sweep_test, invalid_grid_points_fail_at_expand) {
    // A grid point with invalid parameters (n = 0 here) must fail in
    // expand(), not half-way through a multi-hour sweep.
    engine::sweep_spec spec;
    spec.base = small_scenario();
    spec.n = {1000, 0};
    EXPECT_THROW((void)spec.expand(), std::invalid_argument);

    // Same for a source set larger than the population.
    engine::sweep_spec spec2;
    spec2.base = small_scenario();
    spec2.num_sources = {spec2.base.params.n + 1};
    EXPECT_THROW((void)spec2.expand(), std::invalid_argument);
}

TEST(sweep_test, num_sources_and_num_messages_axes_validate) {
    engine::sweep_spec spec;
    spec.base = small_scenario();
    spec.num_sources = {1, 0};
    EXPECT_THROW((void)spec.expand(), std::invalid_argument);

    engine::sweep_spec spec2;
    spec2.base = small_scenario();
    spec2.num_messages = {0};
    EXPECT_THROW((void)spec2.expand(), std::invalid_argument);

    // num_sources cannot resize an explicit id list.
    engine::sweep_spec spec3;
    spec3.base = small_scenario();
    core::message_spec msg;
    msg.sources = core::source_spec::agents({7});
    spec3.base.spread.messages = {msg};
    spec3.num_sources = {4};
    EXPECT_THROW((void)spec3.expand(), std::invalid_argument);
}

TEST(sweep_test, num_sources_axis_materialises_the_spread_workload) {
    engine::sweep_spec spec;
    spec.base = small_scenario();
    spec.base.source = core::source_placement::center_most;
    spec.num_sources = {1, 4};
    const auto points = spec.expand();
    ASSERT_EQ(points.size(), 2u);
    for (const auto& point : points) {
        ASSERT_EQ(point.sc.spread.messages.size(), 1u);
        const auto& sources = point.sc.spread.messages[0].sources;
        EXPECT_EQ(sources.how, core::source_spec::kind::placement);
        EXPECT_EQ(sources.placement, core::source_placement::center_most);
    }
    EXPECT_EQ(points[0].sc.spread.messages[0].sources.count, 1u);
    EXPECT_EQ(points[1].sc.spread.messages[0].sources.count, 4u);
}

TEST(sweep_test, num_messages_axis_cycles_the_message_list) {
    engine::sweep_spec spec;
    spec.base = small_scenario();
    core::message_spec sw;
    sw.sources = core::source_spec::at(core::source_placement::corner_most);
    core::message_spec ne;
    ne.sources = core::source_spec::at(core::source_placement::corner_ne);
    spec.base.spread.messages = {sw, ne};
    spec.num_messages = {1, 5};
    const auto points = spec.expand();
    ASSERT_EQ(points.size(), 2u);
    EXPECT_EQ(points[0].sc.spread.messages.size(), 1u);
    EXPECT_EQ(points[0].sc.spread.messages[0].sources.placement,
              core::source_placement::corner_most);
    ASSERT_EQ(points[1].sc.spread.messages.size(), 5u);
    // Growth cycles through the existing messages: SW, NE, SW, NE, SW.
    const core::source_placement expected[] = {
        core::source_placement::corner_most, core::source_placement::corner_ne,
        core::source_placement::corner_most, core::source_placement::corner_ne,
        core::source_placement::corner_most};
    for (std::size_t i = 0; i < 5; ++i) {
        EXPECT_EQ(points[1].sc.spread.messages[i].sources.placement, expected[i]) << i;
    }
}

TEST(sweep_test, mode_and_gossip_axes_write_through_materialised_spread) {
    engine::sweep_spec spec;
    spec.base = small_scenario();
    spec.base.spread = spec.base.effective_spread();  // materialised upfront
    spec.gossip_p = {0.4};
    const auto points = spec.expand();
    ASSERT_EQ(points.size(), 1u);
    EXPECT_EQ(points[0].sc.spread.messages[0].mode, core::propagation::gossip);
    EXPECT_DOUBLE_EQ(points[0].sc.spread.messages[0].gossip_p, 0.4);
}

TEST(sweep_test, row_labels_format_all_axes) {
    engine::sweep_spec spec;
    spec.base = small_scenario();
    spec.base.params = core::net_params::standard_case(2000, 5.0, 1.0);
    const auto base_label = spec.expand()[0].label;
    EXPECT_EQ(base_label.rfind("n=2000 R=5 v=1", 0), 0u);
    EXPECT_EQ(base_label.find("msgs="), std::string::npos);
    EXPECT_EQ(base_label.find("src="), std::string::npos);

    spec.num_sources = {4};
    spec.num_messages = {2};
    const auto label = spec.expand()[0].label;
    EXPECT_NE(label.find("msgs=2"), std::string::npos);
    EXPECT_NE(label.find("src=4"), std::string::npos);

    engine::sweep_spec gossip_spec;
    gossip_spec.base = small_scenario();
    gossip_spec.gossip_p = {0.25};
    EXPECT_NE(gossip_spec.expand()[0].label.find("gossip_p=0.25"), std::string::npos);
}

TEST(sweep_test, multi_message_rows_carry_per_message_aggregates) {
    engine::sweep_spec spec;
    spec.base = small_scenario();
    spec.repetitions = 2;
    spec.num_messages = {2};
    engine::memory_sink memory;
    engine::result_sink* sinks[] = {&memory};
    const auto result = engine::run_sweep(spec, {.threads = 2}, sinks);
    ASSERT_EQ(result.rows.size(), 1u);
    const auto& row = result.rows[0];
    ASSERT_EQ(row.message_mean_times.size(), 2u);
    ASSERT_EQ(row.message_completed_fraction.size(), 2u);
    EXPECT_DOUBLE_EQ(row.message_completed_fraction[0], 1.0);
    EXPECT_DOUBLE_EQ(row.message_completed_fraction[1], 1.0);
    // Message 0's aggregate is the row's headline mean.
    EXPECT_DOUBLE_EQ(row.message_mean_times[0], row.summary.mean);
    EXPECT_GT(row.message_mean_times[1], 0.0);
}

TEST(sweep_test, gossip_axis_switches_mode_and_labels) {
    engine::sweep_spec spec;
    spec.base = small_scenario();
    spec.gossip_p = {0.25, 1.0};
    const auto points = spec.expand();
    ASSERT_EQ(points.size(), 2u);
    for (const auto& point : points) {
        EXPECT_EQ(point.sc.mode, core::propagation::gossip);
        EXPECT_NE(point.label.find("gossip_p"), std::string::npos);
    }
    EXPECT_DOUBLE_EQ(points[0].sc.gossip_p, 0.25);
}

TEST(sweep_test, run_sweep_rows_match_standalone_replicas) {
    engine::sweep_spec spec;
    spec.base = small_scenario();
    spec.c1 = {2.5, 3.5};
    spec.repetitions = 3;
    engine::memory_sink memory;
    engine::result_sink* sinks[] = {&memory};
    const auto result = engine::run_sweep(spec, {.threads = 2}, sinks);

    ASSERT_EQ(result.rows.size(), 2u);
    ASSERT_EQ(memory.rows().size(), 2u);
    for (std::size_t p = 0; p < result.rows.size(); ++p) {
        const auto& row = result.rows[p];
        EXPECT_EQ(row.point.index, p);
        // Each row must reproduce a standalone flooding_times call on the
        // resolved scenario — the sweep reproducibility contract.
        const auto standalone = engine::flooding_times(row.point.sc, spec.repetitions,
                                                       {.threads = 1});
        EXPECT_EQ(row.times, standalone);
        EXPECT_EQ(row.summary.count, spec.repetitions);
        EXPECT_LE(row.mean_ci.lo, row.mean_ci.hi);
        EXPECT_TRUE(row.mean_ci.contains(row.summary.mean));
        EXPECT_EQ(memory.rows()[p].times, row.times);
        EXPECT_DOUBLE_EQ(row.completed_fraction, 1.0);
    }
}

// ------------------------------------------------------------------ sinks ---

TEST(sink_test, csv_sink_writes_header_and_one_line_per_row) {
    engine::sweep_spec spec;
    spec.base = small_scenario();
    spec.c1 = {2.5, 3.0, 3.5};
    spec.repetitions = 2;
    std::ostringstream csv;
    engine::csv_sink sink(csv);
    engine::result_sink* sinks[] = {&sink};
    (void)engine::run_sweep(spec, {.threads = 2}, sinks);

    const std::string text = csv.str();
    std::size_t lines = 0;
    for (const char c : text) {
        lines += c == '\n' ? 1 : 0;
    }
    EXPECT_EQ(lines, 4u);  // header + 3 rows
    EXPECT_EQ(text.rfind("index,label,n,side,radius,speed,model,mode,gossip_p", 0), 0u);
    // One data line byte for byte: doubles at 17 significant digits (the
    // bytes %.17g prints), one semicolon list per message column.
    EXPECT_NE(text.find("\n0,n=1200 R=6.657 v=1,1200,34.641016151377549,6.6567995481012172,1,"
                        "mrwp,one_hop,1,2,5.5,0.70710678118654757,5,5.5,6,5,6,1,5,5,1,"
                        "44.209343912872924,1,5.5,1\n"),
              std::string::npos);
}

TEST(sink_test, json_sink_emits_rows_array_with_replica_times) {
    engine::sweep_spec spec;
    spec.base = small_scenario();
    spec.repetitions = 2;
    std::ostringstream json;
    engine::json_sink sink(json);
    engine::memory_sink memory;
    engine::result_sink* sinks[] = {&sink, &memory};
    (void)engine::run_sweep(spec, {.threads = 1}, sinks);
    // One more row under a label no sweep axis renders but sweep.spec may
    // carry: quotes, a backslash and control characters must be escaped.
    engine::sweep_row odd = memory.rows().front();
    odd.point.label = "a\nb\"c\\d\x01";
    sink.on_row(odd);
    sink.finish();
    sink.finish();  // idempotent: the array is closed exactly once

    const std::string text = json.str();
    EXPECT_EQ(text.rfind("{\"rows\": [", 0), 0u);
    EXPECT_NE(text.find("\"times\": ["), std::string::npos);
    EXPECT_NE(text.find("\"summary\""), std::string::npos);
    // Despite the double finish() the document is closed exactly once.
    EXPECT_EQ(text.substr(text.size() - 4), "\n]}\n");
    EXPECT_EQ(text.find("\n]}\n"), text.size() - 4);
    const codec::json_value doc = codec::parse_json(text);
    const auto& rows = codec::require(doc, "rows").items;
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(codec::str_field(rows[1], "label"), odd.point.label);
}

TEST(sink_test, sinks_emit_per_message_aggregates) {
    engine::sweep_spec spec;
    spec.base = small_scenario();
    spec.repetitions = 2;
    spec.num_messages = {2};
    std::ostringstream csv;
    std::ostringstream json;
    engine::csv_sink csv_s(csv);
    engine::json_sink json_s(json);
    engine::result_sink* sinks[] = {&csv_s, &json_s};
    (void)engine::run_sweep(spec, {.threads = 1}, sinks);
    json_s.finish();
    EXPECT_NE(csv.str().find("messages,message_mean_times,message_completed_fraction"),
              std::string::npos);
    // Two messages: the joined CSV cell holds exactly one semicolon.
    const std::string line = csv.str().substr(csv.str().find('\n') + 1);
    EXPECT_NE(line.find(";"), std::string::npos);
    EXPECT_NE(json.str().find("\"messages\": 2"), std::string::npos);
    EXPECT_NE(json.str().find("\"message_mean_times\": ["), std::string::npos);
    EXPECT_NE(json.str().find("\"message_completed_fraction\": ["), std::string::npos);
}

TEST(sink_test, json_sink_with_no_rows_is_valid) {
    std::ostringstream json;
    engine::json_sink sink(json);
    sink.finish();
    EXPECT_EQ(json.str(), "{\"rows\": [\n]}\n");
}

TEST(sink_test, table_sink_prints_markdown_on_finish) {
    engine::sweep_spec spec;
    spec.base = small_scenario();
    spec.repetitions = 2;
    std::ostringstream out;
    engine::table_sink sink(out);
    engine::result_sink* sinks[] = {&sink};
    (void)engine::run_sweep(spec, {.threads = 1}, sinks);
    EXPECT_TRUE(out.str().empty());  // run_sweep never finalises sinks
    sink.finish();
    EXPECT_NE(out.str().find("mean T"), std::string::npos);
    EXPECT_NE(out.str().find('|'), std::string::npos);
}

TEST(sink_test, one_sink_can_span_two_sweeps) {
    // The exp_ablations pattern: two run_sweep calls feed one csv_sink;
    // the file carries one header and the union of rows.
    engine::sweep_spec first;
    first.base = small_scenario();
    first.repetitions = 2;
    engine::sweep_spec second = first;
    second.gossip_p = {0.5};
    std::ostringstream csv;
    engine::csv_sink sink(csv);
    engine::result_sink* sinks[] = {&sink};
    (void)engine::run_sweep(first, {.threads = 1}, sinks);
    (void)engine::run_sweep(second, {.threads = 1}, sinks);
    std::size_t lines = 0;
    for (const char c : csv.str()) {
        lines += c == '\n' ? 1 : 0;
    }
    EXPECT_EQ(lines, 3u);  // one header + one row per sweep
    EXPECT_NE(csv.str().find("gossip"), std::string::npos);
}

}  // namespace
