// Unit tests for the flooding engine: exact hop semantics on frozen
// geometries, both propagation modes, metric bookkeeping, and determinism —
// including the intra-replica threading contract: a spread_result is
// bit-identical for a null executor and for pools of 1, 2, 3, 4 and 8 workers.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>

#include "core/flooding.h"
#include "core/params.h"
#include "core/scenario.h"
#include "engine/thread_pool.h"
#include "graph/temporal.h"
#include "mobility/mrwp.h"
#include "mobility/static_model.h"
#include "mobility/trace.h"
#include "mobility/walker.h"

namespace {

namespace core = manhattan::core;
namespace mobility = manhattan::mobility;
using manhattan::geom::vec2;
using manhattan::rng::rng;

constexpr double kL = 100.0;

// A frozen walker with agents at prescribed positions.
mobility::walker frozen_walker(const std::vector<vec2>& positions) {
    auto model = std::make_shared<mobility::static_model>(kL);
    mobility::walker w(model, positions.size(), 0.0, rng{1});
    for (std::size_t i = 0; i < positions.size(); ++i) {
        mobility::trip_state s;
        s.pos = positions[i];
        s.waypoint = positions[i];
        s.dest = positions[i];
        s.leg = 1;
        w.set_agent(i, s);
    }
    return w;
}

// One message from agent \p source in propagation \p mode.
core::spread_config one_message(std::size_t source,
                                core::propagation mode = core::propagation::one_hop) {
    core::spread_config cfg;
    cfg.spread.messages.push_back(
        {.sources = core::source_spec::agents({source}), .mode = mode});
    return cfg;
}

TEST(flooding_test, validates_arguments) {
    auto w = frozen_walker({{1, 1}, {2, 2}});
    EXPECT_THROW((void)core::flooding_sim(std::move(w), 1.0, one_message(5)),
                 std::invalid_argument);
    auto w2 = frozen_walker({{1, 1}});
    EXPECT_THROW((void)core::flooding_sim(std::move(w2), 0.0), std::invalid_argument);
}

TEST(flooding_test, source_is_informed_at_time_zero) {
    core::flooding_sim sim(frozen_walker({{1, 1}, {50, 50}}), 1.0);
    EXPECT_TRUE(sim.is_informed(0));
    EXPECT_FALSE(sim.is_informed(1));
    EXPECT_EQ(sim.informed_count(), 1u);
}

TEST(flooding_test, chain_floods_one_hop_per_step) {
    // Path 0-1-2-3-4 with unit spacing, R = 1: the paper's protocol takes
    // exactly one hop per step, so flooding time = 4.
    std::vector<vec2> chain;
    for (int i = 0; i < 5; ++i) {
        chain.push_back({10.0 + i, 10.0});
    }
    core::flooding_sim sim(frozen_walker(chain), 1.0);
    const auto result = sim.run_spread().messages[0];
    EXPECT_TRUE(result.completed);
    EXPECT_EQ(result.flooding_time, 4u);
    for (int i = 0; i < 5; ++i) {
        EXPECT_EQ(result.informed_at[i], static_cast<std::uint32_t>(i));
    }
}

TEST(flooding_test, lattice_neighbours_at_exactly_the_radius_are_reached_on_every_path) {
    // A 20x20 lattice at spacing 1 with R = 1: every neighbour sits at
    // dist2 == r2 exactly, so the radius test must be <=. Flooded from a
    // corner, agent (i, j) is informed at step i + j, serially and on 2
    // and 4 lanes; just below R = 1 nobody but the source is ever reached.
    constexpr int kSide = 20;
    std::vector<vec2> lattice;
    for (int i = 0; i < kSide; ++i) {
        for (int j = 0; j < kSide; ++j) {
            lattice.push_back({10.0 + i, 10.0 + j});
        }
    }
    manhattan::engine::thread_pool two(2);
    manhattan::engine::thread_pool four(4);
    manhattan::util::parallel_executor* const serial = nullptr;
    for (auto* exec : {serial, &two.executor(), &four.executor()}) {
        const std::size_t lanes = exec == nullptr ? 0 : exec->lanes();
        auto cfg = one_message(0);
        cfg.max_steps = 100;
        const auto at = core::flooding_sim(frozen_walker(lattice), 1.0, cfg, nullptr, exec)
                            .run_spread()
                            .messages[0];
        ASSERT_TRUE(at.completed) << "lanes=" << lanes;
        EXPECT_EQ(at.flooding_time, 38u) << "lanes=" << lanes;
        for (int i = 0; i < kSide; ++i) {
            for (int j = 0; j < kSide; ++j) {
                EXPECT_EQ(at.informed_at[i * kSide + j], static_cast<std::uint32_t>(i + j))
                    << "agent (" << i << ", " << j << "), lanes=" << lanes;
            }
        }
        const auto below = core::flooding_sim(frozen_walker(lattice),
                                              std::nextafter(1.0, 0.0), cfg, nullptr, exec)
                               .run_spread()
                               .messages[0];
        EXPECT_FALSE(below.completed) << "lanes=" << lanes;
        EXPECT_EQ(below.informed_count, 1u) << "lanes=" << lanes;
    }
}

TEST(flooding_test, per_component_floods_chain_in_one_step) {
    std::vector<vec2> chain;
    for (int i = 0; i < 5; ++i) {
        chain.push_back({10.0 + i, 10.0});
    }
    core::flooding_sim sim(frozen_walker(chain), 1.0,
                           one_message(0, core::propagation::per_component));
    const auto result = sim.run_spread().messages[0];
    EXPECT_TRUE(result.completed);
    EXPECT_EQ(result.flooding_time, 1u);
}

TEST(flooding_test, clique_floods_in_one_step) {
    core::flooding_sim sim(frozen_walker({{10, 10}, {10.5, 10}, {10, 10.5}, {10.5, 10.5}}),
                           2.0);
    const auto result = sim.run_spread().messages[0];
    EXPECT_EQ(result.flooding_time, 1u);
}

TEST(flooding_test, isolated_static_agent_never_informed) {
    core::flood_config cfg;
    cfg.max_steps = 50;
    core::flooding_sim sim(frozen_walker({{10, 10}, {90, 90}}), 1.0, cfg);
    const auto result = sim.run_spread().messages[0];
    EXPECT_FALSE(result.completed);
    EXPECT_EQ(result.flooding_time, 50u);
    EXPECT_EQ(result.informed_count, 1u);
    EXPECT_EQ(result.informed_at[1], core::never_informed);
}

TEST(flooding_test, timeline_is_monotone_and_ends_at_n) {
    std::vector<vec2> chain;
    for (int i = 0; i < 8; ++i) {
        chain.push_back({10.0 + i, 10.0});
    }
    core::flood_config cfg;
    cfg.record_timeline = true;
    core::flooding_sim sim(frozen_walker(chain), 1.0, cfg);
    const auto result = sim.run_spread().messages[0];
    ASSERT_FALSE(result.timeline.empty());
    for (std::size_t t = 1; t < result.timeline.size(); ++t) {
        EXPECT_GE(result.timeline[t], result.timeline[t - 1]);
    }
    EXPECT_EQ(result.timeline.back(), chain.size());
}

TEST(flooding_test, informed_at_is_consistent_with_timeline) {
    std::vector<vec2> chain;
    for (int i = 0; i < 6; ++i) {
        chain.push_back({10.0 + 0.9 * i, 10.0});
    }
    core::flood_config cfg;
    cfg.record_timeline = true;
    core::flooding_sim sim(frozen_walker(chain), 1.0, cfg);
    const auto result = sim.run_spread().messages[0];
    for (std::size_t t = 0; t < result.timeline.size(); ++t) {
        std::size_t count = 0;
        for (const auto at : result.informed_at) {
            count += (at != core::never_informed && at <= t + 1) ? 1 : 0;
        }
        EXPECT_EQ(result.timeline[t], count) << "step " << t + 1;
    }
}

TEST(flooding_test, nonzero_source_works) {
    std::vector<vec2> chain;
    for (int i = 0; i < 5; ++i) {
        chain.push_back({10.0 + i, 10.0});
    }
    core::flooding_sim sim(frozen_walker(chain), 1.0, one_message(4));  // from the far end
    const auto result = sim.run_spread().messages[0];
    EXPECT_EQ(result.flooding_time, 4u);
    EXPECT_EQ(result.informed_at[0], 4u);
    EXPECT_EQ(result.informed_at[4], 0u);
}

TEST(flooding_test, single_agent_is_trivially_complete) {
    core::flooding_sim sim(frozen_walker({{10, 10}}), 1.0);
    const auto result = sim.run_spread().messages[0];
    EXPECT_TRUE(result.completed);
    EXPECT_EQ(result.flooding_time, 0u);
}

TEST(flooding_test, newly_informed_do_not_transmit_same_step) {
    // 0 at distance 1 of 1; 1 at distance 1 of 2; 0 and 2 at distance 2 > R.
    // If newly informed agents transmitted immediately, 2 would be informed
    // at step 1; the paper's protocol informs it at step 2.
    core::flooding_sim sim(frozen_walker({{10, 10}, {11, 10}, {12, 10}}), 1.0);
    (void)sim.step();
    EXPECT_TRUE(sim.is_informed(1));
    EXPECT_FALSE(sim.is_informed(2));
    (void)sim.step();
    EXPECT_TRUE(sim.is_informed(2));
}

TEST(flooding_test, mobile_runs_are_deterministic_per_seed) {
    auto model = std::make_shared<mobility::manhattan_random_waypoint>(kL);
    auto make = [&] {
        mobility::walker w(model, 300, 1.0, rng{77});
        core::flood_config cfg;
        cfg.max_steps = 5000;
        return core::flooding_sim(std::move(w), 8.0, cfg);
    };
    EXPECT_EQ(make().run_spread(), make().run_spread());
}

TEST(flooding_test, both_modes_agree_on_completion_and_component_is_faster) {
    auto model = std::make_shared<mobility::manhattan_random_waypoint>(kL);
    core::flood_config one_hop_cfg;
    one_hop_cfg.max_steps = 20'000;
    auto comp_cfg = one_message(0, core::propagation::per_component);
    comp_cfg.max_steps = one_hop_cfg.max_steps;

    mobility::walker w1(model, 400, 1.0, rng{5});
    const auto one_hop =
        core::flooding_sim(std::move(w1), 8.0, one_hop_cfg).run_spread().messages[0];
    mobility::walker w2(model, 400, 1.0, rng{5});
    const auto comp =
        core::flooding_sim(std::move(w2), 8.0, comp_cfg).run_spread().messages[0];

    ASSERT_TRUE(one_hop.completed);
    ASSERT_TRUE(comp.completed);
    EXPECT_LE(comp.flooding_time, one_hop.flooding_time);
}

TEST(flooding_test, central_zone_metrics_tracked_with_partition) {
    const std::size_t n = 2000;
    const double side = std::sqrt(static_cast<double>(n));
    const double radius = 3.0 * std::sqrt(std::log(static_cast<double>(n)));
    const core::cell_partition cells(n, side, radius);

    auto model = std::make_shared<mobility::manhattan_random_waypoint>(side);
    mobility::walker w(model, n, core::paper::speed_bound(radius), rng{6});
    core::flood_config cfg;
    cfg.max_steps = 50'000;
    core::flooding_sim sim(std::move(w), radius, cfg, &cells);
    const auto result = sim.run_spread().messages[0];
    ASSERT_TRUE(result.completed);
    ASSERT_TRUE(result.central_zone_informed_step.has_value());
    EXPECT_LE(*result.central_zone_informed_step, result.flooding_time);
}

TEST(flooding_test, without_partition_no_cz_metric) {
    core::flooding_sim sim(frozen_walker({{10, 10}, {10.5, 10}}), 1.0);
    const auto result = sim.run_spread().messages[0];
    EXPECT_FALSE(result.central_zone_informed_step.has_value());
}

TEST(gossip_test, probability_one_matches_one_hop_exactly) {
    // With p = 1 every informed agent transmits every step, so the gossip
    // path must reproduce the one_hop protocol step for step.
    core::scenario sc;
    const std::size_t n = 1500;
    sc.params = core::net_params::standard_case(
        n, 3.0 * std::sqrt(std::log(static_cast<double>(n))), 1.0);
    sc.seed = 9;
    sc.max_steps = 50'000;
    const auto one_hop = core::run_scenario(sc);
    sc.mode = core::propagation::gossip;
    sc.gossip_p = 1.0;
    const auto gossip = core::run_scenario(sc);
    const auto& hop = one_hop.spread.messages[0];
    ASSERT_TRUE(hop.completed);
    EXPECT_EQ(gossip.spread.messages[0].flooding_time, hop.flooding_time);
    EXPECT_EQ(gossip.spread.messages[0].informed_at, hop.informed_at);
}

TEST(gossip_test, lossy_forwarding_is_deterministic_and_no_faster) {
    core::scenario sc;
    const std::size_t n = 1500;
    sc.params = core::net_params::standard_case(
        n, 3.0 * std::sqrt(std::log(static_cast<double>(n))), 1.0);
    sc.seed = 9;
    sc.max_steps = 50'000;
    const auto reference = core::run_scenario(sc);
    sc.mode = core::propagation::gossip;
    sc.gossip_p = 0.3;
    const auto a = core::run_scenario(sc);
    const auto b = core::run_scenario(sc);
    ASSERT_TRUE(a.spread.messages[0].completed);
    EXPECT_EQ(a.spread, b.spread);
    // Dropping transmissions can only slow the spread down.
    EXPECT_GE(a.spread.messages[0].flooding_time, reference.spread.messages[0].flooding_time);
}

TEST(gossip_test, invalid_probability_throws) {
    auto cfg = one_message(0, core::propagation::gossip);
    double& gossip_p = cfg.spread.messages[0].gossip_p;
    gossip_p = 0.0;
    EXPECT_THROW(core::flooding_sim(frozen_walker({{1, 1}, {2, 1}}), 1.0, cfg),
                 std::invalid_argument);
    gossip_p = 1.5;
    EXPECT_THROW(core::flooding_sim(frozen_walker({{1, 1}, {2, 1}}), 1.0, cfg),
                 std::invalid_argument);
    gossip_p = 0.5;
    EXPECT_NO_THROW(core::flooding_sim(frozen_walker({{1, 1}, {2, 1}}), 1.0, cfg));
}

// ------------------------------------------------- intra-replica threading ---

class intra_thread_determinism : public ::testing::TestWithParam<core::propagation> {
 protected:
    // A mobile mid-size run with a cell partition, exercising both one_hop
    // scan branches (few-informed and few-uninformed) along the way.
    [[nodiscard]] core::spread_result run_with(
        manhattan::util::parallel_executor* exec) const {
        const std::size_t n = 1200;
        const double side = std::sqrt(static_cast<double>(n));
        const double radius = 2.2 * std::sqrt(std::log(static_cast<double>(n)));
        auto model = std::make_shared<mobility::manhattan_random_waypoint>(side);
        mobility::walker w(model, n, core::paper::speed_bound(radius), rng{321});
        auto cfg = one_message(0, GetParam());
        cfg.max_steps = 50'000;
        cfg.spread.messages[0].gossip_p = GetParam() == core::propagation::gossip ? 0.35 : 1.0;
        cfg.spread.messages[0].gossip_seed = 99;
        core::cell_partition cells(n, side, radius);
        core::flooding_sim sim(std::move(w), radius, cfg, &cells, exec);
        return sim.run_spread();
    }
};

TEST_P(intra_thread_determinism, bit_identical_across_thread_counts_and_vs_serial) {
    // The serial (null executor) run is the pre-threading reference path.
    const auto serial = run_with(nullptr);
    ASSERT_TRUE(serial.completed);
    for (const std::size_t threads : {1u, 2u, 3u, 4u, 8u}) {
        manhattan::engine::thread_pool pool(threads);
        const auto threaded = run_with(&pool.executor());
        EXPECT_EQ(serial, threaded) << "threads=" << threads;
    }
}

INSTANTIATE_TEST_SUITE_P(modes, intra_thread_determinism,
                         ::testing::Values(core::propagation::one_hop,
                                           core::propagation::per_component,
                                           core::propagation::gossip));

TEST(flooding_test, flood_config_runs_one_one_hop_message_from_agent_zero) {
    // The flood_config constructor (the path perfbench's flood_1e5 drives)
    // must run exactly the one-message spread workload, serially and on a
    // 4-lane executor.
    const std::size_t n = 1200;
    const double side = std::sqrt(static_cast<double>(n));
    const double radius = 2.2 * std::sqrt(std::log(static_cast<double>(n)));
    auto model = std::make_shared<mobility::manhattan_random_waypoint>(side);
    const auto walker = [&] {
        return mobility::walker(model, n, core::paper::speed_bound(radius), rng{808});
    };
    core::flood_config flood;
    flood.max_steps = 50'000;
    auto spread = one_message(0);
    spread.max_steps = flood.max_steps;
    manhattan::util::parallel_executor* const serial = nullptr;
    manhattan::engine::thread_pool pool(4);
    for (auto* exec : {serial, &pool.executor()}) {
        const auto via_flood =
            core::flooding_sim(walker(), radius, flood, nullptr, exec).run_spread();
        const auto via_spread =
            core::flooding_sim(walker(), radius, spread, nullptr, exec).run_spread();
        ASSERT_TRUE(via_flood.completed);
        EXPECT_EQ(via_flood, via_spread) << (exec == nullptr ? "serial" : "4 lanes");
    }
}

TEST(flooding_test, scenario_intra_threads_matches_serial_scenario) {
    core::scenario sc;
    const std::size_t n = 1500;
    sc.params = core::net_params::standard_case(
        n, 3.0 * std::sqrt(std::log(static_cast<double>(n))), 1.0);
    sc.seed = 17;
    sc.max_steps = 50'000;
    sc.record_timeline = true;
    const auto serial = core::run_scenario(sc);
    sc.intra_threads = 4;
    const auto threaded = core::run_scenario(sc);
    ASSERT_TRUE(serial.spread.completed);
    EXPECT_EQ(serial.spread, threaded.spread);
}

TEST(flooding_test, set_executor_mid_run_does_not_change_outcomes) {
    // Alternating serial and pooled steps must trace the same trajectory as
    // an all-serial run: the executor is pure mechanism.
    auto make_walker = [] {
        auto model = std::make_shared<mobility::manhattan_random_waypoint>(kL);
        return mobility::walker(model, 400, 1.0, rng{55});
    };
    core::flood_config cfg;
    cfg.max_steps = 20'000;
    core::flooding_sim serial(make_walker(), 6.0, cfg);
    core::flooding_sim mixed(make_walker(), 6.0, cfg);
    manhattan::engine::thread_pool pool(3);
    bool pooled = false;
    while (!serial.all_informed() && serial.steps_taken() < cfg.max_steps) {
        mixed.set_executor(pooled ? &pool.executor() : nullptr);
        pooled = !pooled;
        const std::size_t a = serial.step();
        const std::size_t b = mixed.step();
        ASSERT_EQ(a, b) << "step " << serial.steps_taken();
    }
    EXPECT_EQ(serial.run_spread(), mixed.run_spread());
}

// ------------------------------------------------------------ frontier fill ---

// A 20 000-agent MRWP flood at c1 = 1 (R = sqrt(ln n)): a step's scans read
// buckets holding a few percent of the agents, so each scan fills only
// those (uniform_grid::fill) where the n = 500-1500 cases above, on grids
// of a few buckets, fill them all. A bucket that a query reads but the
// fill skipped holds the previous step's ids and positions.
core::net_params frontier_params() {
    const std::size_t n = 20'000;
    const double radius = std::sqrt(std::log(static_cast<double>(n)));
    return core::net_params::standard_case(n, radius, core::paper::speed_bound(radius));
}

mobility::walker frontier_walker(const core::net_params& p) {
    auto model = std::make_shared<mobility::manhattan_random_waypoint>(p.side);
    return mobility::walker(model, p.n, p.speed, rng{2027});
}

TEST(flooding_test, frontier_fill_one_hop_matches_the_temporal_oracle_on_1_2_4_lanes) {
    const core::net_params p = frontier_params();
    core::flood_config cfg;
    cfg.max_steps = 1'000;
    core::flooding_sim sim(frontier_walker(p), p.radius, cfg);
    mobility::trajectory_recorder rec(p.n);
    rec.capture(sim.agents());
    while (!sim.all_informed() && sim.steps_taken() < cfg.max_steps) {
        (void)sim.step();
        rec.capture(sim.agents());
    }
    ASSERT_TRUE(sim.all_informed());
    const auto oracle = manhattan::graph::temporal_flood(rec, p.radius, p.side, 0);
    ASSERT_TRUE(oracle.all_reached);
    const auto serial = sim.run_spread().messages[0];
    for (std::size_t i = 0; i < p.n; ++i) {
        ASSERT_EQ(serial.informed_at[i], oracle.reached_at[i]) << "agent " << i << ", serial";
    }
    for (const std::size_t threads : {2u, 4u}) {
        manhattan::engine::thread_pool pool(threads);
        const auto lanes =
            core::flooding_sim(frontier_walker(p), p.radius, cfg, nullptr, &pool.executor())
                .run_spread()
                .messages[0];
        for (std::size_t i = 0; i < p.n; ++i) {
            ASSERT_EQ(lanes.informed_at[i], oracle.reached_at[i])
                << "agent " << i << ", " << threads << " lanes";
        }
    }
}

/// FNV-1a over every message's informed_at, timeline, flooding time and
/// informed count, and the steps run.
std::uint64_t spread_digest(const core::spread_result& r) {
    std::uint64_t h = 1469598103934665603ULL;
    const auto mix = [&h](std::uint64_t v) { h = (h ^ v) * 1099511628211ULL; };
    mix(r.steps);
    for (const core::message_result& m : r.messages) {
        mix(m.flooding_time);
        mix(m.informed_count);
        for (const std::uint32_t at : m.informed_at) {
            mix(at);
        }
        for (const std::size_t count : m.timeline) {
            mix(count);
        }
    }
    return h;
}

TEST(flooding_test, frontier_fill_two_messages_share_a_step_grid_on_1_2_4_lanes) {
    // one_hop from agent 0, and from step 4 a gossip message from agent
    // 19 999: the gossip scan fills only what the one_hop scan of the same
    // step left empty. The digest was generated by the full per-step
    // rebuild that the frontier fill replaced.
    const core::net_params p = frontier_params();
    core::spread_config cfg;
    cfg.spread.messages.push_back({.sources = core::source_spec::agents({0})});
    cfg.spread.messages.push_back({.sources = core::source_spec::agents({19'999}),
                                   .spawn_step = 4,
                                   .mode = core::propagation::gossip,
                                   .gossip_p = 0.5,
                                   .gossip_seed = 31});
    cfg.max_steps = 2'000;
    const auto serial = core::flooding_sim(frontier_walker(p), p.radius, cfg).run_spread();
    ASSERT_TRUE(serial.completed);
    EXPECT_EQ(spread_digest(serial), 0xf7b462a11e9d8505ULL);
    for (const std::size_t threads : {2u, 4u}) {
        manhattan::engine::thread_pool pool(threads);
        const auto lanes =
            core::flooding_sim(frontier_walker(p), p.radius, cfg, nullptr, &pool.executor())
                .run_spread();
        EXPECT_EQ(lanes, serial) << threads << " lanes";
    }
}

TEST(flooding_test, moving_agents_bridge_static_gap) {
    // Two static agents 30 apart with R = 1 can only be bridged by mobility:
    // replace the static model with MRWP and the message must eventually
    // cross, demonstrating the "mobility as a resource" phenomenon.
    auto model = std::make_shared<mobility::manhattan_random_waypoint>(kL);
    mobility::walker w(model, 60, 2.0, rng{8});
    core::flood_config cfg;
    cfg.max_steps = 100'000;
    core::flooding_sim sim(std::move(w), 3.0, cfg);
    const auto result = sim.run_spread().messages[0];
    EXPECT_TRUE(result.completed);
    EXPECT_GT(result.flooding_time, 0u);
}

}  // namespace
