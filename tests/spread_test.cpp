// Unit tests for the spread-process API: source resolution, stop rules,
// multi-message semantics (spawn steps, independence of overlaid messages),
// the scenario-level single-message contract, and the determinism acceptance
// criterion — a k-message spread_result is bit-identical across replica
// thread counts and intra_threads counts, for one_hop and gossip modes.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <set>

#include "core/flooding.h"
#include "core/params.h"
#include "core/scenario.h"
#include "core/spread.h"
#include "engine/runner.h"
#include "mobility/mrwp.h"
#include "mobility/static_model.h"
#include "mobility/walker.h"

namespace {

namespace core = manhattan::core;
namespace mobility = manhattan::mobility;
namespace engine = manhattan::engine;
using manhattan::geom::vec2;
using manhattan::rng::rng;

constexpr double kL = 100.0;

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

// ------------------------------------------------------- source resolution ---

TEST(source_spec_test, validation_errors) {
    const std::vector<vec2> p{{1, 1}, {2, 2}, {3, 3}};
    EXPECT_THROW((void)core::resolve_sources(core::source_spec::at(
                     core::source_placement::random_agent, 0), p, kL, 1),
                 std::invalid_argument);
    EXPECT_THROW((void)core::resolve_sources(core::source_spec::random(4), p, kL, 1),
                 std::invalid_argument);
    EXPECT_THROW((void)core::resolve_sources(core::source_spec::agents({}), p, kL, 1),
                 std::invalid_argument);
    EXPECT_THROW((void)core::resolve_sources(core::source_spec::agents({0, 0}), p, kL, 1),
                 std::invalid_argument);
    EXPECT_THROW((void)core::resolve_sources(core::source_spec::agents({3}), p, kL, 1),
                 std::invalid_argument);
}

TEST(source_spec_test, random_placement_takes_prefix_of_exchangeable_sample) {
    const std::vector<vec2> p{{5, 5}, {1, 1}, {9, 9}, {2, 2}};
    const auto one = core::resolve_sources(
        core::source_spec::at(core::source_placement::random_agent), p, kL, 1);
    EXPECT_EQ(one, (std::vector<std::uint32_t>{0}));
    const auto three = core::resolve_sources(
        core::source_spec::at(core::source_placement::random_agent, 3), p, kL, 1);
    EXPECT_EQ(three, (std::vector<std::uint32_t>{0, 1, 2}));
}

TEST(source_spec_test, placement_rules_pick_nearest_to_target) {
    // Square of side 10 with agents near each corner and the center.
    const std::vector<vec2> p{{1, 1}, {9, 9}, {1, 9}, {9, 1}, {5, 5}};
    const double side = 10.0;
    using sp = core::source_placement;
    EXPECT_EQ(core::resolve_sources(core::source_spec::at(sp::corner_most), p, side, 1),
              (std::vector<std::uint32_t>{0}));
    EXPECT_EQ(core::resolve_sources(core::source_spec::at(sp::corner_ne), p, side, 1),
              (std::vector<std::uint32_t>{1}));
    EXPECT_EQ(core::resolve_sources(core::source_spec::at(sp::corner_nw), p, side, 1),
              (std::vector<std::uint32_t>{2}));
    EXPECT_EQ(core::resolve_sources(core::source_spec::at(sp::corner_se), p, side, 1),
              (std::vector<std::uint32_t>{3}));
    EXPECT_EQ(core::resolve_sources(core::source_spec::at(sp::center_most), p, side, 1),
              (std::vector<std::uint32_t>{4}));
    // count > 1: the two nearest the SW corner, ascending id.
    EXPECT_EQ(core::resolve_sources(core::source_spec::at(sp::corner_most, 2), p, side, 1),
              (std::vector<std::uint32_t>{0, 4}));
}

TEST(source_spec_test, random_k_is_a_deterministic_distinct_subset) {
    std::vector<vec2> p(50, vec2{1, 1});
    const auto a = core::resolve_sources(core::source_spec::random(8), p, kL, 42);
    const auto b = core::resolve_sources(core::source_spec::random(8), p, kL, 42);
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.size(), 8u);
    EXPECT_EQ(std::set<std::uint32_t>(a.begin(), a.end()).size(), 8u);
    EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
    const auto c = core::resolve_sources(core::source_spec::random(8), p, kL, 43);
    EXPECT_NE(a, c);
    // k == n returns the whole population.
    const auto all = core::resolve_sources(core::source_spec::random(50), p, kL, 7);
    EXPECT_EQ(all.size(), 50u);
}

TEST(stop_rule_test, validation_errors) {
    EXPECT_THROW(core::stop_rule::informed_fraction(0.0).validate(), std::invalid_argument);
    EXPECT_THROW(core::stop_rule::informed_fraction(1.5).validate(), std::invalid_argument);
    EXPECT_THROW(core::stop_rule::step_budget(0).validate(), std::invalid_argument);
    EXPECT_NO_THROW(core::stop_rule::informed_fraction(0.5).validate());
    EXPECT_NO_THROW(core::stop_rule::all_informed().validate());
}

// ------------------------------------------------- multi-message semantics ---

core::spread_config two_chain_config() {
    // Agents 0-4: a unit-spaced chain at y=10; agents 5-9: another at y=50.
    // Message 0 floods the first chain from its left end, message 1 the
    // second chain from its right end; R=1 keeps the chains disconnected.
    core::spread_config cfg;
    core::message_spec m0;
    m0.sources = core::source_spec::agents({0});
    core::message_spec m1;
    m1.sources = core::source_spec::agents({9});
    cfg.spread.messages = {m0, m1};
    cfg.max_steps = 100;
    return cfg;
}

std::vector<vec2> two_chains() {
    std::vector<vec2> p;
    for (int i = 0; i < 5; ++i) {
        p.push_back({10.0 + i, 10.0});
    }
    for (int i = 0; i < 5; ++i) {
        p.push_back({10.0 + i, 50.0});
    }
    return p;
}

TEST(spread_test, messages_are_independent_overlays) {
    core::flooding_sim sim(frozen_walker(two_chains()), 1.0, two_chain_config());
    const auto result = sim.run_spread();
    // Neither message can cross between the chains: both stall at 5 agents,
    // the run hits max_steps, and per-message results are independent.
    EXPECT_FALSE(result.completed);
    EXPECT_EQ(result.steps, 100u);
    ASSERT_EQ(result.messages.size(), 2u);
    const auto& m0 = result.messages[0];
    const auto& m1 = result.messages[1];
    EXPECT_FALSE(m0.completed);
    EXPECT_EQ(m0.flooding_time, result.steps);  // incomplete: the steps taken
    EXPECT_EQ(m0.informed_count, 5u);
    EXPECT_EQ(m1.informed_count, 5u);
    for (int i = 0; i < 5; ++i) {
        EXPECT_EQ(m0.informed_at[i], static_cast<std::uint32_t>(i));
        EXPECT_EQ(m0.informed_at[5 + i], core::never_informed);
        EXPECT_EQ(m1.informed_at[5 + i], static_cast<std::uint32_t>(4 - i));
        EXPECT_EQ(m1.informed_at[i], core::never_informed);
    }
    EXPECT_EQ(m0.sources, (std::vector<std::uint32_t>{0}));
    EXPECT_EQ(m1.sources, (std::vector<std::uint32_t>{9}));
}

TEST(spread_test, matches_standalone_single_message_runs) {
    // Each message of a 2-message run must reproduce the standalone
    // single-message run with the same specs bit for bit (messages share
    // the trace, never each other's state).
    auto cfg = two_chain_config();
    const auto both = core::flooding_sim(frozen_walker(two_chains()), 1.0, cfg).run_spread();
    for (std::size_t m = 0; m < 2; ++m) {
        core::spread_config solo = cfg;
        solo.spread.messages = {cfg.spread.messages[m]};
        const auto alone =
            core::flooding_sim(frozen_walker(two_chains()), 1.0, solo).run_spread();
        EXPECT_EQ(both.messages[m].informed_at, alone.messages[0].informed_at);
        EXPECT_EQ(both.messages[m].timeline, alone.messages[0].timeline);
        EXPECT_EQ(both.messages[m].informed_count, alone.messages[0].informed_count);
    }
}

TEST(spread_test, completed_message_timeline_freezes_at_completion) {
    // One chain of 7, message A seeded mid-chain (completes at step 3),
    // message B from the far end (completes at step 6). A's timeline must
    // stop growing at its completion step — identical to its standalone
    // run — while the joint run continues for B.
    std::vector<vec2> p;
    for (int i = 0; i < 7; ++i) {
        p.push_back({10.0 + i, 10.0});
    }
    core::spread_config cfg;
    core::message_spec a;
    a.sources = core::source_spec::agents({3});
    core::message_spec b;
    b.sources = core::source_spec::agents({0});
    cfg.spread.messages = {a, b};
    cfg.max_steps = 100;
    const auto joint = core::flooding_sim(frozen_walker(p), 1.0, cfg).run_spread();
    ASSERT_TRUE(joint.completed);
    EXPECT_EQ(joint.steps, 6u);
    EXPECT_TRUE(joint.messages[0].completed);
    EXPECT_EQ(joint.messages[0].flooding_time, 3u);
    EXPECT_EQ(joint.messages[0].timeline, (std::vector<std::size_t>{3, 5, 7}));
    EXPECT_EQ(joint.messages[1].timeline, (std::vector<std::size_t>{2, 3, 4, 5, 6, 7}));

    core::spread_config solo = cfg;
    solo.spread.messages = {a};
    const auto alone = core::flooding_sim(frozen_walker(p), 1.0, solo).run_spread();
    EXPECT_EQ(joint.messages[0].timeline, alone.messages[0].timeline);
    EXPECT_EQ(joint.messages[0].informed_at, alone.messages[0].informed_at);
    EXPECT_EQ(joint.messages[0].flooding_time, alone.messages[0].flooding_time);
}

TEST(spread_test, spawn_step_delays_a_message) {
    std::vector<vec2> chain;
    for (int i = 0; i < 4; ++i) {
        chain.push_back({10.0 + i, 10.0});
    }
    core::spread_config cfg;
    core::message_spec first;
    first.sources = core::source_spec::agents({0});
    core::message_spec late = first;
    late.spawn_step = 3;
    cfg.spread.messages = {first, late};
    cfg.max_steps = 50;
    core::flooding_sim sim(frozen_walker(chain), 1.0, cfg);
    const auto result = sim.run_spread();
    ASSERT_TRUE(result.completed);
    const auto& m0 = result.messages[0];
    const auto& m1 = result.messages[1];
    EXPECT_EQ(m0.flooding_time, 3u);
    // The late copy starts at step 3 and walks the same chain: every agent
    // is informed exactly spawn_step later.
    EXPECT_TRUE(m1.completed);
    EXPECT_EQ(m1.spawn_step, 3u);
    for (std::size_t i = 0; i < chain.size(); ++i) {
        EXPECT_EQ(m1.informed_at[i], m0.informed_at[i] + 3);
    }
    EXPECT_EQ(m1.flooding_time, 6u);
    // Timeline entries before the spawn are zero.
    ASSERT_GE(m1.timeline.size(), 3u);
    EXPECT_EQ(m1.timeline[0], 0u);
    EXPECT_EQ(m1.timeline[1], 0u);
    EXPECT_EQ(m1.timeline[2], 1u);
}

TEST(spread_test, multi_source_message_floods_from_every_source) {
    std::vector<vec2> chain;
    for (int i = 0; i < 9; ++i) {
        chain.push_back({10.0 + i, 10.0});
    }
    core::spread_config cfg;
    core::message_spec msg;
    msg.sources = core::source_spec::agents({0, 8});
    cfg.spread.messages = {msg};
    cfg.max_steps = 50;
    const auto result =
        core::flooding_sim(frozen_walker(chain), 1.0, cfg).run_spread();
    ASSERT_TRUE(result.completed);
    // Two waves meet in the middle: time 4 instead of 8.
    EXPECT_EQ(result.messages[0].flooding_time, 4u);
    EXPECT_EQ(result.messages[0].informed_at[4], 4u);
    EXPECT_EQ(result.messages[0].sources, (std::vector<std::uint32_t>{0, 8}));
}

// -------------------------------------------------------------- stop rules ---

TEST(spread_test, informed_fraction_stop_halts_early) {
    std::vector<vec2> chain;
    for (int i = 0; i < 10; ++i) {
        chain.push_back({10.0 + i, 10.0});
    }
    core::spread_config cfg;
    core::message_spec msg;
    msg.sources = core::source_spec::agents({0});
    cfg.spread.messages = {msg};
    cfg.spread.stop = core::stop_rule::informed_fraction(0.5);
    cfg.max_steps = 100;
    const auto result =
        core::flooding_sim(frozen_walker(chain), 1.0, cfg).run_spread();
    // ceil(0.5 * 10) = 5 agents: source + 4 hops.
    EXPECT_TRUE(result.completed);
    EXPECT_EQ(result.steps, 4u);
    EXPECT_EQ(result.messages[0].informed_count, 5u);
    EXPECT_FALSE(result.messages[0].completed);  // not everyone informed
    EXPECT_EQ(result.messages[0].stop_satisfied_step, 4u);
}

TEST(spread_test, step_budget_stop_runs_exactly_that_long) {
    std::vector<vec2> chain;
    for (int i = 0; i < 10; ++i) {
        chain.push_back({10.0 + i, 10.0});
    }
    core::spread_config cfg;
    core::message_spec msg;
    msg.sources = core::source_spec::agents({0});
    cfg.spread.messages = {msg};
    cfg.spread.stop = core::stop_rule::step_budget(3);
    cfg.max_steps = 100;
    const auto result =
        core::flooding_sim(frozen_walker(chain), 1.0, cfg).run_spread();
    EXPECT_TRUE(result.completed);
    EXPECT_EQ(result.steps, 3u);
    EXPECT_EQ(result.messages[0].informed_count, 4u);
}

TEST(spread_test, central_zone_stop_halts_at_cz_informed_step) {
    core::scenario sc;
    const std::size_t n = 1500;
    sc.params = core::net_params::standard_case(
        n, 3.0 * std::sqrt(std::log(static_cast<double>(n))), 1.0);
    sc.seed = 5;
    sc.max_steps = 50'000;
    const auto full = core::run_scenario(sc);
    const auto& flood = full.spread.messages[0];
    ASSERT_TRUE(flood.completed);
    ASSERT_TRUE(flood.central_zone_informed_step.has_value());

    sc.spread.stop = core::stop_rule::central_zone();
    const auto early = core::run_scenario(sc);
    EXPECT_TRUE(early.spread.completed);
    EXPECT_EQ(early.spread.steps, *flood.central_zone_informed_step);
    EXPECT_EQ(early.spread.messages[0].stop_satisfied_step, flood.central_zone_informed_step);
}

// ------------------------------------------------ scenario-level contracts ---

core::scenario small_scenario() {
    core::scenario sc;
    const std::size_t n = 1500;
    sc.params = core::net_params::standard_case(
        n, 3.0 * std::sqrt(std::log(static_cast<double>(n))), 1.0);
    sc.seed = 3;
    sc.max_steps = 50'000;
    return sc;
}

TEST(spread_scenario_test, explicit_single_message_spread_equals_legacy_fields) {
    const auto sc = small_scenario();
    const auto legacy = core::run_scenario(sc);

    core::scenario explicit_sc = sc;
    core::message_spec msg;
    msg.sources = core::source_spec::at(core::source_placement::random_agent);
    explicit_sc.spread.messages = {msg};
    const auto spread = core::run_scenario(explicit_sc);

    EXPECT_EQ(legacy.spread, spread.spread);
}

TEST(spread_scenario_test, gossip_streams_differ_per_message) {
    // Two identical gossip messages in one scenario: per-message coin
    // streams are derived from seed XOR message id, so their spreads differ
    // (almost surely) even though the specs coincide.
    auto sc = small_scenario();
    core::message_spec msg;
    msg.sources = core::source_spec::at(core::source_placement::random_agent);
    msg.mode = core::propagation::gossip;
    msg.gossip_p = 0.3;
    sc.spread.messages = {msg, msg};
    const auto out = core::run_scenario(sc);
    ASSERT_EQ(out.spread.messages.size(), 2u);
    EXPECT_TRUE(out.spread.messages[0].completed);
    EXPECT_TRUE(out.spread.messages[1].completed);
    EXPECT_NE(out.spread.messages[0].informed_at, out.spread.messages[1].informed_at);
}

// --------------------------------------------------- determinism acceptance ---

void expect_same_message(const core::message_result& a, const core::message_result& b) {
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.flooding_time, b.flooding_time);
    EXPECT_EQ(a.informed_count, b.informed_count);
    EXPECT_EQ(a.informed_at, b.informed_at);
    EXPECT_EQ(a.timeline, b.timeline);
    EXPECT_EQ(a.sources, b.sources);
    EXPECT_EQ(a.spawn_step, b.spawn_step);
    EXPECT_EQ(a.stop_satisfied_step, b.stop_satisfied_step);
    EXPECT_EQ(a.central_zone_informed_step, b.central_zone_informed_step);
    EXPECT_EQ(a.last_suburb_informed_step, b.last_suburb_informed_step);
}

void expect_same_spread(const core::spread_result& a, const core::spread_result& b) {
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.steps, b.steps);
    ASSERT_EQ(a.messages.size(), b.messages.size());
    for (std::size_t m = 0; m < a.messages.size(); ++m) {
        expect_same_message(a.messages[m], b.messages[m]);
    }
}

class spread_determinism : public ::testing::TestWithParam<core::propagation> {
 protected:
    // A 3-message workload: opposite corners plus a staggered random-pair
    // message, all in the parameterised propagation mode.
    [[nodiscard]] core::scenario multi_scenario() const {
        auto sc = small_scenario();
        sc.record_timeline = true;
        core::message_spec a;
        a.sources = core::source_spec::at(core::source_placement::corner_most);
        core::message_spec b;
        b.sources = core::source_spec::at(core::source_placement::corner_ne);
        core::message_spec c;
        c.sources = core::source_spec::random(2);
        c.spawn_step = 5;
        sc.spread.messages = {a, b, c};
        for (auto& msg : sc.spread.messages) {
            msg.mode = GetParam();
            msg.gossip_p = GetParam() == core::propagation::gossip ? 0.35 : 1.0;
        }
        return sc;
    }
};

TEST_P(spread_determinism, bit_identical_across_replica_thread_counts) {
    const auto sc = multi_scenario();
    constexpr std::size_t kReps = 3;
    const auto reference = engine::run_replicas(sc, kReps, {.threads = 1});
    ASSERT_EQ(reference.size(), kReps);
    for (const auto& out : reference) {
        ASSERT_TRUE(out.spread.completed);
    }
    for (const std::size_t threads : {2u, 8u}) {
        const auto outcomes = engine::run_replicas(sc, kReps, {.threads = threads});
        SCOPED_TRACE("threads=" + std::to_string(threads));
        ASSERT_EQ(outcomes.size(), kReps);
        for (std::size_t r = 0; r < kReps; ++r) {
            expect_same_spread(reference[r].spread, outcomes[r].spread);
        }
    }
}

TEST_P(spread_determinism, bit_identical_across_intra_thread_counts) {
    auto sc = multi_scenario();
    const auto serial = core::run_scenario(sc);  // intra_threads = 1: serial path
    ASSERT_TRUE(serial.spread.completed);
    for (const std::size_t threads : {2u, 3u, 4u, 8u}) {
        sc.intra_threads = threads;
        const auto threaded = core::run_scenario(sc);
        SCOPED_TRACE("intra_threads=" + std::to_string(threads));
        expect_same_spread(serial.spread, threaded.spread);
    }
}

INSTANTIATE_TEST_SUITE_P(modes, spread_determinism,
                         ::testing::Values(core::propagation::one_hop,
                                           core::propagation::gossip));

// per_component rides the same machinery; pin it once at the sim level with
// the shared-DSU path (two messages in one step share one components build).
TEST(spread_test, per_component_messages_share_components_deterministically) {
    auto sc = small_scenario();
    core::message_spec a;
    a.sources = core::source_spec::at(core::source_placement::corner_most);
    a.mode = core::propagation::per_component;
    core::message_spec b;
    b.sources = core::source_spec::at(core::source_placement::corner_ne);
    b.mode = core::propagation::per_component;
    sc.spread.messages = {a, b};
    const auto serial = core::run_scenario(sc);
    sc.intra_threads = 4;
    const auto threaded = core::run_scenario(sc);
    ASSERT_TRUE(serial.spread.completed);
    expect_same_spread(serial.spread, threaded.spread);
}

}  // namespace
