// Tests of the scenario driver — the declarative layer every bench uses.
#include <gtest/gtest.h>

#include <cmath>

#include "core/scenario.h"
#include "engine/runner.h"

namespace {

namespace core = manhattan::core;
namespace engine = manhattan::engine;

core::scenario small_scenario() {
    core::scenario sc;
    const std::size_t n = 1500;
    sc.params = core::net_params::standard_case(
        n, 3.0 * std::sqrt(std::log(static_cast<double>(n))), 1.0);
    sc.seed = 3;
    sc.max_steps = 50'000;
    return sc;
}

TEST(net_params_test, validation) {
    core::net_params p{0, 1.0, 1.0, 1.0};
    EXPECT_THROW((void)p.validate(), std::invalid_argument);
    p = {10, -1.0, 1.0, 1.0};
    EXPECT_THROW((void)p.validate(), std::invalid_argument);
    p = {10, 1.0, 0.0, 1.0};
    EXPECT_THROW((void)p.validate(), std::invalid_argument);
    p = {10, 1.0, 1.0, 0.0};  // zero speed is legal (the paper's v = 0 case)
    EXPECT_NO_THROW(p.validate());
}

TEST(net_params_test, standard_case_sets_side_to_sqrt_n) {
    const auto p = core::net_params::standard_case(400, 5.0, 1.0);
    EXPECT_DOUBLE_EQ(p.side, 20.0);
    EXPECT_EQ(p.n, 400u);
}

TEST(paper_constants_test, closed_forms) {
    EXPECT_NEAR(core::paper::speed_bound(9.7082), 1.0, 1e-4);  // 3(1+sqrt5) ~ 9.708
    EXPECT_GT(core::paper::radius_threshold(100.0, 10'000), 0.0);
    EXPECT_GT(core::paper::large_radius_threshold(100.0, 10'000),
              core::paper::radius_threshold(100.0, 10'000, 2.0));
    EXPECT_DOUBLE_EQ(core::paper::meeting_radius(8.0), 6.0);
    EXPECT_DOUBLE_EQ(core::paper::central_zone_flood_bound(100.0, 10.0), 180.0);
    EXPECT_GT(core::paper::suburb_rescue_window(10.0, 1.0), 10.0);
}

TEST(paper_constants_test, theorem3_bound_shape) {
    // The bound decreases in R and decreases in v.
    core::net_params p{10'000, 100.0, 5.0, 0.5};
    const double base = core::paper::theorem3_bound(p);
    p.radius = 10.0;
    EXPECT_LT(core::paper::theorem3_bound(p), base);
    p.radius = 5.0;
    p.speed = 1.0;
    EXPECT_LT(core::paper::theorem3_bound(p), base);
    p.speed = 0.0;
    EXPECT_TRUE(std::isinf(core::paper::theorem3_bound(p)));
}

TEST(paper_constants_test, turn_bound_grows_with_window) {
    // Longer windows admit more turns: ln(L/(v tau)) shrinks as tau grows,
    // so the bound 4 ln n / ln(L/(v tau)) increases.
    const double b_small = core::paper::turn_bound(100.0, 1.0, 5.0, 10'000);
    const double b_large = core::paper::turn_bound(100.0, 1.0, 20.0, 10'000);
    EXPECT_LT(b_small, b_large);
}

TEST(scenario_test, completes_and_reports_metrics) {
    const auto out = core::run_scenario(small_scenario());
    EXPECT_TRUE(out.spread.messages[0].completed);
    EXPECT_GT(out.spread.messages[0].flooding_time, 0u);
    EXPECT_GT(out.cell_side, 0.0);
    EXPECT_GT(out.central_cells, 0u);
    EXPECT_GT(out.wall_seconds, 0.0);
}

TEST(scenario_test, deterministic_per_seed) {
    const auto a = core::run_scenario(small_scenario());
    const auto b = core::run_scenario(small_scenario());
    EXPECT_EQ(a.spread, b.spread);
}

TEST(scenario_test, different_seeds_differ) {
    auto sc = small_scenario();
    const auto a = core::run_scenario(sc);
    sc.seed = 12345;
    const auto b = core::run_scenario(sc);
    // Flooding times can coincide; positions of sources almost surely differ.
    const auto& ma = a.spread.messages[0];
    const auto& mb = b.spread.messages[0];
    EXPECT_TRUE(ma.flooding_time != mb.flooding_time || ma.sources != mb.sources);
}

TEST(scenario_test, source_placement_center_and_corner) {
    auto sc = small_scenario();
    sc.source = core::source_placement::center_most;
    const auto center = core::run_scenario(sc);
    sc.source = core::source_placement::corner_most;
    const auto corner = core::run_scenario(sc);
    EXPECT_TRUE(center.spread.messages[0].completed);
    EXPECT_TRUE(corner.spread.messages[0].completed);
}

TEST(scenario_test, max_steps_cutoff_reported_incomplete) {
    auto sc = small_scenario();
    sc.max_steps = 1;
    const auto out = core::run_scenario(sc);
    EXPECT_FALSE(out.spread.messages[0].completed);
    EXPECT_EQ(out.spread.messages[0].flooding_time, 1u);
}

TEST(scenario_test, partition_can_be_disabled) {
    auto sc = small_scenario();
    sc.with_cell_partition = false;
    const auto out = core::run_scenario(sc);
    EXPECT_DOUBLE_EQ(out.cell_side, 0.0);
    EXPECT_FALSE(out.spread.messages[0].central_zone_informed_step.has_value());
}

TEST(scenario_test, out_of_regime_radius_degrades_gracefully) {
    // R = 18 on a side-10 square: Ineq. 6 has no integer solution
    // ([sqrt5 L/R, (1+sqrt5) L/R] = [1.24, 1.80] contains no integer), so no
    // partition is built — but the scenario must still run, and R > sqrt(2) L
    // floods everyone in the single first transmission step.
    core::scenario sc;
    sc.params = {300, 10.0, 18.0, 1.0};
    sc.max_steps = 100;
    const auto out = core::run_scenario(sc);
    EXPECT_TRUE(out.spread.messages[0].completed);
    EXPECT_EQ(out.spread.messages[0].flooding_time, 1u);
    EXPECT_DOUBLE_EQ(out.cell_side, 0.0);
    EXPECT_FALSE(out.spread.messages[0].central_zone_informed_step.has_value());
}

TEST(scenario_test, baseline_models_run) {
    for (const auto kind :
         {manhattan::mobility::model_kind::rwp, manhattan::mobility::model_kind::random_walk,
          manhattan::mobility::model_kind::random_direction}) {
        auto sc = small_scenario();
        sc.model = kind;
        const auto out = core::run_scenario(sc);
        EXPECT_TRUE(out.spread.messages[0].completed) << static_cast<int>(kind);
    }
}

TEST(scenario_test, flooding_times_returns_reps_and_is_deterministic) {
    auto sc = small_scenario();
    const auto a = engine::flooding_times(sc, 3);
    const auto b = engine::flooding_times(sc, 3);
    ASSERT_EQ(a.size(), 3u);
    EXPECT_EQ(a, b);
}

TEST(scenario_test, record_timeline_flag) {
    auto sc = small_scenario();
    sc.record_timeline = true;
    const auto out = core::run_scenario(sc);
    EXPECT_FALSE(out.spread.messages[0].timeline.empty());
    sc.record_timeline = false;
    const auto out2 = core::run_scenario(sc);
    EXPECT_TRUE(out2.spread.messages[0].timeline.empty());
}

TEST(scenario_test, warmup_runs_before_flooding) {
    auto sc = small_scenario();
    sc.stationary_start = false;
    sc.warmup_time = 100.0;
    const auto out = core::run_scenario(sc);
    EXPECT_TRUE(out.spread.messages[0].completed);
}

}  // namespace
