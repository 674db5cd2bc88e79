// Golden regression tests: exact deterministic outputs pinned at release
// time. Any change to the RNG stream, the stationary sampler, the advance()
// kinematics or the flooding engine shows up here first — on purpose. If you
// change behaviour intentionally, regenerate these constants and say so in
// the commit message.
#include <gtest/gtest.h>

#include <cmath>

#include "core/scenario.h"
#include "mobility/mrwp.h"
#include "rng/rng.h"

namespace {

namespace core = manhattan::core;
using manhattan::rng::rng;

TEST(golden_test, rng_stream_is_stable) {
    rng g(12345);
    EXPECT_EQ(g.bits(), 10201931350592234856ull);
    EXPECT_EQ(g.bits(), 3780764549115216544ull);
    EXPECT_DOUBLE_EQ(g.uniform01(), 0.085123240226364527);
}

TEST(golden_test, mrwp_stationary_sample_is_stable) {
    manhattan::mobility::manhattan_random_waypoint model(100.0);
    rng g(777);
    const auto s = model.stationary_state(g);
    EXPECT_DOUBLE_EQ(s.pos.x, 89.038618140990621);
    EXPECT_DOUBLE_EQ(s.pos.y, 89.992995158226933);
    EXPECT_DOUBLE_EQ(s.dest.x, 89.038618140990621);
    EXPECT_DOUBLE_EQ(s.dest.y, 98.901998138757591);
    EXPECT_EQ(s.leg, 1);  // on the final (vertical) leg: dest.x == pos.x
}

struct golden_scenario {
    std::uint64_t seed;
    std::size_t n;
    std::uint64_t flood_time;
    std::uint64_t cz_time;
};

class golden_scenario_sweep : public ::testing::TestWithParam<golden_scenario> {};

TEST_P(golden_scenario_sweep, end_to_end_flooding_time_is_stable) {
    const auto gc = GetParam();
    core::scenario sc;
    const double radius = 3.0 * std::sqrt(std::log(static_cast<double>(gc.n)));
    sc.params = core::net_params::standard_case(gc.n, radius, core::paper::speed_bound(radius));
    sc.seed = gc.seed;
    sc.max_steps = 50'000;
    const auto out = core::run_scenario(sc);
    const auto& flood = out.spread.messages[0];
    ASSERT_TRUE(flood.completed);
    EXPECT_EQ(flood.flooding_time, gc.flood_time);
    ASSERT_TRUE(flood.central_zone_informed_step.has_value());
    EXPECT_EQ(*flood.central_zone_informed_step, gc.cz_time);
    EXPECT_EQ(flood.sources, (std::vector<std::uint32_t>{0}));
}

INSTANTIATE_TEST_SUITE_P(pinned, golden_scenario_sweep,
                         ::testing::Values(golden_scenario{11, 1000, 4, 4},
                                           golden_scenario{12, 1000, 4, 4},
                                           golden_scenario{13, 2500, 8, 8}));

}  // namespace
