// Tests for trajectory recording, the temporal-reachability oracle, the
// Lemma 16 meeting machinery, and the bootstrap/two-sample statistics.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>
#include <vector>

#include "core/flooding.h"
#include "core/meetings.h"
#include "core/params.h"
#include "graph/temporal.h"
#include "mobility/mrwp.h"
#include "mobility/static_model.h"
#include "mobility/trace.h"
#include "mobility/walker.h"
#include "stats/bootstrap.h"

namespace {

namespace core = manhattan::core;
namespace graph = manhattan::graph;
namespace mobility = manhattan::mobility;
namespace stats = manhattan::stats;
using manhattan::geom::vec2;
using manhattan::rng::rng;

TEST(trace_test, construction_validates) {
    EXPECT_THROW((void)mobility::trajectory_recorder(0), std::invalid_argument);
}

TEST(trace_test, capture_and_frame_access) {
    mobility::trajectory_recorder rec(2);
    EXPECT_EQ(rec.frame_count(), 0u);
    rec.capture(std::vector<vec2>{{1, 1}, {2, 2}});
    rec.capture(std::vector<vec2>{{1, 2}, {2, 3}});
    EXPECT_EQ(rec.frame_count(), 2u);
    EXPECT_EQ(rec.frame(0)[0], (vec2{1, 1}));
    EXPECT_EQ(rec.frame(1)[1], (vec2{2, 3}));
    EXPECT_THROW((void)rec.frame(2), std::out_of_range);
    EXPECT_THROW((void)rec.capture(std::vector<vec2>{{1, 1}}), std::invalid_argument);
}

TEST(trace_test, path_of_and_length) {
    mobility::trajectory_recorder rec(2);
    rec.capture(std::vector<vec2>{{0, 0}, {5, 5}});
    rec.capture(std::vector<vec2>{{3, 4}, {5, 5}});
    const auto path = rec.path_of(0);
    ASSERT_EQ(path.size(), 2u);
    EXPECT_EQ(path[1], (vec2{3, 4}));
    EXPECT_DOUBLE_EQ(rec.path_length(0), 5.0);
    EXPECT_DOUBLE_EQ(rec.path_length(1), 0.0);
    EXPECT_THROW((void)rec.path_of(2), std::out_of_range);
}

TEST(trace_test, path_csv_format) {
    mobility::trajectory_recorder rec(1);
    rec.capture(std::vector<vec2>{{1.5, 2.5}});
    const auto csv = rec.path_csv(0);
    EXPECT_EQ(csv.substr(0, 10), "frame,x,y\n");
    EXPECT_NE(csv.find("0,1.5"), std::string::npos);
}

TEST(trace_test, records_walker_motion) {
    auto model = std::make_shared<mobility::manhattan_random_waypoint>(50.0);
    mobility::walker w(model, 5, 1.0, rng{3});
    mobility::trajectory_recorder rec(5);
    rec.capture(w);
    for (int t = 0; t < 10; ++t) {
        w.step();
        rec.capture(w);
    }
    EXPECT_EQ(rec.frame_count(), 11u);
    // Each recorded step moves each agent at most v in Euclidean norm.
    for (std::size_t a = 0; a < 5; ++a) {
        const auto path = rec.path_of(a);
        for (std::size_t f = 1; f < path.size(); ++f) {
            ASSERT_LE(manhattan::geom::dist(path[f - 1], path[f]), 1.0 + 1e-9);
        }
    }
}

TEST(longest_inward_run_test, pure_eastward_run) {
    // SW-quadrant start moving east: the whole displacement is one run.
    const std::vector<vec2> path = {{1, 1}, {2, 1}, {3, 1}, {4, 1}};
    EXPECT_DOUBLE_EQ(mobility::longest_inward_run(path, 100.0), 3.0);
}

TEST(longest_inward_run_test, outward_motion_does_not_count) {
    const std::vector<vec2> path = {{10, 10}, {8, 10}, {6, 10}};  // west = outward in SW
    EXPECT_DOUBLE_EQ(mobility::longest_inward_run(path, 100.0), 0.0);
}

TEST(longest_inward_run_test, turns_reset_the_run) {
    const std::vector<vec2> path = {{1, 1}, {3, 1}, {3, 3}, {8, 3}};
    // East 2, North 2, East 5: the best single run is the final 5.
    EXPECT_DOUBLE_EQ(mobility::longest_inward_run(path, 100.0), 5.0);
}

TEST(longest_inward_run_test, mirrored_quadrants) {
    // NE-quadrant start moving south-west towards the center: inward.
    const std::vector<vec2> path = {{90, 90}, {85, 90}, {80, 90}};
    EXPECT_DOUBLE_EQ(mobility::longest_inward_run(path, 100.0), 10.0);
    const std::vector<vec2> up = {{90, 90}, {95, 90}};  // outward (east in NE)
    EXPECT_DOUBLE_EQ(mobility::longest_inward_run(up, 100.0), 0.0);
}

TEST(longest_inward_run_test, short_paths) {
    EXPECT_DOUBLE_EQ(mobility::longest_inward_run(std::vector<vec2>{{1, 1}}, 10.0), 0.0);
    EXPECT_DOUBLE_EQ(mobility::longest_inward_run(std::vector<vec2>{}, 10.0), 0.0);
}

// ---------------------------------------------------------------------------
// Temporal reachability oracle.
// ---------------------------------------------------------------------------

TEST(temporal_test, validates_arguments) {
    mobility::trajectory_recorder empty(3);
    EXPECT_THROW((void)graph::temporal_flood(empty, 1.0, 10.0, 0), std::invalid_argument);
    mobility::trajectory_recorder rec(2);
    rec.capture(std::vector<vec2>{{1, 1}, {2, 2}});
    EXPECT_THROW((void)graph::temporal_flood(rec, 1.0, 10.0, 5), std::invalid_argument);
    EXPECT_THROW((void)graph::temporal_flood(rec, 0.0, 10.0, 0), std::invalid_argument);
}

TEST(temporal_test, static_chain_one_hop_per_frame) {
    mobility::trajectory_recorder rec(3);
    const std::vector<vec2> frozen = {{1, 1}, {2, 1}, {3, 1}};
    for (int f = 0; f < 4; ++f) {
        rec.capture(frozen);
    }
    const auto result = graph::temporal_flood(rec, 1.0, 10.0, 0);
    EXPECT_TRUE(result.all_reached);
    EXPECT_EQ(result.reached_at[0], 0u);
    EXPECT_EQ(result.reached_at[1], 1u);
    EXPECT_EQ(result.reached_at[2], 2u);
    EXPECT_EQ(graph::temporal_eccentricity(result), 2u);
}

TEST(temporal_test, too_few_frames_leaves_agents_unreached) {
    mobility::trajectory_recorder rec(3);
    const std::vector<vec2> frozen = {{1, 1}, {2, 1}, {3, 1}};
    rec.capture(frozen);
    rec.capture(frozen);  // only one transmission frame
    const auto result = graph::temporal_flood(rec, 1.0, 10.0, 0);
    EXPECT_FALSE(result.all_reached);
    EXPECT_EQ(result.reached_at[2], graph::temporal_unreached);
    EXPECT_EQ(result.reached_count, 2u);
}

TEST(temporal_test, ferrying_message_across_a_gap) {
    // A mobile carrier picks the message up near the source and delivers it
    // to a distant agent: classic opportunistic forwarding — reachability
    // exists in the temporal graph though no snapshot connects the ends.
    mobility::trajectory_recorder rec(3);
    rec.capture(std::vector<vec2>{{0, 0}, {2, 0}, {9, 0}});    // initial gap everywhere
    rec.capture(std::vector<vec2>{{0, 0}, {0.5, 0}, {9, 0}});  // carrier meets the source
    rec.capture(std::vector<vec2>{{0, 0}, {8.5, 0}, {9, 0}});  // carrier reaches target
    const auto result = graph::temporal_flood(rec, 1.0, 10.0, 0);
    EXPECT_TRUE(result.all_reached);
    EXPECT_EQ(result.reached_at[1], 1u);
    EXPECT_EQ(result.reached_at[2], 2u);
}

TEST(temporal_test, oracle_matches_flooding_sim_exactly) {
    // The load-bearing cross-validation: record the walker trajectory that
    // flooding_sim itself produces (same model, same seed), re-derive the
    // informing times with the independent temporal oracle, and require
    // bit-for-bit agreement.
    const double side = 60.0;
    const double radius = 6.0;
    const std::size_t n = 250;
    auto model = std::make_shared<mobility::manhattan_random_waypoint>(side);

    core::flood_config cfg;
    cfg.max_steps = 4000;
    core::flooding_sim sim(mobility::walker(model, n, 1.0, rng{91}), radius, cfg);
    mobility::trajectory_recorder rec(n);
    rec.capture(sim.agents());
    while (!sim.all_informed() && sim.steps_taken() < cfg.max_steps) {
        (void)sim.step();
        rec.capture(sim.agents());
    }
    ASSERT_TRUE(sim.all_informed());

    const auto oracle = graph::temporal_flood(rec, radius, side, 0);  // flood_config's source
    ASSERT_TRUE(oracle.all_reached);

    // Compare against the sim's per-agent informing steps.
    core::flooding_sim sim2(mobility::walker(model, n, 1.0, rng{91}), radius, cfg);
    const auto result = sim2.run_spread().messages[0];
    ASSERT_EQ(result.informed_at.size(), oracle.reached_at.size());
    for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(result.informed_at[i], oracle.reached_at[i]) << "agent " << i;
    }
}

// ---------------------------------------------------------------------------
// Meetings / suburb rescue (Lemma 16 machinery).
// ---------------------------------------------------------------------------

TEST(rescue_test, validates_arguments) {
    const std::size_t n = 2000;
    const double side = std::sqrt(static_cast<double>(n));
    const double radius = 3.0 * std::sqrt(std::log(static_cast<double>(n)));
    const core::cell_partition cells(n, side, radius);
    auto model = std::make_shared<mobility::manhattan_random_waypoint>(side);
    mobility::walker w(model, n, 1.0, rng{7});
    core::rescue_config cfg;
    cfg.meeting_radius = 0.0;
    EXPECT_THROW((void)core::measure_suburb_rescue(w, cells, cfg), std::invalid_argument);

    auto wrong_model = std::make_shared<mobility::manhattan_random_waypoint>(side * 2);
    mobility::walker w2(wrong_model, 10, 1.0, rng{8});
    cfg.meeting_radius = 1.0;
    EXPECT_THROW((void)core::measure_suburb_rescue(w2, cells, cfg), std::invalid_argument);
}

TEST(rescue_test, suburb_agents_meet_central_agents) {
    const std::size_t n = 20'000;
    const double side = std::sqrt(static_cast<double>(n));
    const double radius = 3.0 * std::sqrt(std::log(static_cast<double>(n)));
    const core::cell_partition cells(n, side, radius);
    ASSERT_GT(cells.suburb_cell_count(), 0u);

    auto model = std::make_shared<mobility::manhattan_random_waypoint>(side);
    mobility::walker w(model, n, core::paper::speed_bound(radius), rng{9});
    core::rescue_config cfg;
    cfg.meeting_radius = core::paper::meeting_radius(radius);
    cfg.max_steps = 20'000;
    const auto result = core::measure_suburb_rescue(w, cells, cfg);
    ASSERT_GT(result.watched.size(), 0u);
    EXPECT_TRUE(result.all_met);
    // Lemma 16's window: tau = 590 S / v — a very loose envelope here.
    const double tau = core::paper::suburb_rescue_window(cells.suburb_diameter(),
                                                         core::paper::speed_bound(radius));
    for (const auto at : result.met_at) {
        ASSERT_NE(at, core::never_met);
        ASSERT_LE(static_cast<double>(at), tau);
    }
}

TEST(rescue_test, empty_suburb_is_trivially_met) {
    const std::size_t n = 2000;
    const double side = std::sqrt(static_cast<double>(n));
    const double radius = core::paper::large_radius_threshold(side, n);
    const core::cell_partition cells(n, side, radius);
    ASSERT_EQ(cells.suburb_cell_count(), 0u);
    auto model = std::make_shared<mobility::manhattan_random_waypoint>(side);
    mobility::walker w(model, n, 1.0, rng{10});
    core::rescue_config cfg;
    cfg.meeting_radius = 1.0;
    const auto result = core::measure_suburb_rescue(w, cells, cfg);
    EXPECT_TRUE(result.all_met);
    EXPECT_TRUE(result.watched.empty());
}

// ---------------------------------------------------------------------------
// Bootstrap / two-sample statistics.
// ---------------------------------------------------------------------------

TEST(bootstrap_test, validates_input) {
    rng gen{1};
    EXPECT_THROW((void)stats::bootstrap_mean_ci({}, 0.95, 100, gen), std::invalid_argument);
    const std::vector<double> xs = {1.0, 2.0};
    EXPECT_THROW((void)stats::bootstrap_mean_ci(xs, 1.5, 100, gen), std::invalid_argument);
    EXPECT_THROW((void)stats::bootstrap_mean_ci(xs, 0.95, 0, gen), std::invalid_argument);
}

TEST(bootstrap_test, ci_contains_true_mean_for_well_behaved_sample) {
    rng gen{2};
    std::vector<double> xs;
    for (int i = 0; i < 500; ++i) {
        xs.push_back(gen.uniform(0.0, 10.0));
    }
    const auto ci = stats::bootstrap_mean_ci(xs, 0.99, 2000, gen);
    EXPECT_TRUE(ci.contains(5.0)) << "[" << ci.lo << ", " << ci.hi << "]";
    EXPECT_LT(ci.hi - ci.lo, 2.0);
    EXPECT_LE(ci.lo, ci.hi);
}

TEST(bootstrap_test, degenerate_sample_gives_point_interval) {
    rng gen{3};
    const std::vector<double> xs(50, 4.2);
    const auto ci = stats::bootstrap_mean_ci(xs, 0.95, 200, gen);
    EXPECT_DOUBLE_EQ(ci.lo, 4.2);
    EXPECT_DOUBLE_EQ(ci.hi, 4.2);
}

/// bootstrap_mean_ci with the full sort it used to pick its percentiles by:
/// the same resampling, then means[rank] of the sorted means.
stats::interval sorted_bootstrap_ci(std::span<const double> sample, double confidence,
                                    std::size_t resamples, rng& gen) {
    std::vector<double> means;
    for (std::size_t r = 0; r < resamples; ++r) {
        double acc = 0.0;
        for (std::size_t i = 0; i < sample.size(); ++i) {
            acc += sample[gen.uniform_index(sample.size())];
        }
        means.push_back(acc / static_cast<double>(sample.size()));
    }
    std::sort(means.begin(), means.end());
    const double alpha = (1.0 - confidence) / 2.0;
    const auto pick = [&](double q) {
        return means[static_cast<std::size_t>(q * static_cast<double>(means.size() - 1))];
    };
    return {pick(alpha), pick(1.0 - alpha)};
}

TEST(bootstrap_test, percentiles_match_a_full_sort_bit_for_bit) {
    // Samples of a few integers, so that many resampled means tie.
    for (const std::size_t n : {1u, 2u, 10u, 100u}) {
        for (const std::size_t resamples : {1u, 2u, 1000u}) {
            for (const double confidence : {0.5, 0.95, 0.999}) {
                for (std::uint64_t seed = 1; seed <= 8; ++seed) {
                    rng draw{seed};
                    std::vector<double> xs;
                    for (std::size_t i = 0; i < n; ++i) {
                        xs.push_back(static_cast<double>(draw.uniform_index(4)));
                    }
                    rng gen{seed + 100};
                    rng ref_gen{seed + 100};
                    const auto got = stats::bootstrap_mean_ci(xs, confidence, resamples, gen);
                    const auto want = sorted_bootstrap_ci(xs, confidence, resamples, ref_gen);
                    const auto where = ::testing::Message()
                                       << "n=" << n << " resamples=" << resamples
                                       << " confidence=" << confidence << " seed=" << seed;
                    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.lo),
                              std::bit_cast<std::uint64_t>(want.lo))
                        << where;
                    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.hi),
                              std::bit_cast<std::uint64_t>(want.hi))
                        << where;
                    EXPECT_EQ(gen.bits(), ref_gen.bits()) << where;
                }
            }
        }
    }
}

TEST(two_sample_ks_test, identical_distributions_pass) {
    rng gen{4};
    std::vector<double> a;
    std::vector<double> b;
    for (int i = 0; i < 5000; ++i) {
        a.push_back(gen.uniform01());
        b.push_back(gen.uniform01());
    }
    EXPECT_LT(stats::two_sample_ks(a, b), stats::two_sample_ks_critical(a.size(), b.size()));
}

TEST(two_sample_ks_test, shifted_distributions_fail) {
    rng gen{5};
    std::vector<double> a;
    std::vector<double> b;
    for (int i = 0; i < 5000; ++i) {
        a.push_back(gen.uniform01());
        b.push_back(gen.uniform01() + 0.1);
    }
    EXPECT_GT(stats::two_sample_ks(a, b), stats::two_sample_ks_critical(a.size(), b.size()));
}

TEST(two_sample_ks_test, validates_input) {
    const std::vector<double> xs = {1.0};
    EXPECT_THROW((void)stats::two_sample_ks({}, xs), std::invalid_argument);
    EXPECT_THROW((void)stats::two_sample_ks(xs, {}), std::invalid_argument);
}

TEST(two_sample_ks_test, exact_small_case) {
    const std::vector<double> a = {1.0, 2.0};
    const std::vector<double> b = {3.0, 4.0};
    EXPECT_DOUBLE_EQ(stats::two_sample_ks(a, b), 1.0);  // fully separated
}

}  // namespace
