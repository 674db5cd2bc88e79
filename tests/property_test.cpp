// Property-based tests exploiting the simulator's deterministic coupling:
// with a fixed seed, two runs differing in ONE parameter share the exact same
// agent trajectories (flooding consumes no randomness), so structural
// dominance properties hold *pointwise per agent*, not just in expectation.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "core/flooding.h"
#include "core/params.h"
#include "engine/thread_pool.h"
#include "graph/temporal.h"
#include "mobility/factory.h"
#include "mobility/trace.h"
#include "mobility/walker.h"

namespace {

namespace core = manhattan::core;
namespace graph = manhattan::graph;
namespace mobility = manhattan::mobility;
using manhattan::rng::rng;

constexpr double kSide = 70.0;
constexpr std::size_t kAgents = 400;

// Message 0 of a one-message flood from agent 0 in propagation \p mode,
// serial or over the lanes of \p exec.
core::message_result run_flood(mobility::model_kind kind, std::uint64_t seed, double radius,
                               core::propagation mode, double speed = 1.0,
                               manhattan::util::parallel_executor* exec = nullptr) {
    const auto model = mobility::make_model(kind, kSide);
    mobility::walker w(model, kAgents, speed, rng{seed});
    core::spread_config cfg;
    cfg.spread.messages.push_back({.sources = core::source_spec::agents({0}), .mode = mode});
    cfg.max_steps = 30'000;
    core::flooding_sim sim(std::move(w), radius, cfg, nullptr, exec);
    return sim.run_spread().messages[0];
}

struct property_case {
    mobility::model_kind kind;
    std::uint64_t seed;
};

class coupling_sweep : public ::testing::TestWithParam<property_case> {};

TEST_P(coupling_sweep, flooding_is_pointwise_monotone_in_radius) {
    // Same trajectories, larger radius: every agent is informed no later.
    const auto [kind, seed] = GetParam();
    const auto small = run_flood(kind, seed, 5.0, core::propagation::one_hop);
    const auto large = run_flood(kind, seed, 8.0, core::propagation::one_hop);
    ASSERT_TRUE(small.completed);
    ASSERT_TRUE(large.completed);
    EXPECT_LE(large.flooding_time, small.flooding_time);
    for (std::size_t i = 0; i < kAgents; ++i) {
        ASSERT_LE(large.informed_at[i], small.informed_at[i]) << "agent " << i;
    }
}

TEST_P(coupling_sweep, component_mode_pointwise_dominates_one_hop) {
    // Informing a whole component per step is a superset of one hop per step
    // at every time, so per-agent informing steps dominate pointwise.
    const auto [kind, seed] = GetParam();
    const auto hop = run_flood(kind, seed, 6.0, core::propagation::one_hop);
    const auto comp = run_flood(kind, seed, 6.0, core::propagation::per_component);
    ASSERT_TRUE(hop.completed);
    ASSERT_TRUE(comp.completed);
    for (std::size_t i = 0; i < kAgents; ++i) {
        ASSERT_LE(comp.informed_at[i], hop.informed_at[i]) << "agent " << i;
    }
}

TEST_P(coupling_sweep, temporal_oracle_agrees_for_every_model) {
    // The independent time-respecting-reachability oracle reproduces the
    // engine's informing steps exactly, for every mobility model.
    const auto [kind, seed] = GetParam();
    const double radius = 6.0;
    const auto model = mobility::make_model(kind, kSide);

    core::flood_config cfg;
    cfg.max_steps = 30'000;
    core::flooding_sim sim(mobility::walker(model, kAgents, 1.0, rng{seed}), radius, cfg);
    mobility::trajectory_recorder rec(kAgents);
    rec.capture(sim.agents());
    while (!sim.all_informed() && sim.steps_taken() < cfg.max_steps) {
        (void)sim.step();
        rec.capture(sim.agents());
    }
    ASSERT_TRUE(sim.all_informed());

    const auto oracle = graph::temporal_flood(rec, radius, kSide, 0);  // flood_config's source
    const auto reference = run_flood(kind, seed, radius, core::propagation::one_hop);
    manhattan::engine::thread_pool pool(4);
    const auto lanes4 =
        run_flood(kind, seed, radius, core::propagation::one_hop, 1.0, &pool.executor());
    for (std::size_t i = 0; i < kAgents; ++i) {
        ASSERT_EQ(reference.informed_at[i], oracle.reached_at[i]) << "agent " << i;
        ASSERT_EQ(lanes4.informed_at[i], oracle.reached_at[i]) << "agent " << i << ", 4 lanes";
    }
}

TEST_P(coupling_sweep, informed_at_zero_is_exactly_the_source) {
    const auto [kind, seed] = GetParam();
    const auto result = run_flood(kind, seed, 6.0, core::propagation::one_hop);
    std::size_t at_zero = 0;
    for (const auto at : result.informed_at) {
        at_zero += at == 0 ? 1 : 0;
    }
    EXPECT_EQ(at_zero, 1u);
    EXPECT_EQ(result.informed_at[0], 0u);
}

TEST_P(coupling_sweep, every_informing_step_has_a_witness_in_range) {
    // Replay the recorded trajectory and verify the protocol's local rule:
    // every agent informed at step t had some agent informed before t within
    // R at frame t (soundness of every single informing event).
    const auto [kind, seed] = GetParam();
    const double radius = 6.0;
    const auto model = mobility::make_model(kind, kSide);

    core::flood_config cfg;
    cfg.max_steps = 30'000;
    core::flooding_sim sim(mobility::walker(model, kAgents, 1.0, rng{seed}), radius, cfg);
    mobility::trajectory_recorder rec(kAgents);
    rec.capture(sim.agents());
    while (!sim.all_informed() && sim.steps_taken() < cfg.max_steps) {
        (void)sim.step();
        rec.capture(sim.agents());
    }
    ASSERT_TRUE(sim.all_informed());
    const auto reference = run_flood(kind, seed, radius, core::propagation::one_hop);

    for (std::size_t i = 0; i < kAgents; ++i) {
        const auto t = reference.informed_at[i];
        if (t == 0) {
            continue;  // source
        }
        const auto frame = rec.frame(t);
        bool witness = false;
        for (std::size_t j = 0; j < kAgents && !witness; ++j) {
            witness = j != i && reference.informed_at[j] < t &&
                      manhattan::geom::dist(frame[i], frame[j]) <= radius;
        }
        ASSERT_TRUE(witness) << "agent " << i << " informed at step " << t
                             << " without a transmitter in range";
    }
}

INSTANTIATE_TEST_SUITE_P(
    models_and_seeds, coupling_sweep,
    ::testing::Values(property_case{mobility::model_kind::mrwp, 1},
                      property_case{mobility::model_kind::mrwp, 2},
                      property_case{mobility::model_kind::mrwp, 3},
                      property_case{mobility::model_kind::rwp, 1},
                      property_case{mobility::model_kind::rwp, 2},
                      property_case{mobility::model_kind::random_walk, 1},
                      property_case{mobility::model_kind::random_direction, 1}));

// ---------------------------------------------------------------------------
// Partition invariants across a parameter grid.
// ---------------------------------------------------------------------------

struct partition_case {
    std::size_t n;
    double c1;
};

class partition_sweep : public ::testing::TestWithParam<partition_case> {};

TEST_P(partition_sweep, masses_always_sum_to_one) {
    const auto [n, c1] = GetParam();
    const double side = std::sqrt(static_cast<double>(n));
    const double radius = c1 * std::sqrt(std::log(static_cast<double>(n)));
    const core::cell_partition cp(n, side, radius);
    double total = 0.0;
    for (std::size_t id = 0; id < cp.grid().cell_count(); ++id) {
        total += cp.cell_mass(id);
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST_P(partition_sweep, central_zone_is_row_column_convex) {
    // The Central Zone's rows are contiguous intervals: the density along a
    // row is concave, so the super-threshold set cannot have holes.
    const auto [n, c1] = GetParam();
    const double side = std::sqrt(static_cast<double>(n));
    const double radius = c1 * std::sqrt(std::log(static_cast<double>(n)));
    const core::cell_partition cp(n, side, radius);
    const auto m = cp.grid().cells_per_side();
    for (std::int32_t cy = 0; cy < m; ++cy) {
        int transitions = 0;
        bool prev = false;
        for (std::int32_t cx = 0; cx < m; ++cx) {
            const bool cur =
                cp.zone_of_cell(cp.grid().id_of({cx, cy})) == core::zone::central;
            transitions += (cur != prev) ? 1 : 0;
            prev = cur;
        }
        transitions += prev ? 1 : 0;
        ASSERT_LE(transitions, 2) << "row " << cy << " has a hole in the Central Zone";
    }
}

TEST_P(partition_sweep, suburb_diameter_decreases_with_radius) {
    const auto [n, c1] = GetParam();
    const double side = std::sqrt(static_cast<double>(n));
    const double radius = c1 * std::sqrt(std::log(static_cast<double>(n)));
    const core::cell_partition cp(n, side, radius);
    const core::cell_partition bigger(n, side, radius * 1.4);
    EXPECT_LE(bigger.suburb_diameter(), cp.suburb_diameter());
    EXPECT_LE(bigger.suburb_cell_count(), cp.suburb_cell_count());
}

INSTANTIATE_TEST_SUITE_P(grid, partition_sweep,
                         ::testing::Values(partition_case{2000, 2.0},
                                           partition_case{2000, 4.0},
                                           partition_case{10'000, 2.0},
                                           partition_case{10'000, 3.0},
                                           partition_case{50'000, 2.0},
                                           partition_case{50'000, 6.0}));

}  // namespace
