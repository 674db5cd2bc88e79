// Street-graph topology suite: the topology_spec sum type, the compiled
// intersection graph (CSR adjacency, one-way / blocked edges, deterministic
// next-hop routing), the graph-native MRWP, the trace_replay model, and the
// API-wide back-compat contracts this PR pins:
//   - a pure manhattan_grid spec fingerprints exactly as it did before
//     topologies existed (hex values pinned below against PR 9's engine);
//   - an explicit manhattan_grid topology runs byte-identically to the
//     default (legacy) path;
//   - street-graph scenarios are bit-identical serial vs parallel at every
//     thread/lane count, through run_scenario, run_replicas, run_sweep and
//     the fabric spec round trip.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/scenario.h"
#include "engine/fabric.h"
#include "engine/manifest.h"
#include "engine/runner.h"
#include "engine/sweep.h"
#include "engine/thread_pool.h"
#include "geom/street_graph.h"
#include "mobility/factory.h"
#include "mobility/graph_mrwp.h"
#include "mobility/trace.h"
#include "mobility/walker.h"
#include "rng/rng.h"

namespace {

namespace core = manhattan::core;
namespace engine = manhattan::engine;
namespace geom = manhattan::geom;
namespace mobility = manhattan::mobility;
using manhattan::rng::rng;

// ------------------------------------------------------------ spec checks --

TEST(topology_spec, default_is_the_grid_and_grid_must_stay_empty) {
    const geom::topology_spec t;
    EXPECT_TRUE(t.is_grid());
    EXPECT_NO_THROW(t.validate(10.0));
    EXPECT_EQ(t, geom::topology_spec::manhattan());

    // The canonical pure-grid form is empty street data — that is what makes
    // the "grid hashes as before" fingerprint rule collision-free.
    geom::topology_spec dirty;
    dirty.street.xs = {0.0, 1.0};
    EXPECT_THROW(dirty.validate(10.0), std::invalid_argument);
}

TEST(topology_spec, uniform_builder_spans_the_square) {
    const auto plan = geom::street_graph_spec::uniform(12.0, 4);
    ASSERT_EQ(plan.xs.size(), 5u);
    ASSERT_EQ(plan.ys.size(), 5u);
    EXPECT_EQ(plan.xs.front(), 0.0);
    EXPECT_EQ(plan.xs.back(), 12.0);
    EXPECT_NO_THROW(geom::topology_spec::streets(plan).validate(12.0));
    EXPECT_THROW(geom::street_graph_spec::uniform(0.0, 4), std::invalid_argument);
    EXPECT_THROW(geom::street_graph_spec::uniform(12.0, 0), std::invalid_argument);
}

TEST(topology_spec, graded_builder_scales_blocks_geometrically) {
    const auto plan = geom::street_graph_spec::graded(10.0, 3, 2.0);
    ASSERT_EQ(plan.xs.size(), 4u);
    EXPECT_EQ(plan.xs.front(), 0.0);
    EXPECT_EQ(plan.xs.back(), 10.0);
    // Widths 1:2:4 scaled to span 10.
    const double w0 = plan.xs[1] - plan.xs[0];
    const double w1 = plan.xs[2] - plan.xs[1];
    const double w2 = plan.xs[3] - plan.xs[2];
    EXPECT_NEAR(w1 / w0, 2.0, 1e-12);
    EXPECT_NEAR(w2 / w1, 2.0, 1e-12);
    // ratio = 1 is the uniform plan.
    const auto flat = geom::street_graph_spec::graded(12.0, 4, 1.0);
    const auto uniform = geom::street_graph_spec::uniform(12.0, 4);
    for (std::size_t i = 0; i < flat.xs.size(); ++i) {
        EXPECT_DOUBLE_EQ(flat.xs[i], uniform.xs[i]);
    }
    EXPECT_THROW(geom::street_graph_spec::graded(10.0, 3, 0.0), std::invalid_argument);
}

TEST(topology_spec, validate_rejects_structural_errors) {
    const double side = 10.0;
    auto ok = geom::street_graph_spec::uniform(side, 3);

    auto few = ok;
    few.ys = {5.0};
    EXPECT_THROW(geom::topology_spec::streets(few).validate(side), std::invalid_argument);

    auto unsorted = ok;
    std::swap(unsorted.xs[1], unsorted.xs[2]);
    EXPECT_THROW(geom::topology_spec::streets(unsorted).validate(side),
                 std::invalid_argument);

    auto outside = ok;
    outside.xs.back() = side + 1.0;
    EXPECT_THROW(geom::topology_spec::streets(outside).validate(side),
                 std::invalid_argument);

    auto bad_edge = ok;
    bad_edge.blocked.push_back({0, 0, 2, 0});  // not lattice-adjacent
    EXPECT_THROW(geom::topology_spec::streets(bad_edge).validate(side),
                 std::invalid_argument);

    auto oob_edge = ok;
    oob_edge.one_way.push_back({0, 0, 0, 9});
    EXPECT_THROW(geom::topology_spec::streets(oob_edge).validate(side),
                 std::invalid_argument);

    // Blocking every segment around a corner disconnects it.
    auto cut = ok;
    cut.blocked.push_back({0, 0, 1, 0});
    cut.blocked.push_back({0, 0, 0, 1});
    EXPECT_THROW(geom::topology_spec::streets(cut).validate(side), std::invalid_argument);
}

// ------------------------------------------------------------ graph checks --

TEST(street_graph, uniform_grid_structure_and_routing) {
    const auto plan = geom::street_graph_spec::uniform(12.0, 3);  // 4 x 4 nodes
    const geom::street_graph g(plan);
    EXPECT_EQ(g.node_count(), 16u);
    // Directed segments: 2 * (2 * 3 * 4) undirected grid edges.
    EXPECT_EQ(g.segment_count(), 48u);
    EXPECT_EQ(g.diameter(), 24.0);  // opposite corners: 6 hops of length 4

    // node_at is exact, nearest_node snaps deterministically.
    const auto at = g.node_at(g.node_pos(5));
    ASSERT_TRUE(at.has_value());
    EXPECT_EQ(*at, 5u);
    EXPECT_FALSE(g.node_at({1.0, 1.0}).has_value());
    EXPECT_EQ(g.nearest_node({0.1, 0.1}), 0u);
    // Equidistant from all four corners of the center block: lowest id wins.
    EXPECT_EQ(g.nearest_node({6.0, 6.0}), 5u);

    // next_hop walks a shortest path whose length matches route_length.
    std::uint32_t at_node = 0;
    double walked = 0.0;
    const std::uint32_t goal = 15;
    while (at_node != goal) {
        const std::uint32_t hop = g.next_hop(at_node, goal);
        ASSERT_TRUE(g.has_segment(at_node, hop));
        walked += manhattan::geom::dist(g.node_pos(at_node), g.node_pos(hop));
        at_node = hop;
    }
    EXPECT_DOUBLE_EQ(walked, g.route_length(0, 15));
    EXPECT_DOUBLE_EQ(walked, 24.0);
}

TEST(street_graph, one_way_and_blocked_edges_shape_routes) {
    auto plan = geom::street_graph_spec::uniform(12.0, 3);
    plan.blocked.push_back({1, 1, 2, 1});      // close a central segment
    plan.one_way.push_back({0, 0, 1, 0});      // eastbound only on the bottom row
    const geom::street_graph g(plan);

    const std::uint32_t a = *g.node_at({4.0, 4.0});   // (1,1)
    const std::uint32_t b = *g.node_at({8.0, 4.0});   // (2,1)
    EXPECT_FALSE(g.has_segment(a, b));
    EXPECT_FALSE(g.has_segment(b, a));
    // The blocked pair is still mutually reachable, via a detour.
    EXPECT_GT(g.route_length(a, b), 4.0);
    EXPECT_DOUBLE_EQ(g.route_length(a, b), 12.0);

    const std::uint32_t sw = *g.node_at({0.0, 0.0});
    const std::uint32_t east = *g.node_at({4.0, 0.0});
    EXPECT_TRUE(g.has_segment(sw, east));
    EXPECT_FALSE(g.has_segment(east, sw));   // reverse direction removed
    // Asymmetric shortest paths: going back must detour around the one-way.
    EXPECT_DOUBLE_EQ(g.route_length(sw, east), 4.0);
    EXPECT_DOUBLE_EQ(g.route_length(east, sw), 12.0);
}

TEST(street_graph, compile_memoises_identical_specs) {
    const auto plan = geom::street_graph_spec::uniform(9.0, 3);
    const auto a = geom::street_graph::compile(plan);
    const auto b = geom::street_graph::compile(plan);
    EXPECT_EQ(a.get(), b.get());
    auto other = plan;
    other.one_way.push_back({0, 0, 1, 0});
    EXPECT_NE(geom::street_graph::compile(other).get(), a.get());
}

TEST(street_graph, blocked_fraction_is_seeded_and_connectivity_preserving) {
    const auto plan = geom::street_graph_spec::uniform(20.0, 5);
    const auto a = geom::with_blocked_fraction(plan, 0.25, 7);
    const auto b = geom::with_blocked_fraction(plan, 0.25, 7);
    EXPECT_EQ(a, b);  // pure function of (spec, fraction, seed)
    const auto c = geom::with_blocked_fraction(plan, 0.25, 8);
    EXPECT_NE(a.blocked, c.blocked);  // seed matters
    EXPECT_FALSE(a.blocked.empty());
    // Still strongly connected — validate() would throw otherwise.
    EXPECT_NO_THROW(geom::topology_spec::streets(a).validate(20.0));
    // fraction 0 is a no-op; out-of-range fractions are rejected.
    EXPECT_TRUE(geom::with_blocked_fraction(plan, 0.0, 7).blocked.empty());
    EXPECT_THROW((void)geom::with_blocked_fraction(plan, 1.0, 7), std::invalid_argument);
}

// -------------------------------------------------------------- graph MRWP --

std::shared_ptr<const mobility::mobility_model> street_model(const geom::street_graph_spec& plan,
                                                             double side) {
    return mobility::make_model(mobility::model_kind::mrwp,
                                geom::topology_spec::streets(plan), side, {});
}

/// Assert \p s sits on a street of \p g and, when mid-segment, that its
/// current directed hop exists (so one-way and blocked constraints hold).
void assert_on_street(const geom::street_graph& g, const mobility::trip_state& s,
                      const geom::street_graph_spec& plan) {
    if (g.node_at(s.pos).has_value()) {
        return;  // exactly at an intersection
    }
    const bool on_vertical =
        std::find(plan.xs.begin(), plan.xs.end(), s.pos.x) != plan.xs.end();
    const bool on_horizontal =
        std::find(plan.ys.begin(), plan.ys.end(), s.pos.y) != plan.ys.end();
    ASSERT_TRUE(on_vertical || on_horizontal)
        << "agent off-street at (" << s.pos.x << ", " << s.pos.y << ")";
    // The hop under the agent: its waypoint is one endpoint, the neighbour
    // on the far side of pos is the other. That directed segment must exist.
    const auto to = g.node_at(s.waypoint);
    ASSERT_TRUE(to.has_value());
    const manhattan::geom::vec2 w = g.node_pos(*to);
    // Find the other endpoint by scanning the axis the agent travels on.
    std::uint32_t from = *to;
    for (std::size_t v = 0; v < g.node_count(); ++v) {
        const auto node = static_cast<std::uint32_t>(v);
        const manhattan::geom::vec2 p = g.node_pos(node);
        if (node == *to) {
            continue;
        }
        const bool between_x = (p.x <= s.pos.x && s.pos.x <= w.x) ||
                               (w.x <= s.pos.x && s.pos.x <= p.x);
        const bool between_y = (p.y <= s.pos.y && s.pos.y <= w.y) ||
                               (w.y <= s.pos.y && s.pos.y <= p.y);
        if (p.x == w.x && s.pos.x == w.x && between_y && g.has_segment(node, *to)) {
            from = node;
        }
        if (p.y == w.y && s.pos.y == w.y && between_x && g.has_segment(node, *to)) {
            from = node;
        }
    }
    EXPECT_NE(from, *to) << "no feasible directed segment carries the agent at ("
                         << s.pos.x << ", " << s.pos.y << ")";
}

TEST(graph_mrwp, agents_stay_on_streets_and_respect_blocked_edges) {
    auto plan = geom::street_graph_spec::uniform(20.0, 4);
    plan.blocked.push_back({1, 2, 2, 2});
    plan.one_way.push_back({3, 1, 3, 2});
    const auto model = street_model(plan, 20.0);
    const geom::street_graph g(plan);

    mobility::walker w(model, 64, 0.9, rng{123});
    for (int step = 0; step < 200; ++step) {
        w.step();
        for (std::size_t i = 0; i < w.size(); ++i) {
            const mobility::trip_state s = w.agent(i);
            assert_on_street(g, s, plan);
            // Way points and destinations are exact intersection coordinates.
            ASSERT_TRUE(g.node_at(s.waypoint).has_value());
            ASSERT_TRUE(g.node_at(s.dest).has_value());
        }
    }
}

TEST(graph_mrwp, fresh_starts_snap_to_the_graph) {
    const auto plan = geom::street_graph_spec::uniform(20.0, 4);
    const auto model = street_model(plan, 20.0);
    const geom::street_graph g(plan);
    mobility::walker w(model, 32, 1.0, rng{5}, mobility::start_mode::uniform_fresh);
    // After enough travel every agent must have reached the graph and stayed.
    w.advance_time(60.0);
    for (std::size_t i = 0; i < w.size(); ++i) {
        assert_on_street(g, w.agent(i), plan);
    }
}

TEST(graph_mrwp, stationary_states_lie_on_routes) {
    auto plan = geom::street_graph_spec::uniform(20.0, 4);
    plan.blocked.push_back({0, 2, 1, 2});
    const auto model = street_model(plan, 20.0);
    const geom::street_graph g(plan);
    rng gen{17};
    for (int i = 0; i < 500; ++i) {
        const mobility::trip_state s = model->stationary_state(gen);
        assert_on_street(g, s, plan);
        ASSERT_TRUE(g.node_at(s.dest).has_value());
        ASSERT_TRUE(g.node_at(s.waypoint).has_value());
    }
    EXPECT_TRUE(model->exact_stationary_sampler());
    EXPECT_EQ(model->name(), "graph_mrwp");
}

// ------------------------------------------------- determinism contracts --

/// Canonical all-integral text of a scenario outcome (bit-identity oracle:
/// equal bytes == identical spread results).
std::string outcome_text(const core::scenario& sc) {
    const core::scenario_outcome out = core::run_scenario(sc);
    std::ostringstream text;
    text << "steps " << out.spread.steps << " completed " << int{out.spread.completed}
         << '\n';
    for (const core::message_result& m : out.spread.messages) {
        text << "msg t " << m.flooding_time << " informed " << m.informed_count
             << " sources";
        for (const std::uint32_t s : m.sources) {
            text << ' ' << s;
        }
        text << " informed_at";
        for (const std::uint32_t v : m.informed_at) {
            text << ' ' << v;
        }
        text << '\n';
    }
    return text.str();
}

core::scenario street_scenario() {
    core::scenario sc;
    sc.params = {400, 20.0, 5.0, 1.0};
    auto plan = geom::street_graph_spec::graded(20.0, 4, 1.3);
    plan.blocked.push_back({1, 2, 2, 2});
    plan.one_way.push_back({0, 1, 1, 1});
    sc.topology = geom::topology_spec::streets(std::move(plan));
    sc.seed = 4242;
    sc.max_steps = 5000;
    return sc;
}

TEST(topology_determinism, street_scenario_is_bit_identical_serial_vs_parallel) {
    const core::scenario base = street_scenario();
    const std::string serial = outcome_text(base);
    for (const std::size_t intra : {std::size_t{2}, std::size_t{8}}) {
        core::scenario sc = base;
        sc.intra_threads = intra;
        EXPECT_EQ(outcome_text(sc), serial) << "intra_threads=" << intra;
    }
    // Replica fan-out at 1/2/8 worker threads must agree replica-for-replica.
    const auto reference = engine::run_replicas(base, 3, {.threads = 1});
    for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
        const auto parallel = engine::run_replicas(base, 3, {.threads = threads});
        ASSERT_EQ(parallel.size(), reference.size());
        for (std::size_t r = 0; r < reference.size(); ++r) {
            EXPECT_EQ(parallel[r].spread, reference[r].spread);
        }
    }
}

TEST(topology_determinism, explicit_manhattan_topology_matches_legacy_path_bytewise) {
    core::scenario legacy;
    legacy.params = core::net_params::standard_case(400, 5.0, 1.0);
    legacy.seed = 77;
    legacy.max_steps = 5000;

    core::scenario explicit_grid = legacy;
    explicit_grid.topology = geom::topology_spec::manhattan();
    EXPECT_EQ(outcome_text(explicit_grid), outcome_text(legacy));
}

TEST(topology_determinism, street_sweep_runs_end_to_end_and_labels_annotate) {
    engine::sweep_spec spec;
    spec.base = street_scenario();
    spec.base.params.n = 200;
    spec.standard_case = false;
    spec.repetitions = 2;
    spec.speed_factor = {1.0};
    const auto rows_serial = engine::run_sweep(spec, {.threads = 1});
    const auto rows_parallel = engine::run_sweep(spec, {.threads = 4});
    ASSERT_EQ(rows_serial.rows.size(), 1u);
    EXPECT_EQ(rows_serial.rows[0].times, rows_parallel.rows[0].times);
    const std::string& label = rows_serial.rows[0].point.label;
    EXPECT_NE(label.find("topo=streets"), std::string::npos) << label;
    EXPECT_NE(label.find("blocked=1"), std::string::npos) << label;
    EXPECT_NE(label.find("oneway=1"), std::string::npos) << label;
}

// ------------------------------------------------------------ fingerprints --

engine::sweep_spec pinned_spec() {
    engine::sweep_spec spec;
    spec.base.params = core::net_params::standard_case(4000, 9.1, 0.5);
    spec.base.seed = 42;
    spec.repetitions = 4;
    spec.n = {4000, 8000};
    spec.speed_factor = {0.5, 1.0};
    return spec;
}

TEST(topology_fingerprint, pure_grid_fingerprints_are_unchanged_from_pr9) {
    // Pinned against the engine BEFORE the topology API existed: these exact
    // hex values were computed on the previous commit. If either changes,
    // existing manifests, fabric checkpoints and cached daemon results stop
    // resuming — that is a breaking change, not a refactor detail.
    EXPECT_EQ(engine::fingerprint_hex(engine::sweep_fingerprint(pinned_spec())),
              "aa94a134170dec9c");

    engine::sweep_spec spread = pinned_spec();
    spread.base.model = mobility::model_kind::rwp;
    spread.base.mode = core::propagation::gossip;
    spread.base.gossip_p = 0.25;
    spread.base.spread = spread.base.effective_spread();
    EXPECT_EQ(engine::fingerprint_hex(engine::sweep_fingerprint(spread)),
              "6e80e9637ceb3185");
}

TEST(topology_fingerprint, street_topology_and_trace_extend_the_hash) {
    const auto base = pinned_spec();
    const std::uint64_t grid_fp = engine::sweep_fingerprint(base);

    engine::sweep_spec streets = base;
    streets.base.topology =
        geom::topology_spec::streets(geom::street_graph_spec::uniform(60.0, 4));
    const std::uint64_t street_fp = engine::sweep_fingerprint(streets);
    EXPECT_NE(street_fp, grid_fp);

    // Every street field is output-affecting: blocking one segment moves it.
    engine::sweep_spec blocked = streets;
    blocked.base.topology.street.blocked.push_back({0, 0, 1, 0});
    EXPECT_NE(engine::sweep_fingerprint(blocked), street_fp);
    engine::sweep_spec oneway = streets;
    oneway.base.topology.street.one_way.push_back({0, 0, 1, 0});
    EXPECT_NE(engine::sweep_fingerprint(oneway), street_fp);

    // Pinned before the field schema drove the hash: street fingerprints
    // are cache keys and fabric directory names too.
    EXPECT_EQ(engine::fingerprint_hex(street_fp), "c9719fb04430a0a1");
    EXPECT_EQ(engine::fingerprint_hex(engine::sweep_fingerprint(blocked)), "7934d3d40395431d");
    EXPECT_EQ(engine::fingerprint_hex(engine::sweep_fingerprint(oneway)), "5602f9d8d0a70b25");

    // The diff walk mirrors the hash walk and names the field.
    const std::string diff = engine::first_spec_difference(
        streets.expand(), streets.repetitions, blocked.expand(), blocked.repetitions);
    EXPECT_NE(diff.find("topology.blocked"), std::string::npos) << diff;
    EXPECT_EQ(diff, "point 0: topology.blocked.size (0 vs 1)");
    const std::string grid_vs_street = engine::first_spec_difference(
        base.expand(), base.repetitions, streets.expand(), streets.repetitions);
    EXPECT_NE(grid_vs_street.find("topology"), std::string::npos) << grid_vs_street;

    // A trace tour is hashed only under the trace_replay kind.
    engine::sweep_spec traced = base;
    traced.base.model = mobility::model_kind::trace_replay;
    traced.base.model_opts.trace =
        std::make_shared<const std::vector<manhattan::geom::vec2>>(
            std::vector<manhattan::geom::vec2>{{0.0, 0.0}, {5.0, 0.0}, {5.0, 5.0}});
    const std::uint64_t traced_fp = engine::sweep_fingerprint(traced);
    EXPECT_EQ(engine::fingerprint_hex(traced_fp), "a11defb075f93789");
    engine::sweep_spec retoured = traced;
    retoured.base.model_opts.trace =
        std::make_shared<const std::vector<manhattan::geom::vec2>>(
            std::vector<manhattan::geom::vec2>{{0.0, 0.0}, {6.0, 0.0}, {6.0, 5.0}});
    EXPECT_NE(engine::sweep_fingerprint(retoured), traced_fp);
    EXPECT_EQ(engine::first_spec_difference(traced.expand(), traced.repetitions,
                                            retoured.expand(), retoured.repetitions),
              "point 0: trace.x (4014000000000000 vs 4018000000000000)");
}

// ------------------------------------------------------------- sweep axes --

TEST(topology_axes, expand_materialises_street_plans_per_point) {
    engine::sweep_spec spec;
    spec.base.params = {300, 20.0, 5.0, 1.0};
    spec.base.seed = 9;
    spec.standard_case = false;
    spec.repetitions = 1;
    spec.street_blocks = 4;
    spec.block_ratio = {1.0, 1.5};
    spec.blocked_fraction = {0.0, 0.2};
    const auto points = spec.expand();
    ASSERT_EQ(points.size(), 4u);
    std::set<std::uint64_t> fingerprints;
    for (const auto& point : points) {
        EXPECT_FALSE(point.sc.topology.is_grid());
        EXPECT_EQ(point.sc.topology.street.xs.size(), 5u);
        EXPECT_NO_THROW(point.sc.topology.validate(point.sc.params.side));
        engine::sweep_spec one;
        one.base = point.sc;
        one.repetitions = 1;
        fingerprints.insert(engine::sweep_fingerprint(one));
    }
    EXPECT_EQ(fingerprints.size(), 4u);  // every point is a distinct workload
    // blocked_fraction > 0 actually blocked something.
    EXPECT_TRUE(points[0].sc.topology.street.blocked.empty());
    EXPECT_FALSE(points[1].sc.topology.street.blocked.empty());
}

TEST(topology_axes, expand_rejects_street_topology_with_grid_only_models) {
    engine::sweep_spec spec;
    spec.base.params = {300, 20.0, 5.0, 1.0};
    spec.standard_case = false;
    spec.base.model = mobility::model_kind::random_walk;
    spec.blocked_fraction = {0.1};
    EXPECT_THROW((void)spec.expand(), std::invalid_argument);
    EXPECT_THROW((void)mobility::make_model(mobility::model_kind::random_walk,
                                            geom::topology_spec::streets(
                                                geom::street_graph_spec::uniform(20.0, 4)),
                                            20.0, {}),
                 std::invalid_argument);
}

// ------------------------------------------------------------ trace replay --

TEST(trace_replay, validates_its_tour) {
    const auto tour = [](std::vector<manhattan::geom::vec2> pts) {
        return std::make_shared<const std::vector<manhattan::geom::vec2>>(std::move(pts));
    };
    EXPECT_THROW(mobility::trace_replay(10.0, nullptr), std::invalid_argument);
    EXPECT_THROW(mobility::trace_replay(10.0, tour({{1.0, 1.0}})), std::invalid_argument);
    EXPECT_THROW(mobility::trace_replay(10.0, tour({{1.0, 1.0}, {1.0, 1.0}})),
                 std::invalid_argument);
    EXPECT_THROW(mobility::trace_replay(10.0, tour({{1.0, 1.0}, {11.0, 1.0}})),
                 std::invalid_argument);
    EXPECT_NO_THROW(mobility::trace_replay(10.0, tour({{1.0, 1.0}, {9.0, 1.0}})));
    // The factory requires trace data for the trace kind and keeps the model
    // grid-only.
    EXPECT_THROW((void)mobility::make_model(mobility::model_kind::trace_replay, 10.0, {}),
                 std::invalid_argument);
    mobility::model_options opts;
    opts.trace = tour({{1.0, 1.0}, {9.0, 1.0}});
    EXPECT_THROW((void)mobility::make_model(mobility::model_kind::trace_replay,
                                            geom::topology_spec::streets(
                                                geom::street_graph_spec::uniform(10.0, 3)),
                                            10.0, opts),
                 std::invalid_argument);
    EXPECT_EQ(mobility::parse_model_kind("trace"), mobility::model_kind::trace_replay);
    EXPECT_EQ(mobility::model_kind_name(mobility::model_kind::trace_replay), "trace");
}

TEST(trace_replay, loops_the_tour_without_consuming_randomness) {
    mobility::model_options opts;
    opts.trace = std::make_shared<const std::vector<manhattan::geom::vec2>>(
        std::vector<manhattan::geom::vec2>{{1.0, 1.0}, {7.0, 1.0}, {7.0, 5.0}});
    const auto model = mobility::make_model(mobility::model_kind::trace_replay, 10.0, opts);

    mobility::trip_state s;
    s.pos = {1.0, 1.0};
    rng gen{3};
    rng untouched{3};
    model->begin_trip(s, gen);
    EXPECT_EQ(s.dest.x, 7.0);
    EXPECT_EQ(s.dest.y, 1.0);
    s.pos = s.dest;
    model->begin_trip(s, gen);
    EXPECT_EQ(s.dest.x, 7.0);
    EXPECT_EQ(s.dest.y, 5.0);
    s.pos = s.dest;
    model->begin_trip(s, gen);
    EXPECT_EQ(s.dest.x, 1.0);  // wraps back to the first vertex
    // On-tour trips drew nothing: the stream equals a never-used twin's.
    EXPECT_EQ(gen.uniform01(), untouched.uniform01());
}

TEST(trace_replay, scenario_runs_bit_identically_at_every_parallelism) {
    core::scenario sc;
    sc.params = {150, 12.0, 4.0, 1.0};
    sc.model = mobility::model_kind::trace_replay;
    sc.model_opts.trace = std::make_shared<const std::vector<manhattan::geom::vec2>>(
        std::vector<manhattan::geom::vec2>{
            {1.0, 1.0}, {11.0, 1.0}, {11.0, 11.0}, {1.0, 11.0}});
    sc.seed = 31;
    sc.max_steps = 4000;
    const std::string serial = outcome_text(sc);
    for (const std::size_t intra : {std::size_t{2}, std::size_t{8}}) {
        core::scenario parallel = sc;
        parallel.intra_threads = intra;
        EXPECT_EQ(outcome_text(parallel), serial) << "intra_threads=" << intra;
    }
}

// ------------------------------------------------------------ fabric round --

TEST(topology_fabric, street_and_trace_points_survive_the_spec_file_round_trip) {
    engine::sweep_spec spec;
    spec.base = street_scenario();
    spec.standard_case = false;
    spec.repetitions = 2;
    spec.speed_factor = {0.5, 1.0};

    engine::fabric_spec fabric;
    fabric.points = spec.expand();
    fabric.repetitions = spec.repetitions;
    fabric.batch = 1;
    fabric.fingerprint = engine::sweep_fingerprint(fabric.points, fabric.repetitions);

    // parse re-fingerprints the points and throws on any drift, so a clean
    // round trip certifies byte-exact topology serialization.
    const engine::fabric_spec back =
        engine::parse_fabric_spec(engine::serialize_fabric_spec(fabric));
    EXPECT_EQ(back.fingerprint, fabric.fingerprint);
    ASSERT_EQ(back.points.size(), fabric.points.size());
    for (std::size_t i = 0; i < back.points.size(); ++i) {
        EXPECT_EQ(back.points[i].sc.topology, fabric.points[i].sc.topology);
        EXPECT_EQ(back.points[i].label, fabric.points[i].label);
    }
    EXPECT_TRUE(engine::first_spec_difference(fabric.points, fabric.repetitions,
                                              back.points, back.repetitions)
                    .empty());

    // Same exercise for a trace workload.
    engine::fabric_spec traced;
    core::scenario tsc;
    tsc.params = {100, 12.0, 4.0, 1.0};
    tsc.model = mobility::model_kind::trace_replay;
    tsc.model_opts.trace = std::make_shared<const std::vector<manhattan::geom::vec2>>(
        std::vector<manhattan::geom::vec2>{{1.0, 1.0}, {11.0, 1.0}, {6.0, 9.0}});
    traced.points.push_back({tsc, 0, "trace point"});
    traced.repetitions = 1;
    traced.batch = 1;
    traced.fingerprint = engine::sweep_fingerprint(traced.points, 1);
    const engine::fabric_spec traced_back =
        engine::parse_fabric_spec(engine::serialize_fabric_spec(traced));
    ASSERT_NE(traced_back.points[0].sc.model_opts.trace, nullptr);
    EXPECT_EQ(*traced_back.points[0].sc.model_opts.trace, *tsc.model_opts.trace);
}

}  // namespace
