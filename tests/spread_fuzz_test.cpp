// Randomized-spec property suite for the spread engine: ~50 seeded random
// small spread workloads (message counts, source placements, spawn steps,
// stop rules, gossip probabilities, mobility models) each run three times —
// serial, serial again, and with a 4-lane intra-replica pool. The repeats
// must be bit-identical (spread_result has operator==; every field is
// integral), and every result must satisfy the structural invariants the
// spec promises: monotone per-message timelines, informed counts consistent
// with informed_at, sources informed exactly at their spawn step, and
// flooding_time / steps consistent with the stop rule.
//
// The generator is deterministically seeded, so a failure reproduces from
// the iteration index alone.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <set>
#include <vector>

#include "core/scenario.h"
#include "core/spread.h"

namespace {

namespace core = manhattan::core;
namespace mobility = manhattan::mobility;

constexpr int kIterations = 50;

std::size_t pick(std::mt19937_64& g, std::size_t lo, std::size_t hi) {
    return std::uniform_int_distribution<std::size_t>(lo, hi)(g);
}

double pick_real(std::mt19937_64& g, double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(g);
}

core::source_spec random_sources(std::mt19937_64& g, std::size_t n) {
    switch (pick(g, 0, 2)) {
        case 0: {
            const core::source_placement placements[] = {
                core::source_placement::random_agent, core::source_placement::center_most,
                core::source_placement::corner_most,  core::source_placement::corner_ne,
                core::source_placement::corner_nw,    core::source_placement::corner_se,
            };
            return core::source_spec::at(placements[pick(g, 0, 5)], pick(g, 1, 3));
        }
        case 1: {
            std::set<std::size_t> ids;
            const std::size_t count = pick(g, 1, 3);
            while (ids.size() < count) {
                ids.insert(pick(g, 0, n - 1));
            }
            return core::source_spec::agents({ids.begin(), ids.end()});
        }
        default:
            return core::source_spec::random(pick(g, 1, 3));
    }
}

core::stop_rule random_stop(std::mt19937_64& g) {
    switch (pick(g, 0, 3)) {
        case 0: return core::stop_rule::all_informed();
        case 1: return core::stop_rule::informed_fraction(pick_real(g, 0.3, 1.0));
        case 2: return core::stop_rule::central_zone();
        default: return core::stop_rule::step_budget(pick(g, 5, 60));
    }
}

core::scenario random_scenario(std::mt19937_64& g) {
    core::scenario sc;
    const std::size_t n = pick(g, 60, 320);
    const double radius =
        pick_real(g, 0.8, 1.3) * 3.0 * std::sqrt(std::log(static_cast<double>(n)));
    sc.params = core::net_params::standard_case(n, radius, pick_real(g, 0.5, 1.5));
    const mobility::model_kind models[] = {
        mobility::model_kind::mrwp,           mobility::model_kind::rwp,
        mobility::model_kind::random_walk,    mobility::model_kind::random_direction,
        mobility::model_kind::static_agents,
    };
    sc.model = models[pick(g, 0, 4)];
    sc.seed = g();
    sc.record_timeline = true;
    sc.with_cell_partition = true;
    sc.max_steps = 400;
    const std::size_t messages = pick(g, 1, 3);
    for (std::size_t m = 0; m < messages; ++m) {
        core::message_spec msg;
        msg.sources = random_sources(g, n);
        msg.spawn_step = pick(g, 0, 5);
        const core::propagation modes[] = {core::propagation::one_hop,
                                           core::propagation::gossip,
                                           core::propagation::per_component};
        msg.mode = modes[pick(g, 0, 2)];
        if (msg.mode == core::propagation::gossip) {
            msg.gossip_p = pick_real(g, 0.15, 1.0);
        }
        sc.spread.messages.push_back(std::move(msg));
    }
    sc.spread.stop = random_stop(g);
    return sc;
}

// Structural invariants every result must satisfy regardless of the spec.
void check_invariants(const core::scenario& sc, const core::scenario_outcome& out) {
    const std::size_t n = sc.params.n;
    const core::spread_result& r = out.spread;
    EXPECT_LE(r.steps, sc.max_steps);
    ASSERT_EQ(r.messages.size(), sc.spread.messages.size());

    for (std::size_t mi = 0; mi < r.messages.size(); ++mi) {
        const core::message_result& m = r.messages[mi];
        const core::message_spec& spec = sc.spread.messages[mi];
        EXPECT_EQ(m.spawn_step, spec.spawn_step);

        // Timeline: one entry per step until the message completed, counts
        // monotone non-decreasing and never beyond n.
        EXPECT_LE(m.timeline.size(), r.steps);
        for (std::size_t s = 1; s < m.timeline.size(); ++s) {
            EXPECT_LE(m.timeline[s - 1], m.timeline[s]) << "message " << mi;
        }
        if (!m.timeline.empty()) {
            EXPECT_LE(m.timeline.back(), n);
            EXPECT_EQ(m.timeline.back(), m.informed_count);
        }

        // informed_at is the ledger: its non-sentinel entries count the
        // informed set, sources are informed exactly at the spawn step, and
        // nobody is informed before it.
        ASSERT_EQ(m.informed_at.size(), n);
        std::size_t informed = 0;
        std::uint32_t last_step = 0;
        for (const std::uint32_t at : m.informed_at) {
            if (at != core::never_informed) {
                ++informed;
                EXPECT_GE(at, spec.spawn_step);
                EXPECT_LE(at, r.steps);
                last_step = std::max(last_step, at);
            }
        }
        EXPECT_EQ(informed, m.informed_count);
        for (const std::uint32_t src : m.sources) {
            ASSERT_LT(src, n);
            EXPECT_EQ(m.informed_at[src], spec.spawn_step) << "source " << src;
        }

        // flooding_time: the last informing step when complete, the run
        // length otherwise.
        EXPECT_EQ(m.completed, !m.sources.empty() && m.informed_count == n);
        if (m.completed) {
            EXPECT_EQ(m.flooding_time, last_step);
        } else {
            EXPECT_EQ(m.flooding_time, r.steps);
        }
        if (m.stop_satisfied_step.has_value()) {
            EXPECT_LE(*m.stop_satisfied_step, r.steps);
        }
        EXPECT_EQ(r.completed, r.completed && m.stop_satisfied_step.has_value());
    }

    // Stop-rule consistency.
    const core::stop_rule& stop = sc.spread.stop;
    if (stop.how == core::stop_rule::kind::step_budget) {
        // The budget rule ignores coverage: the run ends exactly on it
        // (max_steps = 400 always covers the 5..60 budgets generated here).
        EXPECT_TRUE(r.completed);
        EXPECT_EQ(r.steps, stop.steps);
    }
    if (r.completed) {
        for (const core::message_result& m : r.messages) {
            switch (stop.how) {
                case core::stop_rule::kind::all_informed:
                    EXPECT_EQ(m.informed_count, n);
                    break;
                case core::stop_rule::kind::informed_fraction: {
                    const auto target = static_cast<std::size_t>(
                        std::ceil(stop.fraction * static_cast<double>(n)));
                    EXPECT_GE(m.informed_count, std::clamp<std::size_t>(target, 1, n));
                    break;
                }
                case core::stop_rule::kind::central_zone:
                    if (out.cell_side > 0.0) {
                        EXPECT_TRUE(m.central_zone_informed_step.has_value());
                    } else {
                        EXPECT_EQ(m.informed_count, n);  // documented fallback
                    }
                    break;
                case core::stop_rule::kind::step_budget:
                    break;
            }
        }
    }
}

TEST(spread_fuzz, random_specs_are_deterministic_and_consistent) {
    std::mt19937_64 gen(0x5eedf00dULL);
    for (int iter = 0; iter < kIterations; ++iter) {
        SCOPED_TRACE(testing::Message() << "iteration " << iter);
        const core::scenario sc = random_scenario(gen);

        const core::scenario_outcome serial = core::run_scenario(sc);
        check_invariants(sc, serial);

        // Repeated-run bit-identity: same spec, same bytes.
        const core::scenario_outcome repeat = core::run_scenario(sc);
        EXPECT_EQ(serial.spread, repeat.spread);

        // Serial vs parallel bit-identity: a 4-lane intra-replica pool must
        // change nothing.
        core::scenario parallel_sc = sc;
        parallel_sc.intra_threads = 4;
        const core::scenario_outcome parallel = core::run_scenario(parallel_sc);
        EXPECT_EQ(serial.spread, parallel.spread);
    }
}

}  // namespace
