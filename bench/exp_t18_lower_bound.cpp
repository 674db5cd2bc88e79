// T18 — Theorem 18's lower bound: with R = O(L/n^{1/3}) there is, with
// constant probability, an agent in the corner square F = [0,d]^2 with nobody
// else in E = [0,3d]^2; informing her takes at least (2d-R)/(2v) steps, i.e.
// Omega(L/(v n^{1/3})). We (a) measure the probability of the paper's event B
// against its analytic value, and (b) conditioned on B, measure the informing
// time of the F-agent at two speeds: it must respect the gate and grow as v
// shrinks (flooding time *must* depend on v).
//
// The stationary snapshots of part (a) are independent: they fan over the
// engine pool with per-slot flags, and b_seeds is rebuilt in attempt order
// so the selection is deterministic at any thread count. Part (b)'s stepping
// loops borrow the pool's executor (bit-identical; docs/PERF.md).
// Knobs: --n=4000 --attempts=600 --runs=4 --kappa=0.3 --seed=1 --threads=0
#include <cmath>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_common.h"
#include "core/flooding.h"
#include "density/spatial.h"
#include "engine/thread_pool.h"
#include "mobility/mrwp.h"
#include "mobility/walker.h"

using namespace manhattan;

namespace {

struct snapshot_check {
    bool event_b = false;
    std::size_t f_agent = 0;
};

snapshot_check check_event_b(std::span<const geom::vec2> positions, double d) {
    snapshot_check out;
    bool in_f = false;
    std::size_t f_agent = 0;
    for (std::size_t i = 0; i < positions.size(); ++i) {
        const auto p = positions[i];
        if (p.x <= d && p.y <= d) {
            in_f = true;
            f_agent = i;
        } else if (p.x <= 3 * d && p.y <= 3 * d) {
            return out;  // someone in E - F: event B fails
        }
    }
    out.event_b = in_f;
    out.f_agent = f_agent;
    return out;
}

}  // namespace

namespace {

int run(const util::cli_args& args) {
    const auto n = static_cast<std::size_t>(args.get_int("n", 4000));
    const auto attempts = static_cast<std::size_t>(args.get_int("attempts", 600));
    const auto runs = static_cast<std::size_t>(args.get_int("runs", 4));
    const double kappa = args.get_double("kappa", 0.3);
    const auto seed0 = static_cast<std::uint64_t>(args.get_int("seed", 1));

    bench::banner("T18", "Theorem 18: lower bound Omega(L/(v n^{1/3})) via the corner event B");

    const double side = std::sqrt(static_cast<double>(n));
    const double d = kappa * core::paper::lower_bound_radius(side, n);  // kappa L / n^{1/3}
    const double radius = d / 2.0;

    // Analytic P(B) = (1 - (P_E - P_F))^n - (1 - P_E)^n (>= the paper's
    // n P_F (1-P_E)^{n-1} bound).
    const double p_f =
        density::spatial_rect_mass(geom::rect::make({0, 0}, {d, d}), side);
    const double p_e =
        density::spatial_rect_mass(geom::rect::make({0, 0}, {3 * d, 3 * d}), side);
    const auto nn = static_cast<double>(n);
    const double p_b_analytic =
        std::pow(1.0 - (p_e - p_f), nn) - std::pow(1.0 - p_e, nn);

    // (a) empirical P(B) over stationary snapshots, fanned over the pool.
    auto model = std::make_shared<mobility::manhattan_random_waypoint>(side);
    engine::thread_pool pool(bench::engine_options(args).threads);
    std::vector<std::uint8_t> hit(attempts, 0);
    pool.parallel_for(attempts, [&](std::size_t a) {
        mobility::walker w(model, n, 0.1, rng::rng{seed0 + a});
        hit[a] = check_event_b(w.positions(), d).event_b ? 1 : 0;
    });
    std::vector<std::uint64_t> b_seeds;
    std::size_t b_count = 0;
    for (std::size_t a = 0; a < attempts; ++a) {
        if (hit[a] != 0) {
            ++b_count;
            b_seeds.push_back(seed0 + a);
        }
    }
    const double p_b_measured = static_cast<double>(b_count) / static_cast<double>(attempts);

    util::table prob({"quantity", "value"});
    prob.add_row({"d = kappa L/n^(1/3)", util::fmt(d)});
    prob.add_row({"R = d/2", util::fmt(radius)});
    prob.add_row({"P(B) analytic", util::fmt(p_b_analytic)});
    prob.add_row({"P(B) measured (" + util::fmt(attempts) + " snapshots)",
                  util::fmt(p_b_measured)});
    std::printf("%s\n", prob.markdown().c_str());

    // (b) conditional informing time of the F-agent, two speeds.
    util::table t({"v", "seed", "t(F informed)", "gate (2d-R)/(2v)", "L/(v n^1/3)", "ok"});
    bool gates_ok = true;
    std::vector<double> mean_by_speed;
    for (const double v : {0.4, 0.1}) {
        double sum = 0.0;
        std::size_t counted = 0;
        for (std::size_t r = 0; r < std::min(runs, b_seeds.size()); ++r) {
            mobility::walker w(model, n, v, rng::rng{b_seeds[r]});
            const auto check = check_event_b(w.positions(), d);
            core::spread_config cfg;
            cfg.spread.messages.push_back(
                {.sources = core::source_spec::agents({check.f_agent == 0 ? 1u : 0u})});
            cfg.max_steps = 200'000;
            cfg.record_timeline = false;
            core::flooding_sim sim(std::move(w), radius, cfg, nullptr, &pool.executor());
            while (!sim.is_informed(check.f_agent) && sim.steps_taken() < cfg.max_steps) {
                (void)sim.step();
            }
            const auto t_f = static_cast<double>(sim.steps_taken());
            const double gate = (2.0 * d - radius) / (2.0 * v);
            const bool ok = t_f >= gate;
            gates_ok = gates_ok && ok;
            sum += t_f;
            ++counted;
            t.add_row({util::fmt(v), util::fmt(b_seeds[r]), util::fmt(t_f), util::fmt(gate),
                       util::fmt(core::paper::lower_bound_time(side, v, n)),
                       util::fmt_bool(ok)});
        }
        mean_by_speed.push_back(counted > 0 ? sum / static_cast<double>(counted) : 0.0);
    }
    std::printf("%s", t.markdown().c_str());

    const bool prob_ok = b_count > 0 && p_b_measured < 10.0 * p_b_analytic + 0.05 &&
                         (p_b_analytic < 1e-4 || p_b_measured > p_b_analytic / 10.0);
    const bool v_dependence = mean_by_speed.size() == 2 && mean_by_speed[1] > mean_by_speed[0];
    bench::verdict(prob_ok && gates_ok && v_dependence,
                   "event B occurs at its analytic Theta(1) rate; conditional informing time "
                   "respects the (2d-R)/(2v) gate and grows as v shrinks");
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    return manhattan::bench::guarded_main(argc, argv, run);
}
