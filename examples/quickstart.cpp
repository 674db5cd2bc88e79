// Quickstart: simulate one flooding process over a Manhattan Random-Way-Point
// MANET in the stationary phase and print the informed-count timeline.
//
// Build & run:
//     cmake -B build -G Ninja && cmake --build build
//     ./build/examples/quickstart --n=8000 --c1=3 --seed=7
#include <cmath>
#include <cstdio>

#include "core/scenario.h"
#include "util/cli.h"
#include "util/table.h"

using namespace manhattan;

int main(int argc, char** argv) {
    const util::cli_args args(argc, argv);
    const auto n = static_cast<std::size_t>(args.get_int("n", 8000));
    const double c1 = args.get_double("c1", 3.0);
    const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 7));

    // The paper's standard case: a sqrt(n) x sqrt(n) square, transmission
    // radius R = c1 sqrt(ln n), and the slow-mobility speed bound of Ineq. 8.
    core::scenario sc;
    const double radius = c1 * std::sqrt(std::log(static_cast<double>(n)));
    sc.params = core::net_params::standard_case(n, radius, core::paper::speed_bound(radius));
    sc.source = core::source_placement::center_most;
    sc.seed = seed;
    sc.record_timeline = true;
    sc.max_steps = 100'000;

    std::printf("Flooding over Manhattan — quickstart\n");
    std::printf("n = %zu agents, L = %.1f, R = %.2f, v = %.3f (seed %llu)\n\n", n,
                sc.params.side, sc.params.radius, sc.params.speed,
                static_cast<unsigned long long>(seed));

    const auto out = core::run_scenario(sc);
    const auto& flood = out.spread.messages[0];

    util::table t({"step", "informed", "fraction"});
    const auto& tl = flood.timeline;
    for (std::size_t i = 0; i < tl.size(); ++i) {
        // Print a logarithmic selection of steps plus the last one.
        if (i == 0 || i == tl.size() - 1 || (i & (i - 1)) == 0) {
            t.add_row({util::fmt(i + 1), util::fmt(tl[i]),
                       util::fmt(static_cast<double>(tl[i]) / static_cast<double>(n))});
        }
    }
    std::printf("%s\n", t.markdown().c_str());

    std::printf("flooding time:            %llu steps (%s)\n",
                static_cast<unsigned long long>(flood.flooding_time),
                flood.completed ? "completed" : "NOT completed");
    if (flood.central_zone_informed_step) {
        std::printf("central zone informed at: %llu steps (Theorem 10 bound: %.1f)\n",
                    static_cast<unsigned long long>(*flood.central_zone_informed_step),
                    core::paper::central_zone_flood_bound(sc.params.side, sc.params.radius));
    }
    std::printf("suburb diameter S:        %.2f (Theorem 3 bound shape: L/R + S/v)\n",
                out.suburb_diameter);
    std::printf("wall time:                %.2f s\n", out.wall_seconds);
    return 0;
}
