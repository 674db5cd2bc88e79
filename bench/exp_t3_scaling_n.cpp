// T3c — Theorem 3, scaling in n: standard case L = sqrt(n), R = c1 sqrt(ln n),
// v = Theta(R). The paper's discussion: in this regime the bound is O(L/R)
// and optimal, so the measured time normalised by L/R must stay flat as n
// grows (16x on the default grid; the verdict names the range that ran).
//
// The n-sweep is a declarative engine::sweep_spec fanned over all cores.
// Knobs: --n=LIST --c1=3 --reps=3 --seed=1 --threads=0 --csv=FILE --json=FILE
//        --resume=MANIFEST (checkpoint/restart)
#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "core/scenario.h"
#include "engine/sweep.h"
#include "stats/fit.h"
#include "stats/summary.h"

using namespace manhattan;

namespace {

int run(const util::cli_args& args) {
    const double c1 = args.get_double("c1", 3.0);
    const std::size_t reps = bench::replicas(args, 3);
    const auto seed0 = static_cast<std::uint64_t>(args.get_int("seed", 1));

    bench::banner("T3c", "Theorem 3: scaling with n at L = sqrt(n), R = c1 sqrt(ln n)");

    engine::sweep_spec spec;
    spec.base.source = core::source_placement::center_most;
    spec.base.seed = seed0;
    spec.base.max_steps = 500'000;
    spec.repetitions = reps;
    spec.n = {4000, 8000, 16'000, 32'000, 64'000};
    if (args.has("n")) {
        // --n=LIST overrides the swept axis (smaller grids for smoke runs —
        // the CI resume smoke kills and resumes this bench on a tiny grid).
        spec.n.clear();
        for (const long long value : bench::parse_list("n", args.get_string("n", ""))) {
            if (value <= 0) {
                throw std::invalid_argument("--n: values must be positive");
            }
            spec.n.push_back(static_cast<std::size_t>(value));
        }
    }
    spec.c1 = {c1};
    spec.speed_factor = {1.0};
    bench::apply_source(args, spec.base);  // --source= overrides center_most
    bench::apply_topology(args, spec);  // --topology= street-plan axes

    engine::memory_sink memory;
    bench::sink_set sinks(args);
    sinks.add(&memory);
    bench::checkpointer ckpt(args);
    bench::fabric_set fabric(args);  // --fabric= = multi-worker drain
    bench::telemetry_set telem(args);
    engine::run_options opts = bench::engine_options(args);
    telem.arm(opts, spec);
    (void)bench::run_sweep_auto(fabric, spec, opts, sinks.span(), ckpt.next());
    telem.sweep_done();

    util::table t({"n", "L", "R", "mean T", "sd", "L/R", "T / (L/R)"});
    std::vector<double> ns;
    std::vector<double> ratios;
    for (const auto& row : memory.rows()) {
        const auto& p = row.point.sc.params;
        const double l_over_r = p.side / p.radius;
        ns.push_back(static_cast<double>(p.n));
        ratios.push_back(row.summary.mean / l_over_r);
        t.add_row({util::fmt(p.n), util::fmt(p.side), util::fmt(p.radius),
                   util::fmt(row.summary.mean), util::fmt(row.summary.stddev),
                   util::fmt(l_over_r), util::fmt(row.summary.mean / l_over_r)});
    }
    std::printf("%s", t.markdown().c_str());

    const auto fit = stats::power_fit(ns, ratios);
    std::printf("\nT/(L/R) ~ n^%s (power fit, r2 = %s); paper predicts exponent ~ 0\n",
                util::fmt(fit.exponent).c_str(), util::fmt(fit.r2).c_str());

    const auto s = stats::summarize(ratios);
    const auto [n_min, n_max] = std::minmax_element(ns.begin(), ns.end());
    bench::verdict(s.max <= 2.0 * s.min && std::abs(fit.exponent) < 0.25,
                   "normalised flooding time T/(L/R) flat across a " +
                       util::fmt(*n_max / *n_min) + "x range of n");
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    return manhattan::bench::guarded_main(argc, argv, run);
}
