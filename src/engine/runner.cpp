#include "engine/runner.h"

#include "engine/thread_pool.h"

namespace manhattan::engine {

std::vector<core::scenario_outcome> run_replicas(const core::scenario& base,
                                                 std::size_t repetitions,
                                                 const run_options& opts) {
    std::vector<core::scenario_outcome> outcomes(repetitions);
    thread_pool pool(opts.threads);
    pool.parallel_for(repetitions, [&](std::size_t r) {
        core::scenario sc = base;
        sc.seed = replica_seed(base.seed, r);
        outcomes[r] = core::run_scenario(sc);
    });
    return outcomes;
}

std::vector<double> flooding_times(const core::scenario& base, std::size_t repetitions,
                                   const run_options& opts) {
    // Reduce each outcome to its flooding time inside the worker: the full
    // scenario_outcome carries n-sized vectors and need not be retained.
    std::vector<double> times(repetitions);
    thread_pool pool(opts.threads);
    pool.parallel_for(repetitions, [&](std::size_t r) {
        core::scenario sc = base;
        sc.seed = replica_seed(base.seed, r);
        times[r] =
            static_cast<double>(core::run_scenario(sc).spread.messages[0].flooding_time);
    });
    return times;
}

}  // namespace manhattan::engine
