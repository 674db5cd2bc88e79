#include "engine/runner.h"

#include "engine/thread_pool.h"
#include "rng/splitmix64.h"

namespace manhattan::engine {

std::vector<std::uint64_t> replica_seeds(std::uint64_t base_seed, std::size_t count) {
    rng::splitmix64 expand(base_seed);
    std::vector<std::uint64_t> seeds(count);
    for (auto& s : seeds) {
        s = expand();
    }
    return seeds;
}

std::vector<core::scenario_outcome> run_replicas(thread_pool& pool,
                                                 const core::scenario& base,
                                                 std::size_t repetitions, std::size_t chunk) {
    const auto seeds = replica_seeds(base.seed, repetitions);
    std::vector<core::scenario_outcome> outcomes(repetitions);
    pool.parallel_for(
        repetitions,
        [&](std::size_t r) {
            core::scenario sc = base;
            sc.seed = seeds[r];
            outcomes[r] = core::run_scenario(sc);
        },
        chunk);
    return outcomes;
}

std::vector<core::scenario_outcome> run_replicas(const core::scenario& base,
                                                 std::size_t repetitions,
                                                 const run_options& opts) {
    thread_pool pool(opts.threads);
    return run_replicas(pool, base, repetitions, opts.chunk);
}

std::vector<double> flooding_times(const core::scenario& base, std::size_t repetitions,
                                   const run_options& opts) {
    // Reduce each outcome to its flooding time inside the worker: the full
    // scenario_outcome carries n-sized vectors and need not be retained.
    const auto seeds = replica_seeds(base.seed, repetitions);
    std::vector<double> times(repetitions);
    thread_pool pool(opts.threads);
    pool.parallel_for(
        repetitions,
        [&](std::size_t r) {
            core::scenario sc = base;
            sc.seed = seeds[r];
            times[r] =
                static_cast<double>(core::run_scenario(sc).spread.messages[0].flooding_time);
        },
        opts.chunk);
    return times;
}

}  // namespace manhattan::engine
