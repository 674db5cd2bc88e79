// PERF — google-benchmark micro-benchmarks of the simulation engine: the
// throughput numbers that justify the "fast grid simulation" claim (agent
// steps/s, flooding step cost, spatial-index rebuild, sampler throughput,
// snapshot graph construction, partition construction), plus the parallel
// experiment engine's replica-batch scaling (wall-clock speedup of a
// 64-replica batch at 1 / 2 / 4 / all threads — the PR's headline number).
#include <benchmark/benchmark.h>

#include <cmath>
#include <memory>

#include "core/cell_partition.h"
#include "core/flooding.h"
#include "core/params.h"
#include "core/scenario.h"
#include "engine/runner.h"
#include "engine/sweep.h"
#include "geom/uniform_grid.h"
#include "graph/disk_graph.h"
#include "mobility/factory.h"
#include "mobility/walker.h"
#include "rng/rng.h"

namespace {

using namespace manhattan;

double side_for(std::size_t n) {
    return std::sqrt(static_cast<double>(n));
}

void bm_mobility_step(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto kind = static_cast<mobility::model_kind>(state.range(1));
    const double side = side_for(n);
    const auto model = mobility::make_model(kind, side);
    mobility::walker w(model, n, 1.0, rng::rng{1});
    for (auto _ : state) {
        w.step();
        benchmark::DoNotOptimize(w.positions().data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(n));
}

void bm_stationary_sampler(benchmark::State& state) {
    const auto kind = static_cast<mobility::model_kind>(state.range(0));
    const auto model = mobility::make_model(kind, 100.0);
    rng::rng gen(2);
    for (auto _ : state) {
        benchmark::DoNotOptimize(model->stationary_state(gen));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void bm_grid_rebuild(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    const double side = side_for(n);
    const auto model = mobility::make_model(mobility::model_kind::mrwp, side);
    mobility::walker w(model, n, 1.0, rng::rng{3});
    geom::uniform_grid grid(side, 5.0);
    for (auto _ : state) {
        grid.rebuild(w.positions());
        benchmark::DoNotOptimize(grid.size());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(n));
}

void bm_flood_run(benchmark::State& state) {
    // Times a complete flooding run (walker construction included — the
    // stationary sampling is ~10% of the total at these sizes).
    const auto n = static_cast<std::size_t>(state.range(0));
    const double side = side_for(n);
    const double radius = 3.0 * std::sqrt(std::log(static_cast<double>(n)));
    const auto model = mobility::make_model(mobility::model_kind::mrwp, side);
    std::uint64_t steps = 0;
    for (auto _ : state) {
        mobility::walker w(model, n, core::paper::speed_bound(radius), rng::rng{4});
        core::flood_config cfg;
        cfg.record_timeline = false;
        core::flooding_sim sim(std::move(w), radius, cfg);
        const auto result = sim.run_spread();
        steps += result.messages[0].flooding_time;
        benchmark::DoNotOptimize(result.messages[0].informed_count);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(steps) * static_cast<std::int64_t>(n));
    state.counters["flood_steps"] =
        static_cast<double>(steps) / static_cast<double>(state.iterations());
}

void bm_disk_graph_build(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    const double side = side_for(n);
    const double radius = 2.0 * std::sqrt(std::log(static_cast<double>(n)));
    const auto model = mobility::make_model(mobility::model_kind::mrwp, side);
    mobility::walker w(model, n, 1.0, rng::rng{5});
    for (auto _ : state) {
        const graph::disk_graph g(w.positions(), radius, side);
        benchmark::DoNotOptimize(g.edge_count());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(n));
}

void bm_cell_partition_build(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    const double side = side_for(n);
    const double radius = 3.0 * std::sqrt(std::log(static_cast<double>(n)));
    for (auto _ : state) {
        const core::cell_partition cp(n, side, radius);
        benchmark::DoNotOptimize(cp.central_cell_count());
    }
}

void bm_engine_replica_batch(benchmark::State& state) {
    // Wall-clock time of a 64-replica batch through engine::run_replicas at
    // a given thread count. Results are bit-identical across the arg values
    // (deterministic sharding); only the real time changes. Acceptance: at
    // >= 4 cores the 64-replica batch must be >= 3x faster than 1 thread.
    const auto threads = static_cast<std::size_t>(state.range(0));
    const std::size_t n = 4000;
    const double radius = 3.0 * std::sqrt(std::log(static_cast<double>(n)));
    core::scenario sc;
    sc.params = core::net_params::standard_case(n, radius, core::paper::speed_bound(radius));
    sc.source = core::source_placement::center_most;
    sc.max_steps = 100'000;
    sc.seed = 7;
    constexpr std::size_t kReplicas = 64;
    for (auto _ : state) {
        const auto outcomes =
            engine::run_replicas(sc, kReplicas, {.threads = threads});
        benchmark::DoNotOptimize(outcomes.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(kReplicas));
    state.counters["threads"] = static_cast<double>(threads);
}

void bm_engine_sweep(benchmark::State& state) {
    // A small declarative grid (3 radii x 8 replicas) end to end, including
    // aggregation — the sweep driver's fixed overhead on top of the runner.
    const std::size_t n = 2000;
    engine::sweep_spec spec;
    spec.base.source = core::source_placement::center_most;
    spec.base.max_steps = 100'000;
    spec.base.seed = 11;
    spec.repetitions = 8;
    spec.n = {n};
    spec.c1 = {2.0, 3.0, 4.0};
    spec.speed_factor = {1.0};
    for (auto _ : state) {
        const auto result = engine::run_sweep(spec, {.threads = 0});
        benchmark::DoNotOptimize(result.rows.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 24);
}

}  // namespace

BENCHMARK(bm_mobility_step)
    ->Args({10'000, static_cast<int>(mobility::model_kind::mrwp)})
    ->Args({100'000, static_cast<int>(mobility::model_kind::mrwp)})
    ->Args({10'000, static_cast<int>(mobility::model_kind::rwp)})
    ->Args({10'000, static_cast<int>(mobility::model_kind::random_walk)})
    ->Unit(benchmark::kMicrosecond);

BENCHMARK(bm_stationary_sampler)
    ->Arg(static_cast<int>(mobility::model_kind::mrwp))
    ->Arg(static_cast<int>(mobility::model_kind::rwp));

BENCHMARK(bm_grid_rebuild)->Arg(10'000)->Arg(100'000)->Unit(benchmark::kMicrosecond);
BENCHMARK(bm_flood_run)->Arg(10'000)->Arg(50'000)->Unit(benchmark::kMillisecond);
BENCHMARK(bm_disk_graph_build)->Arg(10'000)->Arg(50'000)->Unit(benchmark::kMicrosecond);
BENCHMARK(bm_cell_partition_build)->Arg(10'000)->Arg(100'000)->Unit(benchmark::kMicrosecond);

BENCHMARK(bm_engine_replica_batch)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(0)  // 0 = all hardware threads
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK(bm_engine_sweep)->UseRealTime()->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
