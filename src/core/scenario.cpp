#include "core/scenario.h"

#include <cmath>
#include <memory>
#include <stdexcept>

#include "engine/thread_pool.h"
#include "rng/splitmix64.h"
#include "util/timer.h"

namespace manhattan::core {

namespace {

// Per-message seed derivation tags: message m of a scenario with seed s
// draws its gossip coins from splitmix64(s ^ tag ^ m * kMessageStride) and
// its random-k source sample from the same scheme with the source tag.
// Message 0's gossip stream is exactly the pre-spread single-message stream
// (m = 0 leaves the input untouched), and every stream is a pure function
// of (s, m) — independent of thread counts and of the other messages
// (docs/WORKLOADS.md). The stride (splitmix64's own golden-ratio constant)
// spreads the small message index across all 64 bits before the XOR, so
// hand-picked sequential seeds can't collide with message indices the way a
// bare `s ^ m` would (seed 3 / message 0 vs seed 2 / message 1).
constexpr std::uint64_t kGossipTag = 0x676f737369702121ULL;  // "gossip!!"
constexpr std::uint64_t kSourceTag = 0x6d756c7469737263ULL;  // "multisrc"
constexpr std::uint64_t kMessageStride = rng::splitmix64::gamma;

}  // namespace

spread_spec scenario::effective_spread() const {
    if (!spread.messages.empty()) {
        return spread;
    }
    spread_spec s = spread;  // keep the stop rule even in legacy mode
    message_spec msg;
    msg.sources = source_spec::at(source);
    msg.mode = mode;
    msg.gossip_p = gossip_p;
    s.messages.push_back(std::move(msg));
    return s;
}

scenario_outcome run_scenario(const scenario& sc) {
    sc.params.validate();
    sc.topology.validate(sc.params.side);
    const util::timer clock;

    const auto model = mobility::make_model(sc.model, sc.topology, sc.params.side, sc.model_opts);
    rng::rng gen(sc.seed);
    mobility::walker agents(model, sc.params.n, sc.params.speed, gen,
                            sc.stationary_start ? mobility::start_mode::stationary
                                                : mobility::start_mode::uniform_fresh);
    if (sc.warmup_time > 0.0) {
        agents.advance_time(sc.warmup_time);
    }

    // The cell partition requires Ineq. 6 to be satisfiable; out-of-regime
    // radii (R > ~L) simply run without Central-Zone metrics.
    std::unique_ptr<cell_partition> cells;
    if (sc.with_cell_partition) {
        try {
            cells = std::make_unique<cell_partition>(sc.params.n, sc.params.side,
                                                     sc.params.radius);
        } catch (const std::invalid_argument&) {
            cells = nullptr;
        }
    }

    spread_config cfg;
    cfg.max_steps = sc.max_steps;
    cfg.record_timeline = sc.record_timeline;
    cfg.spread = sc.effective_spread();
    for (std::size_t m = 0; m < cfg.spread.messages.size(); ++m) {
        message_spec& msg = cfg.spread.messages[m];
        const std::uint64_t mixed = static_cast<std::uint64_t>(m) * kMessageStride;
        msg.gossip_seed = rng::splitmix64(sc.seed ^ kGossipTag ^ mixed)();
        msg.source_seed = rng::splitmix64(sc.seed ^ kSourceTag ^ mixed)();
    }

    scenario_outcome out;
    if (cells) {
        out.cell_side = cells->cell_side();
        out.suburb_diameter = cells->suburb_diameter();
        out.suburb_cells = cells->suburb_cell_count();
        out.central_cells = cells->central_cell_count();
    }

    // Intra-replica pool: only spun up when asked for (sc.intra_threads != 1)
    // so the common fan-out-over-replicas path stays pool-free per replica.
    std::unique_ptr<engine::thread_pool> pool;
    util::parallel_executor* exec = nullptr;
    if (sc.intra_threads != 1) {
        pool = std::make_unique<engine::thread_pool>(sc.intra_threads);
        exec = &pool->executor();
    }

    flooding_sim sim(std::move(agents), sc.params.radius, std::move(cfg), cells.get(), exec);
    out.spread = sim.run_spread();
    out.phases = sim.profile();

    out.wall_seconds = clock.seconds();
    return out;
}

}  // namespace manhattan::core
