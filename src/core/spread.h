/// \file spread.h
/// The spread-process workload description: what information is injected
/// into the network, where, when, and until what condition the simulation
/// runs. The paper's protocol is the one-message / one-source special case;
/// multi-message and multi-source workloads (k sources, concurrent messages
/// from opposite corners, partial-coverage deadlines) are first-class here —
/// see docs/WORKLOADS.md.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "geom/vec2.h"

namespace manhattan::core {

/// Where a placement-rule source sits. For multi-agent sources
/// (source_spec::count > 1) the rule selects the count agents *closest* to
/// the rule's target point (random_agent: the first count agents of the
/// stationary sample, which is a uniform random subset by exchangeability).
enum class source_placement : std::uint8_t {
    random_agent,  ///< agent 0 of the stationary sample (exchangeable = uniform)
    center_most,   ///< agent closest to the square's center (Central Zone start)
    corner_most,   ///< agent closest to the SW corner (deep Suburb start)
    corner_ne,     ///< agent closest to the NE corner
    corner_nw,     ///< agent closest to the NW corner
    corner_se,     ///< agent closest to the SE corner
};

/// How a message's initially informed set is chosen.
struct source_spec {
    enum class kind : std::uint8_t {
        placement,     ///< `count` agents nearest the placement rule's target
        explicit_ids,  ///< the literal agent ids in `ids`
        random_k,      ///< `count` distinct agents drawn from the source seed
    };

    kind how = kind::placement;
    source_placement placement = source_placement::random_agent;
    std::size_t count = 1;         ///< placement / random_k source-set size
    std::vector<std::size_t> ids;  ///< explicit_ids only

    [[nodiscard]] static source_spec at(source_placement placement, std::size_t count = 1) {
        source_spec s;
        s.how = kind::placement;
        s.placement = placement;
        s.count = count;
        return s;
    }
    [[nodiscard]] static source_spec agents(std::vector<std::size_t> ids) {
        source_spec s;
        s.how = kind::explicit_ids;
        s.ids = std::move(ids);
        return s;
    }
    [[nodiscard]] static source_spec random(std::size_t count) {
        source_spec s;
        s.how = kind::random_k;
        s.count = count;
        return s;
    }

    /// Throws std::invalid_argument unless the spec is satisfiable on a
    /// population of n agents (count in [1, n]; ids in range and distinct).
    void validate(std::size_t n) const;
};

/// Resolve a source spec into the concrete informed set, in ascending agent
/// id order. Deterministic: a pure function of (spec, positions, side,
/// source_seed). Placement rules break distance ties towards the lower id;
/// random_k draws a uniform k-subset via a partial Fisher-Yates shuffle
/// seeded with source_seed.
[[nodiscard]] std::vector<std::uint32_t> resolve_sources(const source_spec& spec,
                                                         std::span<const geom::vec2> positions,
                                                         double side,
                                                         std::uint64_t source_seed);

/// When the simulation may stop. The run ends at the first step where
/// *every* message satisfies the rule (or at max_steps). A satisfied
/// message keeps spreading while the others catch up — the rule controls
/// termination, never propagation.
struct stop_rule {
    enum class kind : std::uint8_t {
        all_informed,       ///< every agent informed (the paper's flooding time)
        informed_fraction,  ///< at least ceil(fraction * n) agents informed
        central_zone,       ///< the Central Zone fully informed (needs a
                            ///< cell partition; falls back to all_informed
                            ///< when none was supplied)
        step_budget,        ///< exactly `steps` steps, regardless of coverage
    };

    kind how = kind::all_informed;
    double fraction = 1.0;     ///< informed_fraction threshold in (0, 1]
    std::uint64_t steps = 0;   ///< step_budget horizon

    [[nodiscard]] static stop_rule all_informed() { return {}; }
    [[nodiscard]] static stop_rule informed_fraction(double fraction) {
        stop_rule r;
        r.how = kind::informed_fraction;
        r.fraction = fraction;
        return r;
    }
    [[nodiscard]] static stop_rule central_zone() {
        stop_rule r;
        r.how = kind::central_zone;
        return r;
    }
    [[nodiscard]] static stop_rule step_budget(std::uint64_t steps) {
        stop_rule r;
        r.how = kind::step_budget;
        r.steps = steps;
        return r;
    }

    /// Throws std::invalid_argument on an out-of-range fraction or a zero
    /// step budget.
    void validate() const;
};

/// How information spreads within one time step.
enum class propagation : std::uint8_t {
    one_hop,        ///< the paper's protocol: one transmission hop per step
    per_component,  ///< ablation: a whole connected component floods per step
    gossip,         ///< each informed agent forwards with probability gossip_p
};

/// One message of a spread workload: its own source set, spawn step,
/// propagation mode and forwarding probability. Seeds are concrete at this
/// layer; the scenario layer derives them from the scenario seed XOR the
/// message index (see docs/WORKLOADS.md for the contract).
struct message_spec {
    source_spec sources;
    std::uint64_t spawn_step = 0;    ///< sources become informed at this step
    propagation mode = propagation::one_hop;
    double gossip_p = 1.0;           ///< forward probability (gossip mode)
    std::uint64_t gossip_seed = 1;   ///< seed of this message's coin stream
    std::uint64_t source_seed = 1;   ///< seed of the random_k source draw
};

/// A complete spread workload: the messages plus the stop condition.
struct spread_spec {
    std::vector<message_spec> messages;  ///< at least one
    stop_rule stop;
};

/// Spread run configuration: the workload plus the run's horizon.
struct spread_config {
    spread_spec spread;
    std::uint64_t max_steps = 1'000'000;  ///< give-up horizon for run_spread()
    bool record_timeline = true;          ///< keep per-step informed counts
};

/// Sentinel for "never informed" in message_result::informed_at.
inline constexpr std::uint32_t never_informed = std::numeric_limits<std::uint32_t>::max();

/// Everything one message's spread produced.
struct message_result {
    bool completed = false;           ///< all agents informed when the run ended
    std::uint64_t flooding_time = 0;  ///< step the last agent was informed
                                      ///< (steps taken when incomplete)
    std::size_t informed_count = 0;
    std::vector<std::uint32_t> informed_at;  ///< per-agent informing step
    std::vector<std::size_t> timeline;       ///< informed count after each step
    std::vector<std::uint32_t> sources;      ///< resolved source ids (ascending)
    std::uint64_t spawn_step = 0;

    /// First step at which this message satisfied the run's stop rule.
    std::optional<std::uint64_t> stop_satisfied_step;

    /// First step at which every Central-Zone cell was informed (empty cells
    /// count as informed). Only tracked when a cell partition was supplied.
    std::optional<std::uint64_t> central_zone_informed_step;

    /// Step at which the last agent *located in the Suburb at informing
    /// time* was informed (0 when partition absent or no such agent).
    std::uint64_t last_suburb_informed_step = 0;

    /// Every field is integral, so member-wise equality is bit-equality —
    /// the determinism suites compare whole results with it.
    friend bool operator==(const message_result&, const message_result&) = default;
};

/// Everything a spread run produces: per-message results plus the shared
/// step count (one mobility trace serves every message). The paper's
/// flooding time is messages[0].flooding_time.
struct spread_result {
    bool completed = false;    ///< every message satisfied the stop rule
    std::uint64_t steps = 0;   ///< steps the shared mobility trace advanced
    std::vector<message_result> messages;  ///< spec order

    friend bool operator==(const spread_result&, const spread_result&) = default;
};

}  // namespace manhattan::core
