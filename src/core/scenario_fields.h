/// \file scenario_fields.h
/// The one field list of core::scenario. Every walk over a scenario's
/// output-affecting fields is a visitor driven by for_each_field(): the
/// sweep fingerprint and the first-difference diagnostic
/// (engine/manifest.cpp), and the wire codec (service/wire.cpp), which the
/// fabric's sweep.spec reuses. A field added here reaches all of them at
/// once. The name tables every text surface spells the scenario's enums
/// with live here too.
#pragma once

#include <optional>
#include <span>
#include <string_view>
#include <utility>

#include "core/scenario.h"

namespace manhattan::core {

// ------------------------------------------------------------ enum names --
// Enums cross text boundaries (wire JSON, CSV/JSON sinks) as names, never
// raw integers: an enum renumbered by a future engine cannot silently alias.

template <typename E>
using name_table = std::span<const std::pair<E, const char*>>;

inline constexpr std::pair<propagation, const char*> propagation_names[] = {
    {propagation::one_hop, "one_hop"},
    {propagation::per_component, "per_component"},
    {propagation::gossip, "gossip"},
};

inline constexpr std::pair<source_placement, const char*> placement_names[] = {
    {source_placement::random_agent, "random_agent"},
    {source_placement::center_most, "center_most"},
    {source_placement::corner_most, "corner_most"},
    {source_placement::corner_ne, "corner_ne"},
    {source_placement::corner_nw, "corner_nw"},
    {source_placement::corner_se, "corner_se"},
};

inline constexpr std::pair<source_spec::kind, const char*> source_kind_names[] = {
    {source_spec::kind::placement, "placement"},
    {source_spec::kind::explicit_ids, "explicit_ids"},
    {source_spec::kind::random_k, "random_k"},
};

inline constexpr std::pair<stop_rule::kind, const char*> stop_kind_names[] = {
    {stop_rule::kind::all_informed, "all_informed"},
    {stop_rule::kind::informed_fraction, "informed_fraction"},
    {stop_rule::kind::central_zone, "central_zone"},
    {stop_rule::kind::step_budget, "step_budget"},
};

inline constexpr std::pair<geom::topology_kind, const char*> topology_kind_names[] = {
    {geom::topology_kind::manhattan_grid, "manhattan_grid"},
    {geom::topology_kind::street_graph, "street_graph"},
};

constexpr name_table<propagation> names_of(propagation) { return propagation_names; }
constexpr name_table<source_placement> names_of(source_placement) { return placement_names; }
constexpr name_table<source_spec::kind> names_of(source_spec::kind) {
    return source_kind_names;
}
constexpr name_table<stop_rule::kind> names_of(stop_rule::kind) { return stop_kind_names; }
constexpr name_table<geom::topology_kind> names_of(geom::topology_kind) {
    return topology_kind_names;
}
constexpr name_table<mobility::model_kind> names_of(mobility::model_kind) {
    return mobility::model_kind_names;
}

/// The name of \p value; "?" for a value outside its table.
template <typename E>
[[nodiscard]] constexpr const char* enum_name(E value) {
    for (const auto& [v, name] : names_of(value)) {
        if (v == value) {
            return name;
        }
    }
    return "?";
}

/// The enumerator called \p name; nullopt for an unknown name.
template <typename E>
[[nodiscard]] constexpr std::optional<E> enum_value(std::string_view name) {
    for (const auto& [v, n] : names_of(E{})) {
        if (name == n) {
            return v;
        }
    }
    return std::nullopt;
}

// ---------------------------------------------------------- field schema --

/// Visit every output-affecting field of \p sc by name, in fingerprint
/// order. \p Scenario is `const scenario` for writers (hash, diff, encode)
/// and `scenario` for readers, which assign through the references. The
/// visitor provides:
///   - field(name, value): a leaf — an integer, double, bool or enum, a
///     vector of doubles / agent ids / edge_refs, or the trace tour;
///   - record(name, fn): a named group of fields, visited by fn();
///   - sequence(name, items, fn): a vector of groups, fn(item) per item;
///   - present(name, flag) -> bool: whether an optional member is there.
///     Writers answer flag; readers answer from their input.
///
/// The two presence rules keep every pre-topology fingerprint and wire
/// byte stable: a manhattan_grid topology feeds nothing, and the trace
/// tour counts only under model_kind::trace_replay. intra_threads is not a
/// field: like --threads it only trades wall-clock (docs/ENGINE.md).
template <typename Scenario, typename Visitor>
void for_each_field(Scenario& sc, Visitor& v) {
    v.field("n", sc.params.n);
    v.field("side", sc.params.side);
    v.field("radius", sc.params.radius);
    v.field("speed", sc.params.speed);
    if (v.present("topology", !sc.topology.is_grid())) {
        v.record("topology", [&] {
            v.field("kind", sc.topology.kind);
            v.field("xs", sc.topology.street.xs);
            v.field("ys", sc.topology.street.ys);
            v.field("blocked", sc.topology.street.blocked);
            v.field("one_way", sc.topology.street.one_way);
        });
    }
    v.field("model", sc.model);
    v.field("walk_step_radius", sc.model_opts.walk_step_radius);
    v.field("direction_max_leg", sc.model_opts.direction_max_leg);
    if (v.present("trace", sc.model == mobility::model_kind::trace_replay &&
                               sc.model_opts.trace != nullptr)) {
        v.field("trace", sc.model_opts.trace);
    }
    v.field("mode", sc.mode);
    v.field("gossip_p", sc.gossip_p);
    v.field("source", sc.source);
    v.field("seed", sc.seed);
    v.field("stationary_start", sc.stationary_start);
    v.field("warmup_time", sc.warmup_time);
    v.field("max_steps", sc.max_steps);
    v.field("record_timeline", sc.record_timeline);
    v.field("with_cell_partition", sc.with_cell_partition);
    v.record("stop", [&] {
        v.field("how", sc.spread.stop.how);
        v.field("fraction", sc.spread.stop.fraction);
        v.field("steps", sc.spread.stop.steps);
    });
    v.sequence("messages", sc.spread.messages, [&](auto& msg) {
        v.record("sources", [&] {
            v.field("how", msg.sources.how);
            v.field("placement", msg.sources.placement);
            v.field("count", msg.sources.count);
            v.field("ids", msg.sources.ids);
        });
        v.field("spawn_step", msg.spawn_step);
        v.field("mode", msg.mode);
        v.field("gossip_p", msg.gossip_p);
        v.field("gossip_seed", msg.gossip_seed);
        v.field("source_seed", msg.source_seed);
    });
}

}  // namespace manhattan::core
