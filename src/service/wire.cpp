#include "service/wire.h"

namespace manhattan::service {

namespace {

/// The sweep_spec wire layout, walked like core::for_each_field. Empty axes
/// are omitted (absent = not swept), so a one-point spec stays one short
/// line; street_blocks only matters to the topology axes, so it is only
/// emitted beside them and every pre-topology spec stays byte-identical.
template <typename Spec, typename Visitor>
void for_each_spec_field(Spec& spec, Visitor& v) {
    v.record("base", [&] { core::for_each_field(spec.base, v); });
    v.field("repetitions", spec.repetitions);
    v.field("standard_case", spec.standard_case);
    const auto axis = [&](const char* name, auto& values) {
        if (v.present(name, !values.empty())) {
            v.field(name, values);
        }
    };
    v.record("axes", [&] {
        axis("n", spec.n);
        axis("c1", spec.c1);
        axis("radius", spec.radius);
        axis("speed", spec.speed);
        axis("speed_factor", spec.speed_factor);
        axis("model", spec.model);
        axis("mode", spec.mode);
        axis("gossip_p", spec.gossip_p);
        axis("num_sources", spec.num_sources);
        axis("num_messages", spec.num_messages);
        axis("block_ratio", spec.block_ratio);
        axis("blocked_fraction", spec.blocked_fraction);
    });
    const bool street_axes = !spec.block_ratio.empty() || !spec.blocked_fraction.empty();
    if (v.present("street_blocks", street_axes)) {
        v.field("street_blocks", spec.street_blocks);
    }
}

/// The sweep_row wire layout, walked like core::for_each_field.
template <typename Row, typename Visitor>
void for_each_row_field(Row& row, Visitor& v) {
    v.field("index", row.point.index);
    v.field("label", row.point.label);
    v.record("scenario", [&] { core::for_each_field(row.point.sc, v); });
    v.field("times", row.times);
    v.record("summary", [&] {
        v.field("count", row.summary.count);
        v.field("mean", row.summary.mean);
        v.field("stddev", row.summary.stddev);
        v.field("min", row.summary.min);
        v.field("max", row.summary.max);
        v.field("median", row.summary.median);
        v.field("p25", row.summary.p25);
        v.field("p75", row.summary.p75);
    });
    v.record("mean_ci", [&] {
        v.field("lo", row.mean_ci.lo);
        v.field("hi", row.mean_ci.hi);
    });
    v.field("completed_fraction", row.completed_fraction);
    v.field("message_mean_times", row.message_mean_times);
    v.field("message_completed_fraction", row.message_completed_fraction);
    v.field("mean_cz_step", row.mean_cz_step);
    v.field("max_cz_step", row.max_cz_step);
    v.field("cz_fraction", row.cz_fraction);
    v.field("suburb_diameter", row.suburb_diameter);
    v.field("wall_seconds", row.wall_seconds);
}

}  // namespace

json_value encode_sweep_spec(const engine::sweep_spec& spec) {
    json_value v = json_value::object();
    codec::json_writer writer{&v};
    for_each_spec_field(spec, writer);
    return v;
}

engine::sweep_spec decode_sweep_spec(const json_value& v) {
    engine::sweep_spec spec;
    codec::json_reader reader{&v};
    for_each_spec_field(spec, reader);
    return spec;
}

json_value encode_sweep_row(const engine::sweep_row& row) {
    json_value v = json_value::object();
    codec::json_writer writer{&v};
    for_each_row_field(row, writer);
    return v;
}

engine::sweep_row decode_sweep_row(const json_value& v) {
    engine::sweep_row row;
    codec::json_reader reader{&v};
    for_each_row_field(row, reader);
    return row;
}

}  // namespace manhattan::service
