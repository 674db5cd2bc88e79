// Wire-format tests: JSON parse/dump round trips, the strictness contract
// (truncated documents, trailing garbage, type mismatches all throw), exact
// IEEE-754 bit survival for doubles (NaN payloads, infinities, denormals,
// negative zero), unknown-field tolerance, and full codec round trips for
// scenario / sweep_spec / sweep_row.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "codec/number.h"
#include "engine/manifest.h"
#include "geom/street_graph.h"
#include "service/wire.h"

namespace {

namespace codec = manhattan::codec;
namespace core = manhattan::core;
namespace engine = manhattan::engine;
namespace geom = manhattan::geom;
namespace mobility = manhattan::mobility;
namespace service = manhattan::service;

using service::json_value;

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

std::string printf_17g(double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/// The doubles whose rendering is pinned: an inexact decimal, signed zero,
/// the extremes, and the non-finite values.
std::vector<double> pinned_doubles() {
    using lim = std::numeric_limits<double>;
    return {0.1, -0.0, lim::denorm_min(), lim::max(), lim::infinity(), -lim::infinity(),
            lim::quiet_NaN(), -lim::quiet_NaN()};
}

// ------------------------------------------------------------- JSON model --

TEST(Wire, DumpIsCompactAndOrdered) {
    json_value v = json_value::object();
    v.set("b", json_value::integer(2));
    v.set("a", json_value::boolean(true));
    json_value arr = json_value::array();
    arr.items.push_back(json_value::null());
    arr.items.push_back(json_value::string("x"));
    v.set("list", std::move(arr));
    EXPECT_EQ(service::dump(v), R"({"b":2,"a":true,"list":[null,"x"]})");
}

TEST(Wire, ParseRoundTripsDump) {
    const std::string text =
        R"({"n":1200,"name":"sweep","nested":{"flag":false,"items":[1,2,3]},"z":null})";
    const json_value v = service::parse_json(text);
    EXPECT_EQ(service::dump(v), text);
}

TEST(Wire, IntegersAreExactUint64) {
    const json_value v = service::parse_json("{\"big\":18446744073709551615}");
    EXPECT_EQ(codec::u64_field(v, "big"), 18446744073709551615ULL);
}

TEST(Wire, StringEscapesRoundTrip) {
    json_value v = json_value::object();
    v.set("s", json_value::string("a\"b\\c\nd\te\x01f"));
    const json_value back = service::parse_json(service::dump(v));
    EXPECT_EQ(codec::str_field(back, "s"), "a\"b\\c\nd\te\x01f");
}

TEST(Wire, UnicodeEscapesDecodeToUtf8) {
    const json_value v = service::parse_json(R"({"s":"\u00e9\ud83d\ude00"})");
    EXPECT_EQ(codec::str_field(v, "s"), "\xc3\xa9\xf0\x9f\x98\x80");
}

TEST(Wire, ForeignFractionalNumbersParse) {
    // Our encoders never emit these, but a foreign peer's extra fields must
    // not break the parse.
    const json_value v = service::parse_json(R"({"x":-1.5e3,"y":0.25})");
    ASSERT_NE(v.find("x"), nullptr);
    EXPECT_EQ(v.find("x")->what, json_value::kind::number);
    EXPECT_DOUBLE_EQ(v.find("x")->real, -1500.0);

    // Such a number dumps at 17 significant digits: the bytes %.17g prints.
    EXPECT_EQ(service::dump(service::parse_json("0.1")), "0.10000000000000001");
    EXPECT_EQ(service::dump(service::parse_json("-0.0")), "-0");
    for (const double x : pinned_doubles()) {
        json_value number;
        number.what = json_value::kind::number;
        number.real = x;
        EXPECT_EQ(service::dump(number), printf_17g(x));
    }
}

TEST(Wire, NumbersADoubleCannotHoldAreRefused) {
    // strtod reads these as infinities, which dump() would render as "inf".
    for (const char* text : {"1e999", "-1e999", "[1e999,-1e999]", R"({"x":1.5e309})"}) {
        EXPECT_THROW((void)service::parse_json(text), codec::wire_error) << text;
    }
    // An underflow reads as zero of its sign. Every accepted number
    // survives a dump and a second parse.
    EXPECT_EQ(bits(service::parse_json("1e-999").real), bits(0.0));
    EXPECT_EQ(bits(service::parse_json("-1e-999").real), bits(-0.0));
    for (const char* text :
         {"1e-999", "-1e-999", "1.7976931348623157e308", "-1.7976931348623157e308",
          "4.9406564584124654e-324", "-1.5e3", "0.25", "[1e-999,-0.0,2.5E+2]"}) {
        const std::string once = service::dump(service::parse_json(text));
        EXPECT_EQ(service::dump(service::parse_json(once)), once) << text;
    }
}

TEST(Wire, StrictNumberParsersTakeOnlyTheRenderedForms) {
    EXPECT_EQ(codec::parse_u64("0"), 0u);
    EXPECT_EQ(codec::parse_u64("18446744073709551615"), ~0ULL);
    EXPECT_EQ(codec::parse_hex64("deadbeefcafef00d"), 0xdeadbeefcafef00dULL);
    EXPECT_EQ(codec::hex64(7), "0000000000000007");
    EXPECT_EQ(codec::parse_hex64(codec::hex64(~0ULL)), ~0ULL);
    for (const char* text :
         {"", "-1", "+1", " 1", "1 ", "0x1", "1a", "18446744073709551616"}) {
        EXPECT_EQ(codec::parse_u64(text), std::nullopt) << '\'' << text << '\'';
    }
    for (const char* text :
         {"", "-1", "+1", "-000000000000001", "+000000000000001", " 000000000000001",
          "0x00000000000001", "DEADBEEFCAFEF00D", "deadbeefcafeF00d", "deadbeefcafef00",
          "deadbeefcafef00d0", "10000000000000000"}) {
        EXPECT_EQ(codec::parse_hex64(text), std::nullopt) << '\'' << text << '\'';
    }
}

TEST(Wire, TruncatedDocumentsThrow) {
    for (const char* text : {"", "{", "{\"a\"", "{\"a\":", "{\"a\":1", "[1,2",
                             "\"abc", "{\"a\":1,", "tru", "{\"s\":\"\\u12\"}"}) {
        EXPECT_THROW((void)service::parse_json(text), codec::wire_error) << text;
    }
}

TEST(Wire, TrailingGarbageThrows) {
    EXPECT_THROW((void)service::parse_json("{\"a\":1} extra"), codec::wire_error);
    EXPECT_THROW((void)service::parse_json("1 2"), codec::wire_error);
}

TEST(Wire, MalformedDocumentsThrow) {
    for (const char* text : {"{a:1}", "{\"a\" 1}", "[1 2]", "{\"a\":01x}",
                             "nul", "{\"s\":\"\x01\"}", "-"}) {
        EXPECT_THROW((void)service::parse_json(text), codec::wire_error) << text;
    }
}

TEST(Wire, DeepNestingIsBounded) {
    std::string text(100, '[');
    text += std::string(100, ']');
    EXPECT_THROW((void)service::parse_json(text), codec::wire_error);
}

TEST(Wire, DuplicateKeysKeepFirst) {
    const json_value v = service::parse_json(R"({"a":1,"a":2})");
    EXPECT_EQ(codec::u64_field(v, "a"), 1u);
}

TEST(Wire, FieldAccessorsThrowOnMissingOrMistyped) {
    const json_value v = service::parse_json(R"({"n":3,"s":"x"})");
    EXPECT_THROW((void)codec::u64_field(v, "absent"), codec::wire_error);
    EXPECT_THROW((void)codec::u64_field(v, "s"), codec::wire_error);
    EXPECT_THROW((void)codec::bool_field(v, "n"), codec::wire_error);
    EXPECT_THROW((void)codec::str_field(v, "n"), codec::wire_error);
}

// ------------------------------------------------------------ f64 framing --

TEST(Wire, DoublesSurviveBitExactly) {
    const double denormal = std::numeric_limits<double>::denorm_min();
    const double nan_payload =
        std::bit_cast<double>(std::uint64_t{0x7ff8dead'beef0001ULL});
    for (const double v :
         {0.0, -0.0, 1.0, -1.0 / 3.0, denormal, -denormal,
          std::numeric_limits<double>::infinity(),
          -std::numeric_limits<double>::infinity(),
          std::numeric_limits<double>::quiet_NaN(), nan_payload,
          std::numeric_limits<double>::max(), std::numeric_limits<double>::min(),
          std::numeric_limits<double>::epsilon()}) {
        json_value obj = json_value::object();
        obj.set("v", codec::encode_f64(v));
        const json_value back = service::parse_json(service::dump(obj));
        EXPECT_EQ(bits(codec::f64_field(back, "v")), bits(v));
    }
}

TEST(Wire, NegativeZeroStaysDistinctFromZero) {
    EXPECT_NE(service::dump(codec::encode_f64(-0.0)),
              service::dump(codec::encode_f64(0.0)));
}

TEST(Wire, BadF64EncodingsThrow) {
    EXPECT_THROW((void)codec::decode_f64(json_value::string("abc"), "v"),
                 codec::wire_error);
    EXPECT_THROW((void)codec::decode_f64(json_value::string("XYZ0123456789abc"), "v"),
                 codec::wire_error);
    EXPECT_THROW((void)codec::decode_f64(json_value::integer(1), "v"),
                 codec::wire_error);
}

// ----------------------------------------------------------------- codecs --

core::scenario rich_scenario() {
    core::scenario sc;
    sc.params = core::net_params::standard_case(1200, 9.5, 0.75);
    sc.model = mobility::model_kind::random_walk;
    sc.model_opts.walk_step_radius = 1.25;
    sc.model_opts.direction_max_leg = 4.5;
    sc.mode = core::propagation::gossip;
    sc.gossip_p = 0.625;
    sc.source = core::source_placement::corner_ne;
    sc.seed = 0xdeadbeefcafef00dULL;
    sc.stationary_start = false;
    sc.warmup_time = 2.5;
    sc.max_steps = 12'345;
    sc.record_timeline = true;
    sc.with_cell_partition = false;
    sc.spread.stop = core::stop_rule::informed_fraction(0.9);
    core::message_spec first;
    first.sources = core::source_spec::at(core::source_placement::center_most, 3);
    first.spawn_step = 7;
    first.mode = core::propagation::per_component;
    core::message_spec second;
    second.sources = core::source_spec::agents({5, 9, 11});
    second.spawn_step = 0;
    second.mode = core::propagation::gossip;
    second.gossip_p = 0.5;
    second.gossip_seed = 77;
    second.source_seed = 78;
    sc.spread.messages = {first, second};
    return sc;
}

void expect_same_scenario(const core::scenario& a, const core::scenario& b) {
    EXPECT_EQ(a.topology, b.topology);
    if (a.model_opts.trace == nullptr || b.model_opts.trace == nullptr) {
        EXPECT_EQ(a.model_opts.trace == nullptr, b.model_opts.trace == nullptr);
    } else {
        ASSERT_EQ(a.model_opts.trace->size(), b.model_opts.trace->size());
        for (std::size_t i = 0; i < a.model_opts.trace->size(); ++i) {
            EXPECT_EQ(bits((*a.model_opts.trace)[i].x), bits((*b.model_opts.trace)[i].x));
            EXPECT_EQ(bits((*a.model_opts.trace)[i].y), bits((*b.model_opts.trace)[i].y));
        }
    }
    EXPECT_EQ(a.params.n, b.params.n);
    EXPECT_EQ(bits(a.params.side), bits(b.params.side));
    EXPECT_EQ(bits(a.params.radius), bits(b.params.radius));
    EXPECT_EQ(bits(a.params.speed), bits(b.params.speed));
    EXPECT_EQ(a.model, b.model);
    EXPECT_EQ(bits(a.model_opts.walk_step_radius), bits(b.model_opts.walk_step_radius));
    EXPECT_EQ(bits(a.model_opts.direction_max_leg), bits(b.model_opts.direction_max_leg));
    EXPECT_EQ(a.mode, b.mode);
    EXPECT_EQ(bits(a.gossip_p), bits(b.gossip_p));
    EXPECT_EQ(a.source, b.source);
    EXPECT_EQ(a.seed, b.seed);
    EXPECT_EQ(a.stationary_start, b.stationary_start);
    EXPECT_EQ(bits(a.warmup_time), bits(b.warmup_time));
    EXPECT_EQ(a.max_steps, b.max_steps);
    EXPECT_EQ(a.record_timeline, b.record_timeline);
    EXPECT_EQ(a.with_cell_partition, b.with_cell_partition);
    EXPECT_EQ(a.spread.stop.how, b.spread.stop.how);
    EXPECT_EQ(bits(a.spread.stop.fraction), bits(b.spread.stop.fraction));
    EXPECT_EQ(a.spread.stop.steps, b.spread.stop.steps);
    ASSERT_EQ(a.spread.messages.size(), b.spread.messages.size());
    for (std::size_t i = 0; i < a.spread.messages.size(); ++i) {
        const auto& ma = a.spread.messages[i];
        const auto& mb = b.spread.messages[i];
        EXPECT_EQ(ma.sources.how, mb.sources.how);
        EXPECT_EQ(ma.sources.placement, mb.sources.placement);
        EXPECT_EQ(ma.sources.count, mb.sources.count);
        EXPECT_EQ(ma.sources.ids, mb.sources.ids);
        EXPECT_EQ(ma.spawn_step, mb.spawn_step);
        EXPECT_EQ(ma.mode, mb.mode);
        EXPECT_EQ(bits(ma.gossip_p), bits(mb.gossip_p));
        EXPECT_EQ(ma.gossip_seed, mb.gossip_seed);
        EXPECT_EQ(ma.source_seed, mb.source_seed);
    }
}

TEST(Wire, ScenarioRoundTrips) {
    const core::scenario sc = rich_scenario();
    const std::string text = service::dump(codec::encode_scenario(sc));
    const core::scenario back = codec::decode_scenario(service::parse_json(text));
    expect_same_scenario(sc, back);
}

TEST(Wire, ScenarioToleratesUnknownFields) {
    json_value v = codec::encode_scenario(rich_scenario());
    v.set("future_knob", json_value::string("ignored"));
    v.set("other", json_value::integer(7));
    const core::scenario back = codec::decode_scenario(v);
    expect_same_scenario(rich_scenario(), back);
}

TEST(Wire, ScenarioRejectsMissingField) {
    json_value v = codec::encode_scenario(rich_scenario());
    json_value pruned = json_value::object();
    for (auto& [key, member] : v.members) {
        if (key != "seed") {
            pruned.set(key, std::move(member));
        }
    }
    EXPECT_THROW((void)codec::decode_scenario(pruned), codec::wire_error);
}

TEST(Wire, ScenarioRejectsUnknownEnumName) {
    json_value v = codec::encode_scenario(rich_scenario());
    for (auto& [key, member] : v.members) {
        if (key == "mode") {
            member = json_value::string("telepathy");
        }
    }
    EXPECT_THROW((void)codec::decode_scenario(v), codec::wire_error);
}

engine::sweep_spec rich_spec() {
    engine::sweep_spec spec;
    spec.base = rich_scenario();
    spec.repetitions = 5;
    spec.standard_case = false;
    spec.n = {400, 900};
    spec.c1 = {2.5, 3.0};
    spec.speed_factor = {0.5, 1.0};
    spec.model = {mobility::model_kind::mrwp, mobility::model_kind::static_agents};
    spec.mode = {core::propagation::one_hop, core::propagation::gossip};
    spec.gossip_p = {0.25, 0.75};
    spec.num_sources = {1, 4};
    spec.num_messages = {2};
    return spec;
}

TEST(Wire, SweepSpecRoundTrips) {
    const engine::sweep_spec spec = rich_spec();
    const std::string text = service::dump(service::encode_sweep_spec(spec));
    const engine::sweep_spec back = service::decode_sweep_spec(service::parse_json(text));
    expect_same_scenario(spec.base, back.base);
    EXPECT_EQ(back.repetitions, spec.repetitions);
    EXPECT_EQ(back.standard_case, spec.standard_case);
    EXPECT_EQ(back.n, spec.n);
    EXPECT_EQ(back.c1, spec.c1);
    EXPECT_EQ(back.radius, spec.radius);
    EXPECT_EQ(back.speed, spec.speed);
    EXPECT_EQ(back.speed_factor, spec.speed_factor);
    EXPECT_EQ(back.model, spec.model);
    EXPECT_EQ(back.mode, spec.mode);
    EXPECT_EQ(back.gossip_p, spec.gossip_p);
    EXPECT_EQ(back.num_sources, spec.num_sources);
    EXPECT_EQ(back.num_messages, spec.num_messages);
}

TEST(Wire, SweepSpecEmptyAxesStayEmpty) {
    engine::sweep_spec spec;
    spec.base = rich_scenario();
    const engine::sweep_spec back =
        service::decode_sweep_spec(service::encode_sweep_spec(spec));
    EXPECT_TRUE(back.n.empty());
    EXPECT_TRUE(back.c1.empty());
    EXPECT_TRUE(back.model.empty());
    EXPECT_TRUE(back.num_messages.empty());
}

// ------------------------------------------------------- topology codecs --

core::scenario street_scenario() {
    core::scenario sc;
    sc.params = {800, 30.0, 7.0, 1.0};
    sc.model = mobility::model_kind::mrwp;
    sc.seed = 99;
    geom::street_graph_spec plan = geom::street_graph_spec::graded(30.0, 5, 1.5);
    plan.blocked.push_back({1, 1, 2, 1});
    plan.one_way.push_back({0, 0, 0, 1});
    sc.topology = geom::topology_spec::streets(std::move(plan));
    return sc;
}

TEST(Wire, ScenarioStreetTopologyRoundTripsExactly) {
    const core::scenario sc = street_scenario();
    const std::string text = service::dump(codec::encode_scenario(sc));
    const core::scenario back = codec::decode_scenario(service::parse_json(text));
    expect_same_scenario(sc, back);
    EXPECT_EQ(back.topology.kind, geom::topology_kind::street_graph);
    EXPECT_EQ(back.topology.street.blocked.size(), 1u);
    EXPECT_EQ(back.topology.street.one_way.size(), 1u);
}

TEST(Wire, ScenarioTraceTourRoundTripsExactly) {
    core::scenario sc = rich_scenario();
    sc.model = mobility::model_kind::trace_replay;
    sc.model_opts.trace = std::make_shared<const std::vector<manhattan::geom::vec2>>(
        std::vector<manhattan::geom::vec2>{{1.0, 2.0}, {5.5, 2.0}, {5.5, 9.25}});
    const core::scenario back =
        codec::decode_scenario(service::parse_json(service::dump(codec::encode_scenario(sc))));
    expect_same_scenario(sc, back);
}

TEST(Wire, PureGridScenarioOmitsTopologyMember) {
    // The byte-compat contract: a pure-grid non-trace scenario encodes
    // exactly as before the topology API existed.
    const std::string text = service::dump(codec::encode_scenario(rich_scenario()));
    EXPECT_EQ(text.find("topology"), std::string::npos);
    EXPECT_EQ(text.find("\"trace\""), std::string::npos);
    const core::scenario back = codec::decode_scenario(service::parse_json(text));
    EXPECT_TRUE(back.topology.is_grid());
    EXPECT_EQ(back.model_opts.trace, nullptr);
}

TEST(Wire, TopologyRejectsUnknownKindAndMalformedEdges) {
    json_value v = codec::encode_scenario(street_scenario());
    for (auto& [key, member] : v.members) {
        if (key == "topology") {
            for (auto& [tkey, tmember] : member.members) {
                if (tkey == "kind") {
                    tmember = json_value::string("hyperbolic");
                }
            }
        }
    }
    EXPECT_THROW((void)codec::decode_scenario(v), codec::wire_error);

    json_value w = codec::encode_scenario(street_scenario());
    for (auto& [key, member] : w.members) {
        if (key == "topology") {
            for (auto& [tkey, tmember] : member.members) {
                if (tkey == "blocked") {
                    tmember.items.front().items.pop_back();  // 3-element edge
                }
            }
        }
    }
    EXPECT_THROW((void)codec::decode_scenario(w), codec::wire_error);
}

TEST(Wire, DecodersRejectIntegersThatDoNotFitTheirField) {
    // An edge index past int32 must not wrap to an honest-looking index:
    // [4294967297,1,2,1] would otherwise decode (and fingerprint, and hit the
    // daemon's cache) as [1,1,2,1].
    const std::string street = service::dump(codec::encode_scenario(street_scenario()));
    std::string wrapped = street;
    const std::size_t edge = wrapped.find("[[1,1,2,1]]");
    ASSERT_NE(edge, std::string::npos) << street;
    wrapped.replace(edge, 11, "[[4294967297,1,2,1]]");
    EXPECT_THROW((void)codec::decode_scenario(service::parse_json(wrapped)),
                 codec::wire_error);

    // street_blocks is an int32 too: 2^32 + 8 is not 8.
    engine::sweep_spec spec;
    spec.base = rich_scenario();
    spec.block_ratio = {1.0};
    spec.street_blocks = 8;
    std::string text = service::dump(service::encode_sweep_spec(spec));
    const std::size_t blocks = text.find("\"street_blocks\":8");
    ASSERT_NE(blocks, std::string::npos) << text;
    text.replace(blocks, 17, "\"street_blocks\":4294967304");
    EXPECT_THROW((void)service::decode_sweep_spec(service::parse_json(text)),
                 codec::wire_error);
}

TEST(Wire, TraceTourRejectsMalformedArrays) {
    core::scenario sc = rich_scenario();
    sc.model = mobility::model_kind::trace_replay;
    sc.model_opts.trace = std::make_shared<const std::vector<manhattan::geom::vec2>>(
        std::vector<manhattan::geom::vec2>{{1.0, 2.0}, {5.5, 2.0}, {5.5, 9.25}});
    const auto with_tour = [&](const std::function<void(json_value&)>& edit) {
        json_value v = codec::encode_scenario(sc);
        for (auto& [key, member] : v.members) {
            if (key == "trace") {
                edit(member);
            }
        }
        return v;
    };
    // Odd length: a dangling x.
    EXPECT_THROW((void)codec::decode_scenario(
                     with_tour([](json_value& tour) { tour.items.pop_back(); })),
                 codec::wire_error);
    // Fewer than 2 points.
    EXPECT_THROW((void)codec::decode_scenario(with_tour([](json_value& tour) {
                     tour.items.resize(2);
                 })),
                 codec::wire_error);
    // A non-hex element.
    EXPECT_THROW((void)codec::decode_scenario(with_tour([](json_value& tour) {
                     tour.items[3] = json_value::string("zz00000000000000");
                 })),
                 codec::wire_error);
}

// ------------------------------------------------------- pinned contracts --
// Bytes and fingerprints captured before the scenario codec was driven by the
// field schema (core/scenario_fields.h): the schema must reproduce them.

TEST(Wire, PureGridScenarioAndSpecBytesArePinned) {
    EXPECT_EQ(
        service::dump(codec::encode_scenario(rich_scenario())),
        R"({"n":1200,"side":"4041520cd1372feb","radius":"4023000000000000","speed":"3fe8000000000000","model":"random_walk","walk_step_radius":"3ff4000000000000","direction_max_leg":"4012000000000000","mode":"gossip","gossip_p":"3fe4000000000000","source":"corner_ne","seed":16045690984503111693,"stationary_start":false,"warmup_time":"4004000000000000","max_steps":12345,"record_timeline":true,"with_cell_partition":false,"stop":{"how":"informed_fraction","fraction":"3feccccccccccccd","steps":0},"messages":[{"sources":{"how":"placement","placement":"center_most","count":3,"ids":[]},"spawn_step":7,"mode":"per_component","gossip_p":"3ff0000000000000","gossip_seed":1,"source_seed":1},{"sources":{"how":"explicit_ids","placement":"random_agent","count":1,"ids":[5,9,11]},"spawn_step":0,"mode":"gossip","gossip_p":"3fe0000000000000","gossip_seed":77,"source_seed":78}]})");
    EXPECT_EQ(
        service::dump(service::encode_sweep_spec(rich_spec())),
        R"({"base":{"n":1200,"side":"4041520cd1372feb","radius":"4023000000000000","speed":"3fe8000000000000","model":"random_walk","walk_step_radius":"3ff4000000000000","direction_max_leg":"4012000000000000","mode":"gossip","gossip_p":"3fe4000000000000","source":"corner_ne","seed":16045690984503111693,"stationary_start":false,"warmup_time":"4004000000000000","max_steps":12345,"record_timeline":true,"with_cell_partition":false,"stop":{"how":"informed_fraction","fraction":"3feccccccccccccd","steps":0},"messages":[{"sources":{"how":"placement","placement":"center_most","count":3,"ids":[]},"spawn_step":7,"mode":"per_component","gossip_p":"3ff0000000000000","gossip_seed":1,"source_seed":1},{"sources":{"how":"explicit_ids","placement":"random_agent","count":1,"ids":[5,9,11]},"spawn_step":0,"mode":"gossip","gossip_p":"3fe0000000000000","gossip_seed":77,"source_seed":78}]},"repetitions":5,"standard_case":false,"axes":{"n":[400,900],"c1":["4004000000000000","4008000000000000"],"speed_factor":["3fe0000000000000","3ff0000000000000"],"model":["mrwp","static"],"mode":["one_hop","gossip"],"gossip_p":["3fd0000000000000","3fe8000000000000"],"num_sources":[1,4],"num_messages":[2]}})");
}

/// Fingerprint of \p sc as a one-point, one-replica sweep.
std::string one_point_fingerprint(const core::scenario& sc) {
    engine::sweep_spec spec;
    spec.base = sc;
    spec.standard_case = false;
    spec.repetitions = 1;
    return engine::fingerprint_hex(engine::sweep_fingerprint(spec));
}

TEST(Wire, ParentOrderStreetAndTraceJsonDecodeToThePinnedFingerprints) {
    // Street and trace scenarios as encoded before the field schema: the
    // "topology" and "trace" members sat after "with_cell_partition". The
    // schema order moved them, and decoders look members up by name.
    const std::string street =
        R"({"n":800,"side":"403e000000000000","radius":"401c000000000000","speed":"3ff0000000000000","model":"mrwp","walk_step_radius":"0000000000000000","direction_max_leg":"0000000000000000","mode":"one_hop","gossip_p":"3ff0000000000000","source":"random_agent","seed":99,"stationary_start":true,"warmup_time":"0000000000000000","max_steps":1000000,"record_timeline":false,"with_cell_partition":true,"topology":{"kind":"street_graph","xs":["0000000000000000","400232f514a026d4","4016bfb259c83087","40259c83087e2e1b","40327bc0e8f2a76f","403e000000000000"],"ys":["0000000000000000","400232f514a026d4","4016bfb259c83087","40259c83087e2e1b","40327bc0e8f2a76f","403e000000000000"],"blocked":[[1,1,2,1]],"one_way":[[0,0,0,1]]},"stop":{"how":"all_informed","fraction":"3ff0000000000000","steps":0},"messages":[]})";
    const std::string trace =
        R"({"n":1200,"side":"4041520cd1372feb","radius":"4023000000000000","speed":"3fe8000000000000","model":"trace","walk_step_radius":"3ff4000000000000","direction_max_leg":"4012000000000000","mode":"gossip","gossip_p":"3fe4000000000000","source":"corner_ne","seed":16045690984503111693,"stationary_start":false,"warmup_time":"4004000000000000","max_steps":12345,"record_timeline":true,"with_cell_partition":false,"trace":["3ff0000000000000","4000000000000000","4016000000000000","4000000000000000","4016000000000000","4022800000000000"],"stop":{"how":"informed_fraction","fraction":"3feccccccccccccd","steps":0},"messages":[{"sources":{"how":"placement","placement":"center_most","count":3,"ids":[]},"spawn_step":7,"mode":"per_component","gossip_p":"3ff0000000000000","gossip_seed":1,"source_seed":1},{"sources":{"how":"explicit_ids","placement":"random_agent","count":1,"ids":[5,9,11]},"spawn_step":0,"mode":"gossip","gossip_p":"3fe0000000000000","gossip_seed":77,"source_seed":78}]})";
    EXPECT_EQ(one_point_fingerprint(codec::decode_scenario(service::parse_json(street))),
              "a635f31b9df384be");
    EXPECT_EQ(one_point_fingerprint(codec::decode_scenario(service::parse_json(trace))),
              "7f9e5776a992831a");

    // Today's encoding of the same scenarios fingerprints identically.
    EXPECT_EQ(one_point_fingerprint(street_scenario()), "a635f31b9df384be");
    core::scenario traced = rich_scenario();
    traced.model = mobility::model_kind::trace_replay;
    traced.model_opts.trace = std::make_shared<const std::vector<manhattan::geom::vec2>>(
        std::vector<manhattan::geom::vec2>{{1.0, 2.0}, {5.5, 2.0}, {5.5, 9.25}});
    EXPECT_EQ(one_point_fingerprint(codec::decode_scenario(
                  service::parse_json(service::dump(codec::encode_scenario(traced))))),
              "7f9e5776a992831a");
}

TEST(Wire, SweepSpecTopologyAxesRoundTrip) {
    engine::sweep_spec spec;
    spec.base = rich_scenario();
    spec.base.model = mobility::model_kind::mrwp;
    spec.block_ratio = {1.0, 1.5};
    spec.blocked_fraction = {0.0, 0.125};
    spec.street_blocks = 5;
    const engine::sweep_spec back =
        service::decode_sweep_spec(service::encode_sweep_spec(spec));
    EXPECT_EQ(back.block_ratio, spec.block_ratio);
    EXPECT_EQ(back.blocked_fraction, spec.blocked_fraction);
    EXPECT_EQ(back.street_blocks, 5);

    // Absent axes decode to the defaults, and a pure-grid spec's encoding
    // contains neither the axes nor street_blocks.
    engine::sweep_spec plain;
    plain.base = rich_scenario();
    const std::string text = service::dump(service::encode_sweep_spec(plain));
    EXPECT_EQ(text.find("block"), std::string::npos);
    const engine::sweep_spec plain_back =
        service::decode_sweep_spec(service::parse_json(text));
    EXPECT_TRUE(plain_back.block_ratio.empty());
    EXPECT_TRUE(plain_back.blocked_fraction.empty());
    EXPECT_EQ(plain_back.street_blocks, 8);
}

TEST(Wire, SweepSpecPreservesFingerprint) {
    engine::sweep_spec spec = rich_spec();
    // expand() refuses a num_sources axis over explicit source id lists —
    // keep the rest of the rich grid and drop the conflicting axis.
    spec.num_sources.clear();
    const engine::sweep_spec back =
        service::decode_sweep_spec(service::encode_sweep_spec(spec));
    const auto points = spec.expand();
    const auto back_points = back.expand();
    EXPECT_EQ(engine::sweep_fingerprint(points, spec.repetitions),
              engine::sweep_fingerprint(back_points, back.repetitions));
}

engine::sweep_row rich_row() {
    engine::sweep_row row;
    row.point.sc = rich_scenario();
    row.point.index = 3;
    row.point.label = "n=1200 R=9.50";
    row.times = {10.0, 12.0, std::numeric_limits<double>::infinity()};
    row.summary.count = 3;
    row.summary.mean = 11.0;
    row.summary.stddev = 1.0;
    row.summary.min = 10.0;
    row.summary.max = 12.0;
    row.summary.median = 11.0;
    row.summary.p25 = 10.5;
    row.summary.p75 = 11.5;
    row.mean_ci = {9.5, 12.5};
    row.completed_fraction = 2.0 / 3.0;
    row.message_mean_times = {11.0, 13.5};
    row.message_completed_fraction = {1.0, 0.5};
    row.mean_cz_step = 8.25;
    row.max_cz_step = 9.0;
    row.cz_fraction = 1.0;
    row.suburb_diameter = 14.7;
    row.wall_seconds = 0.125;
    return row;
}

TEST(Wire, SweepRowRoundTrips) {
    const engine::sweep_row row = rich_row();
    const std::string text = service::dump(service::encode_sweep_row(row));
    const engine::sweep_row back = service::decode_sweep_row(service::parse_json(text));
    expect_same_scenario(row.point.sc, back.point.sc);
    EXPECT_EQ(back.point.index, row.point.index);
    EXPECT_EQ(back.point.label, row.point.label);
    ASSERT_EQ(back.times.size(), row.times.size());
    for (std::size_t i = 0; i < row.times.size(); ++i) {
        EXPECT_EQ(bits(back.times[i]), bits(row.times[i]));
    }
    EXPECT_EQ(back.summary.count, row.summary.count);
    EXPECT_EQ(bits(back.summary.mean), bits(row.summary.mean));
    EXPECT_EQ(bits(back.summary.p75), bits(row.summary.p75));
    EXPECT_EQ(bits(back.mean_ci.lo), bits(row.mean_ci.lo));
    EXPECT_EQ(bits(back.mean_ci.hi), bits(row.mean_ci.hi));
    EXPECT_EQ(bits(back.completed_fraction), bits(row.completed_fraction));
    EXPECT_EQ(back.message_mean_times.size(), row.message_mean_times.size());
    ASSERT_TRUE(back.mean_cz_step.has_value());
    EXPECT_EQ(bits(*back.mean_cz_step), bits(*row.mean_cz_step));
    ASSERT_TRUE(back.max_cz_step.has_value());
    EXPECT_EQ(bits(*back.max_cz_step), bits(*row.max_cz_step));
    EXPECT_EQ(bits(back.cz_fraction), bits(row.cz_fraction));
    EXPECT_EQ(bits(back.suburb_diameter), bits(row.suburb_diameter));
    EXPECT_EQ(bits(back.wall_seconds), bits(row.wall_seconds));
}

TEST(Wire, SweepRowBytesArePinned) {
    // Captured before the row codec became a field walk.
    EXPECT_EQ(
        service::dump(service::encode_sweep_row(rich_row())),
        R"({"index":3,"label":"n=1200 R=9.50","scenario":{"n":1200,"side":"4041520cd1372feb","radius":"4023000000000000","speed":"3fe8000000000000","model":"random_walk","walk_step_radius":"3ff4000000000000","direction_max_leg":"4012000000000000","mode":"gossip","gossip_p":"3fe4000000000000","source":"corner_ne","seed":16045690984503111693,"stationary_start":false,"warmup_time":"4004000000000000","max_steps":12345,"record_timeline":true,"with_cell_partition":false,"stop":{"how":"informed_fraction","fraction":"3feccccccccccccd","steps":0},"messages":[{"sources":{"how":"placement","placement":"center_most","count":3,"ids":[]},"spawn_step":7,"mode":"per_component","gossip_p":"3ff0000000000000","gossip_seed":1,"source_seed":1},{"sources":{"how":"explicit_ids","placement":"random_agent","count":1,"ids":[5,9,11]},"spawn_step":0,"mode":"gossip","gossip_p":"3fe0000000000000","gossip_seed":77,"source_seed":78}]},"times":["4024000000000000","4028000000000000","7ff0000000000000"],"summary":{"count":3,"mean":"4026000000000000","stddev":"3ff0000000000000","min":"4024000000000000","max":"4028000000000000","median":"4026000000000000","p25":"4025000000000000","p75":"4027000000000000"},"mean_ci":{"lo":"4023000000000000","hi":"4029000000000000"},"completed_fraction":"3fe5555555555555","message_mean_times":["4026000000000000","402b000000000000"],"message_completed_fraction":["3ff0000000000000","3fe0000000000000"],"mean_cz_step":"4020800000000000","max_cz_step":"4022000000000000","cz_fraction":"3ff0000000000000","suburb_diameter":"402d666666666666","wall_seconds":"3fc0000000000000"})");
}

TEST(Wire, SweepRowNullOptionalsRoundTrip) {
    engine::sweep_row row = rich_row();
    row.mean_cz_step.reset();
    row.max_cz_step.reset();
    const engine::sweep_row back =
        service::decode_sweep_row(service::parse_json(service::dump(service::encode_sweep_row(row))));
    EXPECT_FALSE(back.mean_cz_step.has_value());
    EXPECT_FALSE(back.max_cz_step.has_value());
}

TEST(Wire, SweepRowTruncatedLineRejected) {
    const std::string text = service::dump(service::encode_sweep_row(rich_row()));
    // A partially transmitted line must never decode into a value.
    for (const std::size_t keep : {text.size() / 4, text.size() / 2, text.size() - 1}) {
        EXPECT_THROW((void)service::parse_json(text.substr(0, keep)), codec::wire_error);
    }
}

}  // namespace
