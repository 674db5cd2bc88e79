#include "service/wire.h"

#include <bit>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <optional>
#include <type_traits>
#include <utility>

#include "core/scenario_fields.h"
#include "engine/manifest.h"

namespace manhattan::service {

namespace {

[[noreturn]] void bad(const std::string& what) { throw wire_error(what); }

constexpr std::size_t max_depth = 64;  ///< nesting bound (hostile input guard)

// ------------------------------------------------------------------ parser --

class parser {
 public:
    explicit parser(const std::string& text) : text_(text) {}

    json_value run() {
        json_value v = value(0);
        skip_ws();
        if (pos_ != text_.size()) {
            bad("trailing content after document (offset " + std::to_string(pos_) + ")");
        }
        return v;
    }

 private:
    void skip_ws() {
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r') {
                break;
            }
            ++pos_;
        }
    }

    char peek() {
        if (pos_ >= text_.size()) {
            bad("truncated document");
        }
        return text_[pos_];
    }

    void expect(char c) {
        if (peek() != c) {
            bad(std::string{"expected '"} + c + "' at offset " + std::to_string(pos_));
        }
        ++pos_;
    }

    bool literal(const char* word) {
        const std::size_t len = std::char_traits<char>::length(word);
        if (text_.compare(pos_, len, word) == 0) {
            pos_ += len;
            return true;
        }
        return false;
    }

    json_value value(std::size_t depth) {
        if (depth > max_depth) {
            bad("nesting deeper than " + std::to_string(max_depth));
        }
        skip_ws();
        const char c = peek();
        switch (c) {
            case '{':
                return object(depth);
            case '[':
                return array(depth);
            case '"':
                return json_value::string(string());
            case 't':
                if (literal("true")) {
                    return json_value::boolean(true);
                }
                bad("bad literal at offset " + std::to_string(pos_));
            case 'f':
                if (literal("false")) {
                    return json_value::boolean(false);
                }
                bad("bad literal at offset " + std::to_string(pos_));
            case 'n':
                if (literal("null")) {
                    return json_value::null();
                }
                bad("bad literal at offset " + std::to_string(pos_));
            default:
                return number();
        }
    }

    json_value object(std::size_t depth) {
        expect('{');
        json_value v = json_value::object();
        skip_ws();
        if (peek() == '}') {
            ++pos_;
            return v;
        }
        while (true) {
            skip_ws();
            std::string key = string();
            skip_ws();
            expect(':');
            json_value member = value(depth + 1);
            // Keep the first binding of a duplicated key (our encoders never
            // emit duplicates; a foreign one must not silently override).
            if (v.find(key) == nullptr) {
                v.set(key, std::move(member));
            }
            skip_ws();
            const char c = peek();
            ++pos_;
            if (c == '}') {
                return v;
            }
            if (c != ',') {
                bad("expected ',' or '}' at offset " + std::to_string(pos_ - 1));
            }
        }
    }

    json_value array(std::size_t depth) {
        expect('[');
        json_value v = json_value::array();
        skip_ws();
        if (peek() == ']') {
            ++pos_;
            return v;
        }
        while (true) {
            v.items.push_back(value(depth + 1));
            skip_ws();
            const char c = peek();
            ++pos_;
            if (c == ']') {
                return v;
            }
            if (c != ',') {
                bad("expected ',' or ']' at offset " + std::to_string(pos_ - 1));
            }
        }
    }

    std::uint32_t hex4() {
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i) {
            const char c = peek();
            ++pos_;
            v <<= 4;
            if (c >= '0' && c <= '9') {
                v |= static_cast<std::uint32_t>(c - '0');
            } else if (c >= 'a' && c <= 'f') {
                v |= static_cast<std::uint32_t>(c - 'a' + 10);
            } else if (c >= 'A' && c <= 'F') {
                v |= static_cast<std::uint32_t>(c - 'A' + 10);
            } else {
                bad("bad \\u escape at offset " + std::to_string(pos_ - 1));
            }
        }
        return v;
    }

    void append_utf8(std::string& out, std::uint32_t cp) {
        if (cp < 0x80) {
            out += static_cast<char>(cp);
        } else if (cp < 0x800) {
            out += static_cast<char>(0xc0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3f));
        } else if (cp < 0x10000) {
            out += static_cast<char>(0xe0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (cp & 0x3f));
        } else {
            out += static_cast<char>(0xf0 | (cp >> 18));
            out += static_cast<char>(0x80 | ((cp >> 12) & 0x3f));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (cp & 0x3f));
        }
    }

    std::string string() {
        expect('"');
        std::string out;
        while (true) {
            const char c = peek();
            ++pos_;
            if (c == '"') {
                return out;
            }
            if (static_cast<unsigned char>(c) < 0x20) {
                bad("raw control character in string at offset " + std::to_string(pos_ - 1));
            }
            if (c != '\\') {
                out += c;
                continue;
            }
            const char esc = peek();
            ++pos_;
            switch (esc) {
                case '"':
                case '\\':
                case '/':
                    out += esc;
                    break;
                case 'b':
                    out += '\b';
                    break;
                case 'f':
                    out += '\f';
                    break;
                case 'n':
                    out += '\n';
                    break;
                case 'r':
                    out += '\r';
                    break;
                case 't':
                    out += '\t';
                    break;
                case 'u': {
                    std::uint32_t cp = hex4();
                    if (cp >= 0xd800 && cp < 0xdc00) {  // high surrogate
                        if (peek() != '\\') {
                            bad("unpaired surrogate at offset " + std::to_string(pos_));
                        }
                        ++pos_;
                        if (peek() != 'u') {
                            bad("unpaired surrogate at offset " + std::to_string(pos_));
                        }
                        ++pos_;
                        const std::uint32_t lo = hex4();
                        if (lo < 0xdc00 || lo >= 0xe000) {
                            bad("bad low surrogate at offset " + std::to_string(pos_));
                        }
                        cp = 0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00);
                    } else if (cp >= 0xdc00 && cp < 0xe000) {
                        bad("unpaired low surrogate at offset " + std::to_string(pos_));
                    }
                    append_utf8(out, cp);
                    break;
                }
                default:
                    bad(std::string{"bad escape '\\"} + esc + "'");
            }
        }
    }

    json_value number() {
        const std::size_t start = pos_;
        bool integral = true;
        if (peek() == '-') {
            integral = false;
            ++pos_;
        }
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c >= '0' && c <= '9') {
                ++pos_;
            } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
                integral = false;
                ++pos_;
            } else {
                break;
            }
        }
        const std::string token = text_.substr(start, pos_ - start);
        if (token.empty() || token == "-") {
            bad("bad number at offset " + std::to_string(start));
        }
        if (integral) {
            try {
                std::size_t used = 0;
                const std::uint64_t v = std::stoull(token, &used);
                if (used != token.size()) {
                    bad("bad number '" + token + "'");
                }
                return json_value::integer(v);
            } catch (const wire_error&) {
                throw;
            } catch (const std::exception&) {
                bad("integer out of range '" + token + "'");
            }
        }
        char* end = nullptr;
        const double v = std::strtod(token.c_str(), &end);
        if (end != token.c_str() + token.size()) {
            bad("bad number '" + token + "'");
        }
        json_value out;
        out.what = json_value::kind::number;
        out.real = v;
        return out;
    }

    const std::string& text_;
    std::size_t pos_ = 0;
};

void dump_into(std::string& out, const json_value& v) {
    switch (v.what) {
        case json_value::kind::null:
            out += "null";
            break;
        case json_value::kind::boolean:
            out += v.flag ? "true" : "false";
            break;
        case json_value::kind::integer:
            out += std::to_string(v.whole);
            break;
        case json_value::kind::number: {
            char buf[32];
            std::snprintf(buf, sizeof buf, "%.17g", v.real);
            out += buf;
            break;
        }
        case json_value::kind::string:
            dump_string(out, v.text);
            break;
        case json_value::kind::array:
            out += '[';
            for (std::size_t i = 0; i < v.items.size(); ++i) {
                if (i != 0) {
                    out += ',';
                }
                dump_into(out, v.items[i]);
            }
            out += ']';
            break;
        case json_value::kind::object:
            out += '{';
            for (std::size_t i = 0; i < v.members.size(); ++i) {
                if (i != 0) {
                    out += ',';
                }
                dump_string(out, v.members[i].first);
                out += ':';
                dump_into(out, v.members[i].second);
            }
            out += '}';
            break;
    }
}

}  // namespace

void dump_string(std::string& out, const std::string& s) {
    out += '"';
    for (const char c : s) {
        switch (c) {
            case '"':
                out += "\\\"";
                break;
            case '\\':
                out += "\\\\";
                break;
            case '\n':
                out += "\\n";
                break;
            case '\r':
                out += "\\r";
                break;
            case '\t':
                out += "\\t";
                break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x",
                                  static_cast<unsigned>(static_cast<unsigned char>(c)));
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
    out += '"';
}

// ------------------------------------------------------------- value model --

json_value json_value::boolean(bool v) {
    json_value out;
    out.what = kind::boolean;
    out.flag = v;
    return out;
}

json_value json_value::integer(std::uint64_t v) {
    json_value out;
    out.what = kind::integer;
    out.whole = v;
    return out;
}

json_value json_value::string(std::string v) {
    json_value out;
    out.what = kind::string;
    out.text = std::move(v);
    return out;
}

json_value json_value::array() {
    json_value out;
    out.what = kind::array;
    return out;
}

json_value json_value::object() {
    json_value out;
    out.what = kind::object;
    return out;
}

json_value& json_value::set(const std::string& key, json_value v) {
    members.emplace_back(key, std::move(v));
    return *this;
}

const json_value* json_value::find(const std::string& key) const {
    for (const auto& [name, value] : members) {
        if (name == key) {
            return &value;
        }
    }
    return nullptr;
}

std::string dump(const json_value& v) {
    std::string out;
    dump_into(out, v);
    return out;
}

json_value parse_json(const std::string& text) { return parser(text).run(); }

// --------------------------------------------------------- field accessors --

const json_value& require(const json_value& obj, const std::string& key) {
    if (obj.what != json_value::kind::object) {
        bad("expected an object holding field '" + key + "'");
    }
    const json_value* v = obj.find(key);
    if (v == nullptr) {
        bad("missing field '" + key + "'");
    }
    return *v;
}

json_value encode_f64(double v) {
    return json_value::string(engine::fingerprint_hex(std::bit_cast<std::uint64_t>(v)));
}

double decode_f64(const json_value& v, const std::string& what) {
    if (v.what != json_value::kind::string || v.text.size() != 16) {
        bad("'" + what + "' is not a 16-hex-char double");
    }
    std::uint64_t bits = 0;
    for (const char c : v.text) {
        bits <<= 4;
        if (c >= '0' && c <= '9') {
            bits |= static_cast<std::uint64_t>(c - '0');
        } else if (c >= 'a' && c <= 'f') {
            bits |= static_cast<std::uint64_t>(c - 'a' + 10);
        } else {
            bad("'" + what + "' holds a non-hex character");
        }
    }
    return std::bit_cast<double>(bits);
}

// ------------------------------------------------------------------ codecs --

namespace {

using tour_ptr = std::shared_ptr<const std::vector<geom::vec2>>;

// Leaf encodings, shared by every walk below: integers as exact JSON
// integers, doubles as 16-hex-char bit strings, enums by their
// core/scenario_fields.h names, an edge as an [ax,ay,bx,by] quad, and the
// trace tour as one flat [x0,y0,x1,y1,...] array.

template <typename T>
    requires std::is_integral_v<T>
json_value to_json(T v) {
    return json_value::integer(static_cast<std::uint64_t>(v));
}
json_value to_json(bool v) { return json_value::boolean(v); }
json_value to_json(double v) { return encode_f64(v); }
json_value to_json(const std::string& v) { return json_value::string(v); }
json_value to_json(const std::optional<double>& v) {
    return v ? encode_f64(*v) : json_value::null();
}
template <typename E>
    requires std::is_enum_v<E>
json_value to_json(E v) {
    return json_value::string(core::enum_name(v));
}
json_value to_json(const geom::edge_ref& e) {
    json_value quad = json_value::array();
    for (const std::int32_t i : {e.ax, e.ay, e.bx, e.by}) {
        quad.items.push_back(to_json(i));
    }
    return quad;
}
template <typename T>
json_value to_json(const std::vector<T>& values) {
    json_value arr = json_value::array();
    arr.items.reserve(values.size());
    for (const T& v : values) {
        arr.items.push_back(to_json(v));
    }
    return arr;
}
json_value to_json(const tour_ptr& tour) {
    json_value arr = json_value::array();
    arr.items.reserve(tour->size() * 2);
    for (const geom::vec2& p : *tour) {
        arr.items.push_back(encode_f64(p.x));
        arr.items.push_back(encode_f64(p.y));
    }
    return arr;
}

/// The inverse of to_json. An integer must fit its field: a narrower field
/// never wraps an out-of-range value into an honest-looking one.
template <typename T>
    requires std::is_integral_v<T>
void read(const json_value& j, T& out, const std::string& what) {
    if (j.what != json_value::kind::integer) {
        bad("field '" + what + "' is not an integer");
    }
    if (j.whole > static_cast<std::uint64_t>(std::numeric_limits<T>::max())) {
        bad("field '" + what + "' is out of range (" + std::to_string(j.whole) + ")");
    }
    out = static_cast<T>(j.whole);
}
void read(const json_value& j, bool& out, const std::string& what) {
    if (j.what != json_value::kind::boolean) {
        bad("field '" + what + "' is not a boolean");
    }
    out = j.flag;
}
void read(const json_value& j, double& out, const std::string& what) {
    out = decode_f64(j, what);
}
void read(const json_value& j, std::string& out, const std::string& what) {
    if (j.what != json_value::kind::string) {
        bad("field '" + what + "' is not a string");
    }
    out = j.text;
}
void read(const json_value& j, std::optional<double>& out, const std::string& what) {
    out.reset();
    if (j.what != json_value::kind::null) {
        out = decode_f64(j, what);
    }
}
template <typename E>
    requires std::is_enum_v<E>
void read(const json_value& j, E& out, const std::string& what) {
    if (j.what != json_value::kind::string) {
        bad("field '" + what + "' is not a string");
    }
    const std::optional<E> value = core::enum_value<E>(j.text);
    if (!value) {
        bad("unknown " + what + " '" + j.text + "'");
    }
    out = *value;
}
void read(const json_value& j, geom::edge_ref& e, const std::string& what) {
    if (j.what != json_value::kind::array || j.items.size() != 4) {
        bad("field '" + what + "' holds a malformed edge (need [ax,ay,bx,by])");
    }
    read(j.items[0], e.ax, what);
    read(j.items[1], e.ay, what);
    read(j.items[2], e.bx, what);
    read(j.items[3], e.by, what);
}
template <typename T>
void read(const json_value& j, std::vector<T>& out, const std::string& what) {
    if (j.what != json_value::kind::array) {
        bad("field '" + what + "' is not an array");
    }
    out.resize(j.items.size());
    for (std::size_t i = 0; i < out.size(); ++i) {
        read(j.items[i], out[i], what);
    }
}
void read(const json_value& j, tour_ptr& tour, const std::string& what) {
    if (j.what != json_value::kind::array || j.items.size() % 2 != 0 || j.items.size() < 4) {
        bad("field '" + what + "' is not a flat [x,y,...] array of >= 2 points");
    }
    std::vector<geom::vec2> points(j.items.size() / 2);
    for (std::size_t i = 0; i < points.size(); ++i) {
        points[i].x = decode_f64(j.items[2 * i], what);
        points[i].y = decode_f64(j.items[2 * i + 1], what);
    }
    tour = std::make_shared<const std::vector<geom::vec2>>(std::move(points));
}

/// A typed member lookup through the leaf decoders above.
template <typename T>
T typed_field(const json_value& obj, const std::string& key) {
    T out{};
    read(require(obj, key), out, key);
    return out;
}

}  // namespace

std::uint64_t u64_field(const json_value& obj, const std::string& key) {
    return typed_field<std::uint64_t>(obj, key);
}

bool bool_field(const json_value& obj, const std::string& key) {
    return typed_field<bool>(obj, key);
}

std::string str_field(const json_value& obj, const std::string& key) {
    return typed_field<std::string>(obj, key);
}

double f64_field(const json_value& obj, const std::string& key) {
    return typed_field<double>(obj, key);
}

namespace {

/// Writes a field walk (core::for_each_field) as members of *out: a record
/// becomes a nested object, a sequence an array of objects, and an absent
/// optional member is omitted.
struct json_writer {
    json_value* out;

    template <typename T>
    void field(const char* name, const T& value) {
        out->set(name, to_json(value));
    }
    template <typename Fn>
    void record(const char* name, Fn&& fn) {
        out->set(name, nested(fn));
    }
    template <typename T, typename Fn>
    void sequence(const char* name, const std::vector<T>& items, Fn&& fn) {
        json_value arr = json_value::array();
        arr.items.reserve(items.size());
        for (const T& item : items) {
            arr.items.push_back(nested([&] { fn(item); }));
        }
        out->set(name, std::move(arr));
    }
    bool present(const char* /*name*/, bool flag) const { return flag; }

 private:
    template <typename Fn>
    json_value nested(Fn&& fn) {
        json_value obj = json_value::object();
        json_value* const outer = std::exchange(out, &obj);
        fn();
        out = outer;
        return obj;
    }
};

/// Reads a field walk from the members of *in, by name: a missing or
/// mistyped member, an integer that does not fit its field and an unknown
/// enum name all throw wire_error; members the walk does not name are
/// ignored.
struct json_reader {
    const json_value* in;

    template <typename T>
    void field(const char* name, T& value) {
        const std::string key{name};
        read(require(*in, key), value, key);
    }
    template <typename Fn>
    void record(const char* name, Fn&& fn) {
        within(require(*in, name), name, fn);
    }
    template <typename T, typename Fn>
    void sequence(const char* name, std::vector<T>& items, Fn&& fn) {
        const json_value& arr = require(*in, name);
        if (arr.what != json_value::kind::array) {
            bad("field '" + std::string{name} + "' is not an array");
        }
        items.resize(arr.items.size());
        for (std::size_t i = 0; i < items.size(); ++i) {
            within(arr.items[i], name, [&] { fn(items[i]); });
        }
    }
    bool present(const char* name, bool /*flag*/) const { return in->find(name) != nullptr; }

 private:
    template <typename Fn>
    void within(const json_value& obj, const char* name, Fn&& fn) {
        if (obj.what != json_value::kind::object) {
            bad("field '" + std::string{name} + "' does not hold an object");
        }
        const json_value* const outer = std::exchange(in, &obj);
        fn();
        in = outer;
    }
};

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

json_value encode_scenario(const core::scenario& sc) {
    json_value v = json_value::object();
    json_writer writer{&v};
    core::for_each_field(sc, writer);
    return v;
}

core::scenario decode_scenario(const json_value& v) {
    core::scenario sc;
    json_reader reader{&v};
    core::for_each_field(sc, reader);
    return sc;
}

json_value encode_sweep_spec(const engine::sweep_spec& spec) {
    json_value v = json_value::object();
    json_writer writer{&v};
    for_each_spec_field(spec, writer);
    return v;
}

engine::sweep_spec decode_sweep_spec(const json_value& v) {
    engine::sweep_spec spec;
    json_reader reader{&v};
    for_each_spec_field(spec, reader);
    return spec;
}

json_value encode_sweep_row(const engine::sweep_row& row) {
    json_value v = json_value::object();
    json_writer writer{&v};
    for_each_row_field(row, writer);
    return v;
}

engine::sweep_row decode_sweep_row(const json_value& v) {
    engine::sweep_row row;
    json_reader reader{&v};
    for_each_row_field(row, reader);
    return row;
}

}  // namespace manhattan::service
