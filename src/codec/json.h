/// \file json.h
/// The canonical JSON codec: a minimal value model, a strict
/// recursive-descent parser and printer (no external dependency), typed
/// field accessors, and the scenario codec. The daemon protocol
/// (service/wire.h adds the sweep-spec and sweep-row codecs on top), the
/// fabric's sweep.spec and the string escaping of the JSON result sink and
/// the trace stream all go through it. It sits below engine and service and
/// depends only on core, engine/error.h and its number layer
/// (codec/number.h).
///
/// Exactness contract: every double is carried as its 16-hex-char IEEE-754
/// bit pattern (the same encoding the manifest uses on disk), and every
/// integer field as a plain JSON integer kept as an exact uint64 — so
/// decode(encode(x)) reproduces x bit-for-bit, including NaNs, infinities,
/// denormals and negative zero. That is what lets a daemon-served row
/// byte-match a locally computed one after the client re-renders it through
/// the ordinary sinks.
///
/// The scenario codec is a walk over core::for_each_field (one field list
/// shared with the fingerprint), so scenario members appear in fingerprint
/// order. json_writer and json_reader walk any such field list, which is
/// how service/wire.h encodes sweep specs and rows.
///
/// Compatibility contract: decoders look fields up by name and ignore
/// members they do not know (a newer peer may add fields), but a missing
/// required field, a type mismatch, an integer that does not fit its field,
/// or a truncated document always throws wire_error — never a silently
/// defaulted or wrapped value.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/scenario_fields.h"
#include "engine/error.h"

namespace manhattan::codec {

/// Malformed or incomplete wire data (bad JSON, missing field, wrong type,
/// unknown enum name, out-of-range integer). A spec error in the engine
/// taxonomy: the message was wrong, retrying the same bytes cannot help.
class wire_error : public engine::error {
 public:
    explicit wire_error(const std::string& what)
        : engine::error(engine::errc::spec, "wire: " + what) {}
};

/// One JSON value. Numbers with integral syntax are stored as exact uint64
/// (every numeric field this protocol emits is one); anything else — a
/// fraction, an exponent, a sign — is kept as a double for tolerance of
/// foreign fields. Object member order is preserved so dump() is
/// deterministic and diffs cleanly.
struct json_value {
    enum class kind : std::uint8_t { null, boolean, integer, number, string, array, object };

    kind what = kind::null;
    bool flag = false;
    std::uint64_t whole = 0;
    double real = 0.0;
    std::string text;
    std::vector<json_value> items;
    std::vector<std::pair<std::string, json_value>> members;

    [[nodiscard]] static json_value null() { return {}; }
    [[nodiscard]] static json_value boolean(bool v);
    [[nodiscard]] static json_value integer(std::uint64_t v);
    [[nodiscard]] static json_value string(std::string v);
    [[nodiscard]] static json_value array();
    [[nodiscard]] static json_value object();

    /// Append a member (objects only; no duplicate-key check — encoders
    /// never emit duplicates and the parser keeps the first).
    json_value& set(const std::string& key, json_value v);

    /// Member by key, nullptr when absent (objects only).
    [[nodiscard]] const json_value* find(const std::string& key) const;
};

/// Serialize compactly (no whitespace, preserved member order). Strings are
/// escaped per RFC 8259; the output never contains a raw newline, so one
/// dump() is always one protocol line.
[[nodiscard]] std::string dump(const json_value& v);

/// Append \p s to \p out as a JSON string literal: quotes, backslashes and
/// every control character escaped per RFC 8259. The one string escaper of
/// the codec, engine::json_sink and engine::trace_sink.
void dump_string(std::string& out, const std::string& s);

/// Parse one complete JSON document. Throws wire_error on malformed input,
/// trailing garbage, or a document cut short (truncation never yields a
/// value).
[[nodiscard]] json_value parse_json(const std::string& text);

/// Member \p key of \p obj; throws wire_error naming it when \p obj is not
/// an object or has no such member.
[[nodiscard]] const json_value& require(const json_value& obj, const std::string& key);

/// Doubles travel as 16-hex-char IEEE-754 bit strings.
[[nodiscard]] json_value encode_f64(double v);
[[nodiscard]] double decode_f64(const json_value& v, const std::string& what);

// ------------------------------------------------------ leaf encodings --
// Shared by every field walk: integers as exact JSON integers, doubles as
// 16-hex-char bit strings, enums by their core/scenario_fields.h names, an
// edge as an [ax,ay,bx,by] quad, and the trace tour as one flat
// [x0,y0,x1,y1,...] array.

using tour_ptr = std::shared_ptr<const std::vector<geom::vec2>>;

template <typename T>
    requires std::is_integral_v<T>
json_value to_json(T v) {
    return json_value::integer(static_cast<std::uint64_t>(v));
}
inline json_value to_json(bool v) { return json_value::boolean(v); }
inline json_value to_json(double v) { return encode_f64(v); }
inline json_value to_json(const std::string& v) { return json_value::string(v); }
inline json_value to_json(const std::optional<double>& v) {
    return v ? encode_f64(*v) : json_value::null();
}
template <typename E>
    requires std::is_enum_v<E>
json_value to_json(E v) {
    return json_value::string(core::enum_name(v));
}
inline json_value to_json(const geom::edge_ref& e) {
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
inline json_value to_json(const tour_ptr& tour) {
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
void from_json(const json_value& j, T& out, const std::string& what) {
    if (j.what != json_value::kind::integer) {
        throw wire_error("field '" + what + "' is not an integer");
    }
    if (j.whole > static_cast<std::uint64_t>(std::numeric_limits<T>::max())) {
        throw wire_error("field '" + what + "' is out of range (" + std::to_string(j.whole) +
                         ")");
    }
    out = static_cast<T>(j.whole);
}
inline void from_json(const json_value& j, bool& out, const std::string& what) {
    if (j.what != json_value::kind::boolean) {
        throw wire_error("field '" + what + "' is not a boolean");
    }
    out = j.flag;
}
inline void from_json(const json_value& j, double& out, const std::string& what) {
    out = decode_f64(j, what);
}
inline void from_json(const json_value& j, std::string& out, const std::string& what) {
    if (j.what != json_value::kind::string) {
        throw wire_error("field '" + what + "' is not a string");
    }
    out = j.text;
}
inline void from_json(const json_value& j, std::optional<double>& out, const std::string& what) {
    out.reset();
    if (j.what != json_value::kind::null) {
        out = decode_f64(j, what);
    }
}
template <typename E>
    requires std::is_enum_v<E>
void from_json(const json_value& j, E& out, const std::string& what) {
    std::string name;
    from_json(j, name, what);
    const std::optional<E> value = core::enum_value<E>(name);
    if (!value) {
        throw wire_error("unknown " + what + " '" + name + "'");
    }
    out = *value;
}
inline void from_json(const json_value& j, geom::edge_ref& e, const std::string& what) {
    if (j.what != json_value::kind::array || j.items.size() != 4) {
        throw wire_error("field '" + what + "' holds a malformed edge (need [ax,ay,bx,by])");
    }
    from_json(j.items[0], e.ax, what);
    from_json(j.items[1], e.ay, what);
    from_json(j.items[2], e.bx, what);
    from_json(j.items[3], e.by, what);
}
template <typename T>
void from_json(const json_value& j, std::vector<T>& out, const std::string& what) {
    if (j.what != json_value::kind::array) {
        throw wire_error("field '" + what + "' is not an array");
    }
    out.resize(j.items.size());
    for (std::size_t i = 0; i < out.size(); ++i) {
        from_json(j.items[i], out[i], what);
    }
}
inline void from_json(const json_value& j, tour_ptr& tour, const std::string& what) {
    if (j.what != json_value::kind::array || j.items.size() % 2 != 0 || j.items.size() < 4) {
        throw wire_error("field '" + what + "' is not a flat [x,y,...] array of >= 2 points");
    }
    std::vector<geom::vec2> points(j.items.size() / 2);
    for (std::size_t i = 0; i < points.size(); ++i) {
        points[i].x = decode_f64(j.items[2 * i], what);
        points[i].y = decode_f64(j.items[2 * i + 1], what);
    }
    tour = std::make_shared<const std::vector<geom::vec2>>(std::move(points));
}

// --------------------------------------------------------- field accessors --
// Strict typed lookups used by every decoder: throw wire_error naming the
// field when it is missing or of the wrong type.

template <typename T>
[[nodiscard]] T typed_field(const json_value& obj, const std::string& key) {
    T out{};
    from_json(require(obj, key), out, key);
    return out;
}
[[nodiscard]] inline std::uint64_t u64_field(const json_value& obj, const std::string& key) {
    return typed_field<std::uint64_t>(obj, key);
}
[[nodiscard]] inline bool bool_field(const json_value& obj, const std::string& key) {
    return typed_field<bool>(obj, key);
}
[[nodiscard]] inline std::string str_field(const json_value& obj, const std::string& key) {
    return typed_field<std::string>(obj, key);
}
[[nodiscard]] inline double f64_field(const json_value& obj, const std::string& key) {
    return typed_field<double>(obj, key);
}

// ----------------------------------------------------------- field walks --

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
        from_json(require(*in, key), value, key);
    }
    template <typename Fn>
    void record(const char* name, Fn&& fn) {
        within(require(*in, name), name, fn);
    }
    template <typename T, typename Fn>
    void sequence(const char* name, std::vector<T>& items, Fn&& fn) {
        const json_value& arr = require(*in, name);
        if (arr.what != json_value::kind::array) {
            throw wire_error("field '" + std::string{name} + "' is not an array");
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
            throw wire_error("field '" + std::string{name} + "' does not hold an object");
        }
        const json_value* const outer = std::exchange(in, &obj);
        fn();
        in = outer;
    }
};

[[nodiscard]] json_value encode_scenario(const core::scenario& sc);
[[nodiscard]] core::scenario decode_scenario(const json_value& v);

}  // namespace manhattan::codec
