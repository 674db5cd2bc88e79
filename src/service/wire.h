/// \file wire.h
/// The service layer's canonical JSON wire format: a minimal value model, a
/// strict recursive-descent parser/writer (no external dependency), and
/// codecs for the engine's spec/result types. The protocol frames one JSON
/// document per line (docs/SERVICE.md).
///
/// Exactness contract: every double crosses the wire as its 16-hex-char
/// IEEE-754 bit pattern (the same encoding the manifest uses on disk; the
/// fabric's sweep.spec is this codec's output), and every integer field is
/// carried as a plain JSON integer kept as an exact uint64 — so
/// decode(encode(x)) reproduces x bit-for-bit, including NaNs, infinities,
/// denormals and negative zero. That is what lets a daemon-served row
/// byte-match a locally computed one after the client re-renders it through
/// the ordinary sinks.
///
/// The scenario codec is a walk over core::for_each_field (one field list
/// shared with the fingerprint), so scenario members appear in fingerprint
/// order.
///
/// Compatibility contract: decoders look fields up by name and ignore
/// members they do not know (a newer peer may add fields), but a missing
/// required field, a type mismatch, an integer that does not fit its field,
/// or a truncated document always throws wire_error — never a silently
/// defaulted or wrapped value.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "engine/error.h"
#include "engine/sweep.h"

namespace manhattan::service {

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

/// Parse one complete JSON document. Throws wire_error on malformed input,
/// trailing garbage, or a document cut short (truncation never yields a
/// value).
[[nodiscard]] json_value parse_json(const std::string& text);

// --------------------------------------------------------- field accessors --
// Strict typed lookups used by every decoder: throw wire_error naming the
// field when it is missing or of the wrong type.

[[nodiscard]] const json_value& require(const json_value& obj, const std::string& key);
[[nodiscard]] std::uint64_t u64_field(const json_value& obj, const std::string& key);
[[nodiscard]] bool bool_field(const json_value& obj, const std::string& key);
[[nodiscard]] std::string str_field(const json_value& obj, const std::string& key);

/// Doubles travel as 16-hex-char IEEE-754 bit strings.
[[nodiscard]] json_value encode_f64(double v);
[[nodiscard]] double decode_f64(const json_value& v, const std::string& what);
[[nodiscard]] double f64_field(const json_value& obj, const std::string& key);

// ------------------------------------------------------------------ codecs --

[[nodiscard]] json_value encode_scenario(const core::scenario& sc);
[[nodiscard]] core::scenario decode_scenario(const json_value& v);

[[nodiscard]] json_value encode_sweep_spec(const engine::sweep_spec& spec);
[[nodiscard]] engine::sweep_spec decode_sweep_spec(const json_value& v);

[[nodiscard]] json_value encode_sweep_row(const engine::sweep_row& row);
[[nodiscard]] engine::sweep_row decode_sweep_row(const json_value& v);

}  // namespace manhattan::service
