/// \file number.h
/// The one number layer of every text format: the CSV and JSON sinks, the
/// trace stream, the canonical JSON codec (codec/json.h), the manifest
/// ledger, fault plans and the daemon's job ids.
///
///   - A double renders at 17 significant digits in printf's general style
///     (std::to_chars prints the same bytes), so a finite double reads back
///     exactly.
///   - A 64-bit word (a fingerprint, a digest, a double's IEEE bits)
///     renders as 16 lower-case hex digits.
///   - The parsers accept exactly what the renderers write: no sign, no
///     base prefix, no whitespace, no upper-case digit, a hex word of
///     exactly 16 digits and a decimal that fits 64 bits. Anything else is
///     nullopt, and the caller raises its own typed error.
#pragma once

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

namespace manhattan::codec {

inline void append_f64(std::string& out, double v) {
    char buf[32];  // the longest is 24: "-2.2250738585072014e-308"
    const auto end = std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general, 17);
    out.append(buf, end.ptr);
}

inline void append_u64(std::string& out, std::uint64_t v) {
    char buf[20];
    out.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
}

[[nodiscard]] inline std::string f64_text(double v) {
    std::string out;
    append_f64(out, v);
    return out;
}

[[nodiscard]] inline std::string hex64(std::uint64_t word) {
    std::string out(16, '0');
    for (std::size_t i = 16; i-- > 0; word >>= 4) {
        out[i] = "0123456789abcdef"[word & 0xf];
    }
    return out;
}

/// \p values rendered and joined by \p sep: a JSON array's body with ", ",
/// a CSV cell with ";".
template <typename T>
[[nodiscard]] std::string number_list(const std::vector<T>& values, std::string_view sep) {
    std::string out;
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (i != 0) {
            out += sep;
        }
        if constexpr (std::is_floating_point_v<T>) {
            append_f64(out, values[i]);
        } else {
            append_u64(out, values[i]);
        }
    }
    return out;
}

/// The JSON array "[a, b, c]" of the JSON result sink and the trace stream.
template <typename T>
[[nodiscard]] std::string number_array(const std::vector<T>& values) {
    return '[' + number_list(values, ", ") + ']';
}

/// A decimal uint64: digits only, at most 2^64 - 1.
[[nodiscard]] inline std::optional<std::uint64_t> parse_u64(std::string_view text) {
    std::uint64_t v = 0;
    const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), v);
    if (ec != std::errc{} || end != text.data() + text.size()) {
        return std::nullopt;
    }
    return v;
}

/// A 64-bit word as hex64 writes it: exactly 16 digits from [0-9a-f].
[[nodiscard]] inline std::optional<std::uint64_t> parse_hex64(std::string_view text) {
    const auto lower_hex = [](char c) { return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'); };
    if (text.size() != 16 || !std::ranges::all_of(text, lower_hex)) {
        return std::nullopt;
    }
    std::uint64_t v = 0;
    std::from_chars(text.data(), text.data() + text.size(), v, 16);
    return v;
}

}  // namespace manhattan::codec
