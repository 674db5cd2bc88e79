#include "codec/json.h"

#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "codec/number.h"

namespace manhattan::codec {

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
            const std::optional<std::uint64_t> v = parse_u64(token);
            if (!v) {
                bad("integer out of range '" + token + "'");
            }
            return json_value::integer(*v);
        }
        char* end = nullptr;
        const double v = std::strtod(token.c_str(), &end);
        if (end != token.c_str() + token.size()) {
            bad("bad number '" + token + "'");
        }
        // An overflow reads as an infinity, which dump() renders as "inf"
        // and no parse takes back. An underflow reads as (signed) zero.
        if (!std::isfinite(v)) {
            bad("number out of range '" + token + "'");
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
            append_u64(out, v.whole);
            break;
        case json_value::kind::number:
            append_f64(out, v.real);
            break;
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
    return json_value::string(hex64(std::bit_cast<std::uint64_t>(v)));
}

double decode_f64(const json_value& v, const std::string& what) {
    const std::optional<std::uint64_t> bits =
        v.what == json_value::kind::string ? parse_hex64(v.text) : std::nullopt;
    if (!bits) {
        bad("'" + what + "' is not a 16-hex-char double");
    }
    return std::bit_cast<double>(*bits);
}

// ------------------------------------------------------------- scenario --

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

}  // namespace manhattan::codec
