#include "engine/manifest.h"

#include <algorithm>
#include <bit>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <sstream>
#include <string_view>
#include <type_traits>

#include "codec/number.h"
#include "core/scenario_fields.h"
#include "engine/fault.h"
#include "rng/splitmix64.h"

namespace manhattan::engine {

namespace {

/// Turns the schema walk (core::for_each_field) into the 64-bit words the
/// fingerprint hashes: integers, enums and bools as their value, doubles as
/// their IEEE bits, a vector or sequence as its size and then its elements.
/// The sink also hears where each word sits — the group it is in and each
/// optional member's presence — which only the diff listens to. Hash and
/// diff consume the same words, so the diff names exactly what the hash saw.
template <typename Sink>
struct word_walk {
    Sink& sink;

    template <typename T>
        requires std::is_arithmetic_v<T> || std::is_enum_v<T>
    void field(const char* name, T value) {
        if constexpr (std::is_floating_point_v<T>) {
            sink.word(name, std::bit_cast<std::uint64_t>(value), true);
        } else {
            sink.word(name, static_cast<std::uint64_t>(value), false);
        }
    }
    void field(const char* name, const geom::edge_ref& e) {
        field(name, e.ax);
        field(name, e.ay);
        field(name, e.bx);
        field(name, e.by);
    }
    template <typename T>
    void field(const char* name, const std::vector<T>& items) {
        sequence(name, items, [&](const T& item) { field(nullptr, item); });
    }
    void field(const char* name, const std::shared_ptr<const std::vector<geom::vec2>>& tour) {
        sequence(name, *tour, [&](const geom::vec2& p) {
            field("x", p.x);
            field("y", p.y);
        });
    }
    template <typename Fn>
    void record(const char* name, Fn&& fn) {
        sink.enter(name);
        fn();
        sink.leave();
    }
    template <typename T, typename Fn>
    void sequence(const char* name, const std::vector<T>& items, Fn&& fn) {
        record(name, [&] {
            field("size", items.size());
            for (const T& item : items) {
                fn(item);
            }
        });
    }
    bool present(const char* name, bool flag) {
        sink.presence(name, flag);
        return flag;
    }
};

class fingerprint_hasher {
 public:
    /// One splitmix64 draw as the hash-combine step: strong bit diffusion,
    /// and a pure function of the fed words — the fingerprint is stable
    /// across runs, hosts and thread counts.
    void word(const char* /*name*/, std::uint64_t v, bool /*real*/ = false) {
        state_ = rng::splitmix64(state_ ^ v)();
    }
    void enter(const char* /*name*/) {}
    void leave() {}
    void presence(const char* /*name*/, bool /*present*/) {}
    [[nodiscard]] std::uint64_t value() const noexcept { return state_; }

 private:
    std::uint64_t state_ = 0x6d616e6966657374ULL;  // "manifest"
};

/// The format constant the fingerprint hashes: the manifest text format's
/// version when fingerprints were first pinned. The text format has moved
/// on (run_manifest::format_version) without changing a single digest.
constexpr std::uint64_t fingerprint_format = 1;

[[noreturn]] void corrupt(const std::string& what) {
    throw manifest_error("manifest: " + what);
}

/// Next whitespace token of \p line; throws on exhaustion.
std::string next_token(std::istringstream& line, const std::string& what) {
    std::string token;
    if (!(line >> token)) {
        corrupt("truncated record: missing " + what);
    }
    return token;
}

/// A decimal (\p base 10) or 16-hex-digit (\p base 16) number, read by
/// the codec's strict parsers (codec/number.h).
std::uint64_t parse_u64(const std::string& token, const std::string& what, int base = 10) {
    const std::optional<std::uint64_t> value =
        base == 16 ? codec::parse_hex64(token) : codec::parse_u64(token);
    if (!value) {
        corrupt("malformed " + what + " '" + token + "'");
    }
    return *value;
}

double parse_f64_bits(const std::string& token, const std::string& what) {
    return std::bit_cast<double>(parse_u64(token, what, 16));
}

/// Throws manifest_error on a record outside the grid or a second record
/// for one pair. Sorting the records' flat indices costs what the file
/// holds, where a points x repetitions table would cost what its header
/// claims.
void check_records(const run_manifest& m) {
    std::vector<std::size_t> flat;
    flat.reserve(m.records.size());
    for (const auto& rec : m.records) {
        if (rec.point >= m.points || rec.replica >= m.repetitions) {
            corrupt("record (" + std::to_string(rec.point) + ", " +
                    std::to_string(rec.replica) + ") outside the " + std::to_string(m.points) +
                    " x " + std::to_string(m.repetitions) + " grid");
        }
        flat.push_back(rec.point * m.repetitions + rec.replica);
    }
    std::sort(flat.begin(), flat.end());
    if (const auto dup = std::adjacent_find(flat.begin(), flat.end()); dup != flat.end()) {
        corrupt("duplicate record for point " + std::to_string(*dup / m.repetitions) +
                " replica " + std::to_string(*dup % m.repetitions));
    }
}

}  // namespace

std::vector<std::vector<const replica_record*>> run_manifest::by_point() const {
    check_records(*this);
    std::vector<std::vector<const replica_record*>> table(
        points, std::vector<const replica_record*>(repetitions, nullptr));
    for (const auto& rec : records) {
        table[rec.point][rec.replica] = &rec;
    }
    return table;
}

bool run_manifest::complete() const {
    return records.size() == points * repetitions && !by_point().empty();
}

std::uint64_t sweep_fingerprint(std::span<const sweep_point> points,
                                std::size_t repetitions) {
    fingerprint_hasher h;
    h.word("format", fingerprint_format);
    h.word("engine_output_version", engine_output_version);
    h.word("repetitions", repetitions);
    h.word("points", points.size());
    word_walk<fingerprint_hasher> walk{h};
    for (const auto& point : points) {
        core::for_each_field(point.sc, walk);
    }
    return h.value();
}

std::uint64_t sweep_fingerprint(const sweep_spec& spec) {
    return sweep_fingerprint(spec.expand(), spec.repetitions);
}

std::string fingerprint_hex(std::uint64_t fingerprint) { return codec::hex64(fingerprint); }

namespace {

/// One fingerprint word, named by its dotted schema path ("topology.xs",
/// "messages.sources.ids.size"), or an optional member's presence.
struct named_word {
    std::string path;
    std::uint64_t bits = 0;
    bool real = false;
    bool presence = false;

    /// How a diagnostic shows the value. Doubles show their bit pattern:
    /// the fingerprint hashes bits, so two values that print alike but
    /// differ in the last ulp are a real difference.
    [[nodiscard]] std::string shown() const {
        if (presence) {
            return bits != 0 ? "present" : "absent";
        }
        return real ? fingerprint_hex(bits) : std::to_string(bits);
    }
};

/// word_walk sink recording every word with its path.
class word_recorder {
 public:
    std::vector<named_word> words;

    void word(const char* name, std::uint64_t bits, bool real) {
        words.push_back({path(name), bits, real, false});
    }
    void presence(const char* name, bool present) {
        words.push_back({path(name), present ? 1U : 0U, false, true});
    }
    void enter(const char* name) { groups_.push_back(path(name)); }
    void leave() { groups_.pop_back(); }

 private:
    /// The current group's path, extended by \p leaf (a vector's elements
    /// have no leaf name: they carry the vector's path).
    [[nodiscard]] std::string path(const char* leaf) const {
        std::string out = groups_.empty() ? std::string{} : groups_.back();
        if (leaf != nullptr) {
            out += out.empty() ? "" : ".";
            out += leaf;
        }
        return out;
    }

    std::vector<std::string> groups_;
};

std::vector<named_word> named_words(const core::scenario& sc) {
    word_recorder recorder;
    word_walk<word_recorder> walk{recorder};
    core::for_each_field(sc, walk);
    return std::move(recorder.words);
}

}  // namespace

std::string first_spec_difference(std::span<const sweep_point> a,
                                  std::size_t repetitions_a,
                                  std::span<const sweep_point> b,
                                  std::size_t repetitions_b) {
    const auto differ = [](const char* name, std::size_t x, std::size_t y) {
        return std::string{name} + " (" + std::to_string(x) + " vs " + std::to_string(y) + ")";
    };
    if (repetitions_a != repetitions_b) {
        return differ("repetitions", repetitions_a, repetitions_b);
    }
    if (a.size() != b.size()) {
        return differ("points", a.size(), b.size());
    }
    for (std::size_t i = 0; i < a.size(); ++i) {
        // The word streams only fork after a differing size or presence
        // word, so the first difference always compares like with like.
        const std::vector<named_word> wa = named_words(a[i].sc);
        const std::vector<named_word> wb = named_words(b[i].sc);
        for (std::size_t w = 0; w < std::min(wa.size(), wb.size()); ++w) {
            if (wa[w].path != wb[w].path || wa[w].bits != wb[w].bits) {
                return "point " + std::to_string(i) + ": " + wa[w].path + " (" +
                       wa[w].shown() + " vs " + wb[w].shown() + ")";
            }
        }
    }
    return {};
}

namespace {

/// FNV-1a over a record line's bytes before its digest token. Every single
/// changed byte changes the digest, so a damaged line never passes.
std::uint64_t line_digest(std::string_view bytes) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : bytes) {
        h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
    }
    return h;
}

std::string header_text(const run_manifest& manifest) {
    return "manhattan-manifest v" + std::to_string(run_manifest::format_version) +
           "\nfingerprint " + fingerprint_hex(manifest.fingerprint) + "\npoints " +
           std::to_string(manifest.points) + "\nrepetitions " +
           std::to_string(manifest.repetitions) + "\n";
}

/// One self-checked ledger line: the record's fields, then the FNV-1a
/// digest of everything before it.
std::string record_line(const replica_record& rec) {
    const auto bits = [](double v) {
        return fingerprint_hex(std::bit_cast<std::uint64_t>(v));
    };
    std::string line = "record " + std::to_string(rec.point) + ' ' +
                       std::to_string(rec.replica) + ' ' + bits(rec.stat.time) + ' ' +
                       (rec.stat.completed ? '1' : '0') + ' ' +
                       (rec.stat.cz_step ? std::to_string(*rec.stat.cz_step) : std::string{"-"}) +
                       ' ' + bits(rec.stat.suburb_diameter) + ' ' +
                       bits(rec.stat.wall_seconds) + ' ' +
                       std::to_string(rec.stat.message_times.size());
    for (const double t : rec.stat.message_times) {
        line += ' ' + bits(t);
    }
    for (const std::uint8_t c : rec.stat.message_completed) {
        line += c != 0 ? " 1" : " 0";
    }
    line += ' ' + fingerprint_hex(line_digest(line)) + '\n';
    return line;
}

/// Does \p line end in the digest of the bytes before its last space (in
/// exactly the rendering record_line writes)? \p body receives those bytes.
bool digest_holds(std::string_view line, std::string_view& body) {
    const std::size_t space = line.rfind(' ');
    if (space == std::string_view::npos) {
        return false;
    }
    body = line.substr(0, space);
    return line.substr(space + 1) == fingerprint_hex(line_digest(body));
}

replica_record parse_record(const std::string& body) {
    std::istringstream fields(body);
    if (next_token(fields, "record tag") != "record") {
        corrupt("unknown line '" + body + "'");
    }
    replica_record rec;
    rec.point = parse_u64(next_token(fields, "point"), "point");
    rec.replica = parse_u64(next_token(fields, "replica"), "replica");
    rec.stat.time = parse_f64_bits(next_token(fields, "time"), "time");
    rec.stat.completed = parse_u64(next_token(fields, "completed"), "completed") != 0;
    const std::string cz = next_token(fields, "cz_step");
    if (cz != "-") {
        rec.stat.cz_step = parse_u64(cz, "cz_step");
    }
    rec.stat.suburb_diameter =
        parse_f64_bits(next_token(fields, "suburb_diameter"), "suburb_diameter");
    rec.stat.wall_seconds = parse_f64_bits(next_token(fields, "wall_seconds"), "wall_seconds");
    const std::uint64_t messages =
        parse_u64(next_token(fields, "message count"), "message count");
    for (std::uint64_t m = 0; m < messages; ++m) {
        rec.stat.message_times.push_back(
            parse_f64_bits(next_token(fields, "message time"), "message time"));
    }
    for (std::uint64_t m = 0; m < messages; ++m) {
        rec.stat.message_completed.push_back(
            parse_u64(next_token(fields, "message completed"), "message completed") != 0 ? 1
                                                                                       : 0);
    }
    std::string extra;
    if (fields >> extra) {
        corrupt("trailing tokens on record line '" + body + "'");
    }
    return rec;
}

}  // namespace

std::string serialize_manifest(const run_manifest& manifest) {
    std::string out = header_text(manifest);
    for (const auto& rec : manifest.records) {
        out += record_line(rec);
    }
    return out;
}

run_manifest parse_manifest(const std::string& text) {
    // Newline-terminated lines only: bytes after the last newline are a
    // torn append and never parse.
    std::vector<std::string_view> lines;
    const std::string_view all{text};
    for (std::size_t at = 0, nl = 0; (nl = all.find('\n', at)) != std::string_view::npos;
         at = nl + 1) {
        lines.push_back(all.substr(at, nl - at));
    }

    std::size_t next = 0;
    const auto keyed_value = [&](const std::string& key) {
        if (next == lines.size()) {
            corrupt("truncated file: missing '" + key + "' line");
        }
        const std::string line{lines[next++]};
        std::istringstream fields(line);
        if (next_token(fields, "key") != key) {
            corrupt("expected '" + key + "' line, got '" + line + "'");
        }
        const std::string value = next_token(fields, key);
        std::string extra;
        if (fields >> extra) {
            corrupt("trailing tokens on '" + key + "' line");
        }
        return value;
    };

    std::string version = "v";  // split concat: GCC 12 -Wrestrict false positive
    version += std::to_string(run_manifest::format_version);
    if (const std::string got = keyed_value("manhattan-manifest"); got != version) {
        corrupt("unsupported format '" + got + "'");
    }
    run_manifest manifest;
    manifest.fingerprint = parse_u64(keyed_value("fingerprint"), "fingerprint", 16);
    manifest.points = parse_u64(keyed_value("points"), "points");
    manifest.repetitions = parse_u64(keyed_value("repetitions"), "repetitions");
    // by_point() sizes a points x repetitions table from these: refuse a
    // grid that no vector can hold, not only one whose allocation fails
    // (and keep the flat indices below in range).
    using column = std::vector<const replica_record*>;
    if (manifest.points > std::vector<column>().max_size() ||
        manifest.repetitions > column().max_size() ||
        (manifest.repetitions != 0 &&
         manifest.points > std::numeric_limits<std::size_t>::max() / manifest.repetitions)) {
        corrupt("a " + std::to_string(manifest.points) + " x " +
                std::to_string(manifest.repetitions) + " grid is too large");
    }

    for (; next < lines.size(); ++next) {
        std::string_view body;
        if (!digest_holds(lines[next], body)) {
            if (next + 1 == lines.size()) {
                break;  // a damaged final line is a torn tail: dropped
            }
            corrupt("line " + std::to_string(next + 1) + " fails its digest: '" +
                    std::string{lines[next]} + "'");
        }
        manifest.records.push_back(parse_record(std::string{body}));
    }
    check_records(manifest);
    return manifest;
}

void save_manifest(const run_manifest& manifest, const std::string& path) {
    atomic_write_file(path, serialize_manifest(manifest));
}

run_manifest load_manifest(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        throw manifest_error("manifest: cannot open '" + path + "'");
    }
    const std::string text{std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>()};
    try {
        return parse_manifest(text);
    } catch (const manifest_error& e) {
        throw manifest_error(std::string{e.message()} + " (file '" + path + "')");
    }
}

checkpoint_ledger::checkpoint_ledger(run_manifest manifest, std::string path)
    : manifest_(std::move(manifest)),
      log_(std::move(path), header_text(manifest_), "ledger.publish") {}

void checkpoint_ledger::record(std::size_t point, std::size_t replica, replica_stat stat) {
    const std::lock_guard<std::mutex> lock(mutex_);
    manifest_.records.push_back({point, replica, std::move(stat)});
    const fault::outcome due = fault::hit("ledger.record");
    if (due.act == fault::action::crash) {
        // Crash injection for the CI resume/chaos smokes: publish while
        // still holding the lock (keeping the on-disk record count exactly
        // the fatal hit number — no concurrent record can slip in), then die
        // exactly like an external `kill -9`: no stack unwinding, no sink
        // finish(), no final flush. A publish, not a flush: the records
        // reach the file by write() alone, so the count the smokes read
        // after the kill is what the page cache kept, not a sync.
        publish_locked(false);
    }
    fault::act("ledger.record", due);  // crash / fail / delay
    // Every pending record, not just this one: an adopted ledger starts
    // with all its old records pending, and a failed ledger.record hit above
    // skips this publish. A failed publish leaves its lines with the log,
    // which writes them with the next one.
    publish_locked(false);
}

void checkpoint_ledger::flush() {
    const std::lock_guard<std::mutex> lock(mutex_);
    publish_locked(true);
}

void checkpoint_ledger::publish_locked(bool flush) {
    std::string lines;
    for (std::size_t i = published_; i < manifest_.records.size(); ++i) {
        lines += record_line(manifest_.records[i]);
    }
    published_ = manifest_.records.size();  // the log owns them now, even if it throws
    log_.publish(lines, flush);
}

}  // namespace manhattan::engine
