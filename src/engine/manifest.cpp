#include "engine/manifest.h"

#include <bit>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string_view>

#include "core/scenario.h"
#include "engine/fault.h"

namespace manhattan::engine {

namespace {

/// splitmix64 finaliser as a hash-combine step: strong bit diffusion, and a
/// pure function of the fed words — the fingerprint is stable across runs,
/// hosts and thread counts.
std::uint64_t mix(std::uint64_t z) {
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

class fingerprint_hasher {
 public:
    void u64(std::uint64_t v) { state_ = mix(state_ ^ v); }
    void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
    void boolean(bool v) { u64(v ? 1 : 0); }
    [[nodiscard]] std::uint64_t value() const noexcept { return state_; }

 private:
    std::uint64_t state_ = 0x6d616e6966657374ULL;  // "manifest"
};

/// Topology contribution to the fingerprint. A pure manhattan_grid spec
/// feeds *nothing* — its fingerprint is bit-for-bit what it was before
/// topologies existed, so pre-existing manifests, result caches and
/// BENCH_flood.json baselines stay valid (docs/TOPOLOGY.md pins the rule;
/// topology_spec::validate keeps it sound by rejecting street data attached
/// to a grid spec).
void hash_topology(fingerprint_hasher& h, const geom::topology_spec& topology) {
    if (topology.is_grid()) {
        return;
    }
    h.u64(static_cast<std::uint64_t>(topology.kind));
    const geom::street_graph_spec& st = topology.street;
    h.u64(st.xs.size());
    for (const double x : st.xs) {
        h.f64(x);
    }
    h.u64(st.ys.size());
    for (const double y : st.ys) {
        h.f64(y);
    }
    h.u64(st.blocked.size());
    for (const geom::edge_ref& e : st.blocked) {
        h.u64(static_cast<std::uint64_t>(e.ax));
        h.u64(static_cast<std::uint64_t>(e.ay));
        h.u64(static_cast<std::uint64_t>(e.bx));
        h.u64(static_cast<std::uint64_t>(e.by));
    }
    h.u64(st.one_way.size());
    for (const geom::edge_ref& e : st.one_way) {
        h.u64(static_cast<std::uint64_t>(e.ax));
        h.u64(static_cast<std::uint64_t>(e.ay));
        h.u64(static_cast<std::uint64_t>(e.bx));
        h.u64(static_cast<std::uint64_t>(e.by));
    }
}

void hash_source_spec(fingerprint_hasher& h, const core::source_spec& spec) {
    h.u64(static_cast<std::uint64_t>(spec.how));
    h.u64(static_cast<std::uint64_t>(spec.placement));
    h.u64(spec.count);
    h.u64(spec.ids.size());
    for (const std::size_t id : spec.ids) {
        h.u64(id);
    }
}

/// Every output-affecting scenario field. intra_threads is excluded by
/// contract (wall-clock-only knob; resuming at another thread count is
/// legal) — keep this in sync with the header comment and docs/ENGINE.md.
void hash_scenario(fingerprint_hasher& h, const core::scenario& sc) {
    h.u64(sc.params.n);
    h.f64(sc.params.side);
    h.f64(sc.params.radius);
    h.f64(sc.params.speed);
    hash_topology(h, sc.topology);
    h.u64(static_cast<std::uint64_t>(sc.model));
    h.f64(sc.model_opts.walk_step_radius);
    h.f64(sc.model_opts.direction_max_leg);
    // The replay tour affects output only under the (new) trace_replay kind,
    // so gating it keeps every pre-existing fingerprint byte-stable.
    if (sc.model == mobility::model_kind::trace_replay && sc.model_opts.trace != nullptr) {
        h.u64(sc.model_opts.trace->size());
        for (const geom::vec2& p : *sc.model_opts.trace) {
            h.f64(p.x);
            h.f64(p.y);
        }
    }
    h.u64(static_cast<std::uint64_t>(sc.mode));
    h.f64(sc.gossip_p);
    h.u64(static_cast<std::uint64_t>(sc.source));
    h.u64(sc.seed);
    h.boolean(sc.stationary_start);
    h.f64(sc.warmup_time);
    h.u64(sc.max_steps);
    h.boolean(sc.record_timeline);
    h.boolean(sc.with_cell_partition);
    h.u64(static_cast<std::uint64_t>(sc.spread.stop.how));
    h.f64(sc.spread.stop.fraction);
    h.u64(sc.spread.stop.steps);
    h.u64(sc.spread.messages.size());
    for (const auto& msg : sc.spread.messages) {
        hash_source_spec(h, msg.sources);
        h.u64(msg.spawn_step);
        h.u64(static_cast<std::uint64_t>(msg.mode));
        h.f64(msg.gossip_p);
        h.u64(msg.gossip_seed);
        h.u64(msg.source_seed);
    }
}

std::string hex64(std::uint64_t v) {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
    return {buf};
}

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

std::uint64_t parse_u64(const std::string& token, const std::string& what, int base = 10) {
    try {
        std::size_t used = 0;
        const std::uint64_t value = std::stoull(token, &used, base);
        if (used != token.size()) {
            corrupt("malformed " + what + " '" + token + "'");
        }
        return value;
    } catch (const manifest_error&) {
        throw;
    } catch (const std::exception&) {
        corrupt("malformed " + what + " '" + token + "'");
    }
}

double parse_f64_bits(const std::string& token, const std::string& what) {
    return std::bit_cast<double>(parse_u64(token, what, 16));
}

}  // namespace

std::vector<std::vector<const replica_record*>> run_manifest::by_point() const {
    std::vector<std::vector<const replica_record*>> table(
        points, std::vector<const replica_record*>(repetitions, nullptr));
    for (const auto& rec : records) {
        if (rec.point >= points || rec.replica >= repetitions) {
            corrupt("record (" + std::to_string(rec.point) + ", " +
                    std::to_string(rec.replica) + ") outside the " + std::to_string(points) +
                    " x " + std::to_string(repetitions) + " grid");
        }
        if (table[rec.point][rec.replica] != nullptr) {
            corrupt("duplicate record for point " + std::to_string(rec.point) + " replica " +
                    std::to_string(rec.replica));
        }
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
    h.u64(fingerprint_format);
    h.u64(engine_output_version);
    h.u64(repetitions);
    h.u64(points.size());
    for (const auto& point : points) {
        hash_scenario(h, point.sc);
    }
    return h.value();
}

std::uint64_t sweep_fingerprint(const sweep_spec& spec) {
    return sweep_fingerprint(spec.expand(), spec.repetitions);
}

std::string fingerprint_hex(std::uint64_t fingerprint) { return hex64(fingerprint); }

namespace {

/// Field-by-field comparison helpers for first_spec_difference. Doubles are
/// compared (and rendered) as bit patterns: the fingerprint hashes bits, so
/// two values that print alike but differ in the last ulp are a real
/// difference and must be reported as one.
struct diff_finder {
    std::string found;  ///< first difference, empty while none

    bool u64(const char* name, std::uint64_t a, std::uint64_t b) {
        if (!found.empty() || a == b) {
            return !found.empty();
        }
        found = std::string{name} + " (" + std::to_string(a) + " vs " +
                std::to_string(b) + ")";
        return true;
    }

    bool f64(const char* name, double a, double b) {
        const std::uint64_t bits_a = std::bit_cast<std::uint64_t>(a);
        const std::uint64_t bits_b = std::bit_cast<std::uint64_t>(b);
        if (!found.empty() || bits_a == bits_b) {
            return !found.empty();
        }
        found = std::string{name} + " (" + hex64(bits_a) + " vs " + hex64(bits_b) + ")";
        return true;
    }

    bool boolean(const char* name, bool a, bool b) {
        return u64(name, a ? 1 : 0, b ? 1 : 0);
    }
};

bool diff_source_spec(diff_finder& d, const core::source_spec& a,
                      const core::source_spec& b) {
    if (d.u64("sources.how", static_cast<std::uint64_t>(a.how),
              static_cast<std::uint64_t>(b.how)) ||
        d.u64("sources.placement", static_cast<std::uint64_t>(a.placement),
              static_cast<std::uint64_t>(b.placement)) ||
        d.u64("sources.count", a.count, b.count) ||
        d.u64("sources.ids.size", a.ids.size(), b.ids.size())) {
        return true;
    }
    for (std::size_t i = 0; i < a.ids.size(); ++i) {
        if (d.u64("sources.ids", a.ids[i], b.ids[i])) {
            return true;
        }
    }
    return false;
}

bool diff_edges(diff_finder& d, const char* name, const std::vector<geom::edge_ref>& a,
                const std::vector<geom::edge_ref>& b) {
    if (d.u64((std::string{name} + ".size").c_str(), a.size(), b.size())) {
        return true;
    }
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (d.u64(name, static_cast<std::uint64_t>(a[i].ax),
                  static_cast<std::uint64_t>(b[i].ax)) ||
            d.u64(name, static_cast<std::uint64_t>(a[i].ay),
                  static_cast<std::uint64_t>(b[i].ay)) ||
            d.u64(name, static_cast<std::uint64_t>(a[i].bx),
                  static_cast<std::uint64_t>(b[i].bx)) ||
            d.u64(name, static_cast<std::uint64_t>(a[i].by),
                  static_cast<std::uint64_t>(b[i].by))) {
            return true;
        }
    }
    return false;
}

/// Mirrors hash_topology: grid-vs-grid contributes nothing, everything else
/// compares the full street plan.
bool diff_topology(diff_finder& d, const geom::topology_spec& a,
                   const geom::topology_spec& b) {
    if (d.u64("topology.kind", static_cast<std::uint64_t>(a.kind),
              static_cast<std::uint64_t>(b.kind))) {
        return true;
    }
    if (a.is_grid()) {
        return false;
    }
    if (d.u64("topology.xs.size", a.street.xs.size(), b.street.xs.size()) ||
        d.u64("topology.ys.size", a.street.ys.size(), b.street.ys.size())) {
        return true;
    }
    for (std::size_t i = 0; i < a.street.xs.size(); ++i) {
        if (d.f64("topology.xs", a.street.xs[i], b.street.xs[i])) {
            return true;
        }
    }
    for (std::size_t i = 0; i < a.street.ys.size(); ++i) {
        if (d.f64("topology.ys", a.street.ys[i], b.street.ys[i])) {
            return true;
        }
    }
    return diff_edges(d, "topology.blocked", a.street.blocked, b.street.blocked) ||
           diff_edges(d, "topology.one_way", a.street.one_way, b.street.one_way);
}

bool diff_trace(diff_finder& d, const core::scenario& a, const core::scenario& b) {
    if (a.model != mobility::model_kind::trace_replay) {
        return false;
    }
    const auto* ta = a.model_opts.trace.get();
    const auto* tb = b.model_opts.trace.get();
    if (d.u64("trace.size", ta != nullptr ? ta->size() : 0, tb != nullptr ? tb->size() : 0)) {
        return true;
    }
    if (ta == nullptr || tb == nullptr) {
        return false;
    }
    for (std::size_t i = 0; i < ta->size(); ++i) {
        if (d.f64("trace.x", (*ta)[i].x, (*tb)[i].x) ||
            d.f64("trace.y", (*ta)[i].y, (*tb)[i].y)) {
            return true;
        }
    }
    return false;
}

/// Mirrors hash_scenario field for field — keep the two walks in sync.
bool diff_scenario(diff_finder& d, const core::scenario& a, const core::scenario& b) {
    if (diff_topology(d, a.topology, b.topology)) {
        return true;
    }
    if (d.u64("n", a.params.n, b.params.n) ||
        d.f64("side", a.params.side, b.params.side) ||
        d.f64("radius", a.params.radius, b.params.radius) ||
        d.f64("speed", a.params.speed, b.params.speed) ||
        d.u64("model", static_cast<std::uint64_t>(a.model),
              static_cast<std::uint64_t>(b.model)) ||
        d.f64("walk_step_radius", a.model_opts.walk_step_radius,
              b.model_opts.walk_step_radius) ||
        d.f64("direction_max_leg", a.model_opts.direction_max_leg,
              b.model_opts.direction_max_leg) ||
        d.u64("mode", static_cast<std::uint64_t>(a.mode),
              static_cast<std::uint64_t>(b.mode)) ||
        d.f64("gossip_p", a.gossip_p, b.gossip_p) ||
        d.u64("source", static_cast<std::uint64_t>(a.source),
              static_cast<std::uint64_t>(b.source)) ||
        d.u64("seed", a.seed, b.seed) ||
        d.boolean("stationary_start", a.stationary_start, b.stationary_start) ||
        d.f64("warmup_time", a.warmup_time, b.warmup_time) ||
        d.u64("max_steps", a.max_steps, b.max_steps) ||
        d.boolean("record_timeline", a.record_timeline, b.record_timeline) ||
        d.boolean("with_cell_partition", a.with_cell_partition, b.with_cell_partition) ||
        d.u64("stop.how", static_cast<std::uint64_t>(a.spread.stop.how),
              static_cast<std::uint64_t>(b.spread.stop.how)) ||
        d.f64("stop.fraction", a.spread.stop.fraction, b.spread.stop.fraction) ||
        d.u64("stop.steps", a.spread.stop.steps, b.spread.stop.steps) ||
        d.u64("messages.size", a.spread.messages.size(), b.spread.messages.size())) {
        return true;
    }
    if (diff_trace(d, a, b)) {
        return true;
    }
    for (std::size_t i = 0; i < a.spread.messages.size(); ++i) {
        const auto& ma = a.spread.messages[i];
        const auto& mb = b.spread.messages[i];
        if (diff_source_spec(d, ma.sources, mb.sources) ||
            d.u64("spawn_step", ma.spawn_step, mb.spawn_step) ||
            d.u64("message.mode", static_cast<std::uint64_t>(ma.mode),
                  static_cast<std::uint64_t>(mb.mode)) ||
            d.f64("message.gossip_p", ma.gossip_p, mb.gossip_p) ||
            d.u64("gossip_seed", ma.gossip_seed, mb.gossip_seed) ||
            d.u64("source_seed", ma.source_seed, mb.source_seed)) {
            return true;
        }
    }
    return false;
}

}  // namespace

std::string first_spec_difference(std::span<const sweep_point> a,
                                  std::size_t repetitions_a,
                                  std::span<const sweep_point> b,
                                  std::size_t repetitions_b) {
    diff_finder d;
    if (d.u64("repetitions", repetitions_a, repetitions_b) ||
        d.u64("points", a.size(), b.size())) {
        return d.found;
    }
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (diff_scenario(d, a[i].sc, b[i].sc)) {
            return "point " + std::to_string(i) + ": " + d.found;
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
           "\nfingerprint " + hex64(manifest.fingerprint) + "\npoints " +
           std::to_string(manifest.points) + "\nrepetitions " +
           std::to_string(manifest.repetitions) + "\n";
}

/// One self-checked ledger line: the record's fields, then the FNV-1a
/// digest of everything before it.
std::string record_line(const replica_record& rec) {
    std::string line = "record " + std::to_string(rec.point) + ' ' +
                       std::to_string(rec.replica) + ' ' +
                       hex64(std::bit_cast<std::uint64_t>(rec.stat.time)) + ' ' +
                       (rec.stat.completed ? '1' : '0') + ' ' +
                       (rec.stat.cz_step ? std::to_string(*rec.stat.cz_step) : std::string{"-"}) +
                       ' ' + hex64(std::bit_cast<std::uint64_t>(rec.stat.suburb_diameter)) +
                       ' ' + hex64(std::bit_cast<std::uint64_t>(rec.stat.wall_seconds)) + ' ' +
                       std::to_string(rec.stat.message_times.size());
    for (const double t : rec.stat.message_times) {
        line += ' ' + hex64(std::bit_cast<std::uint64_t>(t));
    }
    for (const std::uint8_t c : rec.stat.message_completed) {
        line += c != 0 ? " 1" : " 0";
    }
    line += ' ' + hex64(line_digest(line)) + '\n';
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
    return line.substr(space + 1) == hex64(line_digest(body));
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
    (void)manifest.by_point();  // range/duplicate validation
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
        throw manifest_error(std::string{e.what()} + " (file '" + path + "')");
    }
}

checkpoint_ledger::checkpoint_ledger(run_manifest manifest, std::string path,
                                     std::size_t checkpoint_every)
    : manifest_(std::move(manifest)),
      log_(std::move(path), header_text(manifest_), "ledger.publish"),
      checkpoint_every_(checkpoint_every == 0 ? 1 : checkpoint_every) {}

void checkpoint_ledger::record(std::size_t point, std::size_t replica, replica_stat stat) {
    const std::lock_guard<std::mutex> lock(mutex_);
    manifest_.records.push_back({point, replica, std::move(stat)});
    const fault::outcome due = fault::hit("ledger.record");
    if (due.act == fault::action::crash) {
        // Crash injection for the CI resume/chaos smokes: publish while
        // still holding the lock (keeping the on-disk record count exactly
        // the fatal hit number — no concurrent record can slip in), then die
        // exactly like an external `kill -9`: no stack unwinding, no sink
        // finish(), no final flush.
        publish_locked(true);
    }
    fault::act("ledger.record", due);  // crash / fail / delay
    // Every checkpoint_every records, also while a failed publish keeps
    // earlier records pending (a broken disk is retried at the cadence, not
    // on every record).
    if ((manifest_.records.size() - published_) % checkpoint_every_ == 0) {
        publish_locked(false);
    }
}

void checkpoint_ledger::flush() {
    const std::lock_guard<std::mutex> lock(mutex_);
    publish_locked(true);
}

void checkpoint_ledger::publish_locked(bool surface_errors) {
    std::string lines;
    for (std::size_t i = published_; i < manifest_.records.size(); ++i) {
        lines += record_line(manifest_.records[i]);
    }
    if (log_.publish(lines, surface_errors)) {
        published_ = manifest_.records.size();
    }
}

}  // namespace manhattan::engine
