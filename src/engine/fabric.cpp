#include "engine/fabric.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "codec/json.h"
#include "core/scenario.h"
#include "engine/fault.h"
#include "engine/sink.h"
#include "engine/thread_pool.h"

namespace fs = std::filesystem;

namespace manhattan::engine {

namespace {

// ------------------------------------------------------------- file utils --

/// The first member of every sweep.spec: the file format and its version.
constexpr const char* spec_format = "manhattan-fabric v2";

[[noreturn]] void corrupt(const std::string& what) {
    throw error(errc::state, "fabric: " + what);
}

/// Whole file, or nullopt when it cannot be read (vanished, permissions).
std::optional<std::string> slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        return std::nullopt;
    }
    return std::string{std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>()};
}

// ------------------------------------------------------------- dir layout --

std::string batch_name(std::size_t b) { return "batch-" + std::to_string(b); }
std::string pair_name(std::size_t p, std::size_t r) {
    return "pair-" + std::to_string(p) + "-" + std::to_string(r);
}
std::string ledger_name(const std::string& owner) { return "ledger-" + owner + ".manifest"; }

std::string spec_path(const std::string& dir) { return dir + "/sweep.spec"; }
std::string lease_path(const std::string& dir, std::size_t b) {
    return dir + "/leases/" + batch_name(b) + ".lease";
}
std::string pair_quarantine_path(const std::string& dir, std::size_t p, std::size_t r) {
    return dir + "/quarantine/" + pair_name(p, r);
}
std::string batch_quarantine_path(const std::string& dir, std::size_t b) {
    return dir + "/quarantine/" + batch_name(b);
}
std::string ledger_path(const std::string& dir, const std::string& owner) {
    return dir + "/" + ledger_name(owner);
}

/// Flat pair range [first, last) of batch \p b.
std::pair<std::size_t, std::size_t> batch_pairs(const fabric_spec& spec, std::size_t b) {
    const std::size_t first = b * spec.batch;
    return {first, std::min(spec.pair_count(), first + spec.batch)};
}

// -------------------------------------------------------------- lease file --

struct lease_info {
    std::string owner;
    std::size_t attempts = 0;
};

/// Tolerant parse of a lease/tomb body: a torn or corrupt file yields
/// nullopt and the claim logic falls back to mtime-only staleness — a
/// garbage lease must never wedge the fabric.
std::optional<lease_info> parse_lease(const std::string& text) {
    std::istringstream in(text);
    lease_info info;
    std::string key;
    if (!(in >> key) || key != "owner" || !(in >> info.owner)) {
        return std::nullopt;
    }
    unsigned long long attempts = 0;
    if (!(in >> key) || key != "attempts" || !(in >> attempts)) {
        return std::nullopt;
    }
    info.attempts = attempts;
    return info;
}

/// Create \p path with O_CREAT|O_EXCL and write \p content durably.
/// Returns false when the file already exists (lost the race) or on any
/// I/O failure (the half-made file is removed).
bool create_exclusive(const std::string& path, const std::string& content) {
    const int fd = ::open(path.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
    if (fd < 0) {
        return false;
    }
    std::size_t off = 0;
    bool ok = true;
    while (off < content.size()) {
        const ssize_t n = ::write(fd, content.data() + off, content.size() - off);
        if (n <= 0) {
            ok = false;
            break;
        }
        off += static_cast<std::size_t>(n);
    }
    ok = ok && ::fsync(fd) == 0;
    ::close(fd);
    if (!ok) {
        ::unlink(path.c_str());
    }
    return ok;
}

/// Try to acquire batch \p b's lease. Returns the claim's attempts counter
/// (>= 1) on success, 0 when the lease is held by a live owner or the race
/// was lost. A stale lease (heartbeat older than \p ttl) — or one left by a
/// previous incarnation of this same owner — is reclaimed: rename to the
/// tomb (exactly one reclaimer wins the rename), carry `attempts` over, and
/// recreate with attempts+1. The tomb survives a crash between rename and
/// recreate, so the counter is never lost.
std::size_t try_claim(const std::string& dir, std::size_t b, const std::string& owner,
                      std::chrono::milliseconds ttl) {
    fault::inject("lease.acquire");
    const std::string lease = lease_path(dir, b);
    const std::string tomb = dir + "/leases/" + batch_name(b) + ".tomb";

    std::error_code ec;
    const auto mtime = fs::last_write_time(lease, ec);
    if (!ec) {
        std::optional<lease_info> info;
        if (const auto text = slurp(lease)) {
            info = parse_lease(*text);
        }
        const bool ours = info && info->owner == owner;
        const bool stale = fs::file_time_type::clock::now() - mtime > ttl;
        if (!ours && !stale) {
            return 0;  // live lease held by another worker
        }
        ::rename(lease.c_str(), tomb.c_str());  // a loser's ENOENT is fine
    }
    std::size_t prev = 0;
    if (const auto tomb_text = slurp(tomb)) {
        if (const auto info = parse_lease(*tomb_text)) {
            prev = info->attempts;
        }
    }
    const std::size_t attempts = prev + 1;
    const std::string content =
        "owner " + owner + "\nattempts " + std::to_string(attempts) + "\n";
    if (!create_exclusive(lease, content)) {
        return 0;  // another claimer won the recreate
    }
    ::unlink(tomb.c_str());  // counter consumed into the live lease
    return attempts;
}

// ----------------------------------------------------- worker shared state --

/// Pairs currently executing, for the deadline watchdog.
class running_registry {
 public:
    void begin(std::size_t p, std::size_t r) {
        const std::lock_guard<std::mutex> lock(m_);
        started_[{p, r}] = std::chrono::steady_clock::now();
    }
    void end(std::size_t p, std::size_t r) {
        const std::lock_guard<std::mutex> lock(m_);
        started_.erase({p, r});
    }
    /// Pairs running longer than \p deadline (each reported once).
    std::vector<std::pair<std::size_t, std::size_t>> overdue(
        std::chrono::milliseconds deadline) {
        const auto now = std::chrono::steady_clock::now();
        const std::lock_guard<std::mutex> lock(m_);
        std::vector<std::pair<std::size_t, std::size_t>> out;
        for (const auto& [pair, start] : started_) {
            if (now - start > deadline && fired_.insert(pair).second) {
                out.push_back(pair);
            }
        }
        return out;
    }

 private:
    std::mutex m_;
    std::map<std::pair<std::size_t, std::size_t>,
             std::chrono::steady_clock::time_point> started_;
    std::set<std::pair<std::size_t, std::size_t>> fired_;
};

/// Heartbeat + watchdog thread: refreshes the held lease's mtime (the
/// liveness signal other workers read) and fires the deadline action for
/// stuck replicas. A missed renewal is reported, not fatal — the worst
/// outcome is a spurious reclaim, and duplicated records merge cleanly.
class heartbeat {
 public:
    heartbeat(std::chrono::milliseconds ttl, std::chrono::milliseconds deadline,
              running_registry* registry,
              std::function<void(std::size_t, std::size_t)> deadline_action)
        : interval_(std::max<std::chrono::milliseconds>(
              std::chrono::milliseconds(1), ttl / 3)),
          deadline_(deadline),
          registry_(registry),
          deadline_action_(std::move(deadline_action)),
          thread_([this] { loop(); }) {}

    ~heartbeat() {
        {
            const std::lock_guard<std::mutex> lock(m_);
            quit_ = true;
        }
        cv_.notify_all();
        thread_.join();
    }

    void hold(std::string lease) {
        const std::lock_guard<std::mutex> lock(m_);
        held_ = std::move(lease);
    }
    void release() { hold({}); }

 private:
    void loop() {
        std::unique_lock<std::mutex> lock(m_);
        while (!quit_) {
            cv_.wait_for(lock, interval_);
            if (quit_) {
                return;
            }
            const std::string held = held_;
            lock.unlock();
            if (!held.empty()) {
                try {
                    fault::inject("lease.renew");
                    std::error_code ec;
                    fs::last_write_time(held, fs::file_time_type::clock::now(), ec);
                    if (ec) {
                        throw error(errc::io, "lease renew failed for '" + held + "'",
                                    true);
                    }
                } catch (const error& e) {
                    // Missed heartbeat: survivable (see class comment).
                    std::fprintf(stderr, "fabric[heartbeat]: %s\n", e.what());
                }
            }
            if (deadline_.count() > 0 && registry_ != nullptr) {
                for (const auto& [p, r] : registry_->overdue(deadline_)) {
                    deadline_action_(p, r);
                }
            }
            lock.lock();
        }
    }

    std::chrono::milliseconds interval_;
    std::chrono::milliseconds deadline_;
    running_registry* registry_;
    std::function<void(std::size_t, std::size_t)> deadline_action_;
    std::mutex m_;
    std::condition_variable cv_;
    bool quit_ = false;
    std::string held_;
    std::thread thread_;  // last member: starts after everything it reads
};

void write_pair_quarantine(const std::string& dir, const std::string& owner,
                           std::size_t p, std::size_t r, const std::string& reason) {
    try {
        with_retry(backoff_policy{}, "quarantine publish", [&] {
            atomic_write_file(pair_quarantine_path(dir, p, r),
                              "owner " + owner + "\nreason " + reason + "\n");
        });
    } catch (const error& e) {
        // Best-effort: an unquarantinable pair is retried by later claimers.
        std::fprintf(stderr, "fabric: cannot quarantine pair (%zu, %zu): %s\n", p, r,
                     e.what());
    }
}

/// A worker ledger, refused (class state) unless it belongs to \p spec.
run_manifest load_ledger(const std::string& path, const fabric_spec& spec) {
    run_manifest m = load_manifest(path);
    if (m.fingerprint != spec.fingerprint || m.points != spec.points.size() ||
        m.repetitions != spec.repetitions) {
        corrupt("ledger '" + path + "' does not match this fabric's sweep.spec — stale "
                "directory or another sweep's file");
    }
    return m;
}

/// What DIR's files say about each (point, replica) pair, by flat pair index.
struct coverage {
    std::unordered_map<std::size_t, replica_stat> records;
    std::vector<std::uint8_t> quarantined;

    [[nodiscard]] bool covers(std::size_t flat) const {
        return quarantined[flat] != 0 || records.contains(flat);
    }
};

/// The one answer to "is this (point, replica) done?", for workers and the
/// merge alike: the union of every ledger-<owner>.manifest in DIR (except
/// \p skip_owner's, whose records a worker holds in memory) plus every
/// quarantine marker, batch markers expanded to their pairs. Files count by
/// exact name only, so the temp file of an interrupted publish never does.
/// A pair several ledgers record must agree on every field but wall_seconds:
/// records are deterministic (a reclaimed batch recomputes the same bits),
/// so a disagreement is mixed-up state and throws engine::error (class
/// state), as does a ledger that is corrupt or belongs to another sweep.
coverage scan_coverage(const std::string& dir, const fabric_spec& spec,
                       const std::string& skip_owner = {}) {
    const std::size_t reps = spec.repetitions;
    coverage cov;
    cov.quarantined.resize(spec.pair_count());

    std::vector<std::string> ledgers;
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(dir, ec)) {
        // ledger-<owner>.manifest for a non-empty owner: a publish's temp
        // file (ledger-<owner>.manifest.tmp) never matches.
        const std::string name = entry.path().filename().string();
        if (name.size() > ledger_name("").size() && name.starts_with("ledger-") &&
            name.ends_with(".manifest") && name != ledger_name(skip_owner)) {
            ledgers.push_back(entry.path().string());
        }
    }
    std::sort(ledgers.begin(), ledgers.end());  // deterministic merge order
    for (const auto& path : ledgers) {
        for (replica_record& rec : load_ledger(path, spec).records) {
            const auto [slot, first] =
                cov.records.try_emplace(rec.point * reps + rec.replica, std::move(rec.stat));
            if (first) {
                continue;
            }
            // wall_seconds is the one field a recompute may change.
            rec.stat.wall_seconds = slot->second.wall_seconds;
            if (slot->second != rec.stat) {
                throw error(errc::state,
                            "fabric: ledgers disagree on point " + std::to_string(rec.point) +
                                " replica " + std::to_string(rec.replica) + " ('" + path +
                                "' vs an earlier ledger) — non-deterministic or mixed-up "
                                "state");
            }
        }
    }

    for (const auto& entry : fs::directory_iterator(dir + "/quarantine", ec)) {
        const std::string name = entry.path().filename().string();
        std::size_t p = 0;
        std::size_t r = 0;
        std::size_t b = 0;
        if (std::sscanf(name.c_str(), "pair-%zu-%zu", &p, &r) == 2 &&
            name == pair_name(p, r) && p < spec.points.size() && r < reps) {
            cov.quarantined[p * reps + r] = 1;
        } else if (std::sscanf(name.c_str(), "batch-%zu", &b) == 1 && name == batch_name(b) &&
                   b < spec.batch_count()) {
            const auto [first, last] = batch_pairs(spec, b);
            std::fill(cov.quarantined.begin() + first, cov.quarantined.begin() + last, 1);
        }
    }
    return cov;
}

}  // namespace

// ------------------------------------------------------------ spec on disk --

std::string serialize_fabric_spec(const fabric_spec& spec) {
    using codec::json_value;
    json_value doc = json_value::object();
    doc.set("format", json_value::string(spec_format));
    doc.set("fingerprint", json_value::string(fingerprint_hex(spec.fingerprint)));
    doc.set("repetitions", json_value::integer(spec.repetitions));
    doc.set("batch", json_value::integer(spec.batch));
    json_value points = json_value::array();
    for (const auto& point : spec.points) {
        json_value entry = json_value::object();
        entry.set("index", json_value::integer(point.index));
        entry.set("label", json_value::string(point.label));
        entry.set("scenario", codec::encode_scenario(point.sc));
        points.items.push_back(std::move(entry));
    }
    doc.set("points", std::move(points));
    return codec::dump(doc) + "\n";
}

fabric_spec parse_fabric_spec(const std::string& text) {
    fabric_spec spec;
    std::string stored;
    try {
        const codec::json_value doc = codec::parse_json(text);
        const std::string format = codec::str_field(doc, "format");
        if (format != spec_format) {
            corrupt("unsupported spec format '" + format + "'");
        }
        stored = codec::str_field(doc, "fingerprint");
        spec.repetitions = codec::u64_field(doc, "repetitions");
        spec.batch = codec::u64_field(doc, "batch");
        for (const codec::json_value& entry : codec::require(doc, "points").items) {
            sweep_point point;
            point.index = codec::u64_field(entry, "index");
            if (point.index != spec.points.size()) {
                corrupt("points out of order: expected index " +
                        std::to_string(spec.points.size()) + ", got " +
                        std::to_string(point.index));
            }
            point.label = codec::str_field(entry, "label");
            point.sc = codec::decode_scenario(codec::require(entry, "scenario"));
            spec.points.push_back(std::move(point));
        }
    } catch (const codec::wire_error& e) {
        // Truncated, mangled or written in another format (a v1 text spec
        // is not JSON): durable state this binary cannot read.
        corrupt(std::string{"unreadable spec: not a "} + spec_format + " document (" +
                e.what() + ")");
    }
    if (spec.repetitions == 0 || spec.batch == 0) {
        corrupt("repetitions and batch must be positive");
    }
    // The decisive integrity check: the parsed points must re-fingerprint to
    // the stored value, or the spec was edited / truncated / written by an
    // engine with different output semantics.
    spec.fingerprint = sweep_fingerprint(spec.points, spec.repetitions);
    if (fingerprint_hex(spec.fingerprint) != stored) {
        corrupt("fingerprint mismatch: spec says " + stored +
                ", parsed points re-fingerprint to " + fingerprint_hex(spec.fingerprint) +
                " (corrupt spec or incompatible engine version)");
    }
    return spec;
}

fabric_spec init_fabric(const std::string& dir, const sweep_spec& spec, std::size_t batch) {
    fabric_spec out;
    out.points = spec.expand();
    out.repetitions = spec.repetitions;
    out.batch = batch == 0 ? 1 : batch;
    out.fingerprint = sweep_fingerprint(out.points, out.repetitions);

    std::error_code ec;
    fs::create_directories(dir + "/leases", ec);
    fs::create_directories(dir + "/quarantine", ec);
    if (ec) {
        throw error(errc::io, "fabric: cannot create '" + dir + "': " + ec.message(),
                    true);
    }
    if (fs::exists(spec_path(dir))) {
        const fabric_spec existing = load_fabric(dir);
        if (existing.fingerprint != out.fingerprint || existing.batch != out.batch) {
            // Name the first differing spec field: "which digit of the hash
            // changed" is useless for a user deciding whether the directory
            // is stale or their flags drifted.
            std::string detail = first_spec_difference(existing.points, existing.repetitions,
                                                       out.points, out.repetitions);
            if (existing.batch != out.batch) {
                detail = detail.empty() ? "batch size" : detail;
            }
            if (!detail.empty()) {
                detail = "; first difference: " + detail;
            }
            throw error(errc::state,
                        "fabric: '" + dir + "' already holds a different sweep (spec " +
                            fingerprint_hex(existing.fingerprint) + " batch " +
                            std::to_string(existing.batch) + ", this sweep " +
                            fingerprint_hex(out.fingerprint) + " batch " +
                            std::to_string(out.batch) + ") — use a fresh directory per sweep" +
                            detail);
        }
        return existing;
    }
    with_retry(backoff_policy{}, "fabric spec publish", [&] {
        atomic_write_file(spec_path(dir), serialize_fabric_spec(out));
    });
    return out;
}

fabric_spec load_fabric(const std::string& dir) {
    const auto text = slurp(spec_path(dir));
    if (!text) {
        throw error(errc::state, "fabric: no sweep.spec in '" + dir +
                                     "' — run init_fabric (or a bench with --fabric=) "
                                     "first");
    }
    try {
        return parse_fabric_spec(*text);
    } catch (const error& e) {
        throw error(e.cls(), std::string{e.message()} + " (file '" + spec_path(dir) + "')");
    }
}

// ----------------------------------------------------------------- worker --

fabric_report run_fabric_worker(const fabric_options& opts, const run_options& run) {
    if (opts.dir.empty()) {
        throw error(errc::spec, "fabric: dir must be set");
    }
    if (opts.owner.empty() || opts.owner.find('/') != std::string::npos) {
        throw error(errc::spec, "fabric: owner must be a non-empty name without '/'");
    }
    const fabric_spec spec = load_fabric(opts.dir);
    const std::size_t reps = spec.repetitions;
    const std::size_t max_batch_attempts = std::max<std::size_t>(1, opts.max_batch_attempts);
    const std::size_t max_replica_attempts =
        std::max<std::size_t>(1, opts.max_replica_attempts);

    // This worker's ledger: resume our own previous records when restarting
    // under the same owner name.
    const std::string own_ledger = ledger_path(opts.dir, opts.owner);
    run_manifest manifest;
    manifest.fingerprint = spec.fingerprint;
    manifest.points = spec.points.size();
    manifest.repetitions = reps;
    if (fs::exists(own_ledger)) {
        manifest = load_ledger(own_ledger, spec);
    }
    // This worker's records by flat pair index: coverage scans skip its
    // ledger file and read this instead.
    std::vector<std::uint8_t> own(spec.pair_count(), 0);
    for (const auto& rec : manifest.records) {
        own[rec.point * reps + rec.replica] = 1;
    }
    checkpoint_ledger ledger(std::move(manifest), own_ledger);

    std::optional<thread_pool> owned_pool;
    thread_pool& pool = run.pool != nullptr ? *run.pool : owned_pool.emplace(run.threads);
    running_registry registry;
    auto deadline_action = opts.deadline_action;
    if (!deadline_action) {
        // Default: quarantine the poisoned pair on disk, then die without
        // unwinding — exactly like a wedge that got SIGKILLed, except the
        // pair is marked so the reclaiming worker skips it instead of
        // wedging on it again.
        const std::string dir = opts.dir;
        const std::string owner = opts.owner;
        deadline_action = [dir, owner](std::size_t p, std::size_t r) {
            write_pair_quarantine(dir, owner, p, r, "replica exceeded deadline");
            std::fprintf(stderr,
                         "fabric[%s]: replica (%zu, %zu) exceeded its deadline; "
                         "quarantined, terminating\n",
                         owner.c_str(), p, r);
            std::_Exit(exit_code(errc::runtime));
        };
    }
    heartbeat beat(opts.lease_ttl, opts.replica_deadline, &registry,
                   std::move(deadline_action));

    const auto stop_requested = [&] {
        return opts.stop != nullptr && opts.stop->load(std::memory_order_relaxed);
    };

    fabric_report report;
    std::mutex report_mutex;

    while (true) {
        if (stop_requested()) {
            report.stopped = true;
            break;
        }
        // A batch is terminal once every pair in it is recorded or quarantined.
        const coverage at_start = scan_coverage(opts.dir, spec, opts.owner);
        const auto terminal = [&](std::size_t b) {
            const auto [first, last] = batch_pairs(spec, b);
            for (std::size_t flat = first; flat < last; ++flat) {
                if (own[flat] == 0 && !at_start.covers(flat)) {
                    return false;
                }
            }
            return true;
        };
        bool progress = false;
        bool all_terminal = true;
        for (std::size_t b = 0; b < spec.batch_count(); ++b) {
            if (terminal(b)) {
                continue;
            }
            all_terminal = false;
            if (stop_requested()) {
                break;
            }
            std::size_t attempts = 0;
            try {
                attempts = try_claim(opts.dir, b, opts.owner, opts.lease_ttl);
            } catch (const error& e) {
                if (!e.transient()) {
                    throw;
                }
                continue;  // injected/transient claim failure: retry next scan
            }
            if (attempts == 0) {
                continue;  // held by a live worker (their work counts)
            }
            const std::string lease = lease_path(opts.dir, b);
            if (attempts > max_batch_attempts) {
                // This batch has now killed (or lost) that many owners;
                // quarantine it instead of wedging the fabric forever.
                try {
                    with_retry(backoff_policy{}, "batch quarantine publish", [&] {
                        atomic_write_file(batch_quarantine_path(opts.dir, b),
                                          "owner " + opts.owner + "\nattempts " +
                                              std::to_string(attempts) +
                                              "\nreason repeated lease reclaims\n");
                    });
                    ++report.quarantined_batches;
                    progress = true;
                } catch (const error& e) {
                    std::fprintf(stderr, "fabric: cannot quarantine batch %zu: %s\n", b,
                                 e.what());
                }
                ::unlink(lease.c_str());
                continue;
            }
            beat.hold(lease);
            struct release_lease {  // on every way out, the error paths too
                heartbeat& beat;
                const std::string& lease;
                ~release_lease() {
                    beat.release();
                    ::unlink(lease.c_str());
                }
            } release{beat, lease};

            // Drain the batch: run every pair no ledger records and no
            // marker quarantines, rescanned now that the lease is ours.
            const coverage cov = scan_coverage(opts.dir, spec, opts.owner);
            const auto [first, last] = batch_pairs(spec, b);
            std::vector<std::size_t> uncovered;
            for (std::size_t flat = first; flat < last; ++flat) {
                if (own[flat] != 0) {
                    continue;
                }
                if (cov.covers(flat)) {
                    ++report.skipped;  // this thread's field; pairs count fresh
                    continue;
                }
                uncovered.push_back(flat);
            }
            // A throw leaves with the lease released: others re-drain.
            pool.parallel_for(uncovered.size(), [&](std::size_t k) {
                const std::size_t flat = uncovered[k];
                const auto [p, r] = spec.pair(flat);
                registry.begin(p, r);
                struct dereg {  // also on the exception path
                    running_registry* reg;
                    std::size_t p, r;
                    ~dereg() { reg->end(p, r); }
                } guard{&registry, p, r};
                std::string failure;
                for (std::size_t attempt = 1; attempt <= max_replica_attempts; ++attempt) {
                    try {
                        fault::inject("replica.run");
                        core::scenario sc = spec.points[p].sc;
                        sc.seed = replica_seed(sc.seed, r);
                        replica_stat stat = reduce_outcome(core::run_scenario(sc));
                        ledger.record(p, r, std::move(stat));
                        own[flat] = 1;
                        const std::lock_guard<std::mutex> lock(report_mutex);
                        ++report.fresh;
                        return;
                    } catch (const error& e) {
                        failure = e.what();
                        if (!e.transient() || attempt == max_replica_attempts) {
                            break;
                        }
                        std::this_thread::sleep_for(backoff_policy{}.delay(attempt));
                    } catch (const std::exception& e) {
                        failure = e.what();
                        break;  // deterministic failure: retrying cannot help
                    }
                }
                write_pair_quarantine(opts.dir, opts.owner, p, r, failure);
                const std::lock_guard<std::mutex> lock(report_mutex);
                ++report.quarantined_pairs;
            });
            ledger.flush();  // durable before the lease goes
            progress = true;
        }
        if (all_terminal) {
            report.complete = true;
            break;
        }
        if (stop_requested()) {
            report.stopped = true;
            break;
        }
        if (!progress) {
            std::this_thread::sleep_for(opts.poll);
        }
    }
    ledger.flush();
    return report;
}

// ------------------------------------------------------------------ merge --

fabric_merge merge_fabric(const std::string& dir, const fabric_spec& spec) {
    coverage cov = scan_coverage(dir, spec);
    fabric_merge merged;
    merged.manifest.fingerprint = spec.fingerprint;
    merged.manifest.points = spec.points.size();
    merged.manifest.repetitions = spec.repetitions;
    for (std::size_t flat = 0; flat < spec.pair_count(); ++flat) {
        const auto [p, r] = spec.pair(flat);
        if (const auto rec = cov.records.find(flat); rec != cov.records.end()) {
            merged.manifest.records.push_back({p, r, std::move(rec->second)});
        } else if (cov.quarantined[flat] != 0) {
            merged.quarantined.push_back({p, r});
        } else {
            merged.missing.push_back({p, r});
        }
    }
    return merged;
}

std::size_t replay_rows(std::span<const sweep_point> points, const run_manifest& manifest,
                        std::span<result_sink* const> sinks, bool allow_partial) {
    if (manifest.points != points.size()) {
        corrupt("manifest covers " + std::to_string(manifest.points) +
                " points, the sweep has " + std::to_string(points.size()));
    }
    const std::size_t reps = manifest.repetitions;
    const auto table = manifest.by_point();
    std::size_t rows = 0;
    for (std::size_t p = 0; p < points.size(); ++p) {
        std::vector<replica_stat> stats;
        stats.reserve(reps);
        for (std::size_t r = 0; r < reps; ++r) {
            if (table[p][r] == nullptr) {
                break;
            }
            stats.push_back(table[p][r]->stat);
        }
        if (stats.size() != reps) {
            if (allow_partial) {
                continue;
            }
            throw error(errc::state,
                        "fabric: point " + std::to_string(p) + " ('" + points[p].label +
                            "') is incomplete (" + std::to_string(stats.size()) + "/" +
                            std::to_string(reps) +
                            " replicas) — rerun the workers or pass allow_partial");
        }
        const sweep_row row = aggregate_sweep_row(points[p], stats);
        for (result_sink* sink : sinks) {
            sink->on_row(row);
        }
        ++rows;
    }
    return rows;
}

}  // namespace manhattan::engine
