/// \file bench_common.h
/// Shared boilerplate for the experiment binaries: standard-case parameter
/// construction, headers, and PASS/FAIL verdict lines. Every binary accepts
/// --key=value overrides (see each main() for its knobs).
#pragma once

#include <cctype>
#include <cmath>
#include <cstdio>
#include <map>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include <memory>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>

#include "core/params.h"
#include "core/scenario.h"
#include "engine/error.h"
#include "engine/fabric.h"
#include "engine/progress.h"
#include "engine/runner.h"
#include "engine/sink.h"
#include "engine/sweep.h"
#include "engine/thread_pool.h"
#include "engine/trace_sink.h"
#include "geom/street_graph.h"
#include "util/cli.h"
#include "util/table.h"
#include "util/telemetry.h"
#include "util/timer.h"

namespace manhattan::bench {

/// Print the experiment banner (id + which paper artifact it regenerates).
inline void banner(const std::string& experiment_id, const std::string& artifact) {
    std::printf("## %s — %s\n\n", experiment_id.c_str(), artifact.c_str());
}

/// Shared exit-code contract of every bench binary (docs/WORKLOADS.md):
///   0  success (and, for verdict benches, PASS)
///   1  ran to completion but the paper's qualitative shape did not hold
///   2  specification error (bad flags, malformed sweep spec)
///   3  runtime failure
///   4  I/O failure after retries
///   5  corrupted persistent state (manifest/lease mismatch)
///   6  partial result (e.g. sweep-merge without full coverage)
/// Wrap the whole of main in guarded_main: it parses the CLI, runs \p body,
/// and maps every escaping exception onto this taxonomy (engine/error.h) so
/// scripts and CI can branch on *why* a bench failed, not just that it did.
/// Marker thrown by run_sweep_auto once `--fingerprint` has printed its
/// digest: unwinds the bench without running a single replica; guarded_main
/// maps it to exit 0. Not an error type on purpose — nothing but
/// guarded_main may swallow it.
struct fingerprint_printed {};

namespace detail {
/// Set by guarded_main when --fingerprint is present (process-wide: one CLI
/// per process).
inline bool fingerprint_only = false;
}  // namespace detail

template <typename Fn>
int guarded_main(int argc, char** argv, Fn&& body) {
    try {
        const util::cli_args args(argc, argv);
        detail::fingerprint_only = args.has("fingerprint");
        return body(args);
    } catch (const fingerprint_printed&) {
        return 0;
    } catch (const engine::fabric_partial& e) {
        std::fprintf(stderr, "partial: %s\n", e.what());
        return engine::exit_partial;
    } catch (const engine::error& e) {
        std::fprintf(stderr, "error [%s]: %s\n", engine::errc_name(e.cls()), e.message());
        return engine::exit_code(e.cls());
    } catch (const std::exception& e) {
        const engine::errc cls = engine::classify(e);
        std::fprintf(stderr, "error [%s]: %s\n", engine::errc_name(cls), e.what());
        return engine::exit_code(cls);
    }
}

/// Diagnostic / progress output ("wrote results.csv", skipped-case notes,
/// environment warnings). Always stderr: stdout is the report the
/// EXPERIMENTS.md tables are cut from, and `bench 2>/dev/null` must yield it
/// byte-for-byte regardless of observability flags.
inline void note(const std::string& line) {
    std::fprintf(stderr, "%s\n", line.c_str());
}

/// Print a verdict line summarising whether the paper's qualitative shape
/// held. These are the lines EXPERIMENTS.md records.
inline void verdict(bool pass, const std::string& criterion) {
    std::printf("\n**%s** — %s\n\n", pass ? "PASS" : "FAIL", criterion.c_str());
}

/// Standard case of the paper: L = sqrt(n), R = c1 sqrt(ln n).
inline core::net_params standard_params(std::size_t n, double c1, double speed) {
    const double radius = c1 * std::sqrt(std::log(static_cast<double>(n)));
    return core::net_params::standard_case(n, radius, speed);
}

/// The paper's slow-mobility default speed for a given radius (Ineq. 8).
inline double default_speed(double radius) {
    return core::paper::speed_bound(radius);
}

/// A non-negative CLI count (a negative value would wrap through size_t
/// into an absurd allocation; fail with the flag's name instead).
inline std::size_t count_arg(const util::cli_args& args, const std::string& key,
                             long long fallback) {
    const long long value = args.get_int(key, fallback);
    if (value < 0) {
        throw std::invalid_argument("--" + key + " must be non-negative, got " +
                                    std::to_string(value));
    }
    return static_cast<std::size_t>(value);
}

/// Engine execution knobs every binary shares: `--threads=` (0 = all cores)
/// and `--chunk=` (replicas per work unit). Results are identical for any
/// value of either — they only change wall-clock time.
inline engine::run_options engine_options(const util::cli_args& args) {
    engine::run_options opts;
    opts.threads = count_arg(args, "threads", 0);
    opts.chunk = count_arg(args, "chunk", 1);
    return opts;
}

/// Replica count: `--reps=` with `--seeds=` as a legacy alias.
inline std::size_t replicas(const util::cli_args& args, long long fallback) {
    return count_arg(args, "reps", args.get_int("seeds", fallback));
}

/// Parse a comma-separated integer list (`--n=10000,31623`, `--sources=1,4`).
/// Throws std::invalid_argument (naming \p flag) on an empty list, an empty
/// element, or a non-comma separator.
inline std::vector<long long> parse_list(const std::string& flag, const std::string& text) {
    const auto malformed = [&]() {
        return std::invalid_argument("--" + flag + ": malformed list '" + text + "'");
    };
    if (text.empty()) {
        throw std::invalid_argument("--" + flag + ": empty list");
    }
    std::vector<long long> out;
    std::size_t pos = 0;
    while (true) {
        std::size_t used = 0;
        try {
            out.push_back(std::stoll(text.substr(pos), &used));
        } catch (const std::exception&) {
            throw malformed();
        }
        pos += used;
        if (pos == text.size()) {
            return out;
        }
        if (text[pos] != ',') {
            throw malformed();
        }
        pos += 1;
        if (pos == text.size()) {
            throw malformed();  // trailing comma = empty last element
        }
    }
}

/// Parse a `--source=` value into a source spec:
///   - `random` / `center` / `corner` (SW) / `corner_ne` / `corner_nw` /
///     `corner_se`: placement rules, optional `:K` suffix for the K agents
///     nearest the target (e.g. `center:4`);
///   - `sample:K`: K agents drawn uniformly from the scenario's source seed;
///   - a comma-separated id list (e.g. `3,17,42`): those exact agents.
/// Throws std::invalid_argument on anything else.
inline core::source_spec parse_source(const std::string& text) {
    if (!text.empty() && (std::isdigit(static_cast<unsigned char>(text.front())) != 0)) {
        std::vector<std::size_t> ids;
        for (const long long id : parse_list("source", text)) {
            if (id < 0) {
                throw std::invalid_argument("--source: agent ids must be non-negative");
            }
            ids.push_back(static_cast<std::size_t>(id));
        }
        return core::source_spec::agents(std::move(ids));
    }
    std::string name = text;
    std::size_t count = 1;
    if (const std::size_t colon = text.find(':'); colon != std::string::npos) {
        name = text.substr(0, colon);
        // One full number and nothing else after the colon ("center:4x"
        // hides a typo; reject it like any other malformed value).
        const std::string suffix = text.substr(colon + 1);
        long long parsed = 0;
        std::size_t used = 0;
        try {
            parsed = std::stoll(suffix, &used);
        } catch (const std::exception&) {
            throw std::invalid_argument("--source: malformed count in '" + text + "'");
        }
        if (used != suffix.size() || parsed <= 0) {
            throw std::invalid_argument("--source: malformed count in '" + text + "'");
        }
        count = static_cast<std::size_t>(parsed);
    }
    if (name == "sample") {
        return core::source_spec::random(count);
    }
    static const std::map<std::string, core::source_placement> placements = {
        {"random", core::source_placement::random_agent},
        {"center", core::source_placement::center_most},
        {"corner", core::source_placement::corner_most},
        {"corner_sw", core::source_placement::corner_most},
        {"corner_ne", core::source_placement::corner_ne},
        {"corner_nw", core::source_placement::corner_nw},
        {"corner_se", core::source_placement::corner_se},
    };
    const auto it = placements.find(name);
    if (it == placements.end()) {
        throw std::invalid_argument("--source: unknown placement '" + text + "'");
    }
    return core::source_spec::at(it->second, count);
}

/// Human name of a placement rule (labels in source-contrast benches).
inline const char* placement_name(core::source_placement p) {
    switch (p) {
        case core::source_placement::random_agent:
            return "random";
        case core::source_placement::center_most:
            return "center";
        case core::source_placement::corner_most:
            return "corner";
        case core::source_placement::corner_ne:
            return "corner_ne";
        case core::source_placement::corner_nw:
            return "corner_nw";
        case core::source_placement::corner_se:
            return "corner_se";
    }
    return "?";
}

/// Placement list for benches that contrast several source positions: a
/// `--source=` placement name collapses the contrast to that placement;
/// otherwise the bench's default list. (Non-placement specs — id lists,
/// `sample:K` — don't name a contrast column and are rejected here.)
inline std::vector<core::source_placement> source_contrast(
    const util::cli_args& args, std::vector<core::source_placement> fallback) {
    if (!args.has("source")) {
        return fallback;
    }
    const core::source_spec spec = parse_source(args.get_string("source", ""));
    if (spec.how != core::source_spec::kind::placement) {
        throw std::invalid_argument(
            "--source: this bench contrasts source placements; pass a placement name");
    }
    if (spec.count != 1) {
        throw std::invalid_argument(
            "--source: this bench floods from a single agent; drop the :" +
            std::to_string(spec.count) + " count suffix");
    }
    return {spec.placement};
}

/// Apply the shared `--source=` flag (see parse_source) to a scenario: the
/// spread workload is materialised and every message's source spec replaced.
/// Placement names also update the legacy `scenario::source` field so sweep
/// labels stay consistent. No-op when the flag is absent.
inline void apply_source(const util::cli_args& args, core::scenario& sc) {
    if (!args.has("source")) {
        return;
    }
    const core::source_spec spec = parse_source(args.get_string("source", ""));
    sc.spread = sc.effective_spread();
    for (auto& msg : sc.spread.messages) {
        msg.sources = spec;
    }
    if (spec.how == core::source_spec::kind::placement) {
        sc.source = spec.placement;
    }
}

/// A parsed `--topology=` value (see parse_topology_flag):
///   - `grid`: the paper's Manhattan grid (the default everywhere);
///   - `streets[:BLOCKS][:ratio=R][:blocked=F]`: a street plan with BLOCKS
///     blocks per axis (default 8), geometric block-size ratio R (default
///     1 = uniform; street_graph_spec::graded), and fraction F of its
///     segments blocked (connectivity-preserving, seeded —
///     geom::with_blocked_fraction).
struct topology_flag {
    bool streets = false;      ///< false: the grid (no-op)
    std::int32_t blocks = 8;
    double ratio = 1.0;
    double blocked = 0.0;
};

/// Parse a `--topology=` value. Throws std::invalid_argument on anything
/// other than the grammar above.
inline topology_flag parse_topology_flag(const std::string& text) {
    if (text == "grid") {
        return {};
    }
    std::vector<std::string> parts;
    for (std::size_t start = 0; start <= text.size();) {
        const std::size_t colon = text.find(':', start);
        const std::size_t end = colon == std::string::npos ? text.size() : colon;
        parts.push_back(text.substr(start, end - start));
        start = end + 1;
        if (colon == std::string::npos) {
            break;
        }
    }
    if (parts.empty() || parts.front() != "streets") {
        throw std::invalid_argument("--topology: expected 'grid' or 'streets[:...]', got '" +
                                    text + "'");
    }
    topology_flag flag;
    flag.streets = true;
    const auto number = [&text](const std::string& part, const std::string& what) {
        try {
            std::size_t used = 0;
            const double value = std::stod(part, &used);
            if (used != part.size()) {
                throw std::invalid_argument(what);
            }
            return value;
        } catch (const std::exception&) {
            throw std::invalid_argument("--topology: malformed " + what + " in '" + text +
                                        "'");
        }
    };
    for (std::size_t i = 1; i < parts.size(); ++i) {
        const std::string& part = parts[i];
        if (part.rfind("ratio=", 0) == 0) {
            flag.ratio = number(part.substr(6), "ratio");
        } else if (part.rfind("blocked=", 0) == 0) {
            flag.blocked = number(part.substr(8), "blocked fraction");
        } else {
            const double value = number(part, "block count");
            flag.blocks = static_cast<std::int32_t>(value);
            if (static_cast<double>(flag.blocks) != value || flag.blocks < 1) {
                throw std::invalid_argument("--topology: block count must be a positive "
                                            "integer in '" + text + "'");
            }
        }
    }
    return flag;
}

/// Build the concrete topology a parsed `--topology=` value describes over
/// [0, side]^2 (the blocked-segment draw seeded by \p seed).
inline geom::topology_spec parse_topology(const std::string& text, double side,
                                          std::uint64_t seed) {
    const topology_flag flag = parse_topology_flag(text);
    if (!flag.streets) {
        return geom::topology_spec::manhattan();
    }
    geom::street_graph_spec plan =
        geom::street_graph_spec::graded(side, flag.blocks, flag.ratio);
    if (flag.blocked > 0.0) {
        plan = geom::with_blocked_fraction(std::move(plan), flag.blocked, seed);
    }
    return geom::topology_spec::streets(std::move(plan));
}

/// Apply the shared `--topology=` flag to a sweep spec by arming the
/// topology axes (street_blocks + block_ratio + blocked_fraction):
/// expansion then materialises the plan per grid point over that point's
/// own square — exactly what standard-case sweeps need, where L = sqrt(n)
/// varies along the n axis — seeding each point's blocked-segment draw
/// from its base seed. No-op when the flag is absent or `grid` — every
/// bench keeps its pure-grid default (and its exact fingerprint).
inline void apply_topology(const util::cli_args& args, engine::sweep_spec& spec) {
    if (!args.has("topology")) {
        return;
    }
    const topology_flag flag = parse_topology_flag(args.get_string("topology", ""));
    if (!flag.streets) {
        return;
    }
    spec.street_blocks = flag.blocks;
    spec.block_ratio = {flag.ratio};
    if (flag.blocked > 0.0) {
        spec.blocked_fraction = {flag.blocked};
    }
}

/// Deterministic sharded sampling: fan \p shards independent jobs over the
/// pool, each handed its splitmix-derived seed (engine::replica_seeds) and a
/// balanced share of \p total. Write results into per-shard slots and merge
/// them in shard order — the tallies are then a pure function of
/// (seed, shards, total), independent of thread count.
template <typename Fn>
void sharded_sample(engine::thread_pool& pool, std::size_t shards, std::uint64_t seed,
                    std::size_t total, Fn&& fn) {
    const auto shard_seeds = engine::replica_seeds(seed, shards);
    pool.parallel_for(shards, [&](std::size_t s) {
        const std::size_t quota = total / shards + (s < total % shards ? 1 : 0);
        fn(s, shard_seeds[s], quota);
    });
}

/// Checkpoint/restart knob shared by every sweep binary (engine/manifest.h,
/// docs/ENGINE.md): `--resume=PATH` arms checkpointing to PATH and resumes
/// from it when the file exists. Binaries that run several sweeps call
/// next() once per run_sweep, in a fixed order — each sweep gets its own
/// manifest (PATH, PATH.2, PATH.3, ...), so resuming a multi-sweep binary
/// replays the earlier sweeps from their ledgers.
class checkpointer {
 public:
    explicit checkpointer(const util::cli_args& args) : path_(args.get_string("resume", "")) {}

    /// Options for the next run_sweep call of this binary.
    [[nodiscard]] engine::checkpoint_options next() {
        engine::checkpoint_options opts;
        ++sweep_;
        if (!path_.empty()) {
            opts.manifest_path =
                sweep_ == 1 ? path_ : path_ + "." + std::to_string(sweep_);
        }
        return opts;
    }

 private:
    std::string path_;
    std::size_t sweep_ = 0;
};

/// Observability knobs shared by every sweep binary (docs/OBSERVABILITY.md):
///   --telemetry          enable the process-wide instrument switch
///                        (util/telemetry.h) without writing a trace;
///   --trace=FILE         JSONL event stream (engine/trace_sink.h); implies
///                        --telemetry so phase timings are non-zero;
///   --progress           live progress/ETA line on stderr.
/// None of these affect results: flood/spread outputs are bit-identical with
/// any combination on or off. Binaries that run several sweeps call arm()
/// once per run_sweep and sweep_done() after it, in order — every sweep
/// appends to the same trace file, labelled by its sweep id.
class telemetry_set {
 public:
    /// Throws std::invalid_argument when --trace= cannot be written.
    explicit telemetry_set(const util::cli_args& args)
        : progress_flag_(args.has("progress")) {
        if (args.has("trace")) {
            trace_.emplace(args.get_string("trace", ""));
        }
        if (args.has("telemetry") || args.has("trace")) {
            util::telemetry::set_enabled(true);
        }
    }

    /// Arm one run_sweep call: attach the trace sink and (with --progress) a
    /// fresh reporter sized to \p spec's grid.
    void arm(engine::run_options& opts, const engine::sweep_spec& spec) {
        if (trace_) {
            opts.trace = &*trace_;
        }
        if (progress_flag_) {
            const std::size_t points = spec.expand().size();
            progress_ = std::make_unique<engine::progress_reporter>(
                points, points * spec.repetitions);
            opts.progress = progress_.get();
        }
    }

    /// Close out the armed sweep (terminates the live progress line).
    void sweep_done() {
        if (progress_ != nullptr) {
            progress_->finish();
            progress_.reset();
        }
    }

 private:
    bool progress_flag_;
    std::optional<engine::trace_sink> trace_;
    std::unique_ptr<engine::progress_reporter> progress_;
};

/// Graceful-stop flag + signal handlers for fabric workers: SIGTERM / SIGINT
/// request "checkpoint and exit" instead of dying mid-batch. Installed once
/// (sweepd and fabric-armed benches call this before draining).
inline const std::atomic<bool>* install_graceful_stop() {
    static std::atomic<bool> stop{false};
    static const auto handler = [](int) { stop.store(true, std::memory_order_relaxed); };
    std::signal(SIGTERM, handler);
    std::signal(SIGINT, handler);
    return &stop;
}

/// Fault-tolerant multi-worker sweep knobs shared by sweepd and every sweep
/// binary (engine/fabric.h, docs/FABRIC.md):
///   --fabric=DIR              drain sweeps through fabric directory DIR
///                             (DIR, DIR.2, ... for multi-sweep binaries,
///                             mirroring checkpointer's manifest suffixes);
///   --owner=NAME              stable worker id (default "w<pid>"; pass an
///                             explicit name to resume a worker's ledger);
///   --fabric-batch=K          (point, replica) pairs per lease at init (8);
///   --lease-ttl-ms=MS         heartbeat staleness bound (10000);
///   --poll-ms=MS              claim-scan / wait interval (200);
///   --batch-attempts=K        lease reclaims before batch quarantine (3);
///   --replica-attempts=K      in-process tries per replica (3);
///   --replica-deadline-ms=MS  stuck-replica watchdog (0 = off).
/// When --fabric= is absent, active() is false and binaries fall back to
/// plain run_sweep (run_sweep_auto below automates the dispatch).
class fabric_set {
 public:
    explicit fabric_set(const util::cli_args& args) : active_(args.has("fabric")) {
        opts_.dir = args.get_string("fabric", "");
        opts_.owner = args.get_string("owner", "w" + std::to_string(::getpid()));
        batch_ = count_arg(args, "fabric-batch", 8);
        opts_.lease_ttl = std::chrono::milliseconds(count_arg(args, "lease-ttl-ms", 10'000));
        opts_.poll = std::chrono::milliseconds(count_arg(args, "poll-ms", 200));
        opts_.max_batch_attempts = count_arg(args, "batch-attempts", 3);
        opts_.max_replica_attempts = count_arg(args, "replica-attempts", 3);
        opts_.replica_deadline =
            std::chrono::milliseconds(count_arg(args, "replica-deadline-ms", 0));
        if (active_) {
            opts_.stop = install_graceful_stop();
        }
    }

    [[nodiscard]] bool active() const noexcept { return active_; }
    [[nodiscard]] const engine::fabric_options& options() const noexcept { return opts_; }
    [[nodiscard]] std::size_t batch() const noexcept { return batch_; }

    /// Drain one sweep through the fabric and return its rows exactly as
    /// run_sweep would: init the directory (idempotent — racing workers
    /// agree on the spec bytes), claim and run batches until every worker's
    /// records cover the grid, then merge the ledgers and re-aggregate the
    /// rows into \p sinks. Byte-identical output to a single-process run.
    /// Throws engine::fabric_partial when a graceful stop or quarantined
    /// work left the grid incomplete (→ exit_partial via guarded_main).
    engine::sweep_result run(const engine::sweep_spec& spec,
                             const engine::run_options& run_opts,
                             std::span<engine::result_sink* const> sinks) {
        const util::timer clock;
        engine::fabric_options opts = opts_;
        ++sweep_;
        if (sweep_ > 1) {
            opts.dir += "." + std::to_string(sweep_);
        }
        engine::init_fabric(opts.dir, spec, batch_);
        const engine::fabric_report report = engine::run_fabric_worker(opts, run_opts);
        if (!report.complete) {
            throw engine::fabric_partial(
                "fabric '" + opts.dir + "' stopped before full coverage (" +
                std::to_string(report.fresh) + " fresh replicas this worker); rerun or "
                "start more workers to finish");
        }
        const engine::fabric_spec fspec = engine::load_fabric(opts.dir);
        const engine::fabric_merge merged = engine::merge_fabric(opts.dir, fspec);
        if (!merged.complete()) {
            throw engine::fabric_partial(
                "fabric '" + opts.dir + "' has " +
                std::to_string(merged.quarantined.size()) + " quarantined and " +
                std::to_string(merged.missing.size()) +
                " missing replicas; inspect quarantine/ or merge with sweep-merge "
                "--allow-partial");
        }
        engine::memory_sink rows;
        std::vector<engine::result_sink*> all(sinks.begin(), sinks.end());
        all.push_back(&rows);
        engine::replay_rows(fspec.points, merged.manifest, all);
        engine::sweep_result result;
        result.rows = rows.rows();
        result.wall_seconds = clock.seconds();
        return result;
    }

 private:
    bool active_;
    engine::fabric_options opts_;
    std::size_t batch_ = 8;
    std::size_t sweep_ = 0;
};

/// Dispatch one sweep to the fabric (when --fabric= is set) or to plain
/// run_sweep. The sweep benches call this everywhere they used to call
/// run_sweep, so every one of them can be a fault-tolerant worker.
///
/// `--fingerprint` (any sweep bench): dry-run — expand the spec, print its
/// fingerprint (the result cache's key, docs/SERVICE.md) to stdout, and exit
/// 0 without running anything. Benches that run several sweeps print their
/// *first* sweep's fingerprint: later specs often depend on earlier rows, so
/// only the first is well-defined without running — and it is the one a
/// cache probe needs.
inline engine::sweep_result run_sweep_auto(fabric_set& fabric,
                                           const engine::sweep_spec& spec,
                                           const engine::run_options& opts,
                                           std::span<engine::result_sink* const> sinks,
                                           const engine::checkpoint_options& checkpoint = {}) {
    if (detail::fingerprint_only) {
        const auto points = spec.expand();
        std::printf("fingerprint %s points=%zu reps=%zu\n",
                    engine::fingerprint_hex(engine::sweep_fingerprint(points, spec.repetitions))
                        .c_str(),
                    points.size(), spec.repetitions);
        throw fingerprint_printed{};
    }
    if (fabric.active()) {
        return fabric.run(spec, opts, sinks);
    }
    return engine::run_sweep(spec, opts, sinks, checkpoint);
}

/// The sinks a sweep binary feeds: add your own (usually a memory_sink for
/// verdict logic) and `--csv=FILE` / `--json=FILE` attach file sinks too.
/// The file sinks are crash-safe engine::atomic_file_sinks: every row is
/// published via write-temp + fsync + rename, so a killed sweep never leaves
/// a half-written row (and the JSON on disk is always a closed document).
/// One sink_set may feed several run_sweep calls (their rows append to the
/// same files); the destructor finalises the file sinks.
class sink_set {
 public:
    /// Throws std::invalid_argument when a requested file cannot be opened
    /// (a sweep that silently drops its results is worse than no sweep).
    explicit sink_set(const util::cli_args& args) {
        if (args.has("csv")) {
            csv_.emplace(args.get_string("csv", ""), engine::atomic_file_sink::format::csv);
            sinks_.push_back(&*csv_);
        }
        if (args.has("json")) {
            json_.emplace(args.get_string("json", ""),
                          engine::atomic_file_sink::format::json);
            sinks_.push_back(&*json_);
        }
    }

    /// The destructor must not throw (finish() publishes, and the atomic
    /// file sinks raise on I/O failure — e.g. a disk that filled up); report
    /// instead of std::terminate-ing, and keep any in-flight exception's
    /// message intact.
    ~sink_set() {
        try {
            finish();
        } catch (const std::exception& e) {
            std::fprintf(stderr, "sink_set: final publish failed: %s\n", e.what());
        }
    }

    void add(engine::result_sink* sink) { sinks_.push_back(sink); }

    [[nodiscard]] std::span<engine::result_sink* const> span() const noexcept {
        return sinks_;
    }

    /// The attached sinks plus \p extra — for feeding one sweep an
    /// additional sink (e.g. its own memory_sink) without registering it
    /// for every later sweep in the binary.
    [[nodiscard]] std::vector<engine::result_sink*> with(engine::result_sink* extra) const {
        std::vector<engine::result_sink*> all(sinks_.begin(), sinks_.end());
        all.push_back(extra);
        return all;
    }

    /// Finalise every attached sink (idempotent for the file sinks).
    void finish() {
        for (engine::result_sink* sink : sinks_) {
            sink->finish();
        }
    }

 private:
    std::optional<engine::atomic_file_sink> csv_;
    std::optional<engine::atomic_file_sink> json_;
    std::vector<engine::result_sink*> sinks_;
};

}  // namespace manhattan::bench
