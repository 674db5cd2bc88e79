// Fabric tests: the crash-tolerant multi-worker sweep protocol
// (engine/fabric.h). Covers the sweep.spec round trip and its corruption
// cases, lease claim mutual exclusion and stale-lease reclaim (including the
// tomb attempts counter surviving a "crash"), corrupt leases never wedging
// the drain, racing workers producing byte-identical merged output,
// coverage read from the ledgers alone (stray temp files never count, a
// corrupt foreign ledger stops workers and merge alike), quarantine of
// persistently failing replicas and batches, the deadline
// watchdog hook, the fault-injection registry, the typed error taxonomy with
// retry/backoff, and the atomic sink's degrade-instead-of-abort path.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <functional>
#include <fstream>
#include <iterator>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engine/error.h"
#include "engine/fabric.h"
#include "engine/fault.h"
#include "engine/manifest.h"
#include "engine/sink.h"
#include "engine/sweep.h"

namespace {

namespace core = manhattan::core;
namespace engine = manhattan::engine;
namespace fault = manhattan::engine::fault;
namespace fs = std::filesystem;

/// Disarm the fault registry on scope exit, even when an assertion fails —
/// hit counters are process-global and must not leak into the next test.
struct fault_guard {
    fault_guard() { fault::configure(""); }
    ~fault_guard() { fault::configure(""); }
};

/// Scratch fabric directory in the test working directory, removed on exit.
class scratch_dir {
 public:
    explicit scratch_dir(const std::string& name) : path_("fabric_test_" + name) {
        fs::remove_all(path_);
    }
    ~scratch_dir() {
        std::error_code ec;
        fs::remove_all(path_, ec);
    }
    [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
    std::string path_;
};

core::scenario small_scenario() {
    core::scenario sc;
    const std::size_t n = 1200;
    sc.params = core::net_params::standard_case(
        n, 3.0 * std::sqrt(std::log(static_cast<double>(n))), 1.0);
    sc.seed = 42;
    sc.max_steps = 50'000;
    return sc;
}

/// Two grid points x two replicas = 4 (point, replica) pairs: enough for
/// multiple batches, small enough for the fast tier.
engine::sweep_spec small_spec() {
    engine::sweep_spec spec;
    spec.base = small_scenario();
    spec.repetitions = 2;
    spec.c1 = {2.5, 3.0};
    return spec;
}

engine::run_options two_threads() {
    engine::run_options run;
    run.threads = 2;
    return run;
}

engine::fabric_options worker_opts(const std::string& dir, const std::string& owner) {
    engine::fabric_options opts;
    opts.dir = dir;
    opts.owner = owner;
    opts.lease_ttl = std::chrono::milliseconds{400};
    opts.poll = std::chrono::milliseconds{20};
    return opts;
}

/// The reference output every fabric drain must reproduce byte-for-byte:
/// an uninterrupted single-process run_sweep over the same spec. Computed
/// once (the sweep is deterministic, so sharing it across tests is safe).
const std::string& reference_csv() {
    static const std::string csv = [] {
        std::ostringstream out;
        engine::csv_sink sink(out);
        engine::result_sink* sinks[] = {&sink};
        (void)engine::run_sweep(small_spec(), two_threads(), sinks);
        return out.str();
    }();
    return csv;
}

std::string merged_csv(const std::string& dir, bool allow_partial = false) {
    const engine::fabric_spec spec = engine::load_fabric(dir);
    const engine::fabric_merge merged = engine::merge_fabric(dir, spec);
    std::ostringstream out;
    engine::csv_sink sink(out);
    engine::result_sink* sinks[] = {&sink};
    (void)engine::replay_rows(spec.points, merged.manifest, sinks, allow_partial);
    return out.str();
}

void write_file(const std::string& path, const std::string& text) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
}

/// Age a file so its heartbeat looks long dead.
void make_stale(const std::string& path) {
    fs::last_write_time(path, fs::file_time_type::clock::now() - std::chrono::hours(1));
}

[[nodiscard]] engine::errc error_class(const std::function<void()>& fn) {
    try {
        fn();
    } catch (const engine::error& e) {
        return e.cls();
    }
    ADD_FAILURE() << "expected an engine::error";
    return engine::errc::runtime;
}

// ------------------------------------------------------------- spec file ---

TEST(fabric_test, spec_serialize_parse_round_trip_is_exact) {
    const engine::sweep_spec sweep = small_spec();
    engine::fabric_spec spec;
    spec.points = sweep.expand();
    spec.repetitions = sweep.repetitions;
    spec.batch = 3;
    spec.fingerprint = engine::sweep_fingerprint(spec.points, spec.repetitions);

    const engine::fabric_spec parsed =
        engine::parse_fabric_spec(engine::serialize_fabric_spec(spec));
    EXPECT_EQ(parsed.fingerprint, spec.fingerprint);
    EXPECT_EQ(parsed.repetitions, spec.repetitions);
    EXPECT_EQ(parsed.batch, spec.batch);
    ASSERT_EQ(parsed.points.size(), spec.points.size());
    for (std::size_t p = 0; p < spec.points.size(); ++p) {
        EXPECT_EQ(parsed.points[p].index, spec.points[p].index);
        EXPECT_EQ(parsed.points[p].label, spec.points[p].label);
        EXPECT_EQ(parsed.points[p].sc.params.n, spec.points[p].sc.params.n);
    }
    // The decisive check: the parsed points re-fingerprint to the stored value.
    EXPECT_EQ(engine::sweep_fingerprint(parsed.points, parsed.repetitions),
              spec.fingerprint);
    EXPECT_EQ(spec.pair_count(), 4u);
    EXPECT_EQ(spec.batch_count(), 2u);
    EXPECT_EQ(spec.pair(3), (std::pair<std::size_t, std::size_t>{1, 1}));
}

TEST(fabric_test, spec_parse_rejects_truncation_and_tampering) {
    engine::fabric_spec spec;
    spec.points = small_spec().expand();
    spec.repetitions = 2;
    spec.batch = 1;
    spec.fingerprint = engine::sweep_fingerprint(spec.points, spec.repetitions);
    const std::string text = engine::serialize_fabric_spec(spec);
    ASSERT_EQ(text.rfind("{\"format\":\"manhattan-fabric v2\",", 0), 0u) << text;

    // Truncation: a document cut anywhere never parses.
    const std::string cut = text.substr(0, text.size() / 2);
    EXPECT_EQ(error_class([&] { (void)engine::parse_fabric_spec(cut); }), engine::errc::state);
    EXPECT_EQ(error_class([&] { (void)engine::parse_fabric_spec(text.substr(0, 40)); }),
              engine::errc::state);
    EXPECT_EQ(error_class([&] { (void)engine::parse_fabric_spec("garbage\n"); }),
              engine::errc::state);

    // Tampering: a flipped seed survives JSON parsing but fails the
    // re-fingerprint check.
    std::string tampered = text;
    const std::size_t seed_pos = tampered.find("\"seed\":42,");
    ASSERT_NE(seed_pos, std::string::npos);
    tampered.replace(seed_pos, 10, "\"seed\":43,");
    EXPECT_EQ(error_class([&] { (void)engine::parse_fabric_spec(tampered); }),
              engine::errc::state);
}

TEST(fabric_test, spec_parse_refuses_the_v1_text_format) {
    // What the positional v1 writer produced for small_spec() at batch 8:
    // v1 fabric directories are refused, never half-read.
    const std::string v1 =
        "manhattan-fabric v1\nfingerprint f90e522e207e7716\nrepetitions 2\nbatch 8\n"
        "points 2\n"
        "point 0 1200 4041520cd1372feb 401aa0900f8c7d3e 3ff0000000000000 0 "
        "0000000000000000 0000000000000000 0 3ff0000000000000 0 42 1 0000000000000000 50000 "
        "0 1 stop 0 3ff0000000000000 0 messages 0 label n=1200 R=6.657 v=1\n"
        "point 1 1200 4041520cd1372feb 401ff3e012a8964b 3ff0000000000000 0 "
        "0000000000000000 0000000000000000 0 3ff0000000000000 0 42 1 0000000000000000 50000 "
        "0 1 stop 0 3ff0000000000000 0 messages 0 label n=1200 R=7.988 v=1\n"
        "end 2\n";
    EXPECT_EQ(error_class([&] { (void)engine::parse_fabric_spec(v1); }), engine::errc::state);
}

TEST(fabric_test, init_fabric_is_idempotent_and_rejects_mismatch) {
    scratch_dir dir("init");
    const engine::sweep_spec sweep = small_spec();
    const engine::fabric_spec first = engine::init_fabric(dir.path(), sweep, 2);
    EXPECT_EQ(first.pair_count(), 4u);
    EXPECT_TRUE(fs::exists(dir.path() + "/sweep.spec"));
    EXPECT_TRUE(fs::is_directory(dir.path() + "/leases"));
    EXPECT_TRUE(fs::is_directory(dir.path() + "/quarantine"));

    // Same spec + batch: idempotent (any number of workers may race init).
    const engine::fabric_spec again = engine::init_fabric(dir.path(), sweep, 2);
    EXPECT_EQ(again.fingerprint, first.fingerprint);

    // Different batch or different sweep: refuse to mix experiments.
    EXPECT_EQ(error_class([&] { (void)engine::init_fabric(dir.path(), sweep, 3); }),
              engine::errc::state);
    engine::sweep_spec other = sweep;
    other.repetitions = 5;
    EXPECT_EQ(error_class([&] { (void)engine::init_fabric(dir.path(), other, 2); }),
              engine::errc::state);

    EXPECT_EQ(error_class([&] { (void)engine::load_fabric("fabric_test_missing_dir"); }),
              engine::errc::state);
}

TEST(fabric_test, init_fabric_mismatch_names_the_first_differing_field) {
    scratch_dir dir("diff");
    const engine::sweep_spec sweep = small_spec();
    (void)engine::init_fabric(dir.path(), sweep, 2);

    // Same fingerprint inputs except one scenario field: the diagnostic must
    // carry both digests and name exactly the field that disagrees.
    engine::sweep_spec other = sweep;
    other.base.seed = 43;
    try {
        (void)engine::init_fabric(dir.path(), other, 2);
        FAIL() << "expected a state error";
    } catch (const engine::error& e) {
        EXPECT_EQ(e.cls(), engine::errc::state);
        const std::string what = e.what();
        EXPECT_NE(what.find("already holds a different sweep"), std::string::npos)
            << what;
        EXPECT_NE(what.find(engine::fingerprint_hex(engine::sweep_fingerprint(sweep))),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find(engine::fingerprint_hex(engine::sweep_fingerprint(other))),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find("first difference: point 0: seed (42 vs 43)"),
                  std::string::npos)
            << what;
    }

    // A batch-size-only mismatch has identical specs — the diagnostic says so.
    try {
        (void)engine::init_fabric(dir.path(), sweep, 3);
        FAIL() << "expected a state error";
    } catch (const engine::error& e) {
        EXPECT_NE(std::string{e.what()}.find("first difference: batch size"),
                  std::string::npos)
            << e.what();
    }
}

// ---------------------------------------------------------------- leases ---

TEST(fabric_test, single_worker_drain_is_byte_identical_to_run_sweep) {
    scratch_dir dir("single");
    (void)engine::init_fabric(dir.path(), small_spec(), 2);
    const engine::fabric_report report =
        engine::run_fabric_worker(worker_opts(dir.path(), "w1"), two_threads());
    EXPECT_TRUE(report.complete);
    EXPECT_FALSE(report.stopped);
    EXPECT_EQ(report.fresh, 4u);
    EXPECT_EQ(report.skipped, 0u);
    EXPECT_EQ(report.quarantined_pairs, 0u);

    // Coverage lives in the ledger: no lease, tomb or marker left behind.
    EXPECT_TRUE(fs::is_empty(dir.path() + "/leases"));

    EXPECT_EQ(merged_csv(dir.path()), reference_csv());
}

TEST(fabric_test, live_lease_excludes_other_workers) {
    scratch_dir dir("exclusion");
    (void)engine::init_fabric(dir.path(), small_spec(), 2);
    // A *fresh* lease held by someone else on batch 0: the worker must not
    // touch that batch. With the stop flag raised after the first pass it
    // drains batch 1 and reports incomplete.
    write_file(dir.path() + "/leases/batch-0.lease", "owner other\nattempts 1\n");

    std::atomic<bool> stop{false};
    engine::fabric_options opts = worker_opts(dir.path(), "w1");
    opts.lease_ttl = std::chrono::hours{1};  // the foreign lease stays live
    opts.stop = &stop;
    const std::string ledger = dir.path() + "/ledger-w1.manifest";
    const auto recorded = [&]() -> std::size_t {
        try {
            return engine::load_manifest(ledger).records.size();
        } catch (const engine::error&) {
            return 0;  // not published yet
        }
    };
    std::thread stopper([&] {
        while (recorded() < 2) {  // batch 1's two records
            std::this_thread::sleep_for(std::chrono::milliseconds{20});
        }
        stop.store(true);
    });
    const engine::fabric_report report =
        engine::run_fabric_worker(opts, two_threads());
    stopper.join();
    EXPECT_FALSE(report.complete);
    EXPECT_TRUE(report.stopped);
    EXPECT_EQ(report.fresh, 2u);  // batch 1 only
    EXPECT_TRUE(fs::exists(dir.path() + "/leases/batch-0.lease"));
    const engine::run_manifest own = engine::load_manifest(ledger);
    EXPECT_EQ(own.records.size(), 2u);
    for (const engine::replica_record& rec : own.records) {
        EXPECT_EQ(rec.point, 1u);  // batch 0 = point 0's replicas, never touched
    }
}

TEST(fabric_test, stale_lease_is_reclaimed) {
    scratch_dir dir("stale");
    (void)engine::init_fabric(dir.path(), small_spec(), 2);
    // A lease whose owner was SIGKILLed an hour ago: heartbeat long stale.
    const std::string lease = dir.path() + "/leases/batch-0.lease";
    write_file(lease, "owner dead\nattempts 1\n");
    make_stale(lease);

    const engine::fabric_report report =
        engine::run_fabric_worker(worker_opts(dir.path(), "w1"), two_threads());
    EXPECT_TRUE(report.complete);
    EXPECT_EQ(report.fresh, 4u);
    EXPECT_FALSE(fs::exists(lease));
    EXPECT_FALSE(fs::exists(dir.path() + "/leases/batch-0.tomb"));
    EXPECT_EQ(merged_csv(dir.path()), reference_csv());
}

TEST(fabric_test, corrupt_lease_never_wedges_the_fabric) {
    scratch_dir dir("corrupt");
    (void)engine::init_fabric(dir.path(), small_spec(), 2);
    const std::string lease = dir.path() + "/leases/batch-0.lease";
    write_file(lease, "\x00\xff not a lease at all");
    make_stale(lease);

    const engine::fabric_report report =
        engine::run_fabric_worker(worker_opts(dir.path(), "w1"), two_threads());
    EXPECT_TRUE(report.complete);
    EXPECT_EQ(report.fresh, 4u);
    EXPECT_EQ(merged_csv(dir.path()), reference_csv());
}

TEST(fabric_test, tomb_attempts_survive_crashes_and_quarantine_the_batch) {
    scratch_dir dir("tomb");
    (void)engine::init_fabric(dir.path(), small_spec(), 2);
    // A tomb left by a reclaimer that crashed between rename and recreate,
    // already carrying max_batch_attempts claims: the next claim is one too
    // many, so the batch is quarantined instead of wedging the fabric.
    write_file(dir.path() + "/leases/batch-0.tomb", "owner dead\nattempts 3\n");

    engine::fabric_options opts = worker_opts(dir.path(), "w1");
    opts.max_batch_attempts = 3;
    const engine::fabric_report report = engine::run_fabric_worker(opts, two_threads());
    EXPECT_TRUE(report.complete);
    EXPECT_EQ(report.quarantined_batches, 1u);
    EXPECT_EQ(report.fresh, 2u);  // batch 1 still drains
    EXPECT_TRUE(fs::exists(dir.path() + "/quarantine/batch-0"));

    const engine::fabric_spec spec = engine::load_fabric(dir.path());
    const engine::fabric_merge merged = engine::merge_fabric(dir.path(), spec);
    EXPECT_FALSE(merged.complete());
    EXPECT_EQ(merged.quarantined.size(), 2u);  // batch 0 = point 0's replicas
    EXPECT_TRUE(merged.missing.empty());

    // Strict replay refuses holes; --allow-partial emits the complete point.
    std::ostringstream out;
    engine::csv_sink sink(out);
    engine::result_sink* sinks[] = {&sink};
    EXPECT_EQ(error_class([&] {
                  (void)engine::replay_rows(spec.points, merged.manifest, sinks);
              }),
              engine::errc::state);
    EXPECT_EQ(engine::replay_rows(spec.points, merged.manifest, sinks, /*allow_partial=*/true),
              1u);
}

// ----------------------------------------------------- multi-worker drain ---

TEST(fabric_test, racing_workers_merge_byte_identical) {
    scratch_dir dir("race");
    (void)engine::init_fabric(dir.path(), small_spec(), 1);  // 4 single-pair batches
    engine::fabric_report a;
    engine::fabric_report b;
    engine::run_options run;
    run.threads = 1;
    std::thread worker_a(
        [&] { a = engine::run_fabric_worker(worker_opts(dir.path(), "wa"), run); });
    std::thread worker_b(
        [&] { b = engine::run_fabric_worker(worker_opts(dir.path(), "wb"), run); });
    worker_a.join();
    worker_b.join();

    EXPECT_TRUE(a.complete);
    EXPECT_TRUE(b.complete);
    // Leases guarantee each pair is computed exactly once across the fleet.
    EXPECT_EQ(a.fresh + b.fresh, 4u);
    EXPECT_EQ(a.quarantined_pairs + b.quarantined_pairs, 0u);
    EXPECT_EQ(merged_csv(dir.path()), reference_csv());
}

TEST(fabric_test, work_recorded_elsewhere_is_skipped_not_recomputed) {
    scratch_dir dir("skip");
    (void)engine::init_fabric(dir.path(), small_spec(), 2);
    (void)engine::run_fabric_worker(worker_opts(dir.path(), "w1"), two_threads());
    // Drop one of batch 1's records from w1's ledger: a second worker finds
    // batch 0 terminal from w1's ledger alone, claims batch 1, skips the
    // pair w1 still records and recomputes only the dropped one.
    const std::string ledger = dir.path() + "/ledger-w1.manifest";
    engine::run_manifest w1 = engine::load_manifest(ledger);
    std::erase_if(w1.records, [](const engine::replica_record& rec) {
        return rec.point == 1 && rec.replica == 1;
    });
    ASSERT_EQ(w1.records.size(), 3u);
    engine::save_manifest(w1, ledger);

    const engine::fabric_report report =
        engine::run_fabric_worker(worker_opts(dir.path(), "w2"), two_threads());
    EXPECT_TRUE(report.complete);
    EXPECT_EQ(report.fresh, 1u);
    EXPECT_EQ(report.skipped, 1u);
    EXPECT_EQ(merged_csv(dir.path()), reference_csv());
}

TEST(fabric_test, merge_verifies_duplicated_records_agree) {
    scratch_dir dir("dup");
    (void)engine::init_fabric(dir.path(), small_spec(), 2);
    (void)engine::run_fabric_worker(worker_opts(dir.path(), "w1"), two_threads());
    const engine::fabric_spec spec = engine::load_fabric(dir.path());

    // A second ledger duplicating a record with a different wall time — what
    // a lease reclaim's recompute legitimately produces — merges cleanly...
    engine::run_manifest dup = engine::load_manifest(dir.path() + "/ledger-w1.manifest");
    dup.records.resize(1);
    dup.records[0].stat.wall_seconds += 17.0;
    engine::save_manifest(dup, dir.path() + "/ledger-w2.manifest");
    EXPECT_EQ(merged_csv(dir.path()), reference_csv());

    // ...but a disagreement on a result field means broken determinism or
    // mixed-up state, and the merge must refuse.
    dup.records[0].stat.time += 1.0;
    engine::save_manifest(dup, dir.path() + "/ledger-w2.manifest");
    EXPECT_EQ(error_class([&] { (void)engine::merge_fabric(dir.path(), spec); }),
              engine::errc::state);
}

TEST(fabric_test, merge_accepts_a_worker_ledger_cut_mid_record) {
    scratch_dir dir("torn");
    (void)engine::init_fabric(dir.path(), small_spec(), 2);
    (void)engine::run_fabric_worker(worker_opts(dir.path(), "w1"), two_threads());
    const engine::fabric_spec spec = engine::load_fabric(dir.path());

    // w1 killed mid-append: its ledger ends inside its last record.
    const std::string ledger = dir.path() + "/ledger-w1.manifest";
    const std::string text = [&] {
        std::ifstream in(ledger, std::ios::binary);
        return std::string{std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>()};
    }();
    write_file(ledger, text.substr(0, text.size() - 10));
    const engine::fabric_merge torn = engine::merge_fabric(dir.path(), spec);
    EXPECT_EQ(torn.manifest.records.size(), 3u);
    EXPECT_EQ(torn.missing.size(), 1u);

    // The restarted owner adopts its ledger (republishing it whole before
    // any append) and recomputes only the lost pair.
    const engine::fabric_report report =
        engine::run_fabric_worker(worker_opts(dir.path(), "w1"), two_threads());
    EXPECT_TRUE(report.complete);
    EXPECT_EQ(report.fresh, 1u);
    EXPECT_EQ(engine::load_manifest(ledger).records.size(), 4u);
    EXPECT_EQ(merged_csv(dir.path()), reference_csv());
}

TEST(fabric_test, a_stray_ledger_temp_file_is_not_coverage) {
    // What a worker killed between a temp file's fsync and its rename leaves
    // behind: a complete ledger and a quarantine marker never published.
    scratch_dir drained("stray_source");
    (void)engine::init_fabric(drained.path(), small_spec(), 2);
    (void)engine::run_fabric_worker(worker_opts(drained.path(), "w1"), two_threads());

    scratch_dir dir("stray");
    (void)engine::init_fabric(dir.path(), small_spec(), 2);
    fs::copy_file(drained.path() + "/ledger-w1.manifest",
                  dir.path() + "/ledger-ghost.manifest.tmp");
    write_file(dir.path() + "/quarantine/pair-0-0.tmp", "");

    const engine::fabric_spec spec = engine::load_fabric(dir.path());
    const engine::fabric_merge fresh = engine::merge_fabric(dir.path(), spec);
    EXPECT_TRUE(fresh.manifest.records.empty());
    EXPECT_TRUE(fresh.quarantined.empty());
    EXPECT_EQ(fresh.missing.size(), 4u);

    const engine::fabric_report report =
        engine::run_fabric_worker(worker_opts(dir.path(), "w1"), two_threads());
    EXPECT_TRUE(report.complete);
    EXPECT_EQ(report.fresh, 4u);
    EXPECT_EQ(report.skipped, 0u);
    EXPECT_EQ(merged_csv(dir.path()), reference_csv());
}

TEST(fabric_test, a_corrupt_foreign_ledger_stops_the_worker) {
    scratch_dir dir("foreign");
    (void)engine::init_fabric(dir.path(), small_spec(), 2);
    const engine::fabric_spec spec = engine::load_fabric(dir.path());
    const std::string ledger = dir.path() + "/ledger-w2.manifest";
    const auto refused_by_merge_and_worker = [&] {
        EXPECT_EQ(error_class([&] { (void)engine::merge_fabric(dir.path(), spec); }),
                  engine::errc::state);
        EXPECT_EQ(error_class([&] {
                      (void)engine::run_fabric_worker(worker_opts(dir.path(), "w1"),
                                                      two_threads());
                  }),
                  engine::errc::state);
    };

    write_file(ledger, "not a ledger\n");
    refused_by_merge_and_worker();

    // A well-formed ledger of another sweep is refused the same way.
    engine::run_manifest other;
    other.fingerprint = spec.fingerprint ^ 1;
    other.points = spec.points.size();
    other.repetitions = spec.repetitions;
    engine::save_manifest(other, ledger);
    refused_by_merge_and_worker();
}

TEST(fabric_test, graceful_stop_reports_stopped_then_resumes) {
    scratch_dir dir("stop");
    (void)engine::init_fabric(dir.path(), small_spec(), 2);
    std::atomic<bool> stop{true};  // SIGTERM arrived before the first claim
    engine::fabric_options opts = worker_opts(dir.path(), "w1");
    opts.stop = &stop;
    const engine::fabric_report stopped = engine::run_fabric_worker(opts, two_threads());
    EXPECT_TRUE(stopped.stopped);
    EXPECT_FALSE(stopped.complete);
    EXPECT_EQ(stopped.fresh, 0u);

    stop.store(false);
    const engine::fabric_report resumed = engine::run_fabric_worker(opts, two_threads());
    EXPECT_TRUE(resumed.complete);
    EXPECT_EQ(merged_csv(dir.path()), reference_csv());
}

// ------------------------------------------------- faults and quarantine ---

TEST(fabric_test, transient_replica_faults_are_retried_to_success) {
    const fault_guard guard;
    scratch_dir dir("retry");
    (void)engine::init_fabric(dir.path(), small_spec(), 2);
    fault::configure("replica.run:fail:1");  // first attempt fails, retry wins

    engine::fabric_options opts = worker_opts(dir.path(), "w1");
    opts.max_replica_attempts = 3;
    const engine::fabric_report report = engine::run_fabric_worker(opts, two_threads());
    EXPECT_TRUE(report.complete);
    EXPECT_EQ(report.fresh, 4u);
    EXPECT_EQ(report.quarantined_pairs, 0u);
    EXPECT_EQ(merged_csv(dir.path()), reference_csv());
}

TEST(fabric_test, persistent_replica_faults_quarantine_the_pairs) {
    const fault_guard guard;
    scratch_dir dir("quarantine");
    (void)engine::init_fabric(dir.path(), small_spec(), 2);
    fault::configure("replica.run:fail:1000");  // never recovers

    engine::fabric_options opts = worker_opts(dir.path(), "w1");
    opts.max_replica_attempts = 2;
    const engine::fabric_report report = engine::run_fabric_worker(opts, two_threads());
    EXPECT_TRUE(report.complete);  // every batch terminal, holes quarantined
    EXPECT_EQ(report.fresh, 0u);
    EXPECT_EQ(report.quarantined_pairs, 4u);

    const engine::fabric_spec spec = engine::load_fabric(dir.path());
    const engine::fabric_merge merged = engine::merge_fabric(dir.path(), spec);
    EXPECT_FALSE(merged.complete());
    EXPECT_EQ(merged.quarantined.size(), 4u);
    EXPECT_EQ(merged_csv(dir.path(), /*allow_partial=*/true), "");  // no complete point
}

TEST(fabric_test, deadline_watchdog_fires_the_hook) {
    const fault_guard guard;
    scratch_dir dir("deadline");
    (void)engine::init_fabric(dir.path(), small_spec(), 2);
    fault::configure("replica.run:delay:1:600");  // one replica wedges for 600ms

    std::mutex mutex;
    std::vector<std::pair<std::size_t, std::size_t>> fired;
    engine::fabric_options opts = worker_opts(dir.path(), "w1");
    opts.lease_ttl = std::chrono::milliseconds{150};  // heartbeat every 50ms
    opts.replica_deadline = std::chrono::milliseconds{100};
    opts.deadline_action = [&](std::size_t p, std::size_t r) {
        const std::lock_guard<std::mutex> lock(mutex);
        fired.emplace_back(p, r);
    };
    engine::run_options run;
    run.threads = 1;  // the delayed replica is the only one in flight
    const engine::fabric_report report = engine::run_fabric_worker(opts, run);
    EXPECT_TRUE(report.complete);  // the hook observes; the replica still finishes
    ASSERT_FALSE(fired.empty());
    EXPECT_LT(fired.front().first, 2u);
    EXPECT_LT(fired.front().second, 2u);
    EXPECT_EQ(merged_csv(dir.path()), reference_csv());
}

// --------------------------------------------------------- fault registry ---

TEST(fabric_test, fault_plan_parses_and_counts_hits) {
    const fault_guard guard;
    fault::configure("some.site:fail:2");
    EXPECT_TRUE(fault::armed());
    for (int i = 0; i < 2; ++i) {
        try {
            fault::inject("some.site");
            FAIL() << "hit " << i + 1 << " should have thrown";
        } catch (const engine::error& e) {
            EXPECT_EQ(e.cls(), engine::errc::io);
            EXPECT_TRUE(e.transient());
        }
    }
    EXPECT_NO_THROW(fault::inject("some.site"));   // counts exhausted
    EXPECT_NO_THROW(fault::inject("other.site"));  // unmatched site

    fault::configure("");
    EXPECT_FALSE(fault::armed());
    EXPECT_NO_THROW(fault::inject("some.site"));

    // Delay rules sleep without throwing.
    fault::configure("slow.site:delay:1:10");
    const auto before = std::chrono::steady_clock::now();
    EXPECT_NO_THROW(fault::inject("slow.site"));
    EXPECT_GE(std::chrono::steady_clock::now() - before, std::chrono::milliseconds{10});
    EXPECT_NO_THROW(fault::inject("slow.site"));  // second hit: past the count
}

TEST(fabric_test, malformed_fault_plans_are_spec_errors) {
    const fault_guard guard;
    const auto rejects = [](const std::string& plan) {
        EXPECT_EQ(error_class([&] { fault::configure(plan); }), engine::errc::spec)
            << "plan: " << plan;
    };
    rejects("justasite");
    rejects("site:explode:1");
    rejects("site:fail:0");
    rejects("site:fail:xyz");
    rejects("site:delay:1");        // delay needs the ms argument
    rejects("site:fail:1:extra");   // fail takes no argument
    rejects("site:fail:1,,other:fail:1");
    rejects("site:fail:-1");  // not 2^64 - 1
    rejects("site:fail:+1");
    rejects("site:fail: 1");
}

// ----------------------------------------------------------- error/retry ---

TEST(fabric_test, error_taxonomy_maps_to_distinct_exit_codes) {
    EXPECT_EQ(engine::exit_code(engine::errc::spec), 2);
    EXPECT_EQ(engine::exit_code(engine::errc::runtime), 3);
    EXPECT_EQ(engine::exit_code(engine::errc::io), 4);
    EXPECT_EQ(engine::exit_code(engine::errc::state), 5);
    EXPECT_EQ(engine::exit_partial, 6);

    // Only io errors can be transient, whatever the constructor was told.
    EXPECT_FALSE(engine::error(engine::errc::state, "x", true).transient());
    EXPECT_TRUE(engine::error(engine::errc::io, "x", true).transient());

    EXPECT_EQ(engine::classify(engine::error(engine::errc::io, "x")), engine::errc::io);
    EXPECT_EQ(engine::classify(std::invalid_argument("bad flag")), engine::errc::spec);
    EXPECT_EQ(engine::classify(std::runtime_error("boom")), engine::errc::runtime);
    // fabric_partial is an engine error (runtime class); guarded_main turns
    // it into exit_partial before the class mapping applies.
    EXPECT_EQ(engine::classify(engine::fabric_partial("holes")), engine::errc::runtime);
}

TEST(fabric_test, with_retry_retries_transient_errors_only) {
    engine::backoff_policy fast;
    fast.max_attempts = 4;
    fast.initial = std::chrono::milliseconds{1};
    fast.cap = std::chrono::milliseconds{2};

    // Succeeds on the third attempt.
    int calls = 0;
    const int got = engine::with_retry(fast, "flaky op", [&] {
        if (++calls < 3) {
            throw engine::error(engine::errc::io, "EINTR", true);
        }
        return 7;
    });
    EXPECT_EQ(got, 7);
    EXPECT_EQ(calls, 3);

    // Non-transient errors propagate on the first attempt.
    calls = 0;
    try {
        engine::with_retry(fast, "corrupt op", [&]() -> int {
            ++calls;
            throw engine::error(engine::errc::state, "bad ledger");
        });
        FAIL() << "should have thrown";
    } catch (const engine::error& e) {
        EXPECT_EQ(e.cls(), engine::errc::state);
    }
    EXPECT_EQ(calls, 1);

    // Exhaustion annotates the message with the attempt count.
    calls = 0;
    try {
        engine::with_retry(fast, "doomed op", [&]() -> int {
            ++calls;
            throw engine::error(engine::errc::io, "ENOSPC", true);
        });
        FAIL() << "should have thrown";
    } catch (const engine::error& e) {
        EXPECT_EQ(calls, 4);
        EXPECT_TRUE(e.transient());
        EXPECT_STREQ(e.what(), "io error: doomed op failed after 4 attempts: ENOSPC");
    }

    // The schedule is capped exponential.
    engine::backoff_policy policy;
    EXPECT_EQ(policy.delay(1), std::chrono::milliseconds{5});
    EXPECT_EQ(policy.delay(2), std::chrono::milliseconds{20});
    EXPECT_EQ(policy.delay(4), std::chrono::milliseconds{320});
    EXPECT_EQ(policy.delay(5), std::chrono::milliseconds{500});  // cap
}

// ------------------------------------------------------------ sink degrade ---

TEST(fabric_test, sink_publish_failure_degrades_then_recovers) {
    const fault_guard guard;
    scratch_dir dir("sink");
    fs::create_directories(dir.path());
    const std::string path = dir.path() + "/rows.csv";

    engine::atomic_file_sink sink(path, engine::atomic_file_sink::format::csv);
    EXPECT_FALSE(sink.degraded());

    // Every publish attempt fails for longer than the retry budget: on_row
    // must degrade (keep the row buffered, report once) instead of throwing
    // away an already-computed sweep.
    fault::configure("sink.publish:fail:1000");
    std::ostringstream scratch;
    engine::csv_sink render(scratch);
    engine::result_sink* sinks[] = {&render};
    engine::sweep_result reference;
    {
        engine::memory_sink rows;
        engine::result_sink* mem[] = {&rows};
        (void)engine::run_sweep(small_spec(), two_threads(), mem);
        reference.rows = rows.rows();
    }
    ASSERT_EQ(reference.rows.size(), 2u);
    EXPECT_NO_THROW(sink.on_row(reference.rows[0]));
    EXPECT_TRUE(sink.degraded());

    // The disk recovers: the next row republishes the full document and
    // finish() succeeds, leaving a complete two-row CSV behind.
    fault::configure("");
    EXPECT_NO_THROW(sink.on_row(reference.rows[1]));
    EXPECT_NO_THROW(sink.finish());
    EXPECT_FALSE(sink.degraded());

    std::ifstream in(path, std::ios::binary);
    const std::string text{std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>()};
    EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 3);  // header + 2 rows
    EXPECT_NE(text.find(reference.rows[0].point.label.substr(0, 6)), std::string::npos);

    // When the disk never recovers, finish() is the point that surfaces the
    // failure as a (transient) io error.
    engine::atomic_file_sink doomed(dir.path() + "/doomed.csv",
                                    engine::atomic_file_sink::format::csv);
    fault::configure("sink.publish:fail:1000000");
    EXPECT_NO_THROW(doomed.on_row(reference.rows[0]));
    EXPECT_TRUE(doomed.degraded());
    EXPECT_EQ(error_class([&] { doomed.finish(); }), engine::errc::io);
}

}  // namespace
