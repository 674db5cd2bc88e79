// Service tests: the simulation-as-a-service stack (src/service/). Covers
// the fingerprint-keyed result cache (round trip, integrity re-verification,
// LRU eviction), the admission controller (queue bound, per-client cap, run
// slots, cancellation), and the daemon end-to-end over a real AF_UNIX socket:
// byte-identical streamed rows vs a direct run_sweep, the cache-hit replay
// with zero fresh pool tasks, the in-flight dedup rendezvous, busy shedding,
// queued-job cancellation, crash-ledger resume, and recovery from the state
// an earlier manifest format left behind. The wire format itself is covered
// by wire_test.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/fabric.h"
#include "engine/fault.h"
#include "engine/manifest.h"
#include "engine/sink.h"
#include "engine/sweep.h"
#include "service/admission.h"
#include "service/client.h"
#include "service/daemon.h"
#include "service/result_cache.h"
#include "util/telemetry.h"

namespace {

namespace core = manhattan::core;
namespace engine = manhattan::engine;
namespace fault = manhattan::engine::fault;
namespace service = manhattan::service;
namespace util = manhattan::util;
namespace fs = std::filesystem;

/// Disarm the fault registry on scope exit, even when an assertion fails.
struct fault_guard {
    fault_guard() { fault::configure(""); }
    ~fault_guard() { fault::configure(""); }
};

/// Scratch directory in the test working directory, removed on exit. Also
/// the daemon's home: socket, cache and work dir all live under it (the
/// relative path keeps us far from the AF_UNIX sun_path limit).
class scratch_dir {
 public:
    explicit scratch_dir(const std::string& name) : path_("service_test_" + name) {
        fs::remove_all(path_);
        fs::create_directories(path_);
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

/// Two grid points x two replicas = 4 (point, replica) pairs.
engine::sweep_spec small_spec() {
    engine::sweep_spec spec;
    spec.base = small_scenario();
    spec.repetitions = 2;
    spec.c1 = {2.5, 3.0};
    return spec;
}

/// The reference every daemon-served sweep must reproduce byte-for-byte: an
/// uninterrupted in-process run_sweep rendered through the same csv sink.
const std::string& reference_csv() {
    static const std::string csv = [] {
        std::ostringstream out;
        engine::csv_sink sink(out);
        engine::result_sink* sinks[] = {&sink};
        (void)engine::run_sweep(small_spec(), {.threads = 2}, sinks);
        return out.str();
    }();
    return csv;
}

/// A complete manifest for \p spec, produced by the real checkpoint path.
engine::run_manifest complete_manifest(const engine::sweep_spec& spec,
                                       const std::string& scratch) {
    const std::string path = scratch + "/ref.manifest";
    (void)engine::run_sweep(spec, {.threads = 2}, {}, {.manifest_path = path});
    engine::run_manifest m = engine::load_manifest(path);
    fs::remove(path);
    return m;
}

service::daemon_config daemon_config_for(const scratch_dir& dir) {
    service::daemon_config config;
    config.socket_path = dir.path() + "/d.sock";
    config.cache_dir = dir.path() + "/cache";
    config.work_dir = dir.path() + "/work";
    config.threads = 2;
    return config;
}

std::string job_hex(const engine::sweep_spec& spec) {
    return engine::fingerprint_hex(engine::sweep_fingerprint(spec));
}

std::string submit_csv(const std::string& socket, const engine::sweep_spec& spec,
                       service::submit_outcome& outcome,
                       const std::string& client_id = "test") {
    std::ostringstream out;
    engine::csv_sink sink(out);
    engine::result_sink* sinks[] = {&sink};
    service::client c(socket);
    outcome = c.submit(spec, client_id, sinks);
    sink.finish();
    return out.str();
}

/// Poll the daemon until \p job reports \p status (or fail after ~5 s).
void await_status(const std::string& socket, const std::string& job,
                  const std::string& status) {
    service::client c(socket);
    for (int i = 0; i < 1000; ++i) {
        const service::json_value response = c.status(job);
        if (service::str_field(response, "status") == status) {
            return;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds{5});
    }
    FAIL() << "job " << job << " never reached status '" << status << "'";
}

std::uint64_t counter_value(engine::metrics_registry& registry, const std::string& name) {
    return registry.get_counter(name).value();
}

/// \p m in the retired v1 manifest format (no record digests, a trailing
/// `end <count>` line): what a daemon of an earlier release left on disk.
std::string v1_text(const engine::run_manifest& m) {
    std::istringstream in(engine::serialize_manifest(m));
    std::string out;
    for (std::string line; std::getline(in, line);) {
        if (line.rfind("manhattan-manifest ", 0) == 0) {
            line = "manhattan-manifest v1";
        } else if (line.rfind("record ", 0) == 0) {
            line.erase(line.rfind(' '));  // the v2 digest token
        }
        out += line + '\n';
    }
    return out + "end " + std::to_string(m.records.size()) + '\n';
}

void write_file(const std::string& path, const std::string& text) {
    std::ofstream(path, std::ios::binary) << text;
}

// ----------------------------------------------------------- result cache ---

TEST(service_test, cache_store_load_round_trips_and_counts) {
    util::telemetry::scoped_enable telemetry;
    scratch_dir dir("cache_roundtrip");
    engine::metrics_registry metrics;
    service::result_cache cache({.dir = dir.path() + "/cache"}, &metrics);

    const engine::sweep_spec spec = small_spec();
    const engine::run_manifest stored = complete_manifest(spec, dir.path());
    cache.store(stored);
    EXPECT_TRUE(fs::exists(cache.entry_path(stored.fingerprint)));

    const std::optional<engine::run_manifest> hit = cache.load(stored.fingerprint);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, stored);

    EXPECT_FALSE(cache.load(stored.fingerprint + 1).has_value());
    EXPECT_EQ(counter_value(metrics, "cache.stores"), 1u);
    EXPECT_EQ(counter_value(metrics, "cache.hits"), 1u);
    EXPECT_EQ(counter_value(metrics, "cache.misses"), 1u);
}

TEST(service_test, cache_refuses_partial_manifests) {
    scratch_dir dir("cache_partial");
    service::result_cache cache({.dir = dir.path() + "/cache"});
    engine::run_manifest partial = complete_manifest(small_spec(), dir.path());
    partial.records.pop_back();
    EXPECT_THROW(cache.store(partial), std::invalid_argument);
}

TEST(service_test, cache_unlinks_entries_that_fail_integrity_checks) {
    util::telemetry::scoped_enable telemetry;
    scratch_dir dir("cache_integrity");
    engine::metrics_registry metrics;
    service::result_cache cache({.dir = dir.path() + "/cache"}, &metrics);
    const engine::run_manifest stored = complete_manifest(small_spec(), dir.path());

    // Truncated entry: miss, and the file is gone afterwards.
    cache.store(stored);
    const std::string path = cache.entry_path(stored.fingerprint);
    {
        const std::string text = engine::serialize_manifest(stored);
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << text.substr(0, text.size() / 2);
    }
    EXPECT_FALSE(cache.load(stored.fingerprint).has_value());
    EXPECT_FALSE(fs::exists(path));

    // Misnamed entry (valid manifest under the wrong key): never served.
    const std::string wrong = cache.entry_path(stored.fingerprint + 1);
    engine::save_manifest(stored, wrong);
    EXPECT_FALSE(cache.load(stored.fingerprint + 1).has_value());
    EXPECT_FALSE(fs::exists(wrong));
}

TEST(service_test, cache_evicts_least_recently_used_entries) {
    util::telemetry::scoped_enable telemetry;
    scratch_dir dir("cache_lru");
    engine::metrics_registry metrics;
    service::result_cache cache({.dir = dir.path() + "/cache", .max_entries = 2},
                                &metrics);

    // Three distinct sweeps (the seed feeds the fingerprint).
    engine::sweep_spec spec = small_spec();
    std::vector<engine::run_manifest> manifests;
    for (std::uint64_t seed : {42u, 43u, 44u}) {
        spec.base.seed = seed;
        manifests.push_back(complete_manifest(spec, dir.path()));
    }

    cache.store(manifests[0]);
    cache.store(manifests[1]);
    // Make entry 0 unambiguously the LRU victim (mtime granularity).
    fs::last_write_time(cache.entry_path(manifests[0].fingerprint),
                        fs::file_time_type::clock::now() - std::chrono::hours(1));
    cache.store(manifests[2]);

    EXPECT_FALSE(fs::exists(cache.entry_path(manifests[0].fingerprint)));
    EXPECT_TRUE(fs::exists(cache.entry_path(manifests[1].fingerprint)));
    EXPECT_TRUE(fs::exists(cache.entry_path(manifests[2].fingerprint)));
    EXPECT_EQ(counter_value(metrics, "cache.evictions"), 1u);
}

// ------------------------------------------------------ admission control ---

TEST(service_test, admission_sheds_over_queue_and_per_client_bounds) {
    util::telemetry::scoped_enable telemetry;
    engine::metrics_registry metrics;
    service::admission_controller admission(
        {.max_queue = 2, .max_running = 1, .per_client_inflight = 1}, &metrics);

    auto a = admission.admit("alice");
    EXPECT_THROW((void)admission.admit("alice"), service::busy_error);  // client cap
    auto b = admission.admit("bob");
    EXPECT_THROW((void)admission.admit("carol"), service::busy_error);  // queue bound
    EXPECT_EQ(admission.queued(), 2u);

    a.reset();  // releasing a ticket frees both bounds
    std::unique_ptr<service::admission_ticket> c;
    EXPECT_NO_THROW(c = admission.admit("carol"));
    EXPECT_EQ(counter_value(metrics, "admission.shed"), 2u);
}

TEST(service_test, admission_run_slots_hand_over_and_cancel_withdraws) {
    service::admission_controller admission(
        {.max_queue = 4, .max_running = 1, .per_client_inflight = 4});

    auto runner = admission.admit("a");
    ASSERT_TRUE(runner->acquire_run_slot());
    EXPECT_EQ(admission.running(), 1u);

    // A queued ticket blocks until the running one releases...
    auto waiter = admission.admit("a");
    std::atomic<int> got{-1};
    std::thread t1([&] { got = waiter->acquire_run_slot() ? 1 : 0; });
    std::this_thread::sleep_for(std::chrono::milliseconds{50});
    EXPECT_EQ(got.load(), -1);
    runner.reset();
    t1.join();
    EXPECT_EQ(got.load(), 1);

    // ...and a cancelled ticket withdraws instead of running.
    auto cancelled = admission.admit("a");
    std::atomic<int> got2{-1};
    std::thread t2([&] { got2 = cancelled->acquire_run_slot() ? 1 : 0; });
    std::this_thread::sleep_for(std::chrono::milliseconds{50});
    cancelled->cancel();
    t2.join();
    EXPECT_EQ(got2.load(), 0);
    EXPECT_TRUE(cancelled->cancelled());
}

// ------------------------------------------------------------- daemon e2e ---

TEST(service_test, daemon_streams_byte_identical_rows_and_replays_from_cache) {
    util::telemetry::scoped_enable telemetry;
    scratch_dir dir("e2e");
    service::daemon d(daemon_config_for(dir));
    d.start();

    const engine::sweep_spec spec = small_spec();
    const std::string job = job_hex(spec);

    // Cold cache: the daemon computes every replica and the client-side csv
    // rendering is byte-identical to a direct run_sweep.
    service::submit_outcome first;
    EXPECT_EQ(submit_csv(d.config().socket_path, spec, first), reference_csv());
    EXPECT_EQ(first.job, job);
    EXPECT_FALSE(first.cached);
    EXPECT_EQ(first.rows, 2u);
    EXPECT_EQ(first.fresh_replicas, 4u);
    EXPECT_EQ(counter_value(d.metrics(), "cache.stores"), 1u);

    // Warm cache: byte-identical again, zero fresh replicas, and — the
    // headline contract — zero new pool tasks: a hit is a disk replay.
    const std::uint64_t tasks_before = d.pool().stats().tasks_run;
    service::submit_outcome second;
    EXPECT_EQ(submit_csv(d.config().socket_path, spec, second), reference_csv());
    EXPECT_TRUE(second.cached);
    EXPECT_EQ(second.rows, 2u);
    EXPECT_EQ(second.fresh_replicas, 0u);
    EXPECT_EQ(d.pool().stats().tasks_run, tasks_before);
    EXPECT_GE(counter_value(d.metrics(), "cache.hits"), 1u);

    // The finished job is findable as a cache entry; garbage is unknown.
    service::client probe(d.config().socket_path);
    EXPECT_EQ(service::str_field(probe.status(job), "status"), "cached");
    EXPECT_EQ(service::str_field(probe.status("0000000000000000"), "status"),
              "unknown");
    const service::json_value stats = probe.stats();
    EXPECT_EQ(service::u64_field(stats, "queued"), 0u);
    EXPECT_TRUE(service::require(stats, "metrics").find("cache.hits") != nullptr);

    d.stop();
}

TEST(service_test, daemon_rendezvous_serves_concurrent_identical_submissions_once) {
    util::telemetry::scoped_enable telemetry;
    fault_guard faults;
    scratch_dir dir("rendezvous");
    service::daemon d(daemon_config_for(dir));
    d.start();

    const engine::sweep_spec spec = small_spec();
    // Slow the 4 ledger records down so the twin reliably arrives mid-run.
    fault::configure("ledger.record:delay:4:150");

    service::submit_outcome first;
    std::string first_csv;
    std::thread runner(
        [&] { first_csv = submit_csv(d.config().socket_path, spec, first, "a"); });
    await_status(d.config().socket_path, job_hex(spec), "running");

    service::submit_outcome twin;
    const std::string twin_csv = submit_csv(d.config().socket_path, spec, twin, "b");
    runner.join();

    EXPECT_FALSE(first.cached);
    EXPECT_EQ(first.fresh_replicas, 4u);
    EXPECT_TRUE(twin.cached);  // waited on the live job, then replayed
    EXPECT_EQ(twin.fresh_replicas, 0u);
    EXPECT_EQ(first_csv, reference_csv());
    EXPECT_EQ(twin_csv, reference_csv());
    EXPECT_EQ(counter_value(d.metrics(), "cache.stores"), 1u);

    d.stop();
}

TEST(service_test, daemon_sheds_submissions_over_the_admission_bound) {
    util::telemetry::scoped_enable telemetry;
    fault_guard faults;
    scratch_dir dir("shed");
    service::daemon_config config = daemon_config_for(dir);
    config.admission.max_queue = 1;
    service::daemon d(config);
    d.start();

    engine::sweep_spec running_spec = small_spec();
    fault::configure("ledger.record:delay:4:200");

    service::submit_outcome outcome;
    std::thread runner(
        [&] { (void)submit_csv(d.config().socket_path, running_spec, outcome, "a"); });
    await_status(d.config().socket_path, job_hex(running_spec), "running");

    // A *different* sweep (same spec would rendezvous, not queue).
    engine::sweep_spec shed_spec = small_spec();
    shed_spec.base.seed = 43;
    service::submit_outcome ignored;
    EXPECT_THROW((void)submit_csv(d.config().socket_path, shed_spec, ignored, "b"),
                 service::busy_error);
    EXPECT_GE(counter_value(d.metrics(), "admission.shed"), 1u);

    runner.join();
    EXPECT_EQ(outcome.fresh_replicas, 4u);
    d.stop();
}

TEST(service_test, daemon_cancels_a_queued_job_before_it_runs) {
    util::telemetry::scoped_enable telemetry;
    fault_guard faults;
    scratch_dir dir("cancel");
    service::daemon_config config = daemon_config_for(dir);
    config.admission.max_queue = 4;
    config.admission.max_running = 1;
    service::daemon d(config);
    d.start();

    engine::sweep_spec running_spec = small_spec();
    fault::configure("ledger.record:delay:4:300");
    service::submit_outcome running_outcome;
    std::thread runner([&] {
        (void)submit_csv(d.config().socket_path, running_spec, running_outcome, "a");
    });
    await_status(d.config().socket_path, job_hex(running_spec), "running");

    // A second, different job queues behind the single run slot...
    engine::sweep_spec queued_spec = small_spec();
    queued_spec.base.seed = 43;
    const std::string queued_job = job_hex(queued_spec);
    service::submit_outcome queued_outcome;
    std::thread waiter([&] {
        (void)submit_csv(d.config().socket_path, queued_spec, queued_outcome, "b");
    });
    await_status(d.config().socket_path, queued_job, "queued");

    // ...and a cancel from a third connection withdraws it without running.
    service::client canceller(d.config().socket_path);
    const service::json_value response = canceller.cancel(queued_job);
    EXPECT_TRUE(service::bool_field(response, "ok"));
    waiter.join();
    EXPECT_TRUE(queued_outcome.cancelled);

    // Cancelling a job nobody knows is a typed state error.
    EXPECT_THROW((void)canceller.cancel("0000000000000000"), engine::error);

    runner.join();
    EXPECT_FALSE(running_outcome.cancelled);
    EXPECT_EQ(running_outcome.fresh_replicas, 4u);
    EXPECT_GE(counter_value(d.metrics(), "admission.cancelled"), 1u);
    d.stop();
}

TEST(service_test, daemon_resumes_a_crash_ledger_at_the_replica_boundary) {
    util::telemetry::scoped_enable telemetry;
    scratch_dir dir("resume");
    const service::daemon_config config = daemon_config_for(dir);

    // Simulate a daemon SIGKILLed mid-job: a partial (2 of 4 replica)
    // ledger left in work_dir under the job's name. The checkpoint path
    // publishes records in completion order, so any prefix is a state a
    // real crash can leave behind.
    const engine::sweep_spec spec = small_spec();
    engine::run_manifest partial = complete_manifest(spec, dir.path());
    const std::size_t total = partial.records.size();
    ASSERT_EQ(total, 4u);
    partial.records.resize(2);
    fs::create_directories(config.work_dir);
    engine::save_manifest(partial,
                          config.work_dir + "/" + job_hex(spec) + ".manifest");

    service::daemon d(config);
    d.start();
    service::submit_outcome outcome;
    EXPECT_EQ(submit_csv(config.socket_path, spec, outcome), reference_csv());
    EXPECT_FALSE(outcome.cached);
    EXPECT_EQ(outcome.fresh_replicas, 2u);  // only the missing half ran
    EXPECT_EQ(outcome.rows, 2u);

    // The spent ledger is promoted into the cache.
    EXPECT_FALSE(fs::exists(config.work_dir + "/" + job_hex(spec) + ".manifest"));
    service::submit_outcome again;
    EXPECT_EQ(submit_csv(config.socket_path, spec, again), reference_csv());
    EXPECT_TRUE(again.cached);
    d.stop();
}

TEST(service_test, daemon_recomputes_over_a_v1_crash_ledger_and_cache_entry) {
    util::telemetry::scoped_enable telemetry;
    scratch_dir dir("upgrade");
    const service::daemon_config config = daemon_config_for(dir);

    // An earlier release killed between promoting a job to the cache and
    // removing its crash ledger: both files are in the v1 format.
    const engine::sweep_spec spec = small_spec();
    const std::string old = v1_text(complete_manifest(spec, dir.path()));
    const std::string ledger = config.work_dir + "/" + job_hex(spec) + ".manifest";
    const std::string entry = config.cache_dir + "/" + job_hex(spec) + ".manifest";
    fs::create_directories(config.work_dir);
    fs::create_directories(config.cache_dir);
    write_file(ledger, old);
    write_file(entry, old);

    service::daemon d(config);
    d.start();
    service::submit_outcome outcome;
    EXPECT_EQ(submit_csv(config.socket_path, spec, outcome), reference_csv());
    EXPECT_FALSE(outcome.cached);
    EXPECT_EQ(outcome.fresh_replicas, 4u);  // nothing resumed from the v1 ledger
    EXPECT_FALSE(fs::exists(ledger));
    EXPECT_TRUE(engine::load_manifest(entry).complete());  // rewritten in v2

    service::submit_outcome again;
    EXPECT_EQ(submit_csv(config.socket_path, spec, again), reference_csv());
    EXPECT_TRUE(again.cached);
    d.stop();
}

TEST(service_test, daemon_recomputes_over_a_v1_fabric_job_directory) {
    util::telemetry::scoped_enable telemetry;
    scratch_dir dir("upgrade_fabric");
    service::daemon_config config = daemon_config_for(dir);
    config.fabric_root = dir.path() + "/fabric";

    // A fabric job an earlier release drained to completion (spec, done
    // markers, the daemon's ledger), its spec, ledger and cache entry in v1.
    const engine::sweep_spec spec = small_spec();
    const std::string job_dir = config.fabric_root + "/job-" + job_hex(spec);
    (void)engine::init_fabric(job_dir, spec, 8);
    engine::fabric_options fopts;
    fopts.dir = job_dir;
    fopts.owner = "daemon";
    ASSERT_TRUE(engine::run_fabric_worker(fopts, {.threads = 2}).complete);
    const std::string ledger = job_dir + "/ledger-daemon.manifest";
    const std::string old = v1_text(engine::load_manifest(ledger));
    write_file(ledger, old);
    fs::create_directories(config.cache_dir);
    write_file(config.cache_dir + "/" + job_hex(spec) + ".manifest", old);
    // The positional v1 sweep.spec the earlier release wrote for this job.
    write_file(job_dir + "/sweep.spec",
               "manhattan-fabric v1\nfingerprint f90e522e207e7716\nrepetitions 2\nbatch 8\n"
               "points 2\n"
               "point 0 1200 4041520cd1372feb 401aa0900f8c7d3e 3ff0000000000000 0 "
               "0000000000000000 0000000000000000 0 3ff0000000000000 0 42 1 "
               "0000000000000000 50000 0 1 stop 0 3ff0000000000000 0 messages 0 "
               "label n=1200 R=6.657 v=1\n"
               "point 1 1200 4041520cd1372feb 401ff3e012a8964b 3ff0000000000000 0 "
               "0000000000000000 0000000000000000 0 3ff0000000000000 0 42 1 "
               "0000000000000000 50000 0 1 stop 0 3ff0000000000000 0 messages 0 "
               "label n=1200 R=7.988 v=1\n"
               "end 2\n");

    service::daemon d(config);
    d.start();
    service::submit_outcome outcome;
    EXPECT_EQ(submit_csv(config.socket_path, spec, outcome), reference_csv());
    EXPECT_FALSE(outcome.cached);
    EXPECT_EQ(engine::load_manifest(ledger).records.size(), 4u);  // redrained in v2

    service::submit_outcome again;
    EXPECT_EQ(submit_csv(config.socket_path, spec, again), reference_csv());
    EXPECT_TRUE(again.cached);
    d.stop();
}

TEST(service_test, daemon_rejects_unknown_ops_and_bad_specs_with_typed_errors) {
    scratch_dir dir("badops");
    service::daemon d(daemon_config_for(dir));
    d.start();

    service::client c(d.config().socket_path);
    service::json_value bogus = service::json_value::object();
    bogus.set("op", service::json_value::string("frobnicate"));
    try {
        (void)c.request(bogus);
        FAIL() << "unknown op must be refused";
    } catch (const engine::error& e) {
        EXPECT_EQ(e.cls(), engine::errc::spec);
    }

    // A structurally valid submit whose spec fails validation comes back as
    // a spec error too (conflicting axes: c1 and radius).
    engine::sweep_spec bad = small_spec();
    bad.radius = {10.0};
    service::client c2(d.config().socket_path);
    service::submit_outcome ignored;
    std::ostringstream out;
    engine::csv_sink sink(out);
    engine::result_sink* sinks[] = {&sink};
    try {
        (void)c2.submit(bad, "test", sinks);
        FAIL() << "invalid spec must be refused";
    } catch (const engine::error& e) {
        EXPECT_EQ(e.cls(), engine::errc::spec);
    }
    d.stop();
}

}  // namespace
