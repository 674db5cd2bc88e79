// Append-only durable log tests (engine/append_log.h) and the torn-tail
// contract of its two readers. The log itself: the first publish writes
// header + lines atomically, later publishes append whole lines that are
// in the file before any sync, syncs come once per interval and at a flush
// (also a flush with nothing new, through the ledger and the trace sink),
// a failed append or sync falls back to an atomic republish that loses and
// duplicates nothing, and the descriptor closes with its owner. The ledger
// on top of it has each record on disk when record() returns, through
// failed publishes, from an adopted manifest and after a failed
// ledger.record hit. No test sleeps: a sync count is checked against the
// intervals the test actually spanned, so a slow host weakens a check but
// never fails it. The manifest
// reader: a ledger cut at *every* byte offset parses to exactly the records
// whose lines are complete, and one flipped byte in any non-final record is
// corruption. The trace stream: every newline-terminated line of a cut
// file parses. And the point of the design: a traced, checkpointed sweep
// writes about its final file bytes, not their square.
//
// Random ledgers come from a deterministically seeded generator, so a
// failure reproduces from the iteration index alone.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "codec/json.h"
#include "engine/append_log.h"
#include "engine/fault.h"
#include "engine/manifest.h"
#include "engine/sink.h"
#include "engine/sweep.h"
#include "engine/trace_sink.h"
#include "util/telemetry.h"

namespace {

namespace core = manhattan::core;
namespace engine = manhattan::engine;
namespace fault = manhattan::engine::fault;
namespace fs = std::filesystem;

constexpr int kIterations = 12;

/// Disarm the fault registry (including a MANHATTAN_FAULT plan from the
/// environment) for the test body and again on exit.
struct fault_guard {
    fault_guard() {
        (void)fault::armed();  // load the environment plan now, then drop it
        fault::configure("");
    }
    ~fault_guard() { fault::configure(""); }
};

/// Scratch directory under the gtest temp dir, removed on exit.
class scratch_dir {
 public:
    explicit scratch_dir(const std::string& name)
        : path_(testing::TempDir() + "append_log_test." + name + "." +
                std::to_string(::getpid())) {
        fs::remove_all(path_);
        fs::create_directories(path_);
    }
    ~scratch_dir() {
        std::error_code ec;
        fs::remove_all(path_, ec);
    }
    [[nodiscard]] std::string file(const std::string& name) const { return path_ + "/" + name; }

 private:
    std::string path_;
};

std::string slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

std::size_t pick(std::mt19937_64& g, std::size_t lo, std::size_t hi) {
    return std::uniform_int_distribution<std::size_t>(lo, hi)(g);
}

double pick_real(std::mt19937_64& g) {
    return std::uniform_real_distribution<double>(0.0, 5000.0)(g);
}

/// A random ledger: a random subset of a small grid's pairs in random
/// completion order, every field shape (unset and set cz_step, 0-3
/// messages, non-representable decimals).
engine::run_manifest random_manifest(std::mt19937_64& g) {
    engine::run_manifest m;
    m.fingerprint = g();
    m.points = pick(g, 1, 4);
    m.repetitions = pick(g, 1, 4);
    std::vector<std::pair<std::size_t, std::size_t>> pairs;
    for (std::size_t p = 0; p < m.points; ++p) {
        for (std::size_t r = 0; r < m.repetitions; ++r) {
            pairs.emplace_back(p, r);
        }
    }
    std::shuffle(pairs.begin(), pairs.end(), g);
    pairs.resize(pick(g, 1, pairs.size()));
    for (const auto& [p, r] : pairs) {
        engine::replica_record rec;
        rec.point = p;
        rec.replica = r;
        rec.stat.time = std::floor(pick_real(g));
        rec.stat.completed = pick(g, 0, 1) == 1;
        if (pick(g, 0, 1) == 1) {
            rec.stat.cz_step = pick(g, 0, 100000);
        }
        rec.stat.suburb_diameter = pick_real(g) / 3.0;
        rec.stat.wall_seconds = pick_real(g) * 1e-9;
        const std::size_t messages = pick(g, 0, 3);
        for (std::size_t k = 0; k < messages; ++k) {
            rec.stat.message_times.push_back(std::floor(pick_real(g)));
            rec.stat.message_completed.push_back(static_cast<std::uint8_t>(pick(g, 0, 1)));
        }
        m.records.push_back(std::move(rec));
    }
    return m;
}

/// Offsets just past every '\n' of \p text, in order.
std::vector<std::size_t> line_ends(const std::string& text) {
    std::vector<std::size_t> ends;
    for (std::size_t at = text.find('\n'); at != std::string::npos;
         at = text.find('\n', at + 1)) {
        ends.push_back(at + 1);
    }
    return ends;
}

core::scenario tiny_scenario(std::size_t n) {
    core::scenario sc;
    sc.params = core::net_params::standard_case(
        n, 3.0 * std::sqrt(std::log(static_cast<double>(n))), 1.0);
    sc.seed = 11;
    sc.max_steps = 50'000;
    return sc;
}

std::string csv_of(const engine::sweep_spec& spec, const engine::run_options& opts,
                   const engine::checkpoint_options& checkpoint = {}) {
    std::ostringstream out;
    engine::csv_sink sink(out);
    engine::result_sink* sinks[] = {&sink};
    (void)engine::run_sweep(spec, opts, sinks, checkpoint);
    return out.str();
}

/// Bytes this process has passed to write() so far (/proc/self/io wchar),
/// or -1 when the counter is unreadable.
long long written_bytes() {
    std::ifstream in("/proc/self/io");
    std::string key;
    long long value = 0;
    while (in >> key >> value) {
        if (key == "wchar:") {
            return value;
        }
    }
    return -1;
}

/// The inode behind \p path: a republish renames a new file over it.
ino_t inode_of(const std::string& path) {
    struct stat st {};
    return ::stat(path.c_str(), &st) == 0 ? st.st_ino : 0;
}

/// Whole sync intervals in the time since \p start: a log whose last sync
/// (or first publish) came after \p start cannot have synced more often
/// than this on its own.
std::size_t intervals_since(std::chrono::steady_clock::time_point start) {
    return static_cast<std::size_t>((std::chrono::steady_clock::now() - start) /
                                    engine::append_log::sync_interval);
}

std::size_t open_fds() {
    std::size_t count = 0;
    std::error_code ec;
    for (auto it = fs::directory_iterator("/proc/self/fd", ec);
         !ec && it != fs::directory_iterator(); it.increment(ec)) {
        ++count;
    }
    return count;
}

// -------------------------------------------------------------------- log ---

TEST(append_log_test, first_publish_is_atomic_then_appends_whole_lines) {
    const fault_guard guard;
    const scratch_dir dir("basic");
    const std::string path = dir.file("log.txt");
    {
        engine::append_log log(path, "head\n", "test.publish");
        EXPECT_FALSE(fs::exists(path));  // no I/O before the first publish
        log.publish("a 1\n", true);
        EXPECT_EQ(slurp(path), "head\na 1\n");
        EXPECT_FALSE(fs::exists(path + ".tmp"));
        log.publish("b 2\nc 3\n", true);
        log.publish("", true);
        EXPECT_EQ(slurp(path), "head\na 1\nb 2\nc 3\n");
    }
    // A new log over the same path starts a new file: it never appends to
    // bytes it did not write.
    engine::append_log fresh(path, "head\n", "test.publish");
    fresh.publish("", true);
    EXPECT_EQ(slurp(path), "head\n");
}

TEST(append_log_test, failed_append_falls_back_to_an_atomic_republish) {
    const fault_guard guard;
    const scratch_dir dir("fallback");
    const std::string path = dir.file("log.txt");
    engine::append_log log(path, "head\n", "test.publish");
    log.publish("a\n", true);
    // The injected append writes "yyy" (half of the lines, mid-line) and
    // fails; the republish replaces the torn file with prefix + lines.
    fault::configure("log.append:fail:1");
    log.publish("yyy\nzzz\n", true);
    EXPECT_EQ(slurp(path), "head\na\nyyy\nzzz\n");
    // Back to plain appends on the new file.
    log.publish("w\n", true);
    EXPECT_EQ(slurp(path), "head\na\nyyy\nzzz\nw\n");
}

TEST(append_log_test, published_lines_are_in_the_file_before_any_sync) {
    const fault_guard guard;
    const scratch_dir dir("deferred");
    const std::string path = dir.file("log.txt");
    engine::append_log log(path, "head\n", "test.publish");
    const auto start = std::chrono::steady_clock::now();
    log.publish("a\n", false);  // the atomic first publish
    std::string expected = "head\na\n";
    for (int i = 0; i < 100; ++i) {
        const std::string line = "line " + std::to_string(i) + "\n";
        log.publish(line, false);
        expected += line;
        ASSERT_EQ(slurp(path), expected) << "publish " << i;
    }
    // One sync per elapsed interval at most, not one per publish: on any
    // host quicker than an interval, none of the reads above saw a sync.
    EXPECT_LE(log.syncs(), intervals_since(start));
}

TEST(append_log_test, flush_syncs_a_tail_written_earlier) {
    const fault_guard guard;
    const scratch_dir dir("flush_tail");
    const std::string path = dir.file("log.txt");
    engine::append_log log(path, "head\n", "test.publish");
    log.publish("a\n", false);
    EXPECT_EQ(log.syncs(), 0u);  // the first publish syncs through the atomic write
    // Written now, synced either by this publish (a full interval passed) or
    // by the flush that follows with nothing new: exactly once.
    log.publish("b\n", false);
    log.publish("", true);
    EXPECT_EQ(log.syncs(), 1u);
    log.publish("", true);  // nothing unsynced: no sync
    EXPECT_EQ(log.syncs(), 1u);
    EXPECT_EQ(slurp(path), "head\na\nb\n");
}

TEST(append_log_test, ledger_flush_syncs_records_published_earlier) {
    const fault_guard guard;
    const scratch_dir dir("ledger_flush");
    const std::string path = dir.file("ledger.manifest");
    engine::run_manifest initial;
    initial.fingerprint = 7;
    initial.points = 1;
    initial.repetitions = 2;
    engine::checkpoint_ledger ledger(initial, path);
    ledger.record(0, 0, {});  // the atomic first publish
    ledger.record(0, 1, {});  // written by record(), nothing left pending
    EXPECT_EQ(engine::load_manifest(path).records.size(), 2u);
    ledger.flush();
    EXPECT_EQ(ledger.log().syncs(), 1u);
    ledger.flush();
    EXPECT_EQ(ledger.log().syncs(), 1u);
    EXPECT_TRUE(engine::load_manifest(path).complete());
}

TEST(append_log_test, trace_flush_syncs_events_published_earlier) {
    const fault_guard guard;
    const scratch_dir dir("trace_flush");
    const std::string path = dir.file("trace.jsonl");
    engine::trace_sink trace(path);  // the atomic first publish
    trace.emit("probe", {engine::trace_field::num("k", std::uint64_t{1})});
    EXPECT_EQ(line_ends(slurp(path)).size(), 1u);  // written at emit
    trace.flush();
    EXPECT_EQ(trace.log().syncs(), 1u);
    trace.flush();
    EXPECT_EQ(trace.log().syncs(), 1u);
}

TEST(append_log_test, failed_sync_falls_back_to_an_atomic_republish) {
    const fault_guard guard;
    const scratch_dir dir("sync_fallback");
    const std::string path = dir.file("log.txt");
    engine::append_log log(path, "head\n", "test.publish");
    log.publish("a\n", false);
    log.publish("b\n", false);
    const std::size_t syncs = log.syncs();
    const ino_t before = inode_of(path);
    // The flush's fdatasync reports an error: the written bytes' fate is
    // unknown, so a new file is written from the copy in memory.
    fault::configure("log.sync:fail:1");
    log.publish("c\n", true);
    EXPECT_EQ(slurp(path), "head\na\nb\nc\n");
    EXPECT_NE(inode_of(path), before);
    EXPECT_EQ(log.syncs(), syncs);
    // Back to plain appends and syncs, on the new file.
    log.publish("d\n", true);
    EXPECT_EQ(slurp(path), "head\na\nb\nc\nd\n");
    EXPECT_EQ(log.syncs(), syncs + 1);
}

TEST(append_log_test, failed_sync_and_republish_lose_and_duplicate_nothing) {
    const fault_guard guard;
    const scratch_dir dir("sync_outage");
    const std::string sub = dir.file("d");
    fs::create_directories(sub);
    const std::string path = sub + "/log.txt";
    engine::append_log log(path, "head\n", "test.publish");
    log.publish("a\n", false);
    log.publish("b\n", false);
    // The sync fails, and so does every republish: its directory is gone.
    fault::configure("log.sync:fail:1");
    fs::remove_all(sub);
    EXPECT_THROW(log.publish("c\n", true), engine::error);
    log.publish("d\n", false);  // reported; the log keeps the line
    // The disk recovers: one flush writes every line, once.
    fs::create_directories(sub);
    log.publish("", true);
    EXPECT_EQ(slurp(path), "head\na\nb\nc\nd\n");
    log.publish("e\n", true);
    EXPECT_EQ(slurp(path), "head\na\nb\nc\nd\ne\n");
}

TEST(append_log_test, descriptor_closes_with_the_log) {
    const scratch_dir dir("fds");
    const std::size_t before = open_fds();
    if (before == 0) {
        GTEST_SKIP() << "/proc/self/fd is unreadable";
    }
    {
        engine::append_log log(dir.file("log.txt"), "", "test.publish");
        log.publish("x\n", true);
        EXPECT_EQ(open_fds(), before + 1);
    }
    EXPECT_EQ(open_fds(), before);
}

TEST(append_log_test, sweep_survives_failed_appends_with_identical_output) {
    const fault_guard guard;
    const scratch_dir dir("sweep_fallback");
    engine::sweep_spec spec;
    spec.base = tiny_scenario(300);
    spec.c1 = {2.5, 3.5};
    spec.repetitions = 3;
    const std::string plain = csv_of(spec, {.threads = 2});

    fault::configure("log.append:fail:4,log.sync:fail:2");
    const std::string manifest = dir.file("sweep.manifest");
    std::string durable;
    std::size_t events = 0;
    {
        engine::trace_sink trace(dir.file("trace.jsonl"));
        engine::run_options opts{.threads = 2};
        opts.trace = &trace;
        durable = csv_of(spec, opts, {.manifest_path = manifest});
        events = trace.events();
    }
    EXPECT_EQ(durable, plain);
    const engine::run_manifest m = engine::load_manifest(manifest);
    EXPECT_TRUE(m.complete());
    EXPECT_EQ(m.records.size(), 6u);  // nothing lost, nothing duplicated
    const std::string trace_text = slurp(dir.file("trace.jsonl"));
    EXPECT_EQ(line_ends(trace_text).size(), events);
    EXPECT_EQ(trace_text.back(), '\n');
}

TEST(append_log_test, ledger_keeps_records_through_failed_publishes) {
    const fault_guard guard;
    const scratch_dir dir("ledger_failed_publish");
    const std::string path = dir.file("ledger.manifest");
    engine::run_manifest initial;
    initial.fingerprint = 7;
    initial.points = 1;
    initial.repetitions = 6;
    engine::checkpoint_ledger ledger(initial, path);

    // The first record's publish exhausts its retries: reported, and the
    // record stays pending.
    fault::configure("ledger.publish:fail:5");
    EXPECT_NO_THROW(ledger.record(0, 0, {}));
    EXPECT_FALSE(fs::exists(path));
    // The next record's publish lands both before record() returns.
    ledger.record(0, 1, {});
    EXPECT_EQ(engine::load_manifest(path).records.size(), 2u);
    ledger.record(0, 2, {});
    EXPECT_EQ(engine::load_manifest(path).records.size(), 3u);

    // A persistent failure surfaces from flush(); a recovered disk loses
    // nothing.
    fault::configure("ledger.publish:fail:1000");
    EXPECT_NO_THROW(ledger.record(0, 3, {}));
    EXPECT_THROW(ledger.flush(), engine::error);
    fault::configure("");
    ledger.flush();
    EXPECT_EQ(engine::load_manifest(path).records.size(), 4u);
}

TEST(append_log_test, adopted_ledger_publishes_on_record) {
    // A resume, a daemon job re-run from its ledger or a restarted fabric
    // owner adopts a manifest that already holds records; its first fresh
    // record must still be published by record(), not only at flush().
    const fault_guard guard;
    const scratch_dir dir("ledger_adopted");
    const std::string path = dir.file("ledger.manifest");
    engine::run_manifest initial;
    initial.fingerprint = 7;
    initial.points = 1;
    initial.repetitions = 4;
    initial.records.push_back({0, 0, {}});
    engine::checkpoint_ledger ledger(initial, path);
    ledger.record(0, 1, {});
    ASSERT_TRUE(fs::exists(path));
    EXPECT_EQ(engine::load_manifest(path).records.size(), 2u);
    ledger.record(0, 2, {});
    EXPECT_EQ(engine::load_manifest(path).records.size(), 3u);
}

TEST(append_log_test, ledger_publishes_after_a_failed_record_hit) {
    // A ledger.record fail rule throws after the record was kept but before
    // its publish: the next record publishes both.
    const fault_guard guard;
    const scratch_dir dir("ledger_record_fail");
    const std::string path = dir.file("ledger.manifest");
    engine::run_manifest initial;
    initial.fingerprint = 7;
    initial.points = 1;
    initial.repetitions = 3;
    engine::checkpoint_ledger ledger(initial, path);
    fault::configure("ledger.record:fail:1");
    EXPECT_THROW(ledger.record(0, 0, {}), engine::error);
    EXPECT_FALSE(fs::exists(path));
    ledger.record(0, 1, {});
    ASSERT_TRUE(fs::exists(path));
    EXPECT_EQ(engine::load_manifest(path).records.size(), 2u);
    ledger.record(0, 2, {});
    EXPECT_EQ(engine::load_manifest(path).records.size(), 3u);
}

// ---------------------------------------------------- manifest torn tails ---

TEST(append_log_test, manifest_cut_at_every_byte_keeps_exactly_the_complete_records) {
    std::mt19937_64 g(0x70726e74ULL);
    for (int it = 0; it < kIterations; ++it) {
        const engine::run_manifest m = random_manifest(g);
        const std::string text = engine::serialize_manifest(m);
        const std::vector<std::size_t> ends = line_ends(text);
        ASSERT_EQ(ends.size(), 4 + m.records.size()) << "iteration " << it;
        const std::size_t header = ends[3];
        for (std::size_t cut = 0; cut <= text.size(); ++cut) {
            const std::string torn = text.substr(0, cut);
            if (cut < header) {
                EXPECT_THROW((void)engine::parse_manifest(torn), engine::manifest_error)
                    << "iteration " << it << " cut " << cut;
                continue;
            }
            engine::run_manifest expected = m;
            expected.records.clear();
            for (std::size_t k = 0; k < m.records.size(); ++k) {
                if (ends[4 + k] <= cut) {
                    expected.records.push_back(m.records[k]);
                }
            }
            EXPECT_EQ(engine::parse_manifest(torn), expected)
                << "iteration " << it << " cut " << cut;
        }
    }
}

TEST(append_log_test, one_flipped_byte_in_a_non_final_record_is_corruption) {
    std::mt19937_64 g(0x666c6970ULL);
    for (int it = 0; it < kIterations; ++it) {
        engine::run_manifest m = random_manifest(g);
        if (m.records.size() < 2) {
            m.records.push_back(m.records.front());
            m.records.back().point = m.points;  // one more pair, outside the old grid
            ++m.points;
        }
        const std::string text = engine::serialize_manifest(m);
        const std::vector<std::size_t> ends = line_ends(text);
        // Every byte of every record line but the last, its newline aside
        // (a flipped terminator merges two lines; no bit flip of this
        // format's alphabet produces a newline).
        for (std::size_t at = ends[3]; at < ends[ends.size() - 2]; ++at) {
            if (text[at] == '\n') {
                continue;
            }
            std::string bad = text;
            bad[at] = static_cast<char>(bad[at] ^ (1 << (at % 7)));
            EXPECT_THROW((void)engine::parse_manifest(bad), engine::manifest_error)
                << "iteration " << it << " byte " << at;
        }
        // The same flip in the final record reads as a torn tail: dropped.
        std::string tail = text;
        tail[ends[ends.size() - 2] + 3] ^= 0x01;
        engine::run_manifest expected = m;
        expected.records.pop_back();
        EXPECT_EQ(engine::parse_manifest(tail), expected) << "iteration " << it;
    }
}

// ------------------------------------------------------- trace torn tails ---

TEST(append_log_test, trace_cut_at_every_byte_leaves_only_parseable_lines) {
    const scratch_dir dir("trace_cut");
    const std::string path = dir.file("trace.jsonl");
    {
        const manhattan::util::telemetry::scoped_enable telemetry;
        engine::trace_sink trace(path);
        engine::sweep_spec spec;
        spec.base = tiny_scenario(200);
        spec.c1 = {2.5};
        spec.repetitions = 2;
        engine::run_options opts{.threads = 2};
        opts.trace = &trace;
        (void)engine::run_sweep(spec, opts);
        trace.emit("quoting", {engine::trace_field::str("s", "a\"b\\c\nd\te")});
    }
    const std::string text = slurp(path);
    const std::vector<std::size_t> ends = line_ends(text);
    ASSERT_GE(ends.size(), 8u);
    ASSERT_EQ(ends.back(), text.size());
    // Parse every line once; a cut keeps exactly the lines that end before it.
    std::size_t begin = 0;
    for (const std::size_t end : ends) {
        const std::string line = text.substr(begin, end - begin - 1);
        EXPECT_NO_THROW((void)manhattan::codec::parse_json(line)) << line;
        begin = end;
    }
    for (std::size_t cut = 0; cut <= text.size(); ++cut) {
        const std::string torn = text.substr(0, cut);
        const auto complete = static_cast<std::size_t>(
            std::count_if(ends.begin(), ends.end(), [cut](std::size_t e) { return e <= cut; }));
        EXPECT_EQ(line_ends(torn).size(), complete) << "cut " << cut;
        // The unterminated rest, when shorter than its line, never parses;
        // readers skip it either way, by the termination rule.
        const std::size_t start = complete == 0 ? 0 : ends[complete - 1];
        if (start < cut && cut + 1 < ends[complete]) {
            EXPECT_THROW((void)manhattan::codec::parse_json(torn.substr(start)),
                         manhattan::codec::wire_error)
                << "cut " << cut;
        }
    }
}

// ---------------------------------------------------- write amplification ---

TEST(append_log_test, durable_sweep_writes_about_its_final_bytes) {
    const fault_guard guard;
    if (written_bytes() < 0) {
        GTEST_SKIP() << "/proc/self/io is unreadable";
    }
    const scratch_dir dir("amplification");
    engine::sweep_spec spec;
    spec.base = tiny_scenario(200);
    spec.c1 = {2.0, 3.0};
    spec.repetitions = 100;  // 200 replicas, each one ledger record + 2 events
    const std::string trace_path = dir.file("trace.jsonl");
    const std::string manifest_path = dir.file("sweep.manifest");

    const manhattan::util::telemetry::scoped_enable telemetry;
    const long long before = written_bytes();
    {
        engine::trace_sink trace(trace_path);
        engine::run_options opts{.threads = 4};
        opts.trace = &trace;
        (void)engine::run_sweep(spec, opts, {}, {.manifest_path = manifest_path});
    }
    const long long written = written_bytes() - before;
    const auto final_bytes =
        static_cast<long long>(fs::file_size(trace_path) + fs::file_size(manifest_path));
    EXPECT_TRUE(engine::load_manifest(manifest_path).complete());
    EXPECT_LE(written, 2 * final_bytes)
        << "wrote " << written << " bytes for " << final_bytes << " bytes of final files";
}

}  // namespace
