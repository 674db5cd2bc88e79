// Checkpoint/restart tests: manifest round trips and edge cases (truncated
// file, corrupt fields, fingerprint mismatch), resuming a sweep at the exact
// replica boundary, resuming with a different thread count (bit-identical
// contract), the checkpoint ledger's publish per record, and the crash-safe
// atomic file sinks.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>

#include "engine/manifest.h"
#include "engine/runner.h"
#include "engine/sink.h"
#include "engine/sweep.h"

namespace {

namespace core = manhattan::core;
namespace engine = manhattan::engine;

core::scenario small_scenario() {
    core::scenario sc;
    const std::size_t n = 1200;
    sc.params = core::net_params::standard_case(
        n, 3.0 * std::sqrt(std::log(static_cast<double>(n))), 1.0);
    sc.seed = 42;
    sc.max_steps = 50'000;
    return sc;
}

/// Two grid points x three replicas — small enough for the fast tier, big
/// enough that a mid-grid boundary exists.
engine::sweep_spec small_spec() {
    engine::sweep_spec spec;
    spec.base = small_scenario();
    spec.repetitions = 3;
    spec.c1 = {2.5, 3.0};
    return spec;
}

/// Scratch file in the test working directory, deleted on scope exit.
class scratch_file {
 public:
    explicit scratch_file(const std::string& name) : path_("manifest_test_" + name) {
        std::remove(path_.c_str());
    }
    ~scratch_file() {
        std::remove(path_.c_str());
        std::remove((path_ + ".tmp").c_str());
    }
    [[nodiscard]] const std::string& path() const noexcept { return path_; }
    [[nodiscard]] bool exists() const { return std::filesystem::exists(path_); }
    [[nodiscard]] std::string read() const {
        std::ifstream in(path_, std::ios::binary);
        return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
    }

 private:
    std::string path_;
};

/// A manifest exercising every field shape: unset and set cz_step, negative
/// zero, a non-representable decimal, multi-message vectors, sparse records.
engine::run_manifest tricky_manifest() {
    engine::run_manifest m;
    m.fingerprint = 0xdeadbeefcafef00dULL;
    m.points = 3;
    m.repetitions = 4;
    engine::replica_record a;
    a.point = 2;
    a.replica = 3;
    a.stat.time = 0.1;  // not exactly representable: exercises bit round-trip
    a.stat.completed = true;
    a.stat.cz_step = 17;
    a.stat.suburb_diameter = -0.0;
    a.stat.wall_seconds = 1.5e-7;
    a.stat.message_times = {123.0, 0.30000000000000004};
    a.stat.message_completed = {1, 0};
    engine::replica_record b;
    b.point = 0;
    b.replica = 1;
    b.stat.time = 4096.0;
    b.stat.cz_step = std::nullopt;
    m.records = {a, b};
    return m;
}

// --------------------------------------------------------------- manifest ---

TEST(manifest_test, serialize_parse_round_trip_is_exact) {
    const auto m = tricky_manifest();
    const auto parsed = engine::parse_manifest(engine::serialize_manifest(m));
    EXPECT_EQ(parsed, m);
}

TEST(manifest_test, save_load_round_trip_and_no_temp_file_left) {
    scratch_file file("roundtrip.manifest");
    const auto m = tricky_manifest();
    engine::save_manifest(m, file.path());
    EXPECT_TRUE(file.exists());
    EXPECT_FALSE(std::filesystem::exists(file.path() + ".tmp"));
    EXPECT_EQ(engine::load_manifest(file.path()), m);

    // Saving again overwrites atomically.
    auto m2 = m;
    m2.records.pop_back();
    engine::save_manifest(m2, file.path());
    EXPECT_EQ(engine::load_manifest(file.path()), m2);
}

TEST(manifest_test, missing_file_fails) {
    EXPECT_THROW((void)engine::load_manifest("manifest_test_does_not_exist.manifest"),
                 engine::manifest_error);
}

TEST(manifest_test, a_v1_file_names_its_class_once) {
    // load_manifest adds the path to the parse error; the class prefix of
    // the error it rewraps must not come along.
    scratch_file file("v1.manifest");
    std::string text = engine::serialize_manifest(tricky_manifest());
    text.replace(text.find("v2"), 2, "v1");
    {
        std::ofstream out(file.path(), std::ios::binary | std::ios::trunc);
        out << text;
    }
    try {
        (void)engine::load_manifest(file.path());
        FAIL() << "a v1 manifest loaded";
    } catch (const engine::manifest_error& e) {
        const std::string what = e.what();
        EXPECT_TRUE(what.starts_with("state error: ")) << what;
        EXPECT_EQ(what.find("state error", 1), std::string::npos) << what;
        EXPECT_NE(what.find("(file '" + file.path() + "')"), std::string::npos) << what;
    }
}

TEST(manifest_test, torn_tail_is_dropped_and_truncated_header_fails) {
    const auto m = tricky_manifest();
    const std::string text = engine::serialize_manifest(m);
    // Cut mid-way through the last record (a kill mid-append): the torn
    // line is dropped and every complete record survives.
    const std::size_t last = text.rfind("record ");
    auto kept = m;
    kept.records.pop_back();
    EXPECT_EQ(engine::parse_manifest(text.substr(0, last + 20)), kept);
    // Cut exactly at a line boundary: nothing is torn, nothing dropped.
    EXPECT_EQ(engine::parse_manifest(text.substr(0, last)), kept);
    // A header is published atomically, so a short one is corruption.
    EXPECT_THROW((void)engine::parse_manifest(text.substr(0, text.find("points"))),
                 engine::manifest_error);
    EXPECT_THROW((void)engine::parse_manifest(""), engine::manifest_error);
}

TEST(manifest_test, corrupt_manifest_fails) {
    const auto m = tricky_manifest();
    const std::string text = engine::serialize_manifest(m);

    // Wrong format header — including the retired v1 format.
    std::string bad = text;
    bad.replace(bad.find("v2"), 2, "v9");
    EXPECT_THROW((void)engine::parse_manifest(bad), engine::manifest_error);
    bad = text;
    bad.replace(bad.find("v2"), 2, "v1");
    EXPECT_THROW((void)engine::parse_manifest(bad), engine::manifest_error);

    // Garbage in a numeric header field.
    bad = text;
    bad.replace(bad.find("fingerprint ") + 12, 4, "zzzz");
    EXPECT_THROW((void)engine::parse_manifest(bad), engine::manifest_error);

    // Header numbers in any form but the one the writer emits: a sign, a
    // base prefix, upper-case hex. "points -1" must not reach by_point()'s
    // allocation as 2^64 - 1.
    const auto with_header = [&text](const std::string& key, const std::string& value) {
        const std::size_t at = text.find(key + ' ') + key.size() + 1;
        return text.substr(0, at) + value + text.substr(text.find('\n', at));
    };
    const std::pair<std::string, std::string> headers[] = {
        {"points", "-1"},     {"points", "+3"},     {"fingerprint", "0x7"},
        {"fingerprint", "-1"}, {"fingerprint", "DEADBEEFCAFEF00D"}};
    for (const auto& [key, value] : headers) {
        EXPECT_THROW((void)engine::parse_manifest(with_header(key, value)),
                     engine::manifest_error)
            << key << ' ' << value;
    }

    // Well-formed counts whose points x repetitions table by_point() could
    // not hold: past a vector's max_size, or a product past 64 bits.
    const std::pair<std::string, std::string> too_large[] = {
        {"points", "18446744073709551615"}, {"repetitions", "18446744073709551615"}};
    for (const auto& [key, value] : too_large) {
        EXPECT_THROW((void)engine::parse_manifest(with_header(key, value)),
                     engine::manifest_error)
            << key << ' ' << value;
    }
    std::string overflow = with_header("points", "4294967296");
    const std::size_t at = overflow.find("repetitions ") + 12;
    overflow.replace(at, overflow.find('\n', at) - at, "4294967296");
    EXPECT_THROW((void)engine::parse_manifest(overflow), engine::manifest_error);

    // A damaged record that is not the final line: its digest fails.
    bad = text;
    bad[text.find("record ") + 9] ^= 0x01;
    EXPECT_THROW((void)engine::parse_manifest(bad), engine::manifest_error);

    // A foreign line followed by more records is not a torn tail. (As the
    // final line it would be: "extra\n" alone is dropped.)
    auto more = m;
    more.records.push_back({1, 0, {}});
    const std::string more_text = engine::serialize_manifest(more);
    const std::string third = more_text.substr(more_text.rfind("record "));
    EXPECT_EQ(engine::parse_manifest(text + third), more);
    EXPECT_THROW((void)engine::parse_manifest(text + "extra\n" + third),
                 engine::manifest_error);
    EXPECT_EQ(engine::parse_manifest(text + "extra\n"), m);

    // A record outside the declared grid.
    auto out_of_grid = m;
    out_of_grid.records[0].point = m.points;
    EXPECT_THROW((void)engine::parse_manifest(engine::serialize_manifest(out_of_grid)),
                 engine::manifest_error);

    // Duplicate (point, replica) records.
    auto duplicated = m;
    duplicated.records.push_back(duplicated.records[0]);
    EXPECT_THROW((void)engine::parse_manifest(engine::serialize_manifest(duplicated)),
                 engine::manifest_error);
}

TEST(manifest_test, a_huge_grid_parses_without_a_table_of_its_size) {
    // 2^40 points x 4 replicas: by_point()'s table would take tens of
    // terabytes, so the parse checks the records without building it.
    auto m = tricky_manifest();
    m.points = 1099511627776;
    const engine::run_manifest parsed = engine::parse_manifest(engine::serialize_manifest(m));
    EXPECT_EQ(parsed, m);
    EXPECT_FALSE(parsed.complete());

    // The range and duplicate checks hold at that size, and name the pair.
    auto outside = m;
    outside.records[0].replica = m.repetitions;
    EXPECT_THROW((void)engine::parse_manifest(engine::serialize_manifest(outside)),
                 engine::manifest_error);
    auto duplicated = m;
    duplicated.records.push_back(m.records[1]);
    try {
        (void)engine::parse_manifest(engine::serialize_manifest(duplicated));
        FAIL() << "a duplicate record must be refused";
    } catch (const engine::manifest_error& e) {
        EXPECT_NE(std::string(e.what()).find("duplicate record for point 0 replica 1"),
                  std::string::npos)
            << e.what();
    }
}

TEST(manifest_test, complete_reflects_the_ledger) {
    engine::run_manifest m;
    m.points = 1;
    m.repetitions = 2;
    EXPECT_FALSE(m.complete());
    m.records.push_back({0, 0, {}});
    m.records.push_back({0, 1, {}});
    EXPECT_TRUE(m.complete());
}

// ------------------------------------------------------------ fingerprint ---

TEST(manifest_test, fingerprint_is_stable_and_spec_sensitive) {
    const auto spec = small_spec();
    const auto fp = engine::sweep_fingerprint(spec);
    EXPECT_EQ(engine::sweep_fingerprint(spec), fp);

    auto other_seed = spec;
    other_seed.base.seed = 43;
    EXPECT_NE(engine::sweep_fingerprint(other_seed), fp);

    auto other_reps = spec;
    other_reps.repetitions = 4;
    EXPECT_NE(engine::sweep_fingerprint(other_reps), fp);

    auto other_axis = spec;
    other_axis.c1 = {2.5, 3.5};
    EXPECT_NE(engine::sweep_fingerprint(other_axis), fp);

    auto extra_point = spec;
    extra_point.c1 = {2.5, 3.0, 3.5};
    EXPECT_NE(engine::sweep_fingerprint(extra_point), fp);

    auto other_mode = spec;
    other_mode.gossip_p = {0.5};
    EXPECT_NE(engine::sweep_fingerprint(other_mode), fp);

    // intra_threads is a wall-clock-only knob: excluded by contract, so a
    // resume may change it freely (like --threads).
    auto other_intra = spec;
    other_intra.base.intra_threads = 8;
    EXPECT_EQ(engine::sweep_fingerprint(other_intra), fp);
}

// ----------------------------------------------------------------- ledger ---

TEST(manifest_test, ledger_publishes_each_record_before_record_returns) {
    scratch_file file("ledger.manifest");
    engine::run_manifest initial;
    initial.fingerprint = 7;
    initial.points = 2;
    initial.repetitions = 3;
    engine::checkpoint_ledger ledger(initial, file.path());

    EXPECT_FALSE(file.exists());  // no I/O before the first record
    ledger.record(0, 0, {});
    ASSERT_TRUE(file.exists());
    EXPECT_EQ(engine::load_manifest(file.path()).records.size(), 1u);
    ledger.record(0, 1, {});
    EXPECT_EQ(engine::load_manifest(file.path()).records.size(), 2u);
    ledger.record(1, 0, {});
    EXPECT_EQ(engine::load_manifest(file.path()).records.size(), 3u);
    ledger.flush();
    EXPECT_EQ(engine::load_manifest(file.path()).records.size(), 3u);
}

// ------------------------------------------------------- checkpointed sweep ---

TEST(manifest_test, checkpointed_sweep_writes_a_complete_manifest) {
    scratch_file file("sweep.manifest");
    const auto spec = small_spec();
    const auto result = engine::run_sweep(spec, {.threads = 2}, {},
                                          {.manifest_path = file.path()});
    ASSERT_EQ(result.rows.size(), 2u);
    const auto manifest = engine::load_manifest(file.path());
    EXPECT_EQ(manifest.fingerprint, engine::sweep_fingerprint(spec));
    EXPECT_EQ(manifest.points, 2u);
    EXPECT_EQ(manifest.repetitions, 3u);
    EXPECT_TRUE(manifest.complete());
}

TEST(manifest_test, resume_at_replica_boundary_is_bit_identical) {
    const auto spec = small_spec();

    // Reference: one uninterrupted run, rendered through a json_sink (the
    // fully deterministic artifact — wall times are not part of it).
    std::ostringstream ref_json;
    engine::json_sink ref_sink(ref_json);
    engine::result_sink* ref_sinks[] = {&ref_sink};
    const auto reference = engine::run_sweep(spec, {.threads = 1}, ref_sinks);
    ref_sink.finish();

    // A full checkpointed run gives us a complete ledger to carve up.
    scratch_file file("resume.manifest");
    (void)engine::run_sweep(spec, {.threads = 2}, {}, {.manifest_path = file.path()});
    const auto full = engine::load_manifest(file.path());
    ASSERT_TRUE(full.complete());

    // Simulate an interruption mid-grid: keep point 0's replicas 0 and 2
    // only (a *sparse* partial point) and nothing of point 1.
    auto partial = full;
    partial.records.clear();
    for (const auto& rec : full.records) {
        if (rec.point == 0 && rec.replica != 1) {
            partial.records.push_back(rec);
        }
    }
    ASSERT_EQ(partial.records.size(), 2u);
    engine::save_manifest(partial, file.path());

    // Resume — at a different thread count than either prior run: the
    // determinism contract makes threads (and intra_threads) wall-only.
    std::ostringstream res_json;
    engine::json_sink res_sink(res_json);
    engine::result_sink* res_sinks[] = {&res_sink};
    const auto resumed = engine::run_sweep(spec, {.threads = 4}, res_sinks,
                                           {.manifest_path = file.path()});
    res_sink.finish();

    EXPECT_EQ(res_json.str(), ref_json.str());  // byte-identical output
    ASSERT_EQ(resumed.rows.size(), reference.rows.size());
    for (std::size_t p = 0; p < reference.rows.size(); ++p) {
        EXPECT_EQ(resumed.rows[p].times, reference.rows[p].times);
    }
    // And the manifest was completed by the resumed run.
    EXPECT_TRUE(engine::load_manifest(file.path()).complete());
}

TEST(manifest_test, resume_from_a_ledger_cut_mid_record_is_bit_identical) {
    const auto spec = small_spec();
    std::ostringstream ref_json;
    engine::json_sink ref_sink(ref_json);
    engine::result_sink* ref_sinks[] = {&ref_sink};
    (void)engine::run_sweep(spec, {.threads = 1}, ref_sinks);
    ref_sink.finish();

    // A kill mid-append: the ledger ends half-way through its fourth record.
    scratch_file file("torn.manifest");
    (void)engine::run_sweep(spec, {.threads = 2}, {}, {.manifest_path = file.path()});
    const std::string full = file.read();
    std::size_t cut = 0;
    for (int line = 0; line < 4 + 3; ++line) {  // header (4 lines) + 3 records
        cut = full.find('\n', cut) + 1;
    }
    cut += 25;
    {
        std::ofstream out(file.path(), std::ios::binary | std::ios::trunc);
        out << full.substr(0, cut);
    }
    ASSERT_EQ(engine::load_manifest(file.path()).records.size(), 3u);

    std::ostringstream res_json;
    engine::json_sink res_sink(res_json);
    engine::result_sink* res_sinks[] = {&res_sink};
    (void)engine::run_sweep(spec, {.threads = 4}, res_sinks, {.manifest_path = file.path()});
    res_sink.finish();
    EXPECT_EQ(res_json.str(), ref_json.str());

    // The resumed writer republished before appending: no torn line is left
    // anywhere in the final file, and every record is there exactly once.
    const std::string final_text = file.read();
    ASSERT_FALSE(final_text.empty());
    EXPECT_EQ(final_text.back(), '\n');
    std::istringstream lines(final_text);
    std::string line;
    std::size_t records = 0;
    while (std::getline(lines, line)) {
        records += line.rfind("record ", 0) == 0 ? 1 : 0;
    }
    EXPECT_EQ(records, 6u);
    EXPECT_TRUE(engine::load_manifest(file.path()).complete());
}

TEST(manifest_test, resume_of_a_complete_manifest_is_a_pure_replay) {
    scratch_file file("replay.manifest");
    const auto spec = small_spec();
    const auto first = engine::run_sweep(spec, {.threads = 2}, {},
                                         {.manifest_path = file.path()});
    const auto replayed = engine::run_sweep(spec, {.threads = 2}, {},
                                            {.manifest_path = file.path()});
    ASSERT_EQ(replayed.rows.size(), first.rows.size());
    for (std::size_t p = 0; p < first.rows.size(); ++p) {
        EXPECT_EQ(replayed.rows[p].times, first.rows[p].times);
        // Pure replay reproduces even the recorded per-replica wall times.
        EXPECT_DOUBLE_EQ(replayed.rows[p].wall_seconds, first.rows[p].wall_seconds);
    }
}

TEST(manifest_test, fingerprint_mismatch_hard_fails_with_diagnostic) {
    scratch_file file("mismatch.manifest");
    const auto spec = small_spec();
    (void)engine::run_sweep(spec, {.threads = 2}, {}, {.manifest_path = file.path()});

    auto edited = spec;
    edited.base.seed = 7;  // a different experiment
    try {
        (void)engine::run_sweep(edited, {.threads = 2}, {},
                                {.manifest_path = file.path()});
        FAIL() << "resuming an edited spec must throw manifest_error";
    } catch (const engine::manifest_error& e) {
        EXPECT_NE(std::string{e.what()}.find("does not match"), std::string::npos)
            << e.what();
    }

    // Changed repetitions must fail too (the grid shape disagrees).
    auto more_reps = spec;
    more_reps.repetitions = 5;
    EXPECT_THROW((void)engine::run_sweep(more_reps, {.threads = 2}, {},
                                         {.manifest_path = file.path()}),
                 engine::manifest_error);
}

TEST(manifest_test, mismatch_diagnostic_carries_both_digests) {
    scratch_file file("digests.manifest");
    const auto spec = small_spec();
    (void)engine::run_sweep(spec, {.threads = 2}, {}, {.manifest_path = file.path()});

    auto edited = spec;
    edited.base.max_steps = 60'000;
    try {
        (void)engine::run_sweep(edited, {.threads = 2}, {},
                                {.manifest_path = file.path()});
        FAIL() << "resuming an edited spec must throw manifest_error";
    } catch (const engine::manifest_error& e) {
        // The message names both fingerprints in their canonical hex form.
        const std::string what = e.what();
        const std::string ledger =
            engine::fingerprint_hex(engine::sweep_fingerprint(spec));
        const std::string ours =
            engine::fingerprint_hex(engine::sweep_fingerprint(edited));
        EXPECT_NE(what.find(ledger), std::string::npos) << what;
        EXPECT_NE(what.find(ours), std::string::npos) << what;
    }
}

TEST(manifest_test, fingerprint_hex_is_canonical_lower_case) {
    EXPECT_EQ(engine::fingerprint_hex(0x0123456789abcdefULL), "0123456789abcdef");
    EXPECT_EQ(engine::fingerprint_hex(0), "0000000000000000");
    EXPECT_EQ(engine::fingerprint_hex(0xffffffffffffffffULL), "ffffffffffffffff");
}

TEST(manifest_test, first_spec_difference_names_the_differing_field) {
    const auto spec = small_spec();
    const auto points = spec.expand();

    // Identical expansions: no difference to report.
    EXPECT_EQ(engine::first_spec_difference(points, spec.repetitions, points,
                                            spec.repetitions),
              "");

    // Replica-count difference wins before any per-point field.
    EXPECT_EQ(engine::first_spec_difference(points, 3, points, 5),
              "repetitions (3 vs 5)");

    // A per-point double difference reports the field and both bit patterns
    // (the fingerprint hashes bits, so last-ulp differences are real).
    auto other = spec;
    other.c1 = {2.5, 3.25};
    const auto other_points = other.expand();
    const std::string diff = engine::first_spec_difference(
        points, spec.repetitions, other_points, other.repetitions);
    EXPECT_NE(diff.find("point 1: radius ("), std::string::npos) << diff;

    // An integer field renders its values directly.
    auto reseeded = spec;
    reseeded.base.seed = 43;
    const auto reseeded_points = reseeded.expand();
    EXPECT_EQ(engine::first_spec_difference(points, spec.repetitions, reseeded_points,
                                            reseeded.repetitions),
              "point 0: seed (42 vs 43)");
}

// ------------------------------------------------------- atomic file sinks ---

TEST(manifest_test, atomic_json_sink_publishes_closed_documents_per_row) {
    // Rows to feed come from a real (tiny) sweep.
    engine::memory_sink memory;
    engine::result_sink* mem_sinks[] = {&memory};
    auto spec = small_spec();
    spec.repetitions = 2;
    (void)engine::run_sweep(spec, {.threads = 2}, mem_sinks);
    ASSERT_EQ(memory.rows().size(), 2u);

    scratch_file file("rows.json");
    engine::atomic_file_sink sink(file.path(), engine::atomic_file_sink::format::json);
    // Construction publishes an empty, closed document.
    EXPECT_EQ(file.read(), "{\"rows\": [\n]}\n");

    sink.on_row(memory.rows()[0]);
    std::string mid = file.read();
    // The mid-stream document is closed (valid) and holds exactly one row.
    EXPECT_EQ(mid.substr(mid.size() - 4), "\n]}\n");
    EXPECT_NE(mid.find("\"index\": 0"), std::string::npos);
    EXPECT_EQ(mid.find("\"index\": 1"), std::string::npos);

    sink.on_row(memory.rows()[1]);
    sink.finish();
    sink.finish();  // idempotent

    // The final document is byte-identical to a plain json_sink rendering.
    std::ostringstream reference;
    engine::json_sink ref(reference);
    ref.on_row(memory.rows()[0]);
    ref.on_row(memory.rows()[1]);
    ref.finish();
    EXPECT_EQ(file.read(), reference.str());
    EXPECT_FALSE(std::filesystem::exists(file.path() + ".tmp"));
}

TEST(manifest_test, atomic_csv_sink_matches_the_stream_sink) {
    engine::memory_sink memory;
    engine::result_sink* mem_sinks[] = {&memory};
    auto spec = small_spec();
    spec.repetitions = 2;
    (void)engine::run_sweep(spec, {.threads = 2}, mem_sinks);

    scratch_file file("rows.csv");
    engine::atomic_file_sink sink(file.path(), engine::atomic_file_sink::format::csv);
    for (const auto& row : memory.rows()) {
        sink.on_row(row);
    }
    sink.finish();

    std::ostringstream reference;
    engine::csv_sink ref(reference);
    for (const auto& row : memory.rows()) {
        ref.on_row(row);
    }
    EXPECT_EQ(file.read(), reference.str());
}

// ----------------------------------------------------------------- runner ---

TEST(manifest_test, replica_seeds_are_prefix_stable) {
    // The resume-at-replica-boundary contract: seed r never depends on the
    // batch size, so the replicas a resumed run still has to compute get
    // exactly the seeds the uninterrupted run would have used.
    const auto full = engine::replica_seeds(123, 6);
    for (std::size_t count = 0; count <= full.size(); ++count) {
        const auto prefix = engine::replica_seeds(123, count);
        ASSERT_EQ(prefix.size(), count);
        for (std::size_t i = 0; i < count; ++i) {
            EXPECT_EQ(prefix[i], full[i]) << i;
        }
    }
}

}  // namespace
