// PERF — the intra-replica hot path: steps/sec of one flooding replica's
// per-step loop (mobility advance -> grid rebuild -> neighbourhood scan) as
// a function of n, for the serial path and for a borrowed thread pool at
// several worker counts. Emits the machine-readable BENCH_flood.json rows
// the perf trajectory tracks (see docs/PERF.md for how to read it).
//
// Each measurement times complete replicas (construction excluded,
// run_spread() timed): every per-step phase stays live for the whole
// window, and the flooding time doubles as the determinism witness — every
// engine variant runs the identical simulation (same seed), so the per-row
// flooding_time must agree across engines, and the emitted JSON shows it.
//
// Knobs: --n=10000,31623,100000,1000000 --threads=1,4,0 --reps=3 --c1=1.0 --seed=1
//        --max-steps=5000 --json=BENCH_flood.json
//        --baseline=BENCH_flood.json --regress-tol=0.25
//        --min-speedup=3 --min-speedup-cores=8 --overhead-tol=0.02
//
// --threads= lists pool sizes; 0 resolves to this host's hardware
// concurrency and repeated sizes are measured once.
//
// Beside each row's timed pass the report prints the host's steal share
// over that pass (/proc/stat) and, on pool rows, two counts of the pool's
// that count with telemetry off: the multi-lane run() calls of the pass
// ("team runs") and those in which no worker claimed a lane, so the caller
// ran every lane at the serial rate ("caller-only runs"), and the workers
// woken on the caller's CPU that the pool moved off it ("helper hops"). The
// JSON rows carry the same figures.
//
// Per-phase breakdown: every engine row (serial and pool) gets one extra
// pass with telemetry enabled (util/telemetry.h) after its telemetry-off,
// baseline-comparable measurement. That pass yields the advance /
// grid_rebuild / scan / components split in the report and in
// BENCH_flood.json ("phases"), plus telemetry_steps_per_sec, and on pool
// rows the lane dispatch figures from the pool's registry: lane start skew
// and lane-time imbalance per run() ("lanes"). The report also gives each
// pool row's per-phase speedup over the serial row of the same n (serial
// phase seconds / pool phase seconds). --overhead-tol=TOL arms the
// telemetry overhead gate: at the largest n, the serial enabled pass's
// throughput must stay within TOL of the disabled serial row (the
// instrumented spans are ms-scale steps, so clock reads should cost well
// under 1%).
//
// --baseline= compares this run's per-step throughput against a previously
// emitted BENCH_flood.json: a matched (n, engine, threads) row whose
// steps_per_sec fell by more than --regress-tol (default 25%) fails the
// binary. The comparison only *enforces* when the baseline was measured on
// a host with the same hardware concurrency and the same CPU model (its
// host.cpu_model) — two 4-core hosts of different CPUs run the same code
// up to 2x apart, so a 25% gate between them says nothing; mismatches name
// the field that differs and pass.
//
// --min-speedup= arms the multicore scaling gate (ROADMAP's >= 3x target at
// n = 1e5): the best pool speedup vs the 1-thread pool at the *largest*
// measured n must reach the given factor. Like the baseline gate it only
// enforces where the claim is testable — on hosts with at least
// --min-speedup-cores (default 8) hardware threads; smaller hosts report
// without failing.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/flooding.h"
#include "core/params.h"
#include "engine/thread_pool.h"
#include "mobility/factory.h"
#include "mobility/walker.h"
#include "util/telemetry.h"
#include "util/timer.h"

using namespace manhattan;

namespace {

struct perf_row {
    std::size_t n = 0;
    std::string engine;       // "serial" or "pool"
    std::size_t threads = 0;  // pool workers (0 for the serial row)
    std::size_t steps = 0;    // summed flooding steps over the reps
    double seconds = 0.0;     // summed run_spread() wall time
    double steps_per_sec = 0.0;
    std::uint64_t flooding_time = 0;  // determinism witness: equal across engines
    double speedup_vs_1thread = 0.0;  // 0 until the 1-thread row is known
    util::phase_profile phases;       // zeros unless measured with telemetry on
    double telemetry_steps_per_sec = 0.0;  // the enabled pass
    // The timed pass: the host's steal share over it in percent (negative
    // when /proc/stat is unreadable), and on pool rows its multi-lane run()
    // calls, those in which the caller ran every lane, and its helper hops.
    double steal_pct = -1.0;
    std::uint64_t team_runs = 0;
    std::uint64_t caller_only_runs = 0;
    std::uint64_t helper_hops = 0;
    // Lane dispatch over the enabled pass (pool rows with more than one
    // lane): multi-lane run() calls, and the p50/p90 of lane start skew
    // (seconds) and lane-time imbalance (slowest / fastest lane), each the
    // upper bound of the histogram bucket holding the quantile.
    std::uint64_t lane_runs = 0;
    double skew_p50_s = 0.0;
    double skew_p90_s = 0.0;
    double imbalance_p50 = 0.0;
    double imbalance_p90 = 0.0;
};

/// Upper bound of the bucket of histogram \p h that holds quantile \p q
/// (+inf in the overflow bucket, 0 for an empty histogram).
double bucket_quantile(const engine::metric_snapshot& h, double q) {
    std::uint64_t total = 0;
    for (const std::uint64_t c : h.counts) {
        total += c;
    }
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < h.counts.size() && total > 0; ++b) {
        seen += h.counts[b];
        if (static_cast<double>(seen) >= q * static_cast<double>(total)) {
            return b < h.bounds.size() ? h.bounds[b] : std::numeric_limits<double>::infinity();
        }
    }
    return 0.0;
}

/// Fill \p row's lane figures from \p pool's registry.
void read_lane_metrics(perf_row& row, const engine::thread_pool& pool) {
    for (const engine::metric_snapshot& m : pool.metrics().snapshot()) {
        if (m.name == "pool.lane_runs") {
            row.lane_runs = static_cast<std::uint64_t>(m.value);
        } else if (m.name == "pool.lane_start_skew_s") {
            row.skew_p50_s = bucket_quantile(m, 0.5);
            row.skew_p90_s = bucket_quantile(m, 0.9);
        } else if (m.name == "pool.lane_imbalance_ratio") {
            row.imbalance_p50 = bucket_quantile(m, 0.5);
            row.imbalance_p90 = bucket_quantile(m, 0.9);
        }
    }
}

/// The count of \p pool's counter \p name (0 when it is not registered).
std::uint64_t pool_counter(const engine::thread_pool& pool, const std::string& name) {
    for (const engine::metric_snapshot& m : pool.metrics().snapshot()) {
        if (m.name == name) {
            return static_cast<std::uint64_t>(m.value);
        }
    }
    return 0;
}

/// The host's CPU time so far, from /proc/stat's aggregate "cpu" line: the
/// steal ticks and the sum of user .. steal (guest time is inside user).
struct cpu_ticks {
    bool ok = false;
    std::uint64_t steal = 0;
    std::uint64_t total = 0;
};

cpu_ticks read_cpu_ticks() {
    std::ifstream in("/proc/stat");
    std::string label;
    cpu_ticks t;
    if (!(in >> label) || label != "cpu") {
        return t;
    }
    std::array<std::uint64_t, 8> fields{};  // user nice system idle iowait irq softirq steal
    for (std::uint64_t& ticks : fields) {
        if (!(in >> ticks)) {
            return t;
        }
        t.total += ticks;
    }
    t.steal = fields[7];
    t.ok = true;
    return t;
}

/// The steal share in percent between two readings (-1 if unknown).
double steal_pct(const cpu_ticks& from, const cpu_ticks& to) {
    if (!from.ok || !to.ok || to.total <= from.total) {
        return -1.0;
    }
    return 100.0 * static_cast<double>(to.steal - from.steal) /
           static_cast<double>(to.total - from.total);
}

/// A steal share for the report and the JSON ("-" / null when unknown).
std::string steal_text(double pct, const char* unknown) {
    return pct < 0.0 ? std::string{unknown} : util::fmt(pct, 3);
}

/// A bucket bound from bucket_quantile for the report, scaled.
std::string bound_text(double value, double scale) {
    return std::isinf(value) ? "overflow" : "<= " + util::fmt(value * scale);
}

/// The pool sizes to measure: --threads= with 0 resolved to this host's
/// hardware concurrency and repeats dropped (first occurrence kept).
std::vector<std::size_t> pool_sizes(const std::vector<long long>& requested) {
    std::vector<std::size_t> sizes;
    for (const long long value : requested) {
        const std::size_t size =
            value == 0 ? engine::default_thread_count() : static_cast<std::size_t>(value);
        if (std::find(sizes.begin(), sizes.end(), size) == sizes.end()) {
            sizes.push_back(size);
        }
    }
    return sizes;
}

/// The CPU model of this host (/proc/cpuinfo "model name"), quote-free so
/// it embeds in JSON as is.
std::string cpu_model() {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0 && line.find(':') != std::string::npos) {
            std::string model = line.substr(line.find(':') + 1);
            model.erase(0, model.find_first_not_of(' '));
            std::replace(model.begin(), model.end(), '"', ' ');
            std::replace(model.begin(), model.end(), '\\', ' ');
            return model;
        }
    }
    return "unknown";
}

/// One timed measurement: `reps` complete replicas of the identical flood
/// (same seed every rep — identical work), run_spread() timed, construction
/// excluded. A null pool means the serial path.
perf_row measure(std::size_t n, double c1, std::uint64_t seed, std::size_t reps,
                 std::uint64_t max_steps, engine::thread_pool* pool) {
    const double radius = c1 * std::sqrt(std::log(static_cast<double>(n)));
    const core::net_params params = core::net_params::standard_case(
        n, radius, core::paper::speed_bound(radius));
    const auto model = mobility::make_model(mobility::model_kind::mrwp, params.side);

    perf_row row;
    row.n = n;
    row.engine = pool != nullptr ? "pool" : "serial";
    row.threads = pool != nullptr ? pool->size() : 0;
    for (std::size_t rep = 0; rep < reps; ++rep) {
        rng::rng gen(seed);
        mobility::walker agents(model, n, params.speed, gen);
        core::flood_config cfg;
        cfg.max_steps = max_steps;
        cfg.record_timeline = false;
        core::flooding_sim sim(std::move(agents), radius, cfg, nullptr,
                               pool != nullptr ? &pool->executor() : nullptr);
        const util::timer clock;
        const auto flooding_time = sim.run_spread().messages[0].flooding_time;
        row.seconds += clock.seconds();
        row.steps += flooding_time;
        row.flooding_time = flooding_time;
        row.phases += sim.profile();  // all zeros while telemetry is off
    }
    row.steps_per_sec =
        row.seconds > 0.0 ? static_cast<double>(row.steps) / row.seconds : 0.0;
    return row;
}

/// One baseline row parsed back out of a BENCH_flood.json.
struct baseline_row {
    std::size_t n = 0;
    std::string engine;
    std::size_t threads = 0;
    double steps_per_sec = 0.0;
};

struct baseline_file {
    std::size_t hardware_concurrency = 0;
    std::string cpu_model;
    std::vector<baseline_row> rows;
};

/// Extract the number following "key": in \p text from \p pos (the file is
/// our own write_json output, so a flat scan is enough).
double field_after(const std::string& text, const std::string& key, std::size_t pos) {
    const std::size_t at = text.find('"' + key + "\":", pos);
    if (at == std::string::npos) {
        throw std::invalid_argument("baseline: missing field '" + key + "'");
    }
    return std::stod(text.substr(at + key.size() + 3));
}

baseline_file parse_baseline(std::istream& in) {
    std::string text{std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
    baseline_file base;
    base.hardware_concurrency =
        static_cast<std::size_t>(field_after(text, "hardware_concurrency", 0));
    const std::size_t model_at = text.find("\"cpu_model\": \"");
    if (model_at == std::string::npos) {
        throw std::invalid_argument("baseline: missing field 'cpu_model'");
    }
    const std::size_t model_from = model_at + 14;
    base.cpu_model = text.substr(model_from, text.find('"', model_from) - model_from);
    std::size_t pos = text.find("\"rows\"");
    if (pos == std::string::npos) {
        throw std::invalid_argument("baseline: no rows array");
    }
    while ((pos = text.find("{\"n\":", pos)) != std::string::npos) {
        baseline_row row;
        row.n = static_cast<std::size_t>(field_after(text, "n", pos));
        const std::size_t engine_at = text.find("\"engine\": \"", pos);
        if (engine_at == std::string::npos) {
            throw std::invalid_argument("baseline: row missing field 'engine'");
        }
        const std::size_t engine_from = engine_at + 11;
        row.engine = text.substr(engine_from, text.find('"', engine_from) - engine_from);
        row.threads = static_cast<std::size_t>(field_after(text, "threads", pos));
        row.steps_per_sec = field_after(text, "steps_per_sec", pos);
        base.rows.push_back(std::move(row));
        ++pos;
    }
    return base;
}

/// Compare measured rows against the baseline. Returns false (regression)
/// when any matched row's throughput dropped by more than \p tolerance and
/// the baseline host matches; prints one line per matched row either way.
/// Measured rows the baseline lacks pass but warn (bench::note) — a freshly
/// added axis point (new n, new thread count) is uncovered until the
/// baseline is regenerated, and that gap should be visible in the log, not
/// silent.
bool check_baseline(const baseline_file& base, const std::vector<perf_row>& rows,
                    double tolerance) {
    bool host_match = true;
    const auto differs = [&](const std::string& field, const std::string& theirs,
                             const std::string& ours) {
        if (theirs != ours) {
            host_match = false;
            bench::note("baseline host." + field + " is '" + theirs + "', this host's '" +
                        ours + "' — reporting only, not enforcing");
        }
    };
    differs("hardware_concurrency", util::fmt(base.hardware_concurrency),
            util::fmt(engine::default_thread_count()));
    differs("cpu_model", base.cpu_model, cpu_model());
    if (host_match) {
        std::printf("baseline host matches (%zu hardware threads, '%s') — enforcing\n",
                    base.hardware_concurrency, base.cpu_model.c_str());
    }
    bool ok = true;
    std::size_t matched = 0;
    for (const perf_row& row : rows) {
        bool found = false;
        for (const baseline_row& ref : base.rows) {
            if (ref.n != row.n || ref.engine != row.engine || ref.threads != row.threads) {
                continue;
            }
            found = true;
            ++matched;
            const double ratio =
                ref.steps_per_sec > 0.0 ? row.steps_per_sec / ref.steps_per_sec : 1.0;
            const bool regressed = ratio < 1.0 - tolerance;
            std::printf("baseline n=%zu %s/%zu: %.4g -> %.4g steps/s (x%.2f)%s\n", row.n,
                        row.engine.c_str(), row.threads, ref.steps_per_sec,
                        row.steps_per_sec, ratio,
                        regressed ? (host_match ? "  REGRESSION" : "  (slower)") : "");
            ok = ok && (!regressed || !host_match);
            break;
        }
        if (!found) {
            bench::note("baseline has no (n=" + util::fmt(row.n) + ", " + row.engine + "/" +
                        util::fmt(row.threads) +
                        ") row — measured but not compared; regenerate the baseline "
                        "(--json=) to cover it");
        }
    }
    if (matched == 0) {
        // An armed gate that matches nothing enforces nothing: fail loudly
        // on a matching host so axis drift between the CI command and the
        // checked-in baseline cannot silently disarm the check.
        std::printf("baseline: no (n, engine, threads) rows matched — check --n/--threads%s\n",
                    host_match ? "  REGRESSION GATE DISARMED" : "");
        return !host_match;
    }
    return ok;
}

void write_json(std::ostream& out, const std::vector<perf_row>& rows, double c1,
                std::size_t reps, std::uint64_t max_steps, std::uint64_t seed) {
    out << "{\"bench\": \"flood_step_loop\",\n";
    out << " \"host\": {\"hardware_concurrency\": " << engine::default_thread_count()
        << ", \"cpu_model\": \"" << cpu_model() << "\"},\n";
    out << " \"config\": {\"c1\": " << c1 << ", \"reps\": " << reps
        << ", \"max_steps\": " << max_steps << ", \"seed\": " << seed
        << ", \"model\": \"mrwp\", \"mode\": \"one_hop\"},\n";
    out << " \"rows\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const perf_row& r = rows[i];
        out << "  {\"n\": " << r.n << ", \"engine\": \"" << r.engine
            << "\", \"threads\": " << r.threads << ", \"steps\": " << r.steps
            << ", \"seconds\": " << r.seconds << ", \"steps_per_sec\": " << r.steps_per_sec
            << ", \"flooding_time\": " << r.flooding_time
            << ", \"speedup_vs_1thread\": " << r.speedup_vs_1thread
            << ", \"steal_pct\": " << steal_text(r.steal_pct, "null");
        if (r.engine == "pool") {
            out << ", \"team_runs\": " << r.team_runs
                << ", \"caller_only_runs\": " << r.caller_only_runs
                << ", \"helper_hops\": " << r.helper_hops;
        }
        if (r.telemetry_steps_per_sec > 0.0) {
            // The telemetry pass: per-phase split of the step loop plus the
            // enabled-instrumentation throughput.
            out << ", \"telemetry_steps_per_sec\": " << r.telemetry_steps_per_sec
                << ", \"phases\": {";
            for (std::size_t p = 0; p < util::phase_count; ++p) {
                out << (p == 0 ? "" : ", ") << '"'
                    << util::phase_name(static_cast<util::phase>(p))
                    << "_s\": " << r.phases.seconds[p];
            }
            out << "}";
        }
        if (r.lane_runs > 0) {
            // A quantile in the overflow bucket is written as null.
            const auto number = [](double v) {
                return std::isinf(v) ? std::string{"null"} : util::fmt(v);
            };
            out << ", \"lanes\": {\"runs\": " << r.lane_runs
                << ", \"skew_s_p50\": " << number(r.skew_p50_s)
                << ", \"skew_s_p90\": " << number(r.skew_p90_s)
                << ", \"imbalance_p50\": " << number(r.imbalance_p50)
                << ", \"imbalance_p90\": " << number(r.imbalance_p90) << "}";
        }
        out << "}" << (i + 1 < rows.size() ? ",\n" : "\n");
    }
    out << "]}\n";
}

}  // namespace

namespace {

int run(const util::cli_args& args) {
    const double c1 = args.get_double("c1", 1.0);
    const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    const std::size_t reps = bench::replicas(args, 3);
    const auto max_steps = static_cast<std::uint64_t>(args.get_int("max-steps", 5000));
    const auto n_list =
        bench::parse_list("n", args.get_string("n", "10000,31623,100000,1000000"));
    const auto thread_list =
        pool_sizes(bench::parse_list("threads", args.get_string("threads", "1,4,0")));

    bench::banner("PERF", "intra-replica step-loop throughput (steps/sec vs n and threads)");

    std::vector<perf_row> rows;
    util::table t({"n", "engine", "threads", "steps/sec", "flood time", "speedup vs 1t",
                   "steal %", "team runs", "caller-only runs", "helper hops"});
    bool identical = true;
    bool speedup_seen = false;
    double best_speedup = 0.0;
    double best_speedup_largest_n = 0.0;
    long long largest_n = 0;
    for (const long long value : n_list) {
        largest_n = std::max(largest_n, value);
    }
    double overhead_largest_n = 0.0;  // enabled/disabled throughput at largest n
    for (const long long n_signed : n_list) {
        const auto n = static_cast<std::size_t>(n_signed);
        // Each engine is measured telemetry-off (the baseline-comparable
        // row), then again with the instruments live; the enabled pass's
        // phase split, throughput and lane figures attach to the row.
        std::vector<perf_row> group;
        const auto measure_engine = [&](engine::thread_pool* pool) {
            const auto counted = [&](const char* name) {
                return pool != nullptr ? pool_counter(*pool, name) : 0;
            };
            const std::uint64_t team_before = counted("pool.team_runs");
            const std::uint64_t caller_before = counted("pool.caller_only_runs");
            const std::uint64_t hops_before = counted("pool.helper_hops");
            const cpu_ticks ticks_before = read_cpu_ticks();
            perf_row row = measure(n, c1, seed, reps, max_steps, pool);
            row.steal_pct = steal_pct(ticks_before, read_cpu_ticks());
            row.team_runs = counted("pool.team_runs") - team_before;
            row.caller_only_runs = counted("pool.caller_only_runs") - caller_before;
            row.helper_hops = counted("pool.helper_hops") - hops_before;
            const util::telemetry::scoped_enable on;
            const perf_row enabled = measure(n, c1, seed, reps, max_steps, pool);
            identical = identical && enabled.flooding_time == row.flooding_time;
            row.phases = enabled.phases;
            row.telemetry_steps_per_sec = enabled.steps_per_sec;
            if (pool != nullptr) {
                read_lane_metrics(row, *pool);
            }
            group.push_back(row);
        };
        measure_engine(nullptr);
        if (n_signed == largest_n && group.front().steps_per_sec > 0.0) {
            overhead_largest_n =
                group.front().telemetry_steps_per_sec / group.front().steps_per_sec;
        }
        for (const std::size_t threads : thread_list) {
            engine::thread_pool pool(threads);
            measure_engine(&pool);
        }
        std::optional<double> one_thread_rate;
        for (const perf_row& r : group) {
            if (r.engine == "pool" && r.threads == 1) {
                one_thread_rate = r.steps_per_sec;
            }
        }
        for (perf_row& r : group) {
            identical = identical && r.flooding_time == group.front().flooding_time;
            if (one_thread_rate && *one_thread_rate > 0.0 && r.engine == "pool" &&
                r.threads != 1) {
                r.speedup_vs_1thread = r.steps_per_sec / *one_thread_rate;
                best_speedup = std::max(best_speedup, r.speedup_vs_1thread);
                if (n_signed == largest_n) {
                    best_speedup_largest_n =
                        std::max(best_speedup_largest_n, r.speedup_vs_1thread);
                }
                speedup_seen = true;
            }
            const bool pooled = r.engine == "pool";
            t.add_row({util::fmt(r.n), r.engine, util::fmt(r.threads),
                       util::fmt(r.steps_per_sec), util::fmt(r.flooding_time),
                       r.speedup_vs_1thread > 0.0 ? util::fmt(r.speedup_vs_1thread) : "-",
                       steal_text(r.steal_pct, "-"), pooled ? util::fmt(r.team_runs) : "-",
                       pooled ? util::fmt(r.caller_only_runs) : "-",
                       pooled ? util::fmt(r.helper_hops) : "-"});
            rows.push_back(r);
        }
    }
    std::printf("%s", t.markdown().c_str());

    // Per-phase split from the telemetry passes: each phase's share of the
    // step and, on pool rows, its speedup over the serial row of the same n
    // (serial phase seconds / pool phase seconds; both rows flood the same
    // seed for the same steps), so the phase that does not scale reads lowest.
    util::table pt({"n", "engine", "threads", "advance %", "grid %", "scan %", "components %",
                    "advance x", "grid x", "scan x", "components x", "telemetry steps/s"});
    // Lane dispatch from the same passes (pool rows with more than one lane).
    util::table lt({"n", "threads", "lane runs", "skew p50 (us)", "skew p90 (us)",
                    "imbalance p50", "imbalance p90"});
    for (const perf_row& r : rows) {
        if (r.telemetry_steps_per_sec <= 0.0) {
            continue;
        }
        const double total = r.phases.total_seconds();
        const perf_row& serial = *std::find_if(
            rows.begin(), rows.end(),
            [&](const perf_row& s) { return s.n == r.n && s.engine == "serial"; });
        std::vector<std::string> cells = {util::fmt(r.n), r.engine, util::fmt(r.threads)};
        for (const double s : r.phases.seconds) {
            cells.push_back(total > 0.0 ? util::fmt(100.0 * s / total) : "-");
        }
        for (std::size_t p = 0; p < util::phase_count; ++p) {
            const double pool_s = r.phases.seconds[p];
            const double serial_s = serial.phases.seconds[p];
            cells.push_back(r.engine == "pool" && pool_s > 0.0 && serial_s > 0.0
                                ? util::fmt(serial_s / pool_s)
                                : "-");
        }
        cells.push_back(util::fmt(r.telemetry_steps_per_sec));
        pt.add_row(std::move(cells));
        if (r.lane_runs > 0) {
            lt.add_row({util::fmt(r.n), util::fmt(r.threads), util::fmt(r.lane_runs),
                        bound_text(r.skew_p50_s, 1e6), bound_text(r.skew_p90_s, 1e6),
                        bound_text(r.imbalance_p50, 1.0), bound_text(r.imbalance_p90, 1.0)});
        }
    }
    std::printf("\nper-phase split of the step loop (telemetry pass):\n\n%s",
                pt.markdown().c_str());
    std::printf("\nlane dispatch per multi-lane run() (telemetry pass; histogram bucket "
                "bounds):\n\n%s",
                lt.markdown().c_str());
    bench::note("cores available: " + util::fmt(engine::default_thread_count()));

    if (args.has("json")) {
        const auto path = args.get_string("json", "BENCH_flood.json");
        std::ofstream out(path);
        if (!out) {
            std::fprintf(stderr, "cannot open --json file '%s'\n", path.c_str());
            return 1;
        }
        write_json(out, rows, c1, reps, max_steps, seed);
        bench::note("wrote " + path);
    }

    bool baseline_ok = true;
    if (args.has("baseline")) {
        const auto path = args.get_string("baseline", "BENCH_flood.json");
        std::ifstream in(path);
        if (!in) {
            std::fprintf(stderr, "cannot open --baseline file '%s'\n", path.c_str());
            return 1;
        }
        const double tolerance = args.get_double("regress-tol", 0.25);
        baseline_ok = check_baseline(parse_baseline(in), rows, tolerance);
    }

    // Multicore scaling gate: only enforce where the claim is testable.
    const double min_speedup = args.get_double("min-speedup", 0.0);
    const std::size_t min_speedup_cores = bench::count_arg(args, "min-speedup-cores", 8);
    bool speedup_ok = true;
    if (min_speedup > 0.0) {
        const bool enforce = engine::default_thread_count() >= min_speedup_cores;
        if (!speedup_seen) {
            // An armed gate with no 1-thread pool reference measures nothing:
            // fail loudly on an enforcing host so --threads= drift cannot
            // silently disarm the check (same rule as the baseline gate).
            std::printf("multicore gate: no speedup measured — --threads= must include 1 "
                        "and another value%s\n",
                        enforce ? "  GATE DISARMED" : " (reporting-only host)");
            speedup_ok = !enforce;
        } else {
            const bool reached = best_speedup_largest_n >= min_speedup;
            std::printf("multicore gate: best speedup at n=%lld is %s (target %s, host has "
                        "%zu/%zu required cores — %s)\n",
                        largest_n, util::fmt(best_speedup_largest_n).c_str(),
                        util::fmt(min_speedup).c_str(), engine::default_thread_count(),
                        min_speedup_cores,
                        enforce ? (reached ? "met" : "FAILED") : "reporting only");
            speedup_ok = reached || !enforce;
        }
    }

    // Telemetry overhead gate: the enabled pass must keep within
    // --overhead-tol of the disabled serial throughput at the largest n
    // (where per-step work dwarfs the clock reads; smaller n report only).
    const double overhead_tol = args.get_double("overhead-tol", 0.0);
    bool overhead_ok = true;
    if (overhead_tol > 0.0) {
        if (overhead_largest_n <= 0.0) {
            std::printf("overhead gate: no telemetry pass measured at n=%lld  GATE "
                        "DISARMED\n",
                        largest_n);
            overhead_ok = false;
        } else {
            overhead_ok = overhead_largest_n >= 1.0 - overhead_tol;
            std::printf("overhead gate: telemetry-enabled throughput at n=%lld is x%s of "
                        "disabled (tolerance %s — %s)\n",
                        largest_n, util::fmt(overhead_largest_n).c_str(),
                        util::fmt(overhead_tol).c_str(),
                        overhead_ok ? "met" : "FAILED");
        }
    }

    bench::verdict(identical,
                   "every engine variant reproduces the identical flooding time (the "
                   "intra-replica determinism contract, telemetry pass included)");
    if (!baseline_ok) {
        bench::verdict(false, "per-step throughput within tolerance of the baseline "
                              "(--baseline= regression gate)");
    }
    if (!speedup_ok) {
        bench::verdict(false, "multicore speedup at the largest n reaches the "
                              "--min-speedup= target");
    }
    if (!overhead_ok) {
        bench::verdict(false, "telemetry overhead within --overhead-tol= of the "
                              "disabled step loop");
    }
    if (speedup_seen) {
        std::printf("best speedup vs 1 pool thread: %s (meaningful only on multi-core "
                    "hosts)\n",
                    util::fmt(best_speedup).c_str());
    }
    return identical && baseline_ok && speedup_ok && overhead_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    return manhattan::bench::guarded_main(argc, argv, run);
}
