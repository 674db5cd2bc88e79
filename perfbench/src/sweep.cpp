#include "sweep.h"

#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/cell_partition.h"
#include "core/scenario.h"
#include "engine/manifest.h"
#include "engine/thread_pool.h"
#include "engine/trace_sink.h"
#include "flood.h"
#include "mobility/factory.h"
#include "mobility/walker.h"
#include "rng/rng.h"
#include "service/wire.h"
#include "util/telemetry.h"

namespace perfbench {

namespace mh = manhattan;
namespace fs = std::filesystem;

namespace {

// The T3a radius grid of exp_t3_vs_r at a small n: many short replicas, so
// the sweep layer (scheduling, aggregation, persistence) carries weight.
// The durable pass is fsync-bound and its writes grow with the square of
// the replica count; 60 replicas keep one run's writes small enough that
// back-to-back runs do not drain a rate-limited disk and slow each other.
constexpr std::size_t sweep_n = 200;
constexpr std::size_t sweep_reps = 10;
const std::vector<double> sweep_c1 = {1.5, 2.0, 2.5, 3.0, 4.0, 6.0};
constexpr std::size_t plain_passes = 8;

mh::engine::sweep_spec t3a_spec(std::uint64_t seed) {
    mh::engine::sweep_spec spec;
    spec.base.source = mh::core::source_placement::center_most;
    spec.base.seed = seed;
    spec.base.max_steps = 500'000;
    spec.repetitions = sweep_reps;
    spec.n = {sweep_n};
    spec.c1 = sweep_c1;
    spec.speed_factor = {1.0};
    return spec;
}

/// Every trace line parses as a JSON object with an "event", and every
/// *_begin has its *_end (matched on sweep / point / replica ids).
std::string trace_problem(const std::string& path) {
    std::ifstream in(path);
    if (!in) {
        return "trace file missing";
    }
    std::multiset<std::string> open;
    std::string line;
    std::size_t lines = 0;
    while (std::getline(in, line)) {
        ++lines;
        mh::service::json_value v;
        try {
            v = mh::service::parse_json(line);
        } catch (const std::exception& e) {
            return "trace line " + std::to_string(lines) + " does not parse: " + e.what();
        }
        const mh::service::json_value* event = v.find("event");
        if (event == nullptr || event->what != mh::service::json_value::kind::string) {
            return "trace line " + std::to_string(lines) + " has no event";
        }
        const std::string& name = event->text;
        const bool begin = name.ends_with("_begin");
        if (!begin && !name.ends_with("_end")) {
            continue;
        }
        std::string key = name.substr(0, name.rfind('_'));
        for (const char* id : {"sweep", "point", "replica"}) {
            const mh::service::json_value* f = v.find(id);
            if (f != nullptr && f->what == mh::service::json_value::kind::integer) {
                key += ':';
                key += std::to_string(f->whole);
            }
        }
        if (begin) {
            open.insert(key);
        } else if (const auto it = open.find(key); it != open.end()) {
            open.erase(it);
        } else {
            return "trace event " + name + " (" + key + ") has no begin";
        }
    }
    if (lines == 0) {
        return "trace file empty";
    }
    return open.empty() ? std::string{} : "unmatched begin event " + *open.begin();
}

}  // namespace

std::string csv_of(const std::vector<mh::engine::sweep_row>& rows) {
    std::ostringstream out;
    mh::engine::csv_sink sink(out);
    for (const mh::engine::sweep_row& row : rows) {
        sink.on_row(row);
    }
    sink.finish();
    return out.str();
}

void run_sweep_workload(const options& opt, outcome& out) {
    const mh::engine::sweep_spec spec = t3a_spec(derive_seed(opt.seed, 0));
    std::string reference_csv;
    std::uint64_t fingerprint = 0;
    std::vector<mh::engine::sweep_point> points;
    std::size_t replicas = 0;

    std::vector<double> setup;
    std::vector<double> plain_ms;
    std::vector<double> durable_ms;
    std::vector<double> durable_cpu_ms;
    std::vector<double> traced_plain_ms;
    // Traced-round figures.
    std::vector<double> busy_fraction;
    std::vector<double> queue_wait;
    std::vector<double> first_row;
    std::vector<double> aggregate_ms;
    std::vector<double> wchar_mb;
    std::vector<double> write_calls;
    std::vector<double> trace_mb;
    std::vector<double> manifest_mb;
    std::vector<double> amplification;
    std::vector<double> flush_ms;
    std::unique_ptr<mh::engine::thread_pool> pool;

    const io_counters io_before = read_io();
    const auto t_run = steady::now();
    for (std::uint64_t round = 0; since(t_run) < opt.seconds || round < (opt.trace ? 2u : 1u);
         ++round) {
        const bool traced = opt.trace && round % 2 == 1;
        const mh::util::telemetry::scoped_enable telemetry(traced);
        tracer::global().set_enabled(traced);

        // Set-up: a fresh caller-owned pool, the expanded grid and its
        // fingerprint, and one warm-up plain pass (its rows are the
        // reference every later pass must reproduce).
        pool.reset();
        const auto t_setup = steady::now();
        {
            const span s("engine", "thread_pool");
            pool = std::make_unique<mh::engine::thread_pool>(4);
        }
        {
            const span s("engine", "sweep_spec::expand");
            points = spec.expand();
        }
        {
            const span s("engine", "sweep_fingerprint");
            fingerprint = mh::engine::sweep_fingerprint(points, spec.repetitions);
        }
        replicas = points.size() * spec.repetitions;
        mh::engine::run_options opts;
        opts.pool = pool.get();
        mh::engine::memory_sink warm;
        {
            mh::engine::result_sink* sinks[] = {&warm};
            const span s("engine", "run_sweep");
            (void)mh::engine::run_sweep(spec, opts, sinks);
        }
        if (!traced) {
            setup.push_back(since(t_setup));
        }
        if (reference_csv.empty()) {
            reference_csv = csv_of(warm.rows());
        }
        out.check(csv_of(warm.rows()) == reference_csv, "warm-up pass rows differ");

        // Plain passes: several per round, as one is only a few ms.
        std::vector<double> plain_s;
        const mh::engine::pool_stats stats_before = pool->stats();
        for (std::size_t pass = 0; pass < plain_passes; ++pass) {
            mh::engine::memory_sink plain_rows;
            const auto t_plain = steady::now();
            first_row_sink first(t_plain);
            {
                mh::engine::result_sink* sinks[] = {&plain_rows, &first};
                const span s("engine", "run_sweep");
                (void)mh::engine::run_sweep(spec, opts, sinks);
            }
            plain_s.push_back(since(t_plain));
            if (traced) {
                first_row.push_back(first.first_s());
            }
            out.check(csv_of(plain_rows.rows()) == reference_csv, "plain pass rows differ");
        }
        const mh::engine::pool_stats stats_after = pool->stats();
        double plain_total = 0.0;
        for (const double s : plain_s) {
            plain_total += s;
        }

        // Durable pass: trace sink and checkpoint manifest at their default
        // cadence, telemetry on as --trace= turns it on, fresh directory.
        const std::string dir = opt.work_dir + "/sweep-" + std::to_string(round);
        fs::create_directories(dir);
        const std::string trace_path = dir + "/trace.jsonl";
        const std::string manifest_path = dir + "/sweep.manifest";
        mh::engine::memory_sink durable_rows;
        double flush = 0.0;
        const io_counters io0 = read_io();
        const double cpu0 = cpu_seconds();
        const auto t_durable = steady::now();
        {
            const mh::util::telemetry::scoped_enable durable_telemetry(true);
            mh::engine::trace_sink trace(trace_path);
            mh::engine::run_options durable = opts;
            durable.trace = &trace;
            mh::engine::checkpoint_options checkpoint;
            checkpoint.manifest_path = manifest_path;
            mh::engine::result_sink* sinks[] = {&durable_rows};
            {
                const span s("engine", "run_sweep.durable");
                (void)mh::engine::run_sweep(spec, durable, sinks, checkpoint);
            }
            const span s("engine", "trace_sink::flush");
            const auto t_flush = steady::now();
            trace.flush();
            flush = since(t_flush) * 1e3;
        }
        const double durable_s = since(t_durable);
        const double durable_cpu_s = cpu_seconds() - cpu0;
        const io_counters io1 = read_io();
        out.check(csv_of(durable_rows.rows()) == reference_csv,
                  "durable pass rows differ from the plain pass");
        const std::string problem = trace_problem(trace_path);
        out.check(problem.empty(), "durable trace: " + problem);
        const mh::engine::run_manifest manifest = mh::engine::load_manifest(manifest_path);
        out.check(manifest.fingerprint == fingerprint && manifest.complete(),
                  "manifest fingerprint " + mh::engine::fingerprint_hex(manifest.fingerprint) +
                      " vs sweep_fingerprint(spec) " +
                      mh::engine::fingerprint_hex(fingerprint));

        const double per_durable = durable_s / static_cast<double>(replicas) * 1e3;
        if (!traced) {
            for (const double s : plain_s) {
                plain_ms.push_back(s / static_cast<double>(replicas) * 1e3);
            }
            durable_ms.push_back(per_durable);
            durable_cpu_ms.push_back(durable_cpu_s / static_cast<double>(replicas) * 1e3);
        } else {
            for (const double s : plain_s) {
                traced_plain_ms.push_back(s / static_cast<double>(replicas) * 1e3);
            }
            busy_fraction.push_back((busy_seconds(stats_after) - busy_seconds(stats_before)) /
                                    (static_cast<double>(pool->size()) * plain_total));
            queue_wait.push_back((stats_after.queue_wait_seconds -
                                  stats_before.queue_wait_seconds) /
                                 static_cast<double>(plain_passes));
            const auto table = manifest.by_point();
            timed_ms(aggregate_ms, "stats", "aggregate_sweep_row", [&] {
                for (std::size_t p = 0; p < points.size(); ++p) {
                    std::vector<mh::engine::replica_stat> stats;
                    for (const mh::engine::replica_record* record : table[p]) {
                        stats.push_back(record->stat);
                    }
                    (void)mh::engine::aggregate_sweep_row(points[p], stats);
                }
            });
            const double files =
                static_cast<double>(file_bytes(trace_path) + file_bytes(manifest_path));
            wchar_mb.push_back(static_cast<double>(io1.wchar - io0.wchar) / 1e6);
            write_calls.push_back(static_cast<double>(io1.syscw - io0.syscw));
            trace_mb.push_back(static_cast<double>(file_bytes(trace_path)) / 1e6);
            manifest_mb.push_back(static_cast<double>(file_bytes(manifest_path)) / 1e6);
            amplification.push_back(static_cast<double>(io1.wchar - io0.wchar) / files);
            flush_ms.push_back(flush);
        }
        tracer::global().set_enabled(false);
        std::error_code ec;
        fs::remove_all(dir, ec);
    }
    out.span_mark = tracer::global().size();
    const io_counters io_after = read_io();
    const double window_s = since(t_run);
    const double fds_end = static_cast<double>(open_fd_count());
    const double threads_end = proc_status("Threads");
    const double vm_mb_end = proc_status("VmSize") / 1024.0;

    const std::size_t rounds = durable_ms.size();
    out.end_to_end.add("setup_s", median(setup), "s", setup.size(),
                       "pool start + expand + fingerprint + warm-up plain pass");
    out.end_to_end.add("base_ms", median(plain_ms), "ms", plain_ms.size(),
                       "per replica, plain pass (= 1000 / replicas_per_s)");
    // CPU time, not wall time: the durable pass waits on fsync, and fsync
    // latency on a shared disk swings several-fold from run to run.
    out.end_to_end.add("variant_ms", median(durable_cpu_ms), "ms", rounds,
                       "= engine.persist.cpu_ms_per_replica");
    out.detail.add("engine.persist.cpu_ms_per_replica", median(durable_cpu_ms), "ms", rounds,
                   "process CPU time of the durable pass per replica");
    out.detail.add("replicas_per_s", 1e3 / median(plain_ms), "1/s", plain_ms.size(),
                   std::to_string(replicas) + " replicas per pass");
    out.detail.add("durable_replicas_per_s", 1e3 / median(durable_ms), "1/s", rounds);

    if (!opt.trace) {
        return;
    }
    const std::size_t traced_rounds = flush_ms.size();
    out.detail.add("engine.pool.busy_fraction", median(busy_fraction), "ratio", traced_rounds,
                   "plain pass");
    out.detail.add("engine.pool.queue_wait_s", median(queue_wait), "s", traced_rounds,
                   "plain pass, summed over tasks");
    out.detail.add("engine.sweep.first_row_s", median(first_row), "s", first_row.size(),
                   "plain pass");
    out.detail.add("stats.aggregate_ms", median(aggregate_ms), "ms", traced_rounds,
                   "every row re-aggregated from the manifest");
    out.detail.add("engine.persist.wchar_mb", median(wchar_mb), "MB", traced_rounds,
                   "durable pass");
    out.detail.add("engine.persist.write_calls", median(write_calls), "count", traced_rounds,
                   "durable pass");
    out.detail.add("engine.trace_sink.file_mb", median(trace_mb), "MB", traced_rounds);
    out.detail.add("engine.manifest.file_mb", median(manifest_mb), "MB", traced_rounds);
    out.detail.add("engine.persist.write_amplification", median(amplification), "ratio",
                   traced_rounds, "wchar / final file bytes");
    out.detail.add("engine.persist.overhead_ms_per_replica",
                   median(durable_ms) - median(plain_ms), "ms", rounds,
                   "durable - plain, untraced rounds");
    out.detail.add("engine.trace_sink.flush_ms", median(flush_ms), "ms", traced_rounds);

    // Standalone calls at the grid's first point.
    tracer::global().set_enabled(true);
    const mh::core::scenario& sc = points.front().sc;
    const auto model = mh::mobility::make_model(mh::mobility::model_kind::mrwp, sc.params.side);
    std::vector<double> runs;
    std::vector<double> walkers;
    std::vector<double> partitions;
    for (std::uint64_t i = 0; i < 40; ++i) {
        mh::core::scenario copy = sc;
        copy.seed = derive_seed(opt.seed, 100 + i);
        timed_ms(runs, "core", "run_scenario", [&] { (void)mh::core::run_scenario(copy); });
        timed_ms(walkers, "mobility", "walker", [&] {
            const mh::mobility::walker agents(model, sc.params.n, sc.params.speed,
                                              mh::rng::rng(copy.seed));
        });
        timed_ms(partitions, "core", "cell_partition", [&] {
            const mh::core::cell_partition cells(sc.params.n, sc.params.side, sc.params.radius);
        });
    }
    out.detail.add("core.run_scenario_ms_p50", median(runs), "ms", runs.size());
    out.detail.add("mobility.walker_setup_ms_p50", median(walkers), "ms", walkers.size());
    out.detail.add("core.cell_partition_ms_p50", median(partitions), "ms", partitions.size());

    const scenario_size size{sc.params.n, sc.params.side, sc.params.radius, sc.params.speed};
    {
        const mh::util::telemetry::scoped_enable telemetry(true);
        add_replica_probe(out, size, derive_seed(opt.seed, 1u << 20), *pool, 1.0);
    }
    add_kernel_metrics(out.per_layer, size, derive_seed(opt.seed, 1u << 21), *pool, 0.5);
    tracer::global().set_enabled(false);
    add_process_metrics(out.per_layer, io_before, io_after, window_s, fds_end, threads_end,
                        vm_mb_end, 1);
    out.per_layer.add("trace.overhead_frac", median(traced_plain_ms) / median(plain_ms) - 1.0,
                      "ratio", traced_plain_ms.size(),
                      "traced / untraced plain ms per replica, minus 1");
}

}  // namespace perfbench
