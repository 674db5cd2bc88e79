// perfbench — the repository benchmark driver. One run measures one workload
// for --seconds seconds, checks its outputs, prints a report (every metric
// with unit and sample count, the host/build stamp, per-layer self times in
// a traced run) and ends with one JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer ones
// (--trace 1). perfbench/METRICS.md maps every metric to its layer and
// workload.
//
// Usage: perfbench --workload flood_1e5|flood_1e6|sweep|service --seed N
//                  --seconds S --trace 0|1
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <unistd.h>

#include "common.h"
#include "flood.h"
#include "service.h"
#include "sweep.h"

namespace {

using namespace perfbench;

// The metric names BENCHMARK.json declares; every run prints exactly these.
const std::vector<std::string> end_to_end_names = {"setup_s", "base_ms", "variant_ms",
                                                   "peak_rss_mb"};

std::vector<std::string> per_layer_names() {
    std::vector<std::string> names;
    for (const char* layer : layers) {
        names.push_back(std::string(layer) + ".self_share");
        names.push_back(std::string(layer) + ".calls");
    }
    for (const char* engine : {"serial", "lanes4"}) {
        const std::string e = engine;
        for (const char* m : {"core.step_ms_p50.", "core.step_ms_p90.", "mobility.advance_s.",
                              "geom.grid_rebuild_s.", "core.scan_s."}) {
            names.push_back(m + e);
        }
    }
    for (const char* m :
         {"engine.pool.tasks_per_step", "engine.pool.busy_fraction.lanes4",
          "mobility.advance_ms.lanes1", "mobility.advance_ms.lanes4", "geom.rebuild_ms.lanes1",
          "geom.rebuild_ms.lanes4", "geom.rebuild_gbps_computed", "util.parallel.dispatch_us",
          "engine.persist.wchar_mb_per_s", "engine.persist.write_calls_per_s",
          "process.open_fds_end",
          "process.threads_end", "process.vm_mb_end", "trace.overhead_frac"}) {
        names.push_back(m);
    }
    return names;
}

// Steps of the 1e6 flood: enough for the informed set to leave the source's
// neighbourhood, few enough for a round to fit a run several times. The
// flood_1e6 workload is for runs by hand: BENCHMARK.json leaves it out, as
// its step times follow the shared host's memory bandwidth too closely to
// hold a regression bound (METRICS.md).
constexpr std::uint64_t flood_1e6_budget = 30;

std::string read_first(const std::string& path) {
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    return line;
}

std::string cpu_model() {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(':');
            return colon == std::string::npos ? line : line.substr(colon + 2);
        }
    }
    return "unknown";
}

std::string cache_size(const char* level) {
    for (int i = 0; i < 8; ++i) {
        const std::string dir = "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i);
        if (read_first(dir + "/level") == level && read_first(dir + "/type") != "Instruction") {
            return read_first(dir + "/size");
        }
    }
    return "unknown";
}

std::string compiler() {
#if defined(__clang__)
    return std::string("Clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("GCC ") + __VERSION__;
#else
    return "unknown";
#endif
}

bool optimised_build() {
#if defined(__OPTIMIZE__) && defined(NDEBUG)
    const std::string type = PERFBENCH_BUILD_TYPE;
    return type == "Release" || type == "RelWithDebInfo" || type == "MinSizeRel";
#else
    return false;
#endif
}

std::string number(double v) {
    char buf[64];
    const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
    return ec == std::errc{} ? std::string(buf, end) : "0";
}

void print_report(const char* title, const report& r) {
    std::printf("%s\n", title);
    for (const metric& m : r.items()) {
        std::printf("  %-36s %14s %-6s n=%-6zu %s\n", m.name.c_str(), number(m.value).c_str(),
                    m.unit.c_str(), m.samples, m.note.c_str());
    }
}

/// Self time and calls per layer, from the spans the traced run recorded.
void add_layer_metrics(outcome& out) {
    std::vector<span_record> spans = tracer::global().snapshot();
    spans.resize(std::min(spans.size(), out.span_mark));
    const auto times = layer_self_times(spans);
    double total = 0.0;
    for (const auto& [layer, t] : times) {
        total += t.self_s;
    }
    std::printf("layer self time (the workload's traced rounds):\n");
    for (const char* layer : layers) {
        const layer_time& t = times.at(layer);
        const double share = total > 0.0 ? 100.0 * t.self_s / total : 0.0;
        std::printf("  %-14s self %12.6f s  calls %-9llu share %6.2f%%\n", layer, t.self_s,
                    static_cast<unsigned long long>(t.calls), share);
        out.per_layer.add(std::string(layer) + ".self_share", share, "%", 1,
                          "share of all span self time");
        out.per_layer.add(std::string(layer) + ".calls", static_cast<double>(t.calls), "count",
                          1);
    }
}

/// The final JSON line. Metrics must match \p names exactly.
bool print_result(const outcome& out, const report& r, const std::vector<std::string>& names) {
    std::set<std::string> want(names.begin(), names.end());
    std::set<std::string> seen;
    std::string metrics;
    bool finite = true;
    for (const metric& m : r.items()) {
        if (want.count(m.name) == 0 || !seen.insert(m.name).second) {
            std::fprintf(stderr, "perfbench: unexpected or repeated metric '%s'\n",
                         m.name.c_str());
            return false;
        }
        finite = finite && std::isfinite(m.value);
        metrics += (metrics.empty() ? "" : ", ") + ("\"" + m.name + "\": {\"value\": ") +
                   number(std::isfinite(m.value) ? m.value : 0.0) + ", \"unit\": \"" + m.unit +
                   "\"}";
    }
    if (seen.size() != want.size()) {
        for (const std::string& name : want) {
            if (seen.count(name) == 0) {
                std::fprintf(stderr, "perfbench: metric '%s' was not measured\n", name.c_str());
            }
        }
        return false;
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {%s}}\n",
                out.correct && finite ? "true" : "false",
                static_cast<unsigned long long>(out.attempted),
                static_cast<unsigned long long>(out.failed), metrics.c_str());
    return true;
}

int usage(const char* why) {
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload flood_1e5|flood_1e6|sweep|service "
                 "--seed N --seconds S --trace 0|1\n",
                 why);
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    options opt;
    std::string trace_flag = "0";
    for (int i = 1; i < argc; ++i) {
        std::string key = argv[i];
        std::string value;
        if (const std::size_t eq = key.find('='); eq != std::string::npos) {
            value = key.substr(eq + 1);
            key.resize(eq);
        } else if (i + 1 < argc) {
            value = argv[++i];
        } else {
            return usage(("missing value for " + key).c_str());
        }
        try {
            if (key == "--workload") {
                opt.workload = value;
            } else if (key == "--seed") {
                opt.seed = std::stoull(value);
            } else if (key == "--seconds") {
                opt.seconds = std::stod(value);
            } else if (key == "--trace") {
                trace_flag = value;
            } else {
                return usage(("unknown flag " + key).c_str());
            }
        } catch (const std::exception&) {
            return usage(("bad value for " + key).c_str());
        }
    }
    if (trace_flag != "0" && trace_flag != "1") {
        return usage("--trace takes 0 or 1");
    }
    opt.trace = trace_flag == "1";
    if (!(opt.seconds > 0.0 && opt.seconds <= 120.0)) {
        return usage("--seconds must be in (0, 120]");
    }
    if (opt.workload != "flood_1e5" && opt.workload != "flood_1e6" && opt.workload != "sweep" &&
        opt.workload != "service") {
        return usage(("unknown workload '" + opt.workload + "'").c_str());
    }
    if (!optimised_build()) {
        std::fprintf(stderr, "perfbench: refusing to report from a non-optimised build (%s)\n",
                     PERFBENCH_BUILD_TYPE);
        return 3;
    }

    std::printf("perfbench workload=%s seed=%llu seconds=%s trace=%d\n", opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), number(opt.seconds).c_str(),
                opt.trace ? 1 : 0);
    std::printf("host: nproc=%u cpu=\"%s\" l2=%s l3=%s compiler=\"%s\" build=%s "
                "MANHATTAN_VECTORIZE=%s\n",
                std::thread::hardware_concurrency(), cpu_model().c_str(),
                cache_size("2").c_str(), cache_size("3").c_str(), compiler().c_str(),
                PERFBENCH_BUILD_TYPE, PERFBENCH_VECTORIZE);

    opt.work_dir = ".bench_work/run-" + std::to_string(::getpid());
    std::error_code ec;
    std::filesystem::remove_all(opt.work_dir, ec);
    std::filesystem::create_directories(opt.work_dir);

    outcome out;
    int status = 0;
    try {
        if (opt.workload == "flood_1e5") {
            run_flood(opt, 100'000, 0, out);
        } else if (opt.workload == "flood_1e6") {
            run_flood(opt, 1'000'000, flood_1e6_budget, out);
        } else if (opt.workload == "sweep") {
            run_sweep_workload(opt, out);
        } else {
            run_service_workload(opt, out);
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s failed: %s\n", opt.workload.c_str(), e.what());
        status = 1;
    }
    tracer::global().set_enabled(false);
    if (status == 0) {
        out.end_to_end.add("peak_rss_mb", proc_status("VmHWM") / 1024.0, "MB", 1,
                           "VmHWM at exit");
        if (opt.trace) {
            add_layer_metrics(out);
            tracer::global().write_jsonl(".bench_work/spans-" + opt.workload + ".jsonl");
        }
        print_report("end-to-end metrics:", out.end_to_end);
        print_report("workload figures:", out.detail);
        if (opt.trace) {
            print_report("per-layer metrics:", out.per_layer);
        }
        std::printf("failed_frac = %s (%llu failed of %llu attempted)\n",
                    number(out.attempted > 0 ? static_cast<double>(out.failed) /
                                                   static_cast<double>(out.attempted)
                                             : 0.0)
                        .c_str(),
                    static_cast<unsigned long long>(out.failed),
                    static_cast<unsigned long long>(out.attempted));
        if (out.attempted == 0) {
            std::fprintf(stderr, "perfbench: no operation was attempted\n");
            status = 1;
        }
    }
    std::filesystem::remove_all(opt.work_dir, ec);
    if (status != 0) {
        return status;
    }
    std::fflush(stdout);
    return print_result(out, opt.trace ? out.per_layer : out.end_to_end,
                        opt.trace ? per_layer_names() : end_to_end_names)
               ? 0
               : 1;
}
