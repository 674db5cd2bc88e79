#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "stats/summary.h"

namespace perfbench {

namespace {

thread_local std::int64_t t_current_span = -1;

}  // namespace

double since(steady::time_point t0) noexcept {
    return std::chrono::duration<double>(steady::now() - t0).count();
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) noexcept {
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

tracer& tracer::global() {
    static tracer instance;
    return instance;
}

std::int64_t tracer::open(const char* layer, const char* name, std::uint64_t job,
                          std::int64_t parent) {
    if (!enabled()) {
        return -1;
    }
    const double start = now();
    std::lock_guard lock(mutex_);
    spans_.push_back({layer, name, start, start, parent, job});
    return static_cast<std::int64_t>(spans_.size() - 1);
}

void tracer::close(std::int64_t id) {
    if (id < 0) {
        return;
    }
    const double end = now();
    std::lock_guard lock(mutex_);
    spans_[static_cast<std::size_t>(id)].end = end;
}

void tracer::record(const char* layer, const char* name, double start, double end) {
    if (!enabled()) {
        return;
    }
    std::lock_guard lock(mutex_);
    spans_.push_back({layer, name, start, end, t_current_span, 0});
}

std::vector<span_record> tracer::snapshot() const {
    std::lock_guard lock(mutex_);
    return spans_;
}

std::size_t tracer::size() const {
    std::lock_guard lock(mutex_);
    return spans_.size();
}

void tracer::write_jsonl(const std::string& path) const {
    std::ofstream out(path, std::ios::trunc);
    std::lock_guard lock(mutex_);
    char line[320];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const span_record& s = spans_[i];
        std::snprintf(line, sizeof line,
                      "{\"id\":%zu,\"layer\":\"%s\",\"name\":\"%s\",\"start\":%.9f,"
                      "\"end\":%.9f,\"parent\":%lld,\"job\":%llu}\n",
                      i, s.layer, s.name, s.start, s.end, static_cast<long long>(s.parent),
                      static_cast<unsigned long long>(s.job));
        out << line;
    }
}

span::span(const char* layer, const char* name, std::uint64_t job)
    : id_(tracer::global().open(layer, name, job, t_current_span)), saved_(t_current_span) {
    if (id_ >= 0) {
        t_current_span = id_;
    }
}

span::~span() {
    if (id_ >= 0) {
        tracer::global().close(id_);
        t_current_span = saved_;
    }
}

std::map<std::string, layer_time> layer_self_times(const std::vector<span_record>& spans) {
    std::vector<double> child_time(spans.size(), 0.0);
    for (const span_record& s : spans) {
        if (s.parent >= 0) {
            child_time[static_cast<std::size_t>(s.parent)] += s.end - s.start;
        }
    }
    std::map<std::string, layer_time> out;
    for (const char* layer : layers) {
        out[layer] = {};
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
        layer_time& t = out[spans[i].layer];
        t.self_s += std::max(0.0, spans[i].end - spans[i].start - child_time[i]);
        t.calls += 1;
    }
    return out;
}

double median(std::span<const double> sample) {
    const span s("stats", "percentile");
    return manhattan::stats::percentile(sample, 0.5);
}

tail_value tail(std::span<const double> sample, double q) {
    const span s("stats", "percentile");
    const double n = static_cast<double>(sample.size());
    // At least ten samples beyond q: (1 - q) * n >= 10.
    const double allowed = std::floor(100.0 * (1.0 - 10.0 / n)) / 100.0;
    const double used = std::max(0.5, std::min(q, allowed));
    return {manhattan::stats::percentile(sample, used), used};
}

std::string tail_value::note(double wanted) const {
    if (q >= wanted) {
        return {};
    }
    std::string text = "p";
    text += std::to_string(static_cast<int>(q * 100 + 0.5));
    text += " (too few samples for p";
    text += std::to_string(static_cast<int>(wanted * 100 + 0.5));
    text += ')';
    return text;
}

void report::add(std::string name, double value, std::string unit, std::size_t samples,
                 std::string note) {
    items_.push_back({std::move(name), value, std::move(unit), samples, std::move(note)});
}

void outcome::check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
        ++failed;
        correct = false;
        std::printf("CHECK FAILED: %s\n", what.c_str());
    }
}

void outcome::refused(const std::string& what) {
    ++attempted;
    ++failed;
    std::printf("operation failed: %s\n", what.c_str());
}

double cpu_seconds() {
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    const auto seconds = [](const timeval& t) {
        return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
    };
    return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double proc_status(const char* key) {
    std::ifstream in("/proc/self/status");
    std::string line;
    const std::size_t len = std::strlen(key);
    while (std::getline(in, line)) {
        if (line.compare(0, len, key) == 0 && line.size() > len && line[len] == ':') {
            return std::strtod(line.c_str() + len + 1, nullptr);
        }
    }
    return 0.0;
}

std::size_t open_fd_count() {
    std::size_t count = 0;
    std::error_code ec;
    for (auto it = std::filesystem::directory_iterator("/proc/self/fd", ec);
         !ec && it != std::filesystem::directory_iterator(); it.increment(ec)) {
        ++count;
    }
    return count > 0 ? count - 1 : 0;  // the iterator's own descriptor
}

io_counters read_io() {
    std::ifstream in("/proc/self/io");
    io_counters io;
    std::string key;
    std::uint64_t value = 0;
    while (in >> key >> value) {
        if (key == "wchar:") {
            io.wchar = value;
        } else if (key == "syscw:") {
            io.syscw = value;
        }
    }
    return io;
}

std::uint64_t file_bytes(const std::string& path) {
    std::error_code ec;
    const auto size = std::filesystem::file_size(path, ec);
    return ec ? 0 : static_cast<std::uint64_t>(size);
}

void add_process_metrics(report& out, const io_counters& before, const io_counters& after,
                         double window_s, double open_fds_end, double threads_end,
                         double vm_mb_end, std::size_t samples) {
    out.add("engine.persist.wchar_mb_per_s",
            static_cast<double>(after.wchar - before.wchar) / 1e6 / window_s, "MB/s", 1,
            "bytes written over the measured window");
    out.add("engine.persist.write_calls_per_s",
            static_cast<double>(after.syscw - before.syscw) / window_s, "1/s", 1);
    out.add("process.open_fds_end", open_fds_end, "count", samples);
    out.add("process.threads_end", threads_end, "count", samples);
    out.add("process.vm_mb_end", vm_mb_end, "MB", samples);
}

}  // namespace perfbench
