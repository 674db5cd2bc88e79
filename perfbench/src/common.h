/// \file common.h
/// Shared pieces of the perfbench driver: the run options, the span tracer
/// the traced run records, sample statistics with the report's percentile
/// rule, /proc probes, and the metric report each workload fills.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

using steady = std::chrono::steady_clock;

/// Seconds elapsed since \p t0.
[[nodiscard]] double since(steady::time_point t0) noexcept;

/// splitmix64 step: every per-round, per-job and per-session seed is derived
/// from the command-line seed through this.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) noexcept;

struct options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;  ///< measured time of one run
    bool trace = false;     ///< traced run: per-layer metrics instead of end-to-end
    std::string work_dir;   ///< scratch directory (relative to the checkout root)
};

// ------------------------------------------------------------------ spans ---

/// One recorded call: layer and function name, start/end in seconds since
/// the tracer's epoch, the enclosing span on the same thread (-1 = root) and
/// the job the call belongs to (0 = none).
struct span_record {
    const char* layer = "";
    const char* name = "";
    double start = 0.0;
    double end = 0.0;
    std::int64_t parent = -1;
    std::uint64_t job = 0;
};

/// Process-wide span store. Spans stay in memory while the benchmark runs
/// and are written out once at exit; recording is off unless a traced
/// round switches it on.
class tracer {
 public:
    static tracer& global();

    void set_enabled(bool on) noexcept { enabled_.store(on, std::memory_order_relaxed); }
    [[nodiscard]] bool enabled() const noexcept {
        return enabled_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] double now() const noexcept { return since(epoch_); }

    /// Open a span (returns its id) — -1 while recording is off.
    std::int64_t open(const char* layer, const char* name, std::uint64_t job,
                      std::int64_t parent);
    void close(std::int64_t id);

    /// Record an already-finished child of the calling thread's current
    /// span, e.g. one step phase taken from flooding_sim::profile().
    void record(const char* layer, const char* name, double start, double end);

    [[nodiscard]] std::vector<span_record> snapshot() const;
    [[nodiscard]] std::size_t size() const;
    void write_jsonl(const std::string& path) const;

 private:
    std::atomic<bool> enabled_{false};
    steady::time_point epoch_ = steady::now();
    mutable std::mutex mutex_;
    std::vector<span_record> spans_;
};

/// RAII span around one call into a layer, nested under the calling
/// thread's open span.
class span {
 public:
    span(const char* layer, const char* name, std::uint64_t job = 0);
    ~span();
    span(const span&) = delete;
    span& operator=(const span&) = delete;

 private:
    std::int64_t id_;
    std::int64_t saved_;
};

/// The layers the benchmark measures, in report order.
inline constexpr const char* layers[] = {"mobility", "geom",  "core",   "util.parallel",
                                         "engine",   "stats", "service"};

struct layer_time {
    double self_s = 0.0;  ///< span time not covered by child spans
    std::uint64_t calls = 0;
};

/// Self time and call count per layer over \p spans.
[[nodiscard]] std::map<std::string, layer_time> layer_self_times(
    const std::vector<span_record>& spans);

/// Call \p fn inside a span and append its wall time in ms to \p out.
template <typename Fn>
void timed_ms(std::vector<double>& out, const char* layer, const char* name, Fn&& fn) {
    const span s(layer, name);
    const auto t0 = steady::now();
    fn();
    out.push_back(since(t0) * 1e3);
}

// ---------------------------------------------------------------- samples ---

/// Median through the repository's stats layer.
[[nodiscard]] double median(std::span<const double> sample);

/// A tail percentile under the report rule: the requested quantile only
/// when at least ten samples lie beyond it, else the highest quantile that
/// has ten (never below the median).
struct tail_value {
    double value = 0.0;
    double q = 0.0;

    /// Report note: empty when \p wanted was reported, else which
    /// percentile stands in for it.
    [[nodiscard]] std::string note(double wanted) const;
};
[[nodiscard]] tail_value tail(std::span<const double> sample, double q);

// ----------------------------------------------------------------- report ---

struct metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::size_t samples = 0;
    std::string note;
};

class report {
 public:
    void add(std::string name, double value, std::string unit, std::size_t samples,
             std::string note = {});
    [[nodiscard]] const std::vector<metric>& items() const noexcept { return items_; }

 private:
    std::vector<metric> items_;
};

/// What one workload run produced.
struct outcome {
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    report end_to_end;  ///< the driver's end-to-end metrics (untraced)
    report per_layer;   ///< the driver's per-layer metrics (traced)
    report detail;      ///< workload-specific figures, printed in the report only
    /// Spans recorded by the workload's own traced rounds (later spans come
    /// from standalone probes and stay out of the layer self times).
    std::size_t span_mark = static_cast<std::size_t>(-1);

    /// Count one checked operation; a failed check marks the run incorrect.
    void check(bool ok, const std::string& what);
    /// Count one operation that failed or was refused (not a wrong output).
    void refused(const std::string& what);
};

// ------------------------------------------------------------ proc probes ---

/// User + system CPU seconds this process has used (all threads).
[[nodiscard]] double cpu_seconds();

/// A numeric field of /proc/self/status (kB fields stay in kB).
[[nodiscard]] double proc_status(const char* key);
[[nodiscard]] std::size_t open_fd_count();

struct io_counters {
    std::uint64_t wchar = 0;  ///< bytes passed to write-family calls
    std::uint64_t syscw = 0;  ///< write-family calls
};
[[nodiscard]] io_counters read_io();

/// File size in bytes (0 when missing).
[[nodiscard]] std::uint64_t file_bytes(const std::string& path);

/// The process-level per-layer metrics every workload reports: write rate
/// over the measured window of \p window_s seconds and the fd / thread /
/// address-space level at its end.
void add_process_metrics(report& out, const io_counters& before, const io_counters& after,
                         double window_s, double open_fds_end, double threads_end,
                         double vm_mb_end, std::size_t samples);

}  // namespace perfbench
