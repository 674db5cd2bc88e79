/// \file metrics.h
/// The engine's metric vocabulary: counters, gauges, and fixed-bucket
/// histograms, owned by a lock-light registry. Mutations are relaxed atomic
/// operations that always count; the process-wide telemetry switch
/// (util/telemetry.h) gates only the clock reads that produce timing
/// samples, at their call sites. Registration (the only locking path)
/// happens once per metric, never per sample.
///
/// Usage pattern: a component registers its instruments up front and keeps
/// the returned references (stable for the registry's lifetime), samples
/// them from any thread, and exposes snapshot() to whoever renders them —
/// the trace sink's sweep_end event, the perf harness, tests. Per-replica
/// phase timings travel separately as util::phase_profile (one per
/// simulation, owned by its thread); aggregate_snapshots() is the
/// sweep-level merge for both worlds once they are snapshots.
///
/// Naming convention (docs/OBSERVABILITY.md lists every current name):
/// dot-separated paths, unit suffix on the leaf — "pool.tasks_run",
/// "pool.queue_wait_seconds", "sweep.phase.advance_seconds".
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

namespace manhattan::engine {

/// Monotonically increasing event count.
class counter {
 public:
    void add(std::uint64_t delta = 1) noexcept {
        value_.fetch_add(delta, std::memory_order_relaxed);
    }

    [[nodiscard]] std::uint64_t value() const noexcept {
        return value_.load(std::memory_order_relaxed);
    }

    void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
    std::atomic<std::uint64_t> value_{0};
};

/// A double-valued instrument: set() for level samples (last write wins),
/// add() for lock-free accumulation (C++20 atomic<double>::fetch_add) —
/// e.g. summed phase seconds across replicas.
class gauge {
 public:
    void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }

    void add(double delta) noexcept { value_.fetch_add(delta, std::memory_order_relaxed); }

    [[nodiscard]] double value() const noexcept {
        return value_.load(std::memory_order_relaxed);
    }

    void reset() noexcept { value_.store(0.0, std::memory_order_relaxed); }

 private:
    std::atomic<double> value_{0.0};
};

/// Histogram over fixed bucket upper bounds (ascending; an implicit +inf
/// bucket catches the overflow). Buckets are chosen at registration and
/// never change, so observe() is a branchless-enough scan + one relaxed
/// increment — no locks, no allocation.
class fixed_histogram {
 public:
    /// \p upper_bounds must be non-empty and strictly ascending; counts()
    /// has upper_bounds.size() + 1 entries (the last is the overflow).
    explicit fixed_histogram(std::vector<double> upper_bounds);

    void observe(double v) noexcept {
        std::size_t b = 0;
        while (b < bounds_.size() && v > bounds_[b]) {
            ++b;
        }
        counts_[b].fetch_add(1, std::memory_order_relaxed);
    }

    [[nodiscard]] const std::vector<double>& bounds() const noexcept { return bounds_; }
    [[nodiscard]] std::vector<std::uint64_t> counts() const;
    [[nodiscard]] std::uint64_t total() const noexcept;

 private:
    std::vector<double> bounds_;
    std::unique_ptr<std::atomic<std::uint64_t>[]> counts_;
};

/// One rendered metric value — what snapshot() returns and the trace sink
/// serializes. Aggregation across replicas / registries merges snapshots by
/// name: counters and histogram buckets sum, gauges sum (our gauges are
/// accumulators; document any exception where it is registered).
struct metric_snapshot {
    enum class kind : std::uint8_t { counter, gauge, histogram };

    std::string name;
    kind what = kind::counter;
    double value = 0.0;                  ///< counter (cast) or gauge value
    std::vector<double> bounds;          ///< histogram only
    std::vector<std::uint64_t> counts;   ///< histogram only

    friend bool operator==(const metric_snapshot&, const metric_snapshot&) = default;
};

[[nodiscard]] const char* metric_kind_name(metric_snapshot::kind k) noexcept;

/// Name-keyed instrument owner. get_*() registers on first use (under a
/// mutex — cold path) and returns a reference that stays valid for the
/// registry's lifetime; samples on the returned instruments never lock.
/// Re-registering a name with a different kind (or a histogram with
/// different bounds) throws std::invalid_argument.
class metrics_registry {
 public:
    metrics_registry();   // out of line: entry is incomplete here
    ~metrics_registry();
    metrics_registry(const metrics_registry&) = delete;
    metrics_registry& operator=(const metrics_registry&) = delete;

    [[nodiscard]] counter& get_counter(const std::string& name);
    [[nodiscard]] gauge& get_gauge(const std::string& name);
    [[nodiscard]] fixed_histogram& get_histogram(const std::string& name,
                                                 std::vector<double> upper_bounds);

    /// Every registered metric, sorted by name (deterministic rendering).
    [[nodiscard]] std::vector<metric_snapshot> snapshot() const;

 private:
    struct entry;

    mutable std::mutex mutex_;  ///< registration + snapshot only
    std::vector<std::unique_ptr<entry>> entries_;
};

/// Merge several snapshot sets by name: counters and histogram bucket
/// counts sum, gauges sum. Metrics present in only some inputs pass
/// through. Mismatched kinds or histogram bounds under one name throw
/// std::invalid_argument. Output is sorted by name.
[[nodiscard]] std::vector<metric_snapshot> aggregate_snapshots(
    std::span<const std::vector<metric_snapshot>> sets);

}  // namespace manhattan::engine
