/// \file thread_pool.h
/// A small fixed-size worker pool for fanning independent replicas across
/// cores. Tasks are arbitrary callables; `parallel_for` adds chunked index
/// dispatch with exception propagation. Determinism note: the pool never
/// influences *what* a task computes, only *when* — engine::run_replicas
/// writes every result into a pre-sized slot so outputs are bit-identical
/// for any thread count (see docs/ENGINE.md).
///
/// The same workers double as a persistent lane team for executor().run()
/// (intra-replica parallelism): the caller and up to size() - 1 workers
/// claim lanes from a per-run ticket, with no queued task and no allocation
/// per run (docs/PERF.md, "Lane dispatch").
///
/// Metrics: the pool counts every task it runs into its own
/// metrics_registry, and every multi-lane run() together with those in
/// which the caller ran every lane itself. With the process-wide telemetry
/// switch on (util/telemetry.h, off by default) it also reads the clock for
/// queue wait (a fixed-bucket histogram plus a summed gauge) and per-worker
/// busy seconds, and per multi-lane run() records a lane-run count plus
/// lane start skew and lane-time imbalance histograms. stats() snapshots the
/// task side; the trace sink's sweep_end event renders it. Measuring never
/// changes scheduling or task outputs.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "engine/metrics.h"
#include "util/parallel.h"

namespace manhattan::engine {

/// Number of workers `thread_pool{0}` resolves to (hardware concurrency,
/// never less than 1).
[[nodiscard]] std::size_t default_thread_count() noexcept;

/// Utilization snapshot of one pool (timings stay zero while telemetry is
/// off; tasks_run always counts).
struct pool_stats {
    std::size_t workers = 0;
    std::uint64_t tasks_run = 0;
    double queue_wait_seconds = 0.0;  ///< summed submit-to-dequeue latency
    std::vector<double> queue_wait_bounds;        ///< histogram bucket uppers (s)
    std::vector<std::uint64_t> queue_wait_counts; ///< per-bucket counts (+overflow)
    std::vector<double> worker_busy_seconds;      ///< per-worker task execution time
    double alive_seconds = 0.0;       ///< pool age (busy fraction denominator)

    /// Mean busy fraction across workers: total busy / (workers x alive).
    [[nodiscard]] double busy_fraction() const noexcept;
};

/// Fixed-size thread pool. Construction spawns the workers; destruction
/// drains the queue and joins. Thread-safe: any thread may submit.
class thread_pool {
 public:
    /// Spawn \p threads workers (0 = default_thread_count()).
    explicit thread_pool(std::size_t threads = 0);

    /// Blocks until all queued tasks finished, then joins the workers.
    ~thread_pool();

    thread_pool(const thread_pool&) = delete;
    thread_pool& operator=(const thread_pool&) = delete;

    [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

    /// Enqueue one task. The future carries the task's exception, if any.
    std::future<void> submit(std::function<void()> task);

    /// Run body(i) for every i in [0, count) across the pool, chunked
    /// \p chunk indices at a time (0 = pick a chunk that yields ~4 chunks
    /// per worker). Blocks until done; without exceptions every index runs
    /// exactly once. If a body throws, the throwing worker abandons its
    /// remaining indices and the first exception is rethrown here once all
    /// workers returned.
    void parallel_for(std::size_t count, const std::function<void(std::size_t)>& body,
                      std::size_t chunk = 0);

    /// The pool as a reusable lane-partitioned executor (util/parallel.h):
    /// one lane per worker. run() hands the body to the lane team: the
    /// calling thread and up to size() - 1 workers claim lane indices from a
    /// per-run ticket until none is left, so a run() is never slower than
    /// the caller running every lane itself, and which thread runs a lane
    /// never changes a result. This is the handle flooding_sim / walker /
    /// uniform_grid borrow for intra-replica parallelism. The reference
    /// stays valid for the pool's lifetime and may be used for any number of
    /// run() calls from any thread, including from a task running on this
    /// pool. Concurrent run() calls are serialised. A lane body must not
    /// call run() on the same executor.
    [[nodiscard]] util::parallel_executor& executor() noexcept { return executor_; }

    /// How long a worker that has just run a lane keeps polling for the
    /// next run() before it parks: sized to the serial gaps between the
    /// run() calls of one flooding step (docs/PERF.md, "Lane dispatch").
    static constexpr std::chrono::microseconds lane_spin{200};

    /// Utilization snapshot (thread-safe; callable while tasks run). The
    /// timings stay zero unless telemetry was enabled while the measured
    /// work happened; tasks_run counts every task.
    [[nodiscard]] pool_stats stats() const;

    /// The pool's instruments ("pool.tasks_run", "pool.team_runs",
    /// "pool.caller_only_runs", "pool.queue_wait_seconds",
    /// "pool.queue_wait_s" histogram, "pool.lane_runs",
    /// "pool.lane_start_skew_s" and "pool.lane_imbalance_ratio" histograms)
    /// for snapshot-level aggregation.
    [[nodiscard]] const metrics_registry& metrics() const noexcept { return metrics_; }

 private:
    using lane_body = std::function<void(std::size_t, std::size_t, std::size_t)>;

    /// parallel_executor over the owning pool's lane team.
    class pool_executor final : public util::parallel_executor {
     public:
        explicit pool_executor(thread_pool& pool) noexcept : pool_(pool) {}
        [[nodiscard]] std::size_t lanes() const noexcept override { return pool_.size(); }
        void run(std::size_t count, const lane_body& body) override {
            pool_.run_lanes(count, body);
        }

     private:
        thread_pool& pool_;
    };

    /// A queued task plus its enqueue instant (only stamped while telemetry
    /// is enabled; a default time_point means "don't measure this one").
    struct queued_task {
        std::packaged_task<void()> task;
        std::chrono::steady_clock::time_point enqueued{};
    };

    /// Per-worker busy accumulator, cache-line padded so relaxed adds from
    /// different workers never share a line.
    struct alignas(64) busy_slot {
        std::atomic<double> seconds{0.0};
    };

    /// One lane's outcome of the current run(): its exception, and its
    /// start and end instants while the run is measured. Cache-line padded
    /// so lanes on different threads never share a line.
    struct alignas(64) lane_slot {
        std::chrono::steady_clock::time_point start{};
        std::chrono::steady_clock::time_point end{};
        std::exception_ptr error;
    };

    void worker_loop(std::size_t worker);

    void run_lanes(std::size_t count, const lane_body& body);
    /// Claim and run lanes of the current run() until none is left; returns
    /// how many ran. \p busy is the claiming worker's slot (null for the
    /// run() caller, whose time is its own).
    std::size_t claim_lanes(busy_slot* busy);
    void run_lane(std::size_t lane, busy_slot* busy);
    /// A worker's lane duty: claim lanes, and after running one keep polling
    /// for the next run() for lane_spin before returning to park.
    void help_lanes(busy_slot& busy);
    [[nodiscard]] bool lanes_open() const noexcept;
    void record_lane_run(std::size_t count);

    std::mutex mutex_;
    std::condition_variable wake_;
    std::deque<queued_task> queue_;
    std::vector<std::thread> workers_;
    pool_executor executor_{*this};
    std::atomic<bool> stopping_{false};  ///< written under mutex_; read by spinning helpers

    metrics_registry metrics_;
    counter& tasks_run_;
    counter& team_runs_;         ///< multi-lane run()s, telemetry on or off
    counter& caller_only_runs_;  ///< those in which no helper claimed a lane
    gauge& queue_wait_seconds_;
    fixed_histogram& queue_wait_hist_;
    counter& lane_runs_;
    fixed_histogram& lane_skew_hist_;
    fixed_histogram& lane_imbalance_hist_;
    std::vector<busy_slot> busy_;  ///< sized before workers spawn, never resized
    std::chrono::steady_clock::time_point born_ = std::chrono::steady_clock::now();

    // Lane team. run_mutex_ admits one run() at a time. The run's body,
    // count and measuring flag are plain fields: run() writes them before
    // the store that opens a new ticket generation, and a claimer reads
    // them only after its claim on that generation succeeded. The run
    // cannot end (so they cannot change) before every claimed lane
    // finished.
    std::mutex run_mutex_;
    const lane_body* lane_body_ = nullptr;
    std::size_t lane_count_ = 0;
    bool lane_measured_ = false;
    std::chrono::steady_clock::time_point run_start_{};
    std::vector<lane_slot> lane_slots_;  ///< one per lane, sized before workers spawn
    /// generation << 32 | next unclaimed lane; lanes are open while the
    /// lane part is below size(). Claims are compare-exchanges on the whole
    /// word, so a worker holding a stale generation can never claim a lane
    /// of a newer run.
    alignas(64) std::atomic<std::uint64_t> ticket_{0};
    alignas(64) std::atomic<std::size_t> lanes_unfinished_{0};
    std::atomic<std::size_t> parked_helpers_{0};  ///< team workers waiting on wake_
};

}  // namespace manhattan::engine
