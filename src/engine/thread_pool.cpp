#include "engine/thread_pool.h"

#include <algorithm>
#include <limits>

#include "util/telemetry.h"

namespace manhattan::engine {

namespace {

using clock_type = std::chrono::steady_clock;

/// Queue-wait histogram buckets (seconds): 10us .. 10s, decade steps. Fixed
/// at registration — see engine/metrics.h.
std::vector<double> queue_wait_bounds() {
    return {1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0};
}

/// Lane start skew buckets (seconds): 1us .. 10ms in 1-2-5 steps.
std::vector<double> lane_skew_bounds() {
    return {1e-6, 2e-6, 5e-6, 1e-5, 2e-5, 5e-5, 1e-4, 2e-4, 5e-4, 1e-3, 2e-3, 5e-3, 1e-2};
}

/// Lane-time imbalance buckets (slowest lane / fastest lane).
std::vector<double> lane_imbalance_bounds() {
    return {1.05, 1.1, 1.25, 1.5, 2.0, 3.0, 5.0, 10.0};
}

/// The ticket's low half: the next unclaimed lane (the high half is the
/// run's generation).
constexpr std::uint64_t lane_mask = 0xffffffffULL;

double seconds_between(clock_type::time_point from, clock_type::time_point to) {
    return std::chrono::duration<double>(to - from).count();
}

/// Back off between two busy-wait polls: a pause hint for the sibling
/// hyperthread, and every 64th poll a yield, so a poller that shares its
/// core with the thread it waits for (more busy threads than cores) lets
/// that thread run.
inline void backoff(unsigned polls) noexcept {
    if (polls % 64 == 0) {
        std::this_thread::yield();
        return;
    }
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
}

}  // namespace

std::size_t default_thread_count() noexcept {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

double pool_stats::busy_fraction() const noexcept {
    if (workers == 0 || !(alive_seconds > 0.0)) {
        return 0.0;
    }
    double busy = 0.0;
    for (const double s : worker_busy_seconds) {
        busy += s;
    }
    return busy / (static_cast<double>(workers) * alive_seconds);
}

thread_pool::thread_pool(std::size_t threads)
    : tasks_run_(metrics_.get_counter("pool.tasks_run")),
      team_runs_(metrics_.get_counter("pool.team_runs")),
      caller_only_runs_(metrics_.get_counter("pool.caller_only_runs")),
      queue_wait_seconds_(metrics_.get_gauge("pool.queue_wait_seconds")),
      queue_wait_hist_(metrics_.get_histogram("pool.queue_wait_s", queue_wait_bounds())),
      lane_runs_(metrics_.get_counter("pool.lane_runs")),
      lane_skew_hist_(metrics_.get_histogram("pool.lane_start_skew_s", lane_skew_bounds())),
      lane_imbalance_hist_(
          metrics_.get_histogram("pool.lane_imbalance_ratio", lane_imbalance_bounds())) {
    const std::size_t count = threads == 0 ? default_thread_count() : threads;
    busy_ = std::vector<busy_slot>(count);
    lane_slots_ = std::vector<lane_slot>(count);
    ticket_.store(count);  // generation 0, every lane claimed: nothing open
    workers_.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        workers_.emplace_back([this, i] { worker_loop(i); });
    }
}

thread_pool::~thread_pool() {
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        stopping_.store(true);
    }
    wake_.notify_all();
    for (auto& w : workers_) {
        w.join();
    }
}

void thread_pool::worker_loop(std::size_t worker) {
    // Workers 0 .. size() - 2 join run()'s caller in the lane team, so a
    // run() has exactly lanes() claimers; the last worker serves the queue
    // only.
    const bool helper = worker + 1 < busy_.size();
    for (;;) {
        if (helper) {
            help_lanes(busy_[worker]);
        }
        queued_task entry;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            if (helper) {
                parked_helpers_.fetch_add(1);
            }
            wake_.wait(lock, [this, helper] {
                return stopping_ || !queue_.empty() || (helper && lanes_open());
            });
            if (helper) {
                parked_helpers_.fetch_sub(1);
            }
            if (queue_.empty()) {
                if (stopping_) {
                    return;  // stopping_ with a drained queue
                }
                continue;  // a run() opened lanes
            }
            entry = std::move(queue_.front());
            queue_.pop_front();
        }
        tasks_run_.add(1);
        // Telemetry: time only tasks whose submit stamped an enqueue time
        // (the switch may flip mid-flight; an unstamped task is skipped
        // rather than billed a bogus wait since the epoch).
        const bool measured = entry.enqueued != std::chrono::steady_clock::time_point{};
        if (measured) {
            const double wait = std::chrono::duration<double>(
                                    std::chrono::steady_clock::now() - entry.enqueued)
                                    .count();
            queue_wait_seconds_.add(wait);
            queue_wait_hist_.observe(wait);
        }
        const auto run_start = measured ? std::chrono::steady_clock::now()
                                        : std::chrono::steady_clock::time_point{};
        entry.task();  // packaged_task stores any exception in its future
        if (measured) {
            const double busy = std::chrono::duration<double>(
                                    std::chrono::steady_clock::now() - run_start)
                                    .count();
            if (util::telemetry::enabled()) {
                busy_[worker].seconds.fetch_add(busy, std::memory_order_relaxed);
            }
        }
    }
}

std::future<void> thread_pool::submit(std::function<void()> task) {
    queued_task entry;
    entry.task = std::packaged_task<void()>(std::move(task));
    if (util::telemetry::enabled()) {
        entry.enqueued = std::chrono::steady_clock::now();
    }
    std::future<void> result = entry.task.get_future();
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        queue_.push_back(std::move(entry));
    }
    wake_.notify_one();
    return result;
}

pool_stats thread_pool::stats() const {
    pool_stats s;
    s.workers = size();
    s.tasks_run = tasks_run_.value();
    s.queue_wait_seconds = queue_wait_seconds_.value();
    s.queue_wait_bounds = queue_wait_hist_.bounds();
    s.queue_wait_counts = queue_wait_hist_.counts();
    s.worker_busy_seconds.reserve(busy_.size());
    for (const busy_slot& slot : busy_) {
        s.worker_busy_seconds.push_back(slot.seconds.load(std::memory_order_relaxed));
    }
    s.alive_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - born_).count();
    return s;
}

void thread_pool::parallel_for(std::size_t count, const std::function<void(std::size_t)>& body,
                               std::size_t chunk) {
    if (count == 0) {
        return;
    }
    if (chunk == 0) {
        chunk = std::max<std::size_t>(1, count / (4 * size()));
    }

    // Dynamic chunking off a shared counter: workers grab the next chunk
    // when free, so uneven replica costs balance out. Result placement is
    // by index, so the schedule never affects outputs.
    auto next = std::make_shared<std::atomic<std::size_t>>(0);
    auto run_chunks = [next, count, chunk, &body] {
        for (;;) {
            const std::size_t begin = next->fetch_add(chunk);
            if (begin >= count) {
                return;
            }
            const std::size_t end = std::min(count, begin + chunk);
            for (std::size_t i = begin; i < end; ++i) {
                body(i);
            }
        }
    };

    std::vector<std::future<void>> futures;
    futures.reserve(size());
    for (std::size_t w = 0; w < size(); ++w) {
        futures.push_back(submit(run_chunks));
    }

    std::exception_ptr first_error;
    for (auto& f : futures) {
        try {
            f.get();
        } catch (...) {
            if (!first_error) {
                first_error = std::current_exception();
            }
        }
    }
    if (first_error) {
        std::rethrow_exception(first_error);
    }
}

bool thread_pool::lanes_open() const noexcept {
    return (ticket_.load(std::memory_order_acquire) & lane_mask) < lane_slots_.size();
}

void thread_pool::run_lane(std::size_t lane, busy_slot* busy) {
    const std::size_t begin = executor_.lane_begin(lane_count_, lane);
    const std::size_t end = executor_.lane_begin(lane_count_, lane + 1);
    if (begin < end) {
        lane_slot& slot = lane_slots_[lane];
        const bool measured = lane_measured_;
        if (measured) {
            slot.start = clock_type::now();
        }
        try {
            (*lane_body_)(lane, begin, end);
        } catch (...) {
            slot.error = std::current_exception();
        }
        if (measured) {
            slot.end = clock_type::now();
            if (busy != nullptr) {
                busy->seconds.fetch_add(seconds_between(slot.start, slot.end),
                                        std::memory_order_relaxed);
            }
        }
    }
    // The last touch of this run's state: once every lane has counted down,
    // the caller may return and the body reference dies.
    lanes_unfinished_.fetch_sub(1, std::memory_order_release);
}

std::size_t thread_pool::claim_lanes(busy_slot* busy) {
    std::size_t ran = 0;
    std::uint64_t ticket = ticket_.load(std::memory_order_acquire);
    while ((ticket & lane_mask) < lane_slots_.size()) {
        if (ticket_.compare_exchange_weak(ticket, ticket + 1, std::memory_order_acq_rel,
                                          std::memory_order_acquire)) {
            run_lane(static_cast<std::size_t>(ticket & lane_mask), busy);
            ++ran;
            ticket = ticket_.load(std::memory_order_acquire);
        }
    }
    return ran;
}

void thread_pool::help_lanes(busy_slot& busy) {
    if (claim_lanes(&busy) == 0) {
        return;
    }
    auto deadline = clock_type::now() + lane_spin;
    for (unsigned polls = 1; !stopping_.load(std::memory_order_relaxed); ++polls) {
        if (claim_lanes(&busy) != 0) {
            deadline = clock_type::now() + lane_spin;
        } else if (clock_type::now() >= deadline) {
            return;
        } else {
            backoff(polls);
        }
    }
}

void thread_pool::run_lanes(std::size_t count, const lane_body& body) {
    if (count == 0) {
        return;
    }
    const std::size_t lanes = lane_slots_.size();
    if (lanes == 1) {
        body(0, 0, count);
        return;
    }

    const std::lock_guard<std::mutex> one_run(run_mutex_);
    lane_body_ = &body;
    lane_count_ = count;
    lane_measured_ = util::telemetry::enabled();
    if (lane_measured_) {
        run_start_ = clock_type::now();
    }
    lanes_unfinished_.store(lanes, std::memory_order_relaxed);
    // Open lanes 0 .. lanes - 1 under a new generation. The store and the
    // parked-helper load are sequentially consistent, and a parking helper
    // counts itself before it re-checks lanes_open() under mutex_: either
    // it sees this ticket, or this run sees it parked and wakes it.
    const std::uint64_t generation = (ticket_.load(std::memory_order_relaxed) >> 32) + 1;
    ticket_.store(generation << 32);
    if (parked_helpers_.load() > 0) {
        { const std::lock_guard<std::mutex> lock(mutex_); }
        wake_.notify_all();
    }

    // Counted whether or not telemetry is on: a run() in which no helper
    // claimed a lane ran at the serial rate, and perf_flood reports how
    // many of a timed pass's run()s did.
    team_runs_.add(1);
    if (claim_lanes(nullptr) == lanes) {
        caller_only_runs_.add(1);
    }
    // Every lane is claimed; wait for the helpers still inside theirs.
    for (unsigned polls = 1; lanes_unfinished_.load(std::memory_order_acquire) != 0; ++polls) {
        backoff(polls);
    }

    if (lane_measured_) {
        record_lane_run(count);
    }
    // Every lane ran; rethrow the lowest-index lane's exception.
    std::exception_ptr first_error;
    for (lane_slot& slot : lane_slots_) {
        if (slot.error && !first_error) {
            first_error = slot.error;
        }
        slot.error = nullptr;
    }
    if (first_error) {
        std::rethrow_exception(first_error);
    }
}

void thread_pool::record_lane_run(std::size_t count) {
    // The non-empty lanes are the first min(count, lanes) (lane_begin).
    const std::size_t active = std::min(count, lane_slots_.size());
    clock_type::time_point last_start = run_start_;
    double fastest = std::numeric_limits<double>::infinity();
    double slowest = 0.0;
    for (std::size_t l = 0; l < active; ++l) {
        const lane_slot& slot = lane_slots_[l];
        last_start = std::max(last_start, slot.start);
        const double lane_s = seconds_between(slot.start, slot.end);
        fastest = std::min(fastest, lane_s);
        slowest = std::max(slowest, lane_s);
    }
    lane_runs_.add(1);
    lane_skew_hist_.observe(seconds_between(run_start_, last_start));
    if (fastest > 0.0) {
        lane_imbalance_hist_.observe(slowest / fastest);
    }
}

}  // namespace manhattan::engine
