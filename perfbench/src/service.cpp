#include "service.h"

#include <atomic>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "engine/metrics.h"
#include "engine/sweep.h"
#include "engine/thread_pool.h"
#include "flood.h"
#include "service/admission.h"
#include "service/client.h"
#include "service/daemon.h"
#include "service/wire.h"
#include "sweep.h"
#include "util/telemetry.h"

namespace perfbench {

namespace mh = manhattan;
namespace fs = std::filesystem;

namespace {

// Jobs are small T3a-style sweeps: two radii, two replicas each (a cold job
// fsyncs its ledger once per replica, so few replicas keep the run's disk
// traffic low). About one job in five is a fresh seed (a cold run); the rest
// resubmit one of the warm specs (a cache replay). Three closed-loop
// clients, one connection per job as manhattanctl does. Each daemon session
// serves a fixed number of jobs, so its fd / thread / address-space level at
// the end is comparable across runs.
constexpr std::size_t job_n = 200;
const std::vector<double> job_c1 = {2.0, 3.0};
constexpr std::size_t job_reps = 2;
constexpr std::size_t warm_specs = 8;
constexpr std::size_t clients = 3;
constexpr std::size_t jobs_per_session = 150;
constexpr std::uint64_t cold_per_mille = 200;
constexpr std::size_t min_cold_samples = 100;  // for a p90 with ten beyond

mh::engine::sweep_spec job_spec(std::uint64_t seed) {
    mh::engine::sweep_spec spec;
    spec.base.seed = seed;
    spec.base.max_steps = 500'000;
    spec.repetitions = job_reps;
    spec.n = {job_n};
    spec.c1 = job_c1;
    spec.speed_factor = {1.0};
    return spec;
}

std::uint64_t counter_value(const mh::engine::metrics_registry& registry, const char* name) {
    for (const mh::engine::metric_snapshot& m : registry.snapshot()) {
        if (m.name == name) {
            return static_cast<std::uint64_t>(m.value);
        }
    }
    return 0;
}

struct job_sample {
    bool cold = false;
    double ms = 0.0;
    double first_row_ms = 0.0;
};

/// One client thread's share of a session.
struct client_log {
    std::vector<job_sample> jobs;
    std::vector<std::string> wrong;    ///< jobs whose output was wrong
    std::vector<std::string> refused;  ///< busy replies and transport errors
    std::size_t checked = 0;
};

struct session_result {
    double setup_s = 0.0;
    std::vector<double> warm_ms;  ///< the warm-up jobs: cold runs, one at a time
    std::vector<double> warm_cpu_ms;  ///< process CPU time of each warm-up job
    double loop_s = 0.0;
    std::vector<job_sample> jobs;
    double fds_end = 0.0;
    double threads_end = 0.0;
    double vm_mb_end = 0.0;
    std::uint64_t cold_misses = 0;  ///< cache misses during the loop (telemetry on)
    std::uint64_t shed = 0;         ///< admission sheds during the loop (telemetry on)
    std::vector<double> ping_ms;    ///< traced sessions
    double tasks_per_hit_job = 0.0; ///< traced sessions
};

class service_run {
 public:
    service_run(const options& opt, outcome& out) : opt_(opt), out_(out) {
        // Reference rows for the warm set, from a local run_sweep.
        mh::engine::thread_pool pool(4);
        mh::engine::run_options local;
        local.pool = &pool;
        for (std::size_t w = 0; w < warm_specs; ++w) {
            warm_.push_back(job_spec(derive_seed(opt.seed, 1000 + w)));
            mh::engine::memory_sink rows;
            mh::engine::result_sink* sinks[] = {&rows};
            (void)mh::engine::run_sweep(warm_.back(), local, sinks);
            warm_csv_.push_back(csv_of(rows.rows()));
        }
        points_ = warm_.front().expand().size();
    }

    session_result session(std::uint64_t index, bool traced) {
        session_result r;
        const std::string dir = opt_.work_dir + "/service-" + std::to_string(index);
        fs::create_directories(dir);
        // Relative socket path: the checkout's absolute path may exceed the
        // AF_UNIX limit.
        const std::string socket = dir + "/daemon.sock";

        const auto t_setup = steady::now();
        mh::service::daemon_config config;
        config.socket_path = socket;
        config.cache_dir = dir + "/cache";
        config.work_dir = dir + "/work";
        config.threads = 4;
        auto daemon = std::make_unique<mh::service::daemon>(config);
        {
            const span s("service", "daemon::start");
            daemon->start();
        }
        {
            mh::service::client warm_client(socket);
            for (std::size_t w = 0; w < warm_.size(); ++w) {
                mh::engine::memory_sink rows;
                mh::engine::result_sink* sinks[] = {&rows};
                const double cpu0 = cpu_seconds();
                timed_ms(r.warm_ms, "service", "client::submit",
                         [&] { (void)warm_client.submit(warm_[w], "warm", sinks); });
                r.warm_cpu_ms.push_back((cpu_seconds() - cpu0) * 1e3);
                out_.check(csv_of(rows.rows()) == warm_csv_[w], "warm-up job rows differ");
            }
        }
        r.setup_s = since(t_setup);

        const std::uint64_t misses_before = counter_value(daemon->metrics(), "cache.misses");
        const std::uint64_t shed_before = counter_value(daemon->metrics(), "admission.shed");
        std::atomic<std::size_t> next{0};
        std::vector<client_log> logs(clients);
        const auto t_loop = steady::now();
        {
            std::vector<std::thread> threads;
            for (std::size_t c = 0; c < clients; ++c) {
                threads.emplace_back([&, c] { client_loop(index, c, socket, next, logs[c]); });
            }
            for (std::thread& t : threads) {
                t.join();
            }
        }
        r.loop_s = since(t_loop);
        for (const client_log& log : logs) {
            out_.attempted += log.checked;
            for (const std::string& why : log.wrong) {
                out_.check(false, why);
            }
            for (const std::string& why : log.refused) {
                out_.refused(why);
            }
            r.jobs.insert(r.jobs.end(), log.jobs.begin(), log.jobs.end());
        }
        r.fds_end = static_cast<double>(open_fd_count());
        r.threads_end = proc_status("Threads");
        r.vm_mb_end = proc_status("VmSize") / 1024.0;
        if (traced) {
            r.cold_misses = counter_value(daemon->metrics(), "cache.misses") - misses_before;
            r.shed = counter_value(daemon->metrics(), "admission.shed") - shed_before;
            probe_daemon(socket, *daemon, r);
        }
        {
            const span s("service", "daemon::stop");
            daemon->stop();
            daemon.reset();
        }
        std::error_code ec;
        fs::remove_all(dir, ec);
        return r;
    }

    [[nodiscard]] const mh::engine::sweep_spec& warm_spec() const { return warm_.front(); }

 private:
    void client_loop(std::uint64_t session, std::size_t client_index, const std::string& socket,
                     std::atomic<std::size_t>& next, client_log& log) {
        const std::string client_id = "client-" + std::to_string(client_index);
        for (std::size_t k = next++; k < jobs_per_session; k = next++) {
            const std::uint64_t draw = derive_seed(opt_.seed, (session + 1) << 32 | k);
            const bool cold = draw % 1000 < cold_per_mille;
            const std::size_t w = static_cast<std::size_t>(draw >> 32) % warm_.size();
            const mh::engine::sweep_spec spec =
                cold ? job_spec(derive_seed(draw, 7)) : warm_[w];
            const auto t0 = steady::now();
            mh::engine::memory_sink rows;
            first_row_sink first(t0);
            mh::engine::result_sink* sinks[] = {&rows, &first};
            try {
                const span s("service", "client::submit", session << 32 | (k + 1));
                mh::service::client client(socket);
                const mh::service::submit_outcome result = client.submit(spec, client_id, sinks);
                const double ms = since(t0) * 1e3;
                log.jobs.push_back({cold, ms, first.first_s() * 1e3});
                const bool ok = cold ? !result.cached && rows.rows().size() == points_ &&
                                           result.rows == points_
                                     : result.cached && csv_of(rows.rows()) == warm_csv_[w];
                if (ok) {
                    ++log.checked;
                } else {
                    log.wrong.push_back(std::string(cold ? "cold" : "cache-hit") + " job " +
                                        std::to_string(k) + " returned wrong rows");
                }
            } catch (const mh::service::busy_error& e) {
                log.refused.push_back(std::string("busy reply: ") + e.what());
            } catch (const std::exception& e) {
                log.refused.push_back(std::string("job error: ") + e.what());
            }
        }
    }

    /// Traced sessions: ping latency on one connection and the pool tasks a
    /// cache-hit job costs.
    void probe_daemon(const std::string& socket, mh::service::daemon& daemon,
                      session_result& r) {
        mh::service::client client(socket);
        for (int i = 0; i < 40; ++i) {
            timed_ms(r.ping_ms, "service", "client::ping", [&] { (void)client.ping(); });
        }
        const std::uint64_t tasks_before = daemon.pool().stats().tasks_run;
        constexpr std::size_t hits = 10;
        for (std::size_t i = 0; i < hits; ++i) {
            mh::engine::memory_sink rows;
            mh::engine::result_sink* sinks[] = {&rows};
            mh::service::client job(socket);
            const span s("service", "client::submit");
            (void)job.submit(warm_[i % warm_.size()], "probe", sinks);
        }
        r.tasks_per_hit_job =
            static_cast<double>(daemon.pool().stats().tasks_run - tasks_before) / hits;
    }

    const options& opt_;
    outcome& out_;
    std::vector<mh::engine::sweep_spec> warm_;
    std::vector<std::string> warm_csv_;
    std::size_t points_ = 0;
};

}  // namespace

void run_service_workload(const options& opt, outcome& out) {
    service_run run(opt, out);

    std::vector<double> setup;
    std::vector<double> hit_ms;
    std::vector<double> cold_ms;
    std::vector<double> traced_hit_ms;
    std::vector<double> first_row_cold;
    std::vector<double> fds_end;
    std::vector<double> threads_end;
    std::vector<double> vm_mb_end;
    std::vector<double> ping_ms;
    std::vector<double> tasks_per_hit;
    std::uint64_t traced_cold = 0;
    std::uint64_t misses = 0;
    std::uint64_t shed = 0;
    std::vector<double> jobs_per_s;
    std::vector<double> cold_alone_ms;
    std::vector<double> cold_cpu_ms;
    std::size_t jobs = 0;

    const io_counters io_before = read_io();
    const auto t_run = steady::now();
    for (std::uint64_t index = 0;
         since(t_run) < opt.seconds || index < (opt.trace ? 2u : 1u) ||
         (!opt.trace && cold_ms.size() < min_cold_samples && since(t_run) < 3 * opt.seconds);
         ++index) {
        const bool traced = opt.trace && index % 2 == 1;
        const mh::util::telemetry::scoped_enable telemetry(traced);
        tracer::global().set_enabled(traced);
        const session_result r = run.session(index, traced);
        tracer::global().set_enabled(false);
        fds_end.push_back(r.fds_end);
        threads_end.push_back(r.threads_end);
        vm_mb_end.push_back(r.vm_mb_end);
        if (traced) {
            for (const job_sample& job : r.jobs) {
                if (job.cold) {
                    ++traced_cold;
                    first_row_cold.push_back(job.first_row_ms);
                } else {
                    traced_hit_ms.push_back(job.ms);
                }
            }
            misses += r.cold_misses;
            shed += r.shed;
            ping_ms.insert(ping_ms.end(), r.ping_ms.begin(), r.ping_ms.end());
            tasks_per_hit.push_back(r.tasks_per_hit_job);
            continue;
        }
        setup.push_back(r.setup_s);
        cold_alone_ms.insert(cold_alone_ms.end(), r.warm_ms.begin(), r.warm_ms.end());
        cold_cpu_ms.insert(cold_cpu_ms.end(), r.warm_cpu_ms.begin(), r.warm_cpu_ms.end());
        for (const job_sample& job : r.jobs) {
            (job.cold ? cold_ms : hit_ms).push_back(job.ms);
        }
        jobs += r.jobs.size();
        jobs_per_s.push_back(static_cast<double>(r.jobs.size()) / r.loop_s);
    }
    out.span_mark = tracer::global().size();
    const io_counters io_after = read_io();
    const double window_s = since(t_run);

    const tail_value cold_tail = tail(cold_ms, 0.9);
    out.end_to_end.add("setup_s", median(setup), "s", setup.size(),
                       "daemon start + warming the cache with " + std::to_string(warm_specs) +
                           " jobs");
    out.end_to_end.add("base_ms", median(hit_ms), "ms", hit_ms.size(), "= hit_ms_p50");
    // The CPU time of a cold job run alone, not cold_ms_p50: in the closed
    // loop cold jobs queue for the single run slot, and a cold job waits on
    // fsync, both of which turn host noise into large run-to-run swings.
    out.end_to_end.add("variant_ms", median(cold_cpu_ms), "ms", cold_cpu_ms.size(),
                       "= cold_cpu_ms_p50");
    out.detail.add("hit_ms_p50", median(hit_ms), "ms", hit_ms.size());
    out.detail.add("cold_ms_p50", median(cold_ms), "ms", cold_ms.size());
    out.detail.add("cold_ms_p90", cold_tail.value, "ms", cold_ms.size(), cold_tail.note(0.9));
    out.detail.add("cold_alone_ms_p50", median(cold_alone_ms), "ms", cold_alone_ms.size(),
                   "warm-up jobs: cold runs with no other job in flight");
    out.detail.add("cold_cpu_ms_p50", median(cold_cpu_ms), "ms", cold_cpu_ms.size(),
                   "process CPU time of those jobs");
    out.detail.add("jobs_per_s", median(jobs_per_s), "1/s", jobs_per_s.size(),
                   std::to_string(jobs) + " jobs in sessions of " +
                       std::to_string(jobs_per_session) + " from " + std::to_string(clients) +
                       " closed-loop clients");

    if (!opt.trace) {
        return;
    }
    out.detail.add("service.ping_ms_p50", median(ping_ms), "ms", ping_ms.size(),
                   "one connection");
    {
        // Wire codec cost on a warm spec.
        const mh::engine::sweep_spec& spec = run.warm_spec();
        std::vector<double> encode_us;
        std::vector<double> decode_us;
        std::string text;
        tracer::global().set_enabled(true);
        for (int i = 0; i < 400; ++i) {
            timed_ms(encode_us, "service", "wire::encode",
                     [&] { text = mh::service::dump(mh::service::encode_sweep_spec(spec)); });
            timed_ms(decode_us, "service", "wire::decode", [&] {
                (void)mh::service::decode_sweep_spec(mh::service::parse_json(text));
            });
        }
        tracer::global().set_enabled(false);
        for (std::vector<double>* v : {&encode_us, &decode_us}) {
            for (double& d : *v) {
                d *= 1e3;  // ms -> us
            }
        }
        out.detail.add("service.wire.encode_us", median(encode_us), "us", encode_us.size(),
                       "encode_sweep_spec + dump");
        out.detail.add("service.wire.decode_us", median(decode_us), "us", decode_us.size(),
                       "parse_json + decode_sweep_spec");
    }
    out.detail.add("service.first_row_ms_p50.cold", median(first_row_cold), "ms",
                   first_row_cold.size());
    out.detail.add("service.cache.misses_per_cold_job",
                   traced_cold > 0 ? static_cast<double>(misses) / static_cast<double>(traced_cold)
                                   : 0.0,
                   "count", traced_cold);
    out.detail.add("engine.pool.tasks_per_hit_job", median(tasks_per_hit), "count",
                   tasks_per_hit.size(), "must be 0");
    out.detail.add("service.admission.shed", static_cast<double>(shed), "count", 1);
    out.detail.add("service.daemon.open_fds_end", median(fds_end), "count", fds_end.size(),
                   "process fds after " + std::to_string(jobs_per_session) + " jobs");
    out.detail.add("service.daemon.threads_end", median(threads_end), "count",
                   threads_end.size());
    out.detail.add("service.daemon.vm_mb_end", median(vm_mb_end), "MB", vm_mb_end.size());
    out.check(median(tasks_per_hit) == 0.0, "cache-hit jobs ran pool tasks");

    const scenario_size size = standard_case(job_n, job_c1.front());
    mh::engine::thread_pool pool(4);
    tracer::global().set_enabled(true);
    {
        const mh::util::telemetry::scoped_enable telemetry(true);
        add_replica_probe(out, size, derive_seed(opt.seed, 1u << 20), pool, 1.0);
    }
    add_kernel_metrics(out.per_layer, size, derive_seed(opt.seed, 1u << 21), pool, 0.5);
    tracer::global().set_enabled(false);
    add_process_metrics(out.per_layer, io_before, io_after, window_s, median(fds_end),
                        median(threads_end), median(vm_mb_end), fds_end.size());
    out.per_layer.add("trace.overhead_frac", median(traced_hit_ms) / median(hit_ms) - 1.0,
                      "ratio", traced_hit_ms.size(), "traced / untraced hit_ms_p50, minus 1");
}

}  // namespace perfbench
