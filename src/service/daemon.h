/// \file daemon.h
/// The simulation-as-a-service core: a long-lived job daemon serving
/// sweep_spec jobs over an AF_UNIX stream socket, one newline-delimited JSON
/// document per message (protocol in docs/SERVICE.md). Submissions pass the
/// admission controller, run on one shared thread pool, stream their rows
/// back incrementally through the ordinary sink machinery, and land in the
/// fingerprint-keyed result cache — a repeated query is a replay from disk,
/// not a re-run.
///
/// Threading model: start() spawns the accept thread, which spawns one
/// thread per connection. That thread owns the connection's fd and executes
/// the jobs it submits (after waiting for an admission run slot), so every
/// write to a connection comes from the one thread that owns it — no
/// per-connection write locks. When the peer goes, it closes the fd and
/// ends. Cross-connection ops (status / cancel / stats) only touch the
/// shared job registry.
///
/// Crash tolerance: every running job checkpoints to
/// `<work_dir>/<fingerprint>.manifest`. A daemon killed mid-job leaves that
/// ledger behind; the restarted daemon's next submission of the same spec
/// resumes at the exact replica boundary (engine/manifest.h) and completes
/// with only the missing replicas — then caches the result as usual. A
/// crash ledger or fabric job directory the daemon cannot read (written in
/// an older manifest format, or damaged) is removed and the job recomputed.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "engine/metrics.h"
#include "engine/thread_pool.h"
#include "service/admission.h"
#include "service/result_cache.h"
#include "service/wire.h"

namespace manhattan::service {

struct daemon_config {
    std::string socket_path;  ///< AF_UNIX path (beware the ~107-byte limit)
    std::string cache_dir;    ///< result cache entries
    std::string work_dir;     ///< in-flight job ledgers (crash recovery)
    std::string fabric_root;  ///< non-empty: farm jobs to a fabric directory
                              ///< per job instead of running in-process
                              ///< (external sweepd workers may then join in)
    std::size_t threads = 0;  ///< shared pool size (0 = hardware concurrency)
    admission_config admission;
    std::size_t cache_max_entries = 0;
    std::uint64_t cache_max_bytes = 0;
};

/// One daemon instance. start() binds and spawns the accept loop; stop()
/// (idempotent) ends the accept loop and every connection. The destructor
/// stops.
class daemon {
 public:
    explicit daemon(daemon_config config);
    ~daemon();
    daemon(const daemon&) = delete;
    daemon& operator=(const daemon&) = delete;

    /// Bind + listen + spawn the accept thread. Throws engine::error
    /// (class io) when the socket cannot be bound.
    void start();

    /// Shut down: end the accept loop, shut down every live connection,
    /// wait for their threads to close them and join them, then close the
    /// listener and remove the socket file. Must not run on a connection
    /// thread (it would wait for itself): the `shutdown` op uses
    /// request_stop().
    void stop();

    /// Flag the accept loop to exit without blocking (the SIGTERM path:
    /// shutdown(2) on the listener is async-signal-safe). stop() still has
    /// to run afterwards.
    void request_stop() noexcept;

    /// Block until the accept loop ends: on request_stop(), or when the
    /// listener fails, and then throw engine::error (class io) naming the
    /// failure. A full descriptor table only makes the loop back off.
    void wait();

    [[nodiscard]] engine::metrics_registry& metrics() noexcept { return metrics_; }
    [[nodiscard]] engine::thread_pool& pool() noexcept { return *pool_; }
    [[nodiscard]] const daemon_config& config() const noexcept { return config_; }

 private:
    struct job_state;

    void accept_loop();
    void handle_connection(int fd);
    void handle_submit(line_channel& peer, const json_value& request);
    [[nodiscard]] json_value handle_status(const json_value& request);
    [[nodiscard]] json_value handle_cancel(const json_value& request);
    [[nodiscard]] json_value handle_stats();

    /// The live (queued or running) job with fingerprint \p fp, or null.
    [[nodiscard]] std::shared_ptr<job_state> live_job(std::uint64_t fp);

    /// Stream every row of a completed manifest (cache hit / fabric merge)
    /// and the trailing done event. Zero pool tasks by construction.
    void serve_manifest(line_channel& peer, const std::string& job,
                        const std::vector<engine::sweep_point>& points,
                        const engine::run_manifest& manifest, bool cached);

    /// Run one job through a per-job fabric directory under fabric_root (this
    /// daemon drains it too; external sweepd workers may join). Streams rows
    /// to \p sink and caches the merged manifest.
    void run_on_fabric(const engine::sweep_spec& spec, engine::result_sink& sink);

    daemon_config config_;
    engine::metrics_registry metrics_;
    std::unique_ptr<engine::thread_pool> pool_;
    result_cache cache_;
    admission_controller admission_;

    int listener_ = -1;
    std::atomic<bool> stopping_{false};
    std::thread accept_thread_;

    /// Each live connection's fd and the thread that owns it. The thread
    /// closes its fd and moves itself to finished_ under the mutex; stop()
    /// shuts down the fds still in live_ under the same mutex and waits for
    /// live_ to empty. Finished threads are joined outside the mutex.
    std::mutex connections_mutex_;
    std::condition_variable connections_cv_;
    std::map<int, std::thread> live_;
    std::vector<std::thread> finished_;
    std::string listener_failure_;  ///< why accept() gave up

    /// Fingerprint-keyed registry of live (queued or running) jobs — the
    /// status / cancel surface and the duplicate-submission rendezvous.
    std::mutex jobs_mutex_;
    std::map<std::uint64_t, std::shared_ptr<job_state>> jobs_;
};

}  // namespace manhattan::service
