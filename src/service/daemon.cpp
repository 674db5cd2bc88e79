#include "service/daemon.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <system_error>

#include "codec/number.h"
#include "engine/fabric.h"
#include "engine/sink.h"
#include "service/wire.h"

namespace manhattan::service {

namespace fs = std::filesystem;

namespace {

/// Streams each aggregated row to the peer as it completes. Driver-thread
/// only (the connection thread runs the sweep), like every sink. A dead
/// peer stops the streaming but never the job: computed work is cached
/// even when nobody is left listening.
class stream_sink final : public engine::result_sink {
 public:
    stream_sink(line_channel& peer, std::string job) : peer_(peer), job_(std::move(job)) {}

    void on_row(const engine::sweep_row& row) override {
        ++rows_;
        if (broken_) {
            return;
        }
        json_value v = event("row", job_);
        v.set("row", encode_sweep_row(row));
        broken_ = !peer_.send(v);
    }

    [[nodiscard]] std::size_t rows() const noexcept { return rows_; }

 private:
    line_channel& peer_;
    std::string job_;
    std::size_t rows_ = 0;
    bool broken_ = false;
};

json_value done_event(const std::string& job, std::size_t rows, bool cached,
                      std::uint64_t fresh) {
    json_value v = event("done", job);
    v.set("rows", json_value::integer(rows));
    v.set("cached", json_value::boolean(cached));
    v.set("fresh_replicas", json_value::integer(fresh));
    return v;
}

}  // namespace

struct daemon::job_state {
    std::mutex m;
    std::condition_variable cv;
    admission_ticket* ticket = nullptr;  ///< guarded by m; null once released
    std::string status = "queued";       ///< queued / running / done / cancelled / error
    bool finished = false;

    void transition(const std::string& next, bool final_state) {
        std::lock_guard lock(m);
        status = next;
        if (final_state) {
            finished = true;
            ticket = nullptr;
            cv.notify_all();
        }
    }
};

daemon::daemon(daemon_config config)
    : config_(std::move(config)),
      pool_(std::make_unique<engine::thread_pool>(config_.threads)),
      cache_(cache_config{config_.cache_dir, config_.cache_max_entries,
                          config_.cache_max_bytes},
             &metrics_),
      admission_(config_.admission, &metrics_) {
    if (config_.socket_path.empty()) {
        throw std::invalid_argument("daemon: empty socket path");
    }
    fs::create_directories(config_.cache_dir);
    fs::create_directories(config_.work_dir);
}

daemon::~daemon() { stop(); }

void daemon::start() {
    listener_ = listen_unix(config_.socket_path);
    accept_thread_ = std::thread([this] { accept_loop(); });
}

void daemon::request_stop() noexcept {
    stopping_.store(true, std::memory_order_relaxed);
    const int fd = listener_;
    if (fd >= 0) {
        ::shutdown(fd, SHUT_RDWR);  // wakes the blocking accept()
    }
}

void daemon::wait() {
    // Polling keeps the SIGTERM path trivial: the handler only flips the
    // atomic and shuts the listener down — both async-signal-safe enough —
    // and this loop notices within a tick.
    while (!stopping_.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    std::lock_guard lock(connections_mutex_);
    if (!listener_failure_.empty()) {
        throw engine::error(engine::errc::io, "daemon: listener on '" + config_.socket_path +
                                                  "' failed: " + listener_failure_);
    }
}

void daemon::stop() {
    request_stop();
    if (accept_thread_.joinable()) {
        accept_thread_.join();
    }
    std::vector<std::thread> finished;
    {
        std::unique_lock lock(connections_mutex_);
        for (const auto& [fd, thread] : live_) {
            ::shutdown(fd, SHUT_RDWR);  // its thread sees EOF, closes it and leaves
        }
        connections_cv_.wait(lock, [&] { return live_.empty(); });
        finished.swap(finished_);
    }
    for (std::thread& thread : finished) {
        thread.join();
    }
    // Closed last: request_stop() on a connection thread (the shutdown op)
    // reads listener_, and every connection thread has ended by now.
    if (listener_ >= 0) {
        ::close(listener_);
        listener_ = -1;
        ::unlink(config_.socket_path.c_str());
    }
}

void daemon::accept_loop() {
    while (!stopping_.load(std::memory_order_relaxed)) {
        const int fd = ::accept(listener_, nullptr, nullptr);
        if (fd < 0) {
            const int err = errno;
            if (err == EINTR || err == ECONNABORTED) {
                continue;
            }
            if (err == EMFILE || err == ENFILE || err == ENOBUFS || err == ENOMEM) {
                // Out of descriptors or memory: connections that end give
                // them back, so back off and retry.
                std::this_thread::sleep_for(std::chrono::milliseconds(10));
                continue;
            }
            if (!stopping_.load(std::memory_order_relaxed)) {
                std::lock_guard lock(connections_mutex_);
                listener_failure_ = std::string("accept(): ") + std::strerror(err);
            }
            break;  // listener shut down (or broken): stop accepting
        }
        std::vector<std::thread> finished;
        {
            std::lock_guard lock(connections_mutex_);
            if (stopping_.load(std::memory_order_relaxed)) {
                ::close(fd);
                break;
            }
            finished.swap(finished_);
            try {
                live_.emplace(fd, std::thread([this, fd] {
                    handle_connection(fd);
                    // The only owner of fd closes it, under the lock stop()
                    // shuts fds down under, and hands its thread over to be
                    // joined.
                    std::lock_guard owner_lock(connections_mutex_);
                    ::close(fd);
                    finished_.push_back(std::move(live_.extract(fd).mapped()));
                    connections_cv_.notify_all();
                }));
            } catch (const std::system_error&) {
                ::close(fd);  // no thread to serve it: drop this connection
            }
        }
        for (std::thread& thread : finished) {
            thread.join();  // it has left live_: only its exit remains
        }
    }
    stopping_.store(true, std::memory_order_relaxed);
}

namespace {

/// Count the replicas a work-dir ledger already holds (crash recovery): the
/// resumed run computes only the rest. A ledger this binary cannot resume
/// from (an older manifest format, a damaged file, another sweep) is stale
/// crash state: it is removed and the job starts over, rather than failing
/// every later submission of the spec.
std::size_t recorded_replicas(const std::string& path, std::uint64_t fingerprint) {
    std::error_code ec;
    if (!fs::exists(path, ec)) {
        return 0;
    }
    try {
        const engine::run_manifest manifest = engine::load_manifest(path);
        if (manifest.fingerprint == fingerprint) {
            return manifest.records.size();
        }
    } catch (const engine::manifest_error& e) {
        std::fprintf(stderr, "daemon: discarding stale crash ledger: %s\n", e.what());
    }
    fs::remove(path, ec);
    return 0;
}

}  // namespace

void daemon::handle_connection(int fd) {
    line_channel peer(fd);
    while (const std::optional<std::string> line = peer.next_line()) {
        if (line->empty()) {
            continue;
        }
        std::string op = "?";
        try {
            const json_value request = parse_json(*line);
            op = codec::str_field(request, "op");
            if (op == "ping") {
                peer.send(reply(op));
            } else if (op == "submit") {
                handle_submit(peer, request);
            } else if (op == "status") {
                peer.send(handle_status(request));
            } else if (op == "cancel") {
                peer.send(handle_cancel(request));
            } else if (op == "stats") {
                peer.send(handle_stats());
            } else if (op == "shutdown") {
                peer.send(reply(op));
                request_stop();
                return;
            } else {
                throw std::invalid_argument("unknown op '" + op + "'");  // a spec error
            }
        } catch (const std::exception& e) {
            peer.send(with_failure(reply(op, false), e));
        }
    }
}

std::shared_ptr<daemon::job_state> daemon::live_job(std::uint64_t fp) {
    std::lock_guard lock(jobs_mutex_);
    const auto it = jobs_.find(fp);
    return it != jobs_.end() ? it->second : nullptr;
}

void daemon::serve_manifest(line_channel& peer, const std::string& job,
                            const std::vector<engine::sweep_point>& points,
                            const engine::run_manifest& manifest, bool cached) {
    // Re-derive the rows through the fabric replay path: the exact
    // aggregate_sweep_row reduction run_sweep performs, with zero pool tasks
    // by construction.
    stream_sink rows(peer, job);
    engine::result_sink* sink = &rows;
    engine::replay_rows(points, manifest, {&sink, 1});
    peer.send(done_event(job, rows.rows(), cached, 0));
}

void daemon::handle_submit(line_channel& peer, const json_value& request) {
    const engine::sweep_spec spec = decode_sweep_spec(codec::require(request, "spec"));
    const std::string client = [&] {
        const json_value* c = request.find("client");
        return c != nullptr && c->what == json_value::kind::string ? c->text
                                                                   : std::string{"anon"};
    }();
    const std::vector<engine::sweep_point> points = spec.expand();
    const std::uint64_t fp = engine::sweep_fingerprint(points, spec.repetitions);
    const std::string job = engine::fingerprint_hex(fp);

    const auto send_header = [&](bool cached) {
        json_value v = reply("submit");
        v.set("job", json_value::string(job));
        v.set("cached", json_value::boolean(cached));
        v.set("points", json_value::integer(points.size()));
        v.set("reps", json_value::integer(spec.repetitions));
        peer.send(v);
    };

    // Fast path: already memoized — serve without consuming admission.
    if (std::optional<engine::run_manifest> hit = cache_.load(fp)) {
        send_header(true);
        serve_manifest(peer, job, points, *hit, true);
        return;
    }

    // Duplicate-submission rendezvous: an identical job already in flight
    // finishes exactly once; this submission waits for it and serves the
    // cache instead of competing for a run slot.
    if (const std::shared_ptr<job_state> live = live_job(fp)) {
        {
            std::unique_lock lock(live->m);
            live->cv.wait(lock, [&] { return live->finished; });
        }
        if (std::optional<engine::run_manifest> hit = cache_.load(fp)) {
            send_header(true);
            serve_manifest(peer, job, points, *hit, true);
            return;
        }
        // The in-flight twin was cancelled or failed: fall through and run.
    }

    std::unique_ptr<admission_ticket> ticket = admission_.admit(client);  // throws busy
    auto state = std::make_shared<job_state>();
    state->ticket = ticket.get();
    {
        std::lock_guard lock(jobs_mutex_);
        jobs_[fp] = state;
    }
    const auto unregister = [&] {
        std::lock_guard lock(jobs_mutex_);
        const auto it = jobs_.find(fp);
        if (it != jobs_.end() && it->second == state) {
            jobs_.erase(it);
        }
    };

    send_header(false);
    if (!ticket->acquire_run_slot()) {
        state->transition("cancelled", true);
        unregister();
        peer.send(event("cancelled", job));
        return;
    }
    state->transition("running", false);

    // Between admission and the run slot another connection may have
    // completed the same sweep; one more probe keeps the work done once.
    if (std::optional<engine::run_manifest> hit = cache_.load(fp)) {
        state->transition("done", true);
        unregister();
        serve_manifest(peer, job, points, *hit, true);
        return;
    }

    try {
        const std::size_t total = points.size() * spec.repetitions;
        std::size_t fresh = total;
        stream_sink rows(peer, job);
        if (!config_.fabric_root.empty()) {
            run_on_fabric(spec, rows);  // reports the grid: fabric workers share the tally
        } else {
            const std::string work = config_.work_dir + "/" + job + ".manifest";
            fresh = total - recorded_replicas(work, fp);  // crash-resume delta
            engine::run_options opts;
            opts.pool = pool_.get();
            engine::checkpoint_options checkpoint;
            checkpoint.manifest_path = work;
            engine::result_sink* sink = &rows;
            (void)engine::run_sweep(spec, opts, {&sink, 1}, checkpoint);
            cache_.store(engine::load_manifest(work));
            std::error_code ec;
            fs::remove(work, ec);  // promoted to the cache; the ledger is spent
        }
        state->transition("done", true);
        unregister();
        peer.send(done_event(job, rows.rows(), false, fresh));
    } catch (const std::exception& e) {
        state->transition("error", true);
        unregister();
        peer.send(with_failure(event("error", job), e));
    }
}

void daemon::run_on_fabric(const engine::sweep_spec& spec, engine::result_sink& sink) {
    const std::uint64_t fp = engine::sweep_fingerprint(spec);
    const std::string dir = config_.fabric_root + "/job-" + engine::fingerprint_hex(fp);
    const auto drain = [&](engine::fabric_spec& fspec) {
        fspec = engine::init_fabric(dir, spec, 8);
        engine::fabric_options fopts;
        fopts.dir = dir;
        fopts.owner = "daemon";
        engine::run_options ropts;
        ropts.pool = pool_.get();
        if (!engine::run_fabric_worker(fopts, ropts).complete) {
            throw engine::fabric_partial("fabric job '" + dir +
                                         "' stopped before full coverage");
        }
        return engine::merge_fabric(dir, fspec);
    };
    engine::fabric_spec fspec;
    engine::fabric_merge merged;
    try {
        merged = drain(fspec);
    } catch (const engine::error& e) {
        // A job directory holding state this binary cannot use (a sweep.spec
        // or ledger in an older format, a damaged file) is stale: start the
        // job over in a fresh directory instead of failing it forever.
        if (e.cls() != engine::errc::state) {
            throw;
        }
        std::fprintf(stderr, "daemon: discarding stale fabric job '%s': %s\n", dir.c_str(),
                     e.what());
        std::error_code ec;
        fs::remove_all(dir, ec);
        merged = drain(fspec);
    }
    if (!merged.complete()) {
        throw engine::fabric_partial("fabric job '" + dir +
                                     "' left quarantined or missing replicas");
    }
    engine::result_sink* sinks[] = {&sink};
    engine::replay_rows(fspec.points, merged.manifest, sinks);
    cache_.store(merged.manifest);
}

json_value daemon::handle_status(const json_value& request) {
    const std::string job = codec::str_field(request, "job");
    // Only a job id as fingerprint_hex writes it names a job or a cache entry.
    const std::optional<std::uint64_t> fp = codec::parse_hex64(job);
    std::string status = "unknown";
    if (const std::shared_ptr<job_state> state = fp ? live_job(*fp) : nullptr) {
        std::lock_guard lock(state->m);
        status = state->status;
    } else if (fp && std::ifstream(cache_.entry_path(*fp)).good()) {
        status = "cached";
    }
    json_value v = reply("status");
    v.set("job", json_value::string(job));
    v.set("status", json_value::string(status));
    return v;
}

json_value daemon::handle_cancel(const json_value& request) {
    const std::string job = codec::str_field(request, "job");
    const std::optional<std::uint64_t> fp = codec::parse_hex64(job);
    const std::shared_ptr<job_state> state = fp ? live_job(*fp) : nullptr;
    if (state) {
        std::lock_guard lock(state->m);
        if (state->ticket != nullptr) {
            state->ticket->cancel();
        }
    }
    json_value v = reply("cancel", state != nullptr);
    v.set("job", json_value::string(job));
    if (!state) {
        v = with_failure(std::move(v), engine::errc::state, "no live job '" + job + "'");
    }
    return v;
}

json_value daemon::handle_stats() {
    json_value v = reply("stats");
    v.set("queued", json_value::integer(admission_.queued()));
    v.set("running", json_value::integer(admission_.running()));
    json_value metrics = json_value::object();
    // Daemon registry (cache.*, admission.*) plus the shared pool's
    // instruments (pool.tasks_run pins the zero-fresh-replica contract).
    for (const engine::metrics_registry* registry :
         {static_cast<const engine::metrics_registry*>(&metrics_), &pool_->metrics()}) {
        for (const engine::metric_snapshot& m : registry->snapshot()) {
            if (m.what == engine::metric_snapshot::kind::counter) {
                metrics.set(m.name, json_value::integer(
                                        static_cast<std::uint64_t>(m.value)));
            } else if (m.what == engine::metric_snapshot::kind::gauge) {
                metrics.set(m.name, codec::encode_f64(m.value));
            }
        }
    }
    v.set("metrics", std::move(metrics));
    return v;
}

}  // namespace manhattan::service
