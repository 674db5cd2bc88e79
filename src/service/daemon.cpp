#include "service/daemon.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>

#include "engine/fabric.h"
#include "engine/sink.h"
#include "service/wire.h"
#include "util/telemetry.h"

namespace manhattan::service {

namespace fs = std::filesystem;

namespace {

/// Write one protocol line (dump + '\n'). Returns false on a dead peer —
/// the caller decides whether that aborts anything (it never aborts a job:
/// computed work is cached even when nobody is left listening).
bool send_line(int fd, const json_value& v) {
    std::string line = dump(v);
    line += '\n';
    std::size_t sent = 0;
    while (sent < line.size()) {
        const ssize_t n = ::send(fd, line.data() + sent, line.size() - sent, MSG_NOSIGNAL);
        if (n <= 0) {
            if (n < 0 && errno == EINTR) {
                continue;
            }
            return false;
        }
        sent += static_cast<std::size_t>(n);
    }
    return true;
}

/// Newline-framed reader. Returns std::nullopt on EOF / reset.
class line_reader {
 public:
    explicit line_reader(int fd) : fd_(fd) {}

    std::optional<std::string> next() {
        while (true) {
            const std::size_t pos = buffer_.find('\n');
            if (pos != std::string::npos) {
                std::string line = buffer_.substr(0, pos);
                buffer_.erase(0, pos + 1);
                return line;
            }
            char chunk[4096];
            const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
            if (n < 0 && errno == EINTR) {
                continue;
            }
            if (n <= 0) {
                return std::nullopt;
            }
            buffer_.append(chunk, static_cast<std::size_t>(n));
        }
    }

 private:
    int fd_;
    std::string buffer_;
};

json_value error_response(const std::string& op, const char* cls,
                          const std::string& message) {
    json_value v = json_value::object();
    v.set("ok", json_value::boolean(false));
    v.set("op", json_value::string(op));
    v.set("error", json_value::string(cls));
    v.set("message", json_value::string(message));
    return v;
}

/// Streams each aggregated row to the peer as it completes. Driver-thread
/// only (the connection thread runs the sweep), like every sink. A dead
/// peer stops the streaming but never the job.
class stream_sink final : public engine::result_sink {
 public:
    stream_sink(int fd, std::string job) : fd_(fd), job_(std::move(job)) {}

    void on_row(const engine::sweep_row& row) override {
        ++rows_;
        if (broken_) {
            return;
        }
        json_value event = json_value::object();
        event.set("event", json_value::string("row"));
        event.set("job", json_value::string(job_));
        event.set("row", encode_sweep_row(row));
        broken_ = !send_line(fd_, event);
    }

    [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
    [[nodiscard]] bool broken() const noexcept { return broken_; }

 private:
    int fd_;
    std::string job_;
    std::size_t rows_ = 0;
    bool broken_ = false;
};

}  // namespace

struct daemon::job_state {
    std::string id;
    std::uint64_t fingerprint = 0;

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
    listener_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listener_ < 0) {
        throw engine::error(engine::errc::io, "daemon: socket() failed", true);
    }
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (config_.socket_path.size() >= sizeof(addr.sun_path)) {
        throw std::invalid_argument("daemon: socket path '" + config_.socket_path +
                                    "' exceeds the AF_UNIX limit");
    }
    std::strncpy(addr.sun_path, config_.socket_path.c_str(), sizeof(addr.sun_path) - 1);
    ::unlink(config_.socket_path.c_str());  // stale socket from a killed daemon
    if (::bind(listener_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0 ||
        ::listen(listener_, 64) != 0) {
        const std::string what = std::strerror(errno);
        ::close(listener_);
        listener_ = -1;
        throw engine::error(engine::errc::io,
                            "daemon: cannot listen on '" + config_.socket_path +
                                "': " + what,
                            true);
    }
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
}

void daemon::stop() {
    {
        std::lock_guard lock(stopped_mutex_);
        if (stopped_) {
            return;
        }
        stopped_ = true;
    }
    request_stop();
    if (accept_thread_.joinable()) {
        accept_thread_.join();
    }
    if (listener_ >= 0) {
        ::close(listener_);
        listener_ = -1;
        ::unlink(config_.socket_path.c_str());
    }
    std::vector<std::pair<int, std::thread>> connections;
    {
        std::lock_guard lock(connections_mutex_);
        connections.swap(connections_);
    }
    for (auto& [fd, thread] : connections) {
        ::shutdown(fd, SHUT_RDWR);
    }
    for (auto& [fd, thread] : connections) {
        if (thread.joinable()) {
            thread.join();
        }
        ::close(fd);
    }
    stopped_cv_.notify_all();
}

void daemon::accept_loop() {
    while (!stopping_.load(std::memory_order_relaxed)) {
        const int fd = ::accept(listener_, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR) {
                continue;
            }
            break;  // listener shut down (or broken): stop accepting
        }
        std::lock_guard lock(connections_mutex_);
        if (stopping_.load(std::memory_order_relaxed)) {
            ::close(fd);
            break;
        }
        connections_.emplace_back(fd, std::thread([this, fd] { handle_connection(fd); }));
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
    line_reader reader(fd);
    while (true) {
        const std::optional<std::string> line = reader.next();
        if (!line) {
            return;
        }
        if (line->empty()) {
            continue;
        }
        std::string op = "?";
        try {
            const json_value request = parse_json(*line);
            op = str_field(request, "op");
            if (op == "ping") {
                json_value v = json_value::object();
                v.set("ok", json_value::boolean(true));
                v.set("op", json_value::string("ping"));
                send_line(fd, v);
            } else if (op == "submit") {
                handle_submit(fd, request);
            } else if (op == "status") {
                handle_status(fd, request);
            } else if (op == "cancel") {
                handle_cancel(fd, request);
            } else if (op == "stats") {
                handle_stats(fd);
            } else if (op == "shutdown") {
                json_value v = json_value::object();
                v.set("ok", json_value::boolean(true));
                v.set("op", json_value::string("shutdown"));
                send_line(fd, v);
                request_stop();
                return;
            } else {
                send_line(fd, error_response(op, "spec", "unknown op '" + op + "'"));
            }
        } catch (const busy_error& e) {
            send_line(fd, error_response(op, "busy", e.what()));
        } catch (const engine::error& e) {
            send_line(fd, error_response(op, engine::errc_name(e.cls()), e.what()));
        } catch (const std::exception& e) {
            send_line(fd, error_response(op, engine::errc_name(engine::classify(e)),
                                         e.what()));
        }
    }
}

void daemon::serve_manifest(int fd, const std::string& job,
                            const std::vector<engine::sweep_point>& points,
                            std::size_t repetitions,
                            engine::run_manifest manifest, bool cached) {
    // Re-derive the rows through the fabric replay path: the exact
    // aggregate_sweep_row reduction run_sweep performs, with zero pool tasks
    // by construction.
    engine::fabric_spec spec;
    spec.fingerprint = manifest.fingerprint;
    spec.repetitions = repetitions;
    spec.batch = 1;
    spec.points = points;
    engine::fabric_merge merged;
    merged.manifest = std::move(manifest);
    stream_sink rows(fd, job);
    engine::result_sink* sink = &rows;
    engine::replay_rows(spec, merged, {&sink, 1});
    json_value done = json_value::object();
    done.set("event", json_value::string("done"));
    done.set("job", json_value::string(job));
    done.set("rows", json_value::integer(rows.rows()));
    done.set("cached", json_value::boolean(cached));
    done.set("fresh_replicas", json_value::integer(0));
    send_line(fd, done);
}

void daemon::handle_submit(int fd, const json_value& request) {
    const engine::sweep_spec spec = decode_sweep_spec(require(request, "spec"));
    const std::string client = [&] {
        const json_value* c = request.find("client");
        return c != nullptr && c->what == json_value::kind::string ? c->text
                                                                   : std::string{"anon"};
    }();
    const std::vector<engine::sweep_point> points = spec.expand();
    const std::uint64_t fp = engine::sweep_fingerprint(points, spec.repetitions);
    const std::string job = engine::fingerprint_hex(fp);

    const auto send_header = [&](bool cached) {
        json_value v = json_value::object();
        v.set("ok", json_value::boolean(true));
        v.set("op", json_value::string("submit"));
        v.set("job", json_value::string(job));
        v.set("cached", json_value::boolean(cached));
        v.set("points", json_value::integer(points.size()));
        v.set("reps", json_value::integer(spec.repetitions));
        send_line(fd, v);
    };

    // Fast path: already memoized — serve without consuming admission.
    if (std::optional<engine::run_manifest> hit = cache_.load(fp)) {
        send_header(true);
        serve_manifest(fd, job, points, spec.repetitions, std::move(*hit), true);
        return;
    }

    // Duplicate-submission rendezvous: an identical job already in flight
    // finishes exactly once; this submission waits for it and serves the
    // cache instead of competing for a run slot.
    if (std::shared_ptr<job_state> live = [&] {
            std::lock_guard lock(jobs_mutex_);
            const auto it = jobs_.find(fp);
            return it != jobs_.end() ? it->second : nullptr;
        }()) {
        {
            std::unique_lock lock(live->m);
            live->cv.wait(lock, [&] { return live->finished; });
        }
        if (std::optional<engine::run_manifest> hit = cache_.load(fp)) {
            send_header(true);
            serve_manifest(fd, job, points, spec.repetitions, std::move(*hit), true);
            return;
        }
        // The in-flight twin was cancelled or failed: fall through and run.
    }

    std::unique_ptr<admission_ticket> ticket = admission_.admit(client);  // throws busy
    auto state = std::make_shared<job_state>();
    state->id = job;
    state->fingerprint = fp;
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
        json_value v = json_value::object();
        v.set("event", json_value::string("cancelled"));
        v.set("job", json_value::string(job));
        send_line(fd, v);
        return;
    }
    state->transition("running", false);

    // Between admission and the run slot another connection may have
    // completed the same sweep; one more probe keeps the work done once.
    if (std::optional<engine::run_manifest> hit = cache_.load(fp)) {
        state->transition("done", true);
        unregister();
        serve_manifest(fd, job, points, spec.repetitions, std::move(*hit), true);
        return;
    }

    try {
        const std::size_t total = points.size() * spec.repetitions;
        std::size_t fresh = total;
        stream_sink rows(fd, job);
        engine::run_manifest manifest;
        if (!config_.fabric_root.empty()) {
            manifest = run_on_fabric(spec, rows);
            fresh = total;  // fabric workers share the tally; report the grid
        } else {
            const std::string work = config_.work_dir + "/" + job + ".manifest";
            fresh = total - recorded_replicas(work, fp);  // crash-resume delta
            engine::run_options opts;
            opts.pool = pool_.get();
            engine::checkpoint_options checkpoint;
            checkpoint.manifest_path = work;
            engine::result_sink* sink = &rows;
            (void)engine::run_sweep(spec, opts, {&sink, 1}, checkpoint);
            manifest = engine::load_manifest(work);
            cache_.store(manifest);
            std::error_code ec;
            fs::remove(work, ec);  // promoted to the cache; the ledger is spent
        }
        state->transition("done", true);
        unregister();
        json_value done = json_value::object();
        done.set("event", json_value::string("done"));
        done.set("job", json_value::string(job));
        done.set("rows", json_value::integer(rows.rows()));
        done.set("cached", json_value::boolean(false));
        done.set("fresh_replicas", json_value::integer(fresh));
        send_line(fd, done);
    } catch (const std::exception& e) {
        state->transition("error", true);
        unregister();
        const engine::errc cls = engine::classify(e);
        json_value event = json_value::object();
        event.set("event", json_value::string("error"));
        event.set("job", json_value::string(job));
        event.set("error", json_value::string(engine::errc_name(cls)));
        event.set("message", json_value::string(e.what()));
        send_line(fd, event);
    }
}

engine::run_manifest daemon::run_on_fabric(const engine::sweep_spec& spec,
                                           engine::result_sink& sink) {
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
    engine::run_manifest manifest = merged.manifest;
    manifest.fingerprint = fspec.fingerprint;
    manifest.points = fspec.points.size();
    manifest.repetitions = fspec.repetitions;
    engine::result_sink* sinks[] = {&sink};
    engine::replay_rows(fspec, merged, sinks);
    cache_.store(manifest);
    return manifest;
}

void daemon::handle_status(int fd, const json_value& request) {
    const std::string job = str_field(request, "job");
    std::string status = "unknown";
    {
        std::lock_guard lock(jobs_mutex_);
        for (const auto& [fp, state] : jobs_) {
            if (state->id == job) {
                std::lock_guard state_lock(state->m);
                status = state->status;
                break;
            }
        }
    }
    if (status == "unknown" && job.size() == 16) {
        try {
            const std::uint64_t fp = std::stoull(job, nullptr, 16);
            std::ifstream probe(cache_.entry_path(fp));
            if (probe.good()) {
                status = "cached";
            }
        } catch (const std::exception&) {
            // not a fingerprint: stays unknown
        }
    }
    json_value v = json_value::object();
    v.set("ok", json_value::boolean(true));
    v.set("op", json_value::string("status"));
    v.set("job", json_value::string(job));
    v.set("status", json_value::string(status));
    send_line(fd, v);
}

void daemon::handle_cancel(int fd, const json_value& request) {
    const std::string job = str_field(request, "job");
    bool found = false;
    {
        std::lock_guard lock(jobs_mutex_);
        for (const auto& [fp, state] : jobs_) {
            if (state->id == job) {
                std::lock_guard state_lock(state->m);
                if (state->ticket != nullptr) {
                    state->ticket->cancel();
                }
                found = true;
                break;
            }
        }
    }
    json_value v = json_value::object();
    v.set("ok", json_value::boolean(found));
    v.set("op", json_value::string("cancel"));
    v.set("job", json_value::string(job));
    if (!found) {
        v.set("error", json_value::string("state"));
        v.set("message", json_value::string("no live job '" + job + "'"));
    }
    send_line(fd, v);
}

void daemon::handle_stats(int fd) {
    json_value v = json_value::object();
    v.set("ok", json_value::boolean(true));
    v.set("op", json_value::string("stats"));
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
                metrics.set(m.name, encode_f64(m.value));
            }
        }
    }
    v.set("metrics", std::move(metrics));
    send_line(fd, v);
}

}  // namespace manhattan::service
