/// manhattand — the simulation job daemon (src/service/, docs/SERVICE.md).
/// Serves sweep jobs over an AF_UNIX socket: admission-controlled, scheduled
/// on one shared thread pool, rows streamed back incrementally, completed
/// results memoized in the fingerprint-keyed result cache.
///
/// Flags:
///   --socket=PATH        listen socket (required; keep it short — AF_UNIX)
///   --cache-dir=DIR      result cache (default <socket>.cache)
///   --work-dir=DIR       in-flight job ledgers (default <socket>.work)
///   --fabric-root=DIR    farm each job through a fabric directory under DIR
///                        (external sweepd workers may join; default: off)
///   --threads=K          shared pool size (0 = hardware concurrency)
///   --max-queue=K        admitted-jobs bound (16)
///   --max-running=K      concurrently executing sweeps (1)
///   --per-client=K       in-flight jobs per client id (4)
///   --cache-entries=K    LRU entry bound (0 = unbounded)
///   --cache-bytes=K      LRU byte bound (0 = unbounded)
///
/// Exit codes: the shared bench taxonomy (docs/WORKLOADS.md). SIGTERM /
/// SIGINT shut down gracefully: running jobs finish and publish their
/// ledgers; a SIGKILLed daemon leaves resumable ledgers in --work-dir and
/// the next daemon finishes the job on resubmission. A full descriptor
/// table only delays new connections; a listener that fails otherwise
/// exits 4 (io).
#include <csignal>

#include "bench_common.h"
#include "service/daemon.h"

namespace {

// The SIGTERM handler can only do async-signal-safe work: flip the flag the
// daemon's wait() polls. (request_stop proper runs on the main thread.)
manhattan::service::daemon* live_daemon = nullptr;

void on_terminate(int) {
    if (live_daemon != nullptr) {
        live_daemon->request_stop();
    }
}

}  // namespace

int main(int argc, char** argv) {
    using namespace manhattan;
    return bench::guarded_main(argc, argv, [](const util::cli_args& args) {
        const std::string socket = args.get_string("socket", "");
        if (socket.empty()) {
            throw std::invalid_argument("manhattand: --socket=PATH is required");
        }
        service::daemon_config config;
        config.socket_path = socket;
        config.cache_dir = args.get_string("cache-dir", socket + ".cache");
        config.work_dir = args.get_string("work-dir", socket + ".work");
        config.fabric_root = args.get_string("fabric-root", "");
        config.threads = bench::count_arg(args, "threads", 0);
        config.admission.max_queue = bench::count_arg(args, "max-queue", 16);
        config.admission.max_running = bench::count_arg(args, "max-running", 1);
        config.admission.per_client_inflight = bench::count_arg(args, "per-client", 4);
        config.cache_max_entries = bench::count_arg(args, "cache-entries", 0);
        config.cache_max_bytes = bench::count_arg(args, "cache-bytes", 0);

        service::daemon d(config);
        live_daemon = &d;
        struct unpublish {  // before d goes, also when wait() throws
            ~unpublish() { live_daemon = nullptr; }
        } guard;
        std::signal(SIGTERM, on_terminate);
        std::signal(SIGINT, on_terminate);
        d.start();
        bench::note("manhattand: serving on " + socket +
                    " (cache " + config.cache_dir + ", work " + config.work_dir + ")");
        d.wait();  // a failed listener throws: exit 4
        d.stop();
        bench::note("manhattand: stopped");
        return 0;
    });
}
