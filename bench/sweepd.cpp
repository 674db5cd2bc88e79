// SWEEPD — standalone fabric worker: drains a sweep published to a fabric
// directory (engine/fabric.h, docs/FABRIC.md) without knowing the
// originating binary's flags — the fully-expanded sweep lives in
// DIR/sweep.spec. Start any number of sweepd processes against the same
// directory; each claims replica batches under a lease, records completed
// replicas in its own ledger, and reclaims work from workers that died.
//
// SIGTERM / SIGINT mean "checkpoint and exit gracefully": the in-flight
// batch finishes, the ledger is published, the lease is released, and the
// process exits with the partial-result code (6). A kill -9 is also safe —
// the lease goes stale and another worker re-drains the batch.
//
// Exit codes (bench_common.h taxonomy): 0 = full coverage reached;
// 6 = stopped or quarantined work left holes; 2/3/4/5 = spec / runtime /
// I/O / state failures.
//
// Knobs: --fabric=DIR (required) --owner=NAME --lease-ttl-ms=10000
//        --poll-ms=200 --batch-attempts=3 --replica-attempts=3
//        --replica-deadline-ms=0 --threads=0
//        --csv=FILE --json=FILE (merged rows, written only at full coverage)
#include <cstdio>

#include "bench_common.h"
#include "engine/fabric.h"

int main(int argc, char** argv) {
    using namespace manhattan;
    return bench::guarded_main(argc, argv, [](const util::cli_args& args) {
        bench::fabric_set fabric(args);
        if (!fabric.active()) {
            throw engine::error(engine::errc::spec,
                                "sweepd: --fabric=DIR is required (a directory "
                                "initialised by a bench with --fabric=, or by an "
                                "earlier sweepd against an existing sweep.spec)");
        }
        const engine::fabric_options& opts = fabric.options();
        bench::note("sweepd: worker '" + opts.owner + "' draining '" + opts.dir + "'");

        const engine::fabric_report report =
            engine::run_fabric_worker(opts, bench::engine_options(args));
        bench::note("sweepd: " + std::to_string(report.fresh) + " fresh, " +
                    std::to_string(report.skipped) + " skipped, " +
                    std::to_string(report.quarantined_pairs) + " pairs + " +
                    std::to_string(report.quarantined_batches) +
                    " batches quarantined" + (report.stopped ? " (stopped)" : ""));
        if (!report.complete) {
            return engine::exit_partial;
        }

        // Full coverage: optionally emit the merged rows, byte-identical to
        // an uninterrupted single-process sweep.
        bench::sink_set sinks(args);
        if (!sinks.span().empty()) {
            const engine::fabric_spec spec = engine::load_fabric(opts.dir);
            const engine::fabric_merge merged = engine::merge_fabric(opts.dir, spec);
            if (!merged.complete()) {
                bench::note("sweepd: coverage has quarantined/missing replicas; "
                            "use sweep-merge --allow-partial for partial output");
                return engine::exit_partial;
            }
            const std::size_t rows =
                engine::replay_rows(spec.points, merged.manifest, sinks.span());
            sinks.finish();
            bench::note("sweepd: replayed " + std::to_string(rows) + " rows");
        }
        return 0;
    });
}
