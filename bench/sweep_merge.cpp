// SWEEP-MERGE — reassemble a fabric directory's per-worker ledgers
// (engine/fabric.h, docs/FABRIC.md) into sweep output byte-identical to an
// uninterrupted single-process run: ledgers are unioned (duplicated records
// from lease reclaims are verified to agree bit-for-bit, wall-clock aside),
// rows re-aggregate through the engine's own reduction, and the CSV/JSON
// they stream into carries no wall-clock — so `diff` against a reference
// run is exact.
//
// Exit codes: 0 = complete coverage merged; 6 = quarantined or missing
// replicas (with --allow-partial the complete points are still written);
// 5 = corrupt or mismatched ledgers.
//
// Knobs: --fabric=DIR (required) --csv=FILE --json=FILE
//        --manifest=FILE (write the merged ledger, single-process format)
//        --allow-partial (emit rows for complete points despite holes)
#include <cstdio>
#include <string>

#include "bench_common.h"
#include "engine/fabric.h"
#include "engine/manifest.h"

int main(int argc, char** argv) {
    using namespace manhattan;
    return bench::guarded_main(argc, argv, [](const util::cli_args& args) {
        const std::string dir = args.get_string("fabric", "");
        if (dir.empty()) {
            throw engine::error(engine::errc::spec, "sweep-merge: --fabric=DIR is required");
        }
        const bool allow_partial = args.has("allow-partial");

        const engine::fabric_spec spec = engine::load_fabric(dir);
        const engine::fabric_merge merged = engine::merge_fabric(dir, spec);
        bench::note("sweep-merge: " + std::to_string(merged.manifest.records.size()) +
                    "/" + std::to_string(spec.pair_count()) + " replicas merged, " +
                    std::to_string(merged.quarantined.size()) + " quarantined, " +
                    std::to_string(merged.missing.size()) + " missing");
        for (const auto& [p, r] : merged.quarantined) {
            bench::note("sweep-merge: quarantined point " + std::to_string(p) +
                        " replica " + std::to_string(r) + " ('" + spec.points[p].label +
                        "')");
        }

        if (args.has("manifest")) {
            engine::save_manifest(merged.manifest, args.get_string("manifest", ""));
        }
        if (!merged.complete() && !allow_partial) {
            bench::note("sweep-merge: coverage incomplete — rerun workers, or pass "
                        "--allow-partial to emit the complete points");
            return engine::exit_partial;
        }

        bench::sink_set sinks(args);
        const std::size_t rows =
            engine::replay_rows(spec.points, merged.manifest, sinks.span(), allow_partial);
        sinks.finish();
        bench::note("sweep-merge: wrote " + std::to_string(rows) + "/" +
                    std::to_string(spec.points.size()) + " rows");
        return merged.complete() ? 0 : engine::exit_partial;
    });
}
