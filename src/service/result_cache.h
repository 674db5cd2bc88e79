/// \file result_cache.h
/// Fingerprint-keyed on-disk memoization of completed sweeps. The cached
/// value is the run manifest itself (engine/manifest.h): it already carries
/// every replica's stats in the exact serialized form the checkpoint path
/// uses, and engine::aggregate_sweep_row / engine::replay_rows re-derive
/// rows from it bit-identically — so a cache hit replays the sweep without
/// running a single replica.
///
/// Layout: one file per entry, `<dir>/<hex16 fingerprint>.manifest`,
/// published with the atomic write-temp + fsync + rename idiom, so readers
/// and crashes never observe a torn entry. Eviction is LRU by file mtime
/// (a hit touches the file); integrity is re-verified on every read — a
/// truncated, corrupt, incomplete or misnamed entry is unlinked and counts
/// as a miss, never served.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "engine/manifest.h"
#include "engine/metrics.h"

namespace manhattan::service {

struct cache_config {
    std::string dir;               ///< entry directory (created on demand)
    std::size_t max_entries = 0;   ///< LRU bound on entry count (0 = unbounded)
    std::uint64_t max_bytes = 0;   ///< LRU bound on summed entry size (0 = unbounded)
};

/// Thread-compatible (callers serialize; the daemon's registry lock does).
/// Counters land in the supplied metrics registry under "cache.hits",
/// "cache.misses", "cache.stores", "cache.evictions"; they count whether or
/// not util::telemetry is enabled.
class result_cache {
 public:
    explicit result_cache(cache_config config,
                          engine::metrics_registry* metrics = nullptr);

    /// Entry path for a fingerprint (exists or not).
    [[nodiscard]] std::string entry_path(std::uint64_t fingerprint) const;

    /// Look a completed sweep up. A hit refreshes the entry's LRU position.
    /// Any integrity failure — unparseable file, wrong embedded fingerprint,
    /// incomplete ledger — unlinks the entry and reports a miss.
    [[nodiscard]] std::optional<engine::run_manifest> load(std::uint64_t fingerprint);

    /// Publish a completed sweep, then enforce the LRU bounds (the entry
    /// just stored is never its own eviction victim). Throws
    /// std::invalid_argument when the manifest is incomplete — caching a
    /// partial result would poison every future hit. I/O failures propagate
    /// as engine::error (class io).
    void store(const engine::run_manifest& manifest);

 private:
    void evict_over_bounds(const std::string& keep_path);

    cache_config config_;
    engine::counter* hits_ = nullptr;
    engine::counter* misses_ = nullptr;
    engine::counter* stores_ = nullptr;
    engine::counter* evictions_ = nullptr;
};

}  // namespace manhattan::service
