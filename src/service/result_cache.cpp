#include "service/result_cache.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <system_error>
#include <vector>

namespace manhattan::service {

namespace fs = std::filesystem;

result_cache::result_cache(cache_config config, engine::metrics_registry* metrics)
    : config_(std::move(config)) {
    if (config_.dir.empty()) {
        throw std::invalid_argument("result_cache: empty cache directory");
    }
    if (metrics != nullptr) {
        hits_ = &metrics->get_counter("cache.hits");
        misses_ = &metrics->get_counter("cache.misses");
        stores_ = &metrics->get_counter("cache.stores");
        evictions_ = &metrics->get_counter("cache.evictions");
    }
}

std::string result_cache::entry_path(std::uint64_t fingerprint) const {
    return config_.dir + "/" + engine::fingerprint_hex(fingerprint) + ".manifest";
}

namespace {

void bump(engine::counter* c) {
    if (c != nullptr) {
        c->add();
    }
}

}  // namespace

std::optional<engine::run_manifest> result_cache::load(std::uint64_t fingerprint) {
    const std::string path = entry_path(fingerprint);
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        bump(misses_);
        return std::nullopt;
    }
    const std::string text{std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>()};
    in.close();
    // Re-verify on every read: the parse catches corrupt fields and record
    // digests, the fingerprint check catches a renamed or cross-linked
    // entry, and complete() catches a truncated or partial ledger (the
    // parse drops a torn tail, so lost records show up as missing pairs)
    // that must never masquerade as a finished sweep.
    try {
        engine::run_manifest manifest = engine::parse_manifest(text);
        if (manifest.fingerprint != fingerprint || !manifest.complete()) {
            throw engine::manifest_error("cache entry does not match its key");
        }
        std::error_code ec;
        fs::last_write_time(path, fs::file_time_type::clock::now(), ec);  // LRU touch
        bump(hits_);
        return manifest;
    } catch (const engine::error&) {
        std::error_code ec;
        fs::remove(path, ec);
        bump(misses_);
        return std::nullopt;
    }
}

void result_cache::store(const engine::run_manifest& manifest) {
    if (!manifest.complete()) {
        throw std::invalid_argument("result_cache: refusing to store an incomplete sweep");
    }
    fs::create_directories(config_.dir);
    const std::string path = entry_path(manifest.fingerprint);
    engine::atomic_write_file(path, engine::serialize_manifest(manifest));
    bump(stores_);
    evict_over_bounds(path);
}

void result_cache::evict_over_bounds(const std::string& keep_path) {
    if (config_.max_entries == 0 && config_.max_bytes == 0) {
        return;
    }
    struct entry {
        fs::path path;
        fs::file_time_type mtime;
        std::uint64_t size = 0;
    };
    std::vector<entry> entries;
    std::uint64_t total_bytes = 0;
    std::error_code ec;
    for (const auto& item : fs::directory_iterator(config_.dir, ec)) {
        if (!item.is_regular_file(ec) || item.path().extension() != ".manifest") {
            continue;
        }
        entry e;
        e.path = item.path();
        e.mtime = fs::last_write_time(e.path, ec);
        e.size = item.file_size(ec);
        total_bytes += e.size;
        entries.push_back(std::move(e));
    }
    std::sort(entries.begin(), entries.end(),
              [](const entry& a, const entry& b) { return a.mtime < b.mtime; });
    const fs::path keep{keep_path};
    std::size_t remaining = entries.size();
    for (const entry& victim : entries) {
        const bool over_count = config_.max_entries != 0 && remaining > config_.max_entries;
        const bool over_bytes = config_.max_bytes != 0 && total_bytes > config_.max_bytes;
        if (!over_count && !over_bytes) {
            break;
        }
        if (victim.path == keep) {
            continue;  // the freshly stored entry is not a victim
        }
        if (fs::remove(victim.path, ec)) {
            bump(evictions_);
        }
        --remaining;
        total_bytes -= victim.size;
    }
}

}  // namespace manhattan::service
