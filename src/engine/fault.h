/// \file fault.h
/// Structured fault injection for crash/robustness testing. The engine's
/// durability claims (atomic publishes, lease reclaim, retry-with-backoff)
/// are only worth anything if CI can *make* the failures happen; this
/// registry turns named code points into programmable failure sites.
///
/// A fault plan is a comma-separated rule list, normally supplied through
/// the MANHATTAN_FAULT environment variable:
///
///     MANHATTAN_FAULT=site:action:count[:arg][,site:action:count[:arg]...]
///
/// Actions (count is 1-based over that site's hits in this process):
///   - crash:N      raise SIGKILL on the Nth hit — no unwinding, no sink
///                  finish, exactly like an external `kill -9`.
///   - fail:N       throw a *transient* engine::error (class io) on hits
///                  1..N, then succeed — exercises retry/backoff paths.
///   - delay:N:MS   sleep MS milliseconds on hits 1..N — widens race
///                  windows (lease expiry, heartbeat staleness).
///
/// Instrumented sites (grep for fault::hit / fault::inject):
///   ledger.record   checkpoint_ledger::record — a crash here publishes the
///                   ledger first (under the ledger lock, so the on-disk
///                   record count is exactly N).
///   ledger.publish  checkpoint_ledger's record append.
///   trace.publish   trace_sink's event append.
///   log.append      append_log's write(): fail and crash both write only
///                   half of the lines first — fail then takes the atomic
///                   republish fallback, crash dies with a torn tail.
///   log.sync        append_log's fdatasync (once per interval and at each
///                   flush): fail reports a failed sync, which takes the
///                   atomic republish fallback from the log's copy of the
///                   unsynced lines.
///   sink.publish    atomic_file_sink's CSV/JSON publish.
///   lease.acquire   fabric lease claim (the O_EXCL create).
///   lease.renew     fabric lease heartbeat refresh.
///   replica.run     fabric worker, immediately before run_scenario — a
///                   fail rule here drives the quarantine path.
///
/// The registry is process-wide. Rules parse once (lazily from the
/// environment, or explicitly via configure()); hit counting is atomic and
/// thread-safe; when no plan is armed a hit costs one relaxed atomic load.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

namespace manhattan::engine::fault {

enum class action : std::uint8_t { none, crash, fail, delay };

/// What the caller should do for this hit of the site (see act()).
struct outcome {
    action act = action::none;
    std::chrono::milliseconds delay{0};
};

/// Replace the armed plan with \p plan ("" disarms). Throws engine::error
/// (class spec) on a malformed rule. Not thread-safe: call from main() or a
/// test body before workers spawn.
void configure(const std::string& plan);

/// Append one rule programmatically (same effect as a plan entry).
void arm(const std::string& site, action act, std::uint64_t count,
         std::chrono::milliseconds delay = {});

/// Count one hit of \p site and return the action due, without performing
/// it. Most call sites want inject(); hit() exists for sites that must
/// interleave their own work with the action (checkpoint_ledger publishes
/// the manifest before a crash so the on-disk count is exact).
[[nodiscard]] outcome hit(const char* site);

/// Perform \p due for \p site: crash raises SIGKILL, fail throws a
/// transient engine::error naming the site, delay sleeps. none is a no-op.
void act(const char* site, const outcome& due);

/// hit() + act() — the one-liner for ordinary sites.
inline void inject(const char* site) { act(site, hit(site)); }

/// Any rules armed? (Cheap: one relaxed load.)
[[nodiscard]] bool armed() noexcept;

}  // namespace manhattan::engine::fault
