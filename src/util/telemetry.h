/// \file telemetry.h
/// The telemetry seam shared by core/ and engine/: a process-wide runtime
/// switch plus the per-phase step profiler the hot loops feed. Lives in
/// util/ so core (which must not depend on engine/) can instrument its step
/// phases; the richer metrics vocabulary (counters, gauges, histograms,
/// registry) lives in engine/metrics.h and counts with the switch off too.
///
/// Contract: telemetry is observation only. Enabling it reads clocks and
/// records timings but never touches RNG streams, iteration order, or any
/// state a simulation result depends on — flood/spread outputs are
/// bit-identical with telemetry on or off, at any thread count
/// (tests/telemetry_test.cpp pins this; docs/OBSERVABILITY.md documents it).
/// When disabled (the default) every timing point reduces to one relaxed
/// atomic load and a predictable branch.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>

namespace manhattan::util {

namespace telemetry {

/// Process-wide switch, off by default. Relaxed is enough: flipping it
/// mid-run only changes which spans get *measured*, never what they compute.
inline std::atomic<bool> g_enabled{false};

[[nodiscard]] inline bool enabled() noexcept {
    return g_enabled.load(std::memory_order_relaxed);
}

inline void set_enabled(bool on) noexcept {
    g_enabled.store(on, std::memory_order_relaxed);
}

/// RAII scope: enable for a block, restore the previous state after (tests
/// and the perf harness's on/off overhead measurements).
class scoped_enable {
 public:
    explicit scoped_enable(bool on = true) : previous_(enabled()) { set_enabled(on); }
    ~scoped_enable() { set_enabled(previous_); }
    scoped_enable(const scoped_enable&) = delete;
    scoped_enable& operator=(const scoped_enable&) = delete;

 private:
    bool previous_;
};

}  // namespace telemetry

/// The four per-step phases of the spread hot path (core/flooding.cpp):
/// mobility advance, spatial-index rebuild, the propagation neighbourhood
/// scans (spawn + transmit + commit + zone metrics), and the shared
/// proximity-component (DSU) build of per_component mode.
enum class phase : std::uint8_t { advance = 0, grid_rebuild = 1, scan = 2, components = 3 };

inline constexpr std::size_t phase_count = 4;

[[nodiscard]] inline const char* phase_name(phase p) noexcept {
    switch (p) {
        case phase::advance:
            return "advance";
        case phase::grid_rebuild:
            return "grid_rebuild";
        case phase::scan:
            return "scan";
        case phase::components:
            return "components";
    }
    return "?";
}

/// Accumulated per-phase wall time. Plain (non-atomic) doubles: one profile
/// is only ever fed by the thread that owns its simulation; cross-replica
/// aggregation happens through engine/metrics.h gauges.
struct phase_profile {
    std::array<double, phase_count> seconds{};
    std::array<std::uint64_t, phase_count> calls{};

    void add(phase p, double s) noexcept {
        seconds[static_cast<std::size_t>(p)] += s;
        calls[static_cast<std::size_t>(p)] += 1;
    }

    [[nodiscard]] double total_seconds() const noexcept {
        double t = 0.0;
        for (const double s : seconds) {
            t += s;
        }
        return t;
    }

    phase_profile& operator+=(const phase_profile& other) noexcept {
        for (std::size_t i = 0; i < phase_count; ++i) {
            seconds[i] += other.seconds[i];
            calls[i] += other.calls[i];
        }
        return *this;
    }

    friend bool operator==(const phase_profile&, const phase_profile&) = default;
};

/// Scoped phase measurement. Samples telemetry::enabled() once at
/// construction: a disabled timer never reads the clock, so the disabled
/// cost of an instrumented span is one load + branch at each end.
class phase_timer {
 public:
    phase_timer(phase_profile& profile, phase p) noexcept
        : profile_(profile), phase_(p), active_(telemetry::enabled()) {
        if (active_) {
            start_ = std::chrono::steady_clock::now();
        }
    }

    ~phase_timer() {
        if (active_) {
            profile_.add(phase_, std::chrono::duration<double>(
                                     std::chrono::steady_clock::now() - start_)
                                     .count());
        }
    }

    phase_timer(const phase_timer&) = delete;
    phase_timer& operator=(const phase_timer&) = delete;

 private:
    phase_profile& profile_;
    phase phase_;
    bool active_;
    std::chrono::steady_clock::time_point start_;
};

}  // namespace manhattan::util
