/// \file error.h
/// The engine's typed error taxonomy and retry policy. Every failure the
/// engine raises carries a class — what *kind* of thing went wrong — so
/// binaries can exit with a distinct code per class (CI jobs assert on the
/// failure class, not on grepping stderr) and callers can tell a transient
/// filesystem hiccup (retry it) from a corrupt ledger (never retry it).
///
/// Classes and exit codes (docs/FABRIC.md pins the table):
///   - spec    (2): the experiment description is invalid — bad CLI value,
///                  conflicting sweep axes, unsatisfiable source spec.
///   - runtime (3): the computation itself failed — an engine invariant
///                  broke, a replica threw, a deadline watchdog fired.
///   - io      (4): the filesystem failed — open/write/fsync/rename errors.
///                  These are the only errors that may be `transient()`.
///   - state   (5): durable state is corrupt or mismatched — a truncated
///                  manifest, a foreign fingerprint, a torn lease file.
/// Exit code 1 stays what it always was (a FAIL verdict / perf gate), and
/// exit_partial (6) marks a cleanly interrupted or quarantine-degraded run
/// whose completed work is checkpointed on disk.
#pragma once

#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

namespace manhattan::engine {

/// What kind of thing went wrong (see file comment).
enum class errc : std::uint8_t { spec, runtime, io, state };

/// Process exit code for an error class. 0 = success and 1 = verdict/gate
/// failure are not error classes; exit_partial marks interrupted-but-
/// checkpointed runs (a SIGTERM'd worker, a quarantine-degraded merge).
[[nodiscard]] constexpr int exit_code(errc cls) noexcept {
    switch (cls) {
        case errc::spec:
            return 2;
        case errc::runtime:
            return 3;
        case errc::io:
            return 4;
        case errc::state:
            return 5;
    }
    return 3;
}
inline constexpr int exit_partial = 6;

[[nodiscard]] constexpr const char* errc_name(errc cls) noexcept {
    switch (cls) {
        case errc::spec:
            return "spec";
        case errc::runtime:
            return "runtime";
        case errc::io:
            return "io";
        case errc::state:
            return "state";
    }
    return "runtime";
}

/// The engine's exception type: a runtime_error plus a class and a
/// transiency flag. Only io errors are ever transient (a full queue, an
/// interrupted syscall, a momentarily unwritable file) — with_retry() below
/// retries exactly those. what() is "<class> error: <message>".
class error : public std::runtime_error {
 public:
    error(errc cls, const std::string& message, bool transient = false)
        : std::runtime_error(std::string{errc_name(cls)} + prefix_tail + message),
          cls_(cls),
          transient_(transient && cls == errc::io) {}

    [[nodiscard]] errc cls() const noexcept { return cls_; }
    [[nodiscard]] bool transient() const noexcept { return transient_; }
    /// what() without its class prefix: the text an error rewrapped from
    /// this one builds on, so the class is named once.
    [[nodiscard]] const char* message() const noexcept {
        return what() + std::char_traits<char>::length(errc_name(cls_)) +
               std::char_traits<char>::length(prefix_tail);
    }

 private:
    static constexpr const char* prefix_tail = " error: ";
    errc cls_;
    bool transient_;
};

/// Class of an arbitrary in-flight exception: engine::error reports itself,
/// std::invalid_argument is a spec error (the validation idiom throughout
/// core/ and the CLI layer), anything else is a runtime failure.
[[nodiscard]] inline errc classify(const std::exception& e) noexcept {
    if (const auto* typed = dynamic_cast<const error*>(&e)) {
        return typed->cls();
    }
    if (dynamic_cast<const std::invalid_argument*>(&e) != nullptr) {
        return errc::spec;
    }
    return errc::runtime;
}

/// Exponential backoff schedule for transient-I/O retries: attempt k sleeps
/// min(initial * multiplier^(k-1), cap) before retrying, up to max_attempts
/// total attempts. The defaults retry for well under a second — enough to
/// ride out an interrupted syscall or a momentarily busy file, short enough
/// that a genuinely broken disk surfaces fast.
struct backoff_policy {
    std::size_t max_attempts = 5;
    std::chrono::milliseconds initial{5};
    double multiplier = 4.0;
    std::chrono::milliseconds cap{500};

    /// The sleep before retry number \p retry (1-based).
    [[nodiscard]] std::chrono::milliseconds delay(std::size_t retry) const {
        double ms = static_cast<double>(initial.count());
        for (std::size_t i = 1; i < retry; ++i) {
            ms *= multiplier;
        }
        const double capped = std::min(ms, static_cast<double>(cap.count()));
        return std::chrono::milliseconds{static_cast<long long>(capped)};
    }
};

/// Run \p fn, retrying under \p policy while it throws a *transient*
/// engine::error. Non-transient errors (and any other exception) propagate
/// immediately; once attempts are exhausted the last transient error
/// propagates, its message annotated with the attempt count and \p what.
template <typename Fn>
auto with_retry(const backoff_policy& policy, const std::string& what, Fn&& fn) {
    const std::size_t attempts = policy.max_attempts == 0 ? 1 : policy.max_attempts;
    for (std::size_t attempt = 1;; ++attempt) {
        try {
            return fn();
        } catch (const error& e) {
            if (!e.transient() || attempt >= attempts) {
                if (attempt > 1) {
                    throw error(e.cls(),
                                what + " failed after " + std::to_string(attempt) +
                                    " attempts: " + e.message(),
                                e.transient());
                }
                throw;
            }
            std::this_thread::sleep_for(policy.delay(attempt));
        }
    }
}

}  // namespace manhattan::engine
