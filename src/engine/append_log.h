/// \file append_log.h
/// The engine's durable-file primitives. atomic_write_file publishes a
/// whole file at once (the result sinks, the result cache, fabric specs,
/// leases and markers). append_log is a line-oriented file that grows by
/// whole-line appends: the checkpoint ledger (engine/manifest.h), and
/// through it the fabric's worker ledgers and the daemon's crash ledgers,
/// and the JSONL trace sink (engine/trace_sink.h) all persist through it.
///
/// Publishing costs what was appended, not the size of the file:
///   - The first publish writes header + lines as one atomic file
///     (atomic_write_file: write-temp + fsync + rename + directory sync),
///     then opens the file for appending.
///   - Every later publish is one O_APPEND write() of only the new lines,
///     followed by fdatasync.
///   - A failed or short append may have left a partial line on disk, so it
///     falls back to an atomic republish of the durable prefix plus the new
///     lines, then reopens. The log never appends after a torn tail, and a
///     disk that recovers loses nothing.
///
/// A kill -9 in the middle of an append can leave one unterminated final
/// line. Readers drop it (engine::parse_manifest for ledgers; the trace
/// schema in docs/OBSERVABILITY.md); every newline-terminated line was
/// written whole.
///
/// Failure handling, shared by both owners: each publish retries transient
/// I/O errors with exponential backoff (engine::with_retry). A publish that
/// still fails either throws (the owner's final flush) or is reported once
/// on stderr and returns false, so the owner keeps its lines pending and
/// carries on — a write failure never aborts the sweep being recorded.
///
/// Fault injection (engine/fault.h): every publish attempt hits the owner's
/// site ("ledger.publish", "trace.publish") inside the retry loop, and every
/// append hits site "log.append". A log.append fail rule writes half of the
/// lines and reports a failed append (driving the republish fallback); a
/// crash rule writes half and then dies with a torn tail on disk.
///
/// Not thread-safe: the owner serializes calls under its own lock.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

namespace manhattan::engine {

/// Publish \p contents to \p path atomically: write path.tmp, fsync, rename
/// over path (then best-effort fsync the directory). A reader or a crash
/// never observes a partial file. Throws engine::error (class io, marked
/// transient) on failure — wrap calls in with_retry to ride out transient
/// filesystem hiccups.
void atomic_write_file(const std::string& path, const std::string& contents);

/// Append-only durable log (see file comment).
class append_log {
 public:
    /// No I/O: the file at \p path is created (or replaced) by the first
    /// publish, which writes \p header ahead of its lines. \p site is the
    /// fault site every publish attempt hits.
    append_log(std::string path, std::string header, const char* site);

    /// Closes the append descriptor. Publishing is the owner's job.
    ~append_log();

    append_log(const append_log&) = delete;
    append_log& operator=(const append_log&) = delete;

    /// Make \p lines (whole '\n'-terminated lines; may be empty) durable
    /// after everything published so far, retrying transient errors.
    /// Returns whether they landed. When every attempt failed, the file
    /// holds at most a torn tail past the durable prefix and the caller
    /// keeps \p lines to publish again later; with \p surface_errors the
    /// engine::error (class io) propagates, otherwise the failure is
    /// reported on stderr (once, until a publish succeeds again) and the
    /// call returns false.
    bool publish(std::string_view lines, bool surface_errors);

 private:
    /// One attempt: append, or fall back to republish. Throws engine::error
    /// (class io, transient) when neither worked.
    void write_lines(std::string_view lines);

    /// Atomically replace the file with the durable prefix plus \p lines,
    /// then reopen it for appending.
    void republish(std::string_view lines);

    std::string path_;
    std::string header_;  ///< written by the first publish only
    const char* site_;
    int fd_ = -1;         ///< O_APPEND descriptor; -1 before the first publish
    std::size_t durable_ = 0;  ///< bytes of the file known written and synced
    bool torn_ = true;    ///< next publish must republish (first, or after a failure)
    bool failing_ = false;  ///< a failed publish was reported; cleared on success
};

}  // namespace manhattan::engine
