/// \file append_log.h
/// The engine's durable-file primitives. atomic_write_file publishes a
/// whole file at once (the result sinks, the result cache, fabric specs,
/// leases and markers). append_log is a line-oriented file that grows by
/// whole-line appends: the checkpoint ledger (engine/manifest.h), and
/// through it the fabric's worker ledgers and the daemon's crash ledgers,
/// and the JSONL trace sink (engine/trace_sink.h) all persist through it.
///
/// Publishing costs what was appended, not the size of the file, and syncs
/// are grouped:
///   - The first publish writes header + lines as one atomic file
///     (atomic_write_file: write-temp + fsync + rename + directory sync),
///     then opens the file for appending.
///   - Every later publish is one O_APPEND write() of only the new lines.
///     It calls fdatasync only when sync_interval has passed since the last
///     sync; a flush (the owner's final publish) always syncs, also when it
///     has no new lines.
///   - The log keeps every byte written since the last sync in memory. A
///     failed or short append may have left a partial line on disk, and a
///     failed fdatasync leaves the written bytes' fate unknown, so either
///     falls back to an atomic republish of the synced prefix plus that
///     copy plus the new lines, then reopens. The log never appends after a
///     torn tail, and a disk that recovers loses nothing.
///
/// What survives: a kill -9 keeps every line a publish wrote, since the
/// write is in the page cache. A kill in the middle of an append can
/// leave one unterminated final line; readers drop it (engine::parse_manifest
/// for ledgers; the trace schema in docs/OBSERVABILITY.md). A power cut
/// loses at most the lines written since the last sync: one interval's
/// worth of publishes, because any publish an interval or more after the
/// last sync syncs. A resumed sweep or the fabric's coverage scan computes
/// those again.
///
/// Failure handling, shared by both owners: each publish retries transient
/// I/O errors with exponential backoff (engine::with_retry). The log owns
/// the lines from the moment publish() is called. A publish that still
/// fails either throws (a flush) or is reported once on stderr; either way
/// the log keeps the lines and the next publish writes them too — a write
/// failure never aborts the sweep being recorded.
///
/// Fault injection (engine/fault.h): every publish attempt hits the owner's
/// site ("ledger.publish", "trace.publish") inside the retry loop, every
/// append hits site "log.append" and every fdatasync site "log.sync". A
/// log.append fail rule writes half of the lines and reports a failed
/// append, and a log.sync fail rule reports a failed fdatasync (both drive
/// the republish fallback); a log.append crash rule writes half and then
/// dies with a torn tail on disk.
///
/// Not thread-safe: the owner serializes calls under its own lock.
#pragma once

#include <chrono>
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
    /// Longest a published line waits for its fdatasync while publishing
    /// goes on, so it bounds what a power cut can lose. One sync costs
    /// about as much as a small replica; at one per interval a long sweep
    /// pays a handful, not one per replica, and a sweep shorter than the
    /// interval syncs only at its flush.
    static constexpr std::chrono::milliseconds sync_interval{1000};

    /// No I/O: the file at \p path is created (or replaced) by the first
    /// publish, which writes \p header ahead of its lines. \p site is the
    /// fault site every publish attempt hits.
    append_log(std::string path, std::string header, const char* site);

    /// Closes the append descriptor. Publishing is the owner's job.
    ~append_log();

    append_log(const append_log&) = delete;
    append_log& operator=(const append_log&) = delete;

    /// Write \p lines (whole '\n'-terminated lines; may be empty) after
    /// everything published so far, retrying transient errors, and sync
    /// when sync_interval has passed since the last sync. With \p flush,
    /// sync every written byte before returning, and let a failure that
    /// outlasts the retries propagate as engine::error (class io); without
    /// it, such a failure is reported on stderr (once, until a publish
    /// succeeds again). Either way the log keeps the lines and writes them
    /// with the next publish, so the caller never hands them over twice.
    void publish(std::string_view lines, bool flush);

    /// Successful fdatasync calls so far. The atomic first publish and the
    /// republish fallback sync through atomic_write_file and do not count.
    [[nodiscard]] std::size_t syncs() const noexcept { return syncs_; }

 private:
    /// One attempt: append the unwritten part of unsynced_ and sync when
    /// due (always with \p flush), or fall back to republish. Throws
    /// engine::error (class io, transient) when neither worked.
    void write_and_sync(bool flush);

    /// Atomically replace the file with the synced prefix plus unsynced_,
    /// then reopen it for appending.
    void republish();

    std::string path_;
    std::string header_;  ///< written by the first publish only
    const char* site_;
    int fd_ = -1;         ///< O_APPEND descriptor; -1 before the first publish
    std::size_t synced_ = 0;  ///< bytes of the file known written and synced
    std::string unsynced_;    ///< every byte owed after the synced prefix
    std::size_t written_ = 0;  ///< leading bytes of unsynced_ in the file
    bool torn_ = true;    ///< the file past the synced prefix is unknown: the
                          ///< next attempt must republish (first, or after a failure)
    bool failing_ = false;  ///< a failed publish was reported; cleared on success
    std::size_t syncs_ = 0;
    std::chrono::steady_clock::time_point last_sync_{};
};

}  // namespace manhattan::engine
