#include "engine/append_log.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <utility>

#include "engine/error.h"
#include "engine/fault.h"

namespace manhattan::engine {

void atomic_write_file(const std::string& path, const std::string& contents) {
    // All failures below raise transient io errors: an interrupted syscall,
    // a momentarily full descriptor table or a busy file may clear on retry,
    // and a genuinely broken destination fails identically a few hundred
    // milliseconds later (engine::with_retry caps the total).
    const std::string tmp = path + ".tmp";
    std::FILE* file = std::fopen(tmp.c_str(), "wb");
    if (file == nullptr) {
        throw error(errc::io, "cannot open '" + tmp + "' for writing", true);
    }
    const bool wrote = contents.empty() ||
                       std::fwrite(contents.data(), 1, contents.size(), file) ==
                           contents.size();
    const bool flushed = std::fflush(file) == 0;
    // fsync before rename: the rename must never publish a file whose bytes
    // are still in the page cache only.
    const bool synced = ::fsync(::fileno(file)) == 0;
    std::fclose(file);
    if (!(wrote && flushed && synced)) {
        std::remove(tmp.c_str());
        throw error(errc::io, "write failed for '" + tmp + "'", true);
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        throw error(errc::io, "cannot rename '" + tmp + "' to '" + path + "'", true);
    }
    // Best-effort directory sync so the rename itself survives a power cut.
    const std::size_t slash = path.find_last_of('/');
    const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
    const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (dir_fd >= 0) {
        ::fsync(dir_fd);
        ::close(dir_fd);
    }
}

append_log::append_log(std::string path, std::string header, const char* site)
    : path_(std::move(path)), header_(std::move(header)), site_(site) {}

append_log::~append_log() {
    if (fd_ >= 0) {
        ::close(fd_);
    }
}

void append_log::publish(std::string_view lines, bool flush) {
    unsynced_ += lines;
    try {
        with_retry(backoff_policy{}, site_, [&] {
            fault::inject(site_);
            write_and_sync(flush);
        });
    } catch (const error& e) {
        if (flush) {
            throw;
        }
        if (!failing_) {
            std::fprintf(stderr,
                         "append_log: publish to '%s' failed (the lines stay pending and "
                         "are retried at the next publish): %s\n",
                         path_.c_str(), e.what());
            failing_ = true;
        }
        return;
    }
    failing_ = false;
}

void append_log::write_and_sync(bool flush) {
    if (!torn_ && written_ < unsynced_.size()) {
        const std::string_view lines = std::string_view{unsynced_}.substr(written_);
        const fault::outcome due = fault::hit("log.append");
        const bool cut = due.act == fault::action::fail || due.act == fault::action::crash;
        const std::size_t len = cut ? lines.size() / 2 : lines.size();
        const ssize_t wrote = ::write(fd_, lines.data(), len);
        if (due.act != fault::action::fail) {
            fault::act("log.append", due);  // a crash dies with the torn tail on disk
        }
        if (wrote == static_cast<ssize_t>(lines.size())) {
            written_ = unsynced_.size();
        } else {
            torn_ = true;  // a partial line may now sit past the synced prefix
        }
    }
    if (torn_) {
        republish();
        return;
    }
    if (written_ == 0 ||
        (!flush && std::chrono::steady_clock::now() - last_sync_ < sync_interval)) {
        return;
    }
    const fault::outcome due = fault::hit("log.sync");
    if (due.act != fault::action::fail) {
        fault::act("log.sync", due);
    }
    if (due.act == fault::action::fail || ::fdatasync(fd_) != 0) {
        // After a failed fdatasync the written bytes may never reach the
        // disk, even though reading them back still works: rewrite them
        // from the copy in memory.
        torn_ = true;
        republish();
        return;
    }
    synced_ += written_;
    unsynced_.clear();
    written_ = 0;
    ++syncs_;
    last_sync_ = std::chrono::steady_clock::now();
}

void append_log::republish() {
    // The synced prefix comes back from the open descriptor, which pins the
    // file this log wrote even if its path has since changed; before the
    // first publish it is just the header.
    std::string doc;
    if (fd_ < 0) {
        doc = header_;
    } else {
        doc.resize(synced_);
        for (std::size_t got = 0; got < synced_;) {
            const ssize_t n = ::pread(fd_, doc.data() + got, synced_ - got,
                                      static_cast<off_t>(got));
            if (n < 0 && errno == EINTR) {
                continue;
            }
            if (n <= 0) {
                throw error(errc::io, "cannot read back '" + path_ + "'", true);
            }
            got += static_cast<std::size_t>(n);
        }
    }
    doc += unsynced_;
    atomic_write_file(path_, doc);
    const int fd = ::open(path_.c_str(), O_RDWR | O_APPEND | O_CLOEXEC);
    if (fd < 0) {
        // The file is complete on disk; the next publish republishes it
        // again from the old descriptor's prefix.
        throw error(errc::io, "cannot reopen '" + path_ + "' for appending", true);
    }
    if (fd_ >= 0) {
        ::close(fd_);
    }
    fd_ = fd;
    synced_ = doc.size();
    unsynced_.clear();
    written_ = 0;
    torn_ = false;
    last_sync_ = std::chrono::steady_clock::now();
}

}  // namespace manhattan::engine
