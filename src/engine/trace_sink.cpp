#include "engine/trace_sink.h"

#include <cstdio>
#include <exception>
#include <sstream>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "engine/thread_pool.h"
#include "service/wire.h"

namespace manhattan::engine {

namespace {

/// Shortest round-trip double formatting (same idiom as the result sinks).
std::string fmt(double v) {
    std::ostringstream os;
    os.precision(17);
    os << v;
    return os.str();
}

template <typename T>
std::string json_number_array(const std::vector<T>& values) {
    std::string out = "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (i != 0) {
            out += ", ";
        }
        if constexpr (std::is_floating_point_v<T>) {
            out += fmt(values[i]);
        } else {
            out += std::to_string(values[i]);
        }
    }
    out += "]";
    return out;
}

}  // namespace

trace_field trace_field::num(std::string key, double value) {
    return {std::move(key), fmt(value)};
}

trace_field trace_field::num(std::string key, std::uint64_t value) {
    return {std::move(key), std::to_string(value)};
}

trace_field trace_field::boolean(std::string key, bool value) {
    return {std::move(key), value ? "true" : "false"};
}

trace_field trace_field::str(std::string key, const std::string& value) {
    std::string rendered;
    service::dump_string(rendered, value);
    return {std::move(key), std::move(rendered)};
}

trace_field trace_field::raw(std::string key, std::string json) {
    return {std::move(key), std::move(json)};
}

std::string phases_json(const util::phase_profile& profile) {
    std::string out = "{";
    for (std::size_t p = 0; p < util::phase_count; ++p) {
        out += '"';
        out += util::phase_name(static_cast<util::phase>(p));
        out += "_s\": ";
        out += fmt(profile.seconds[p]);
        out += ", ";
    }
    out += "\"total_s\": " + fmt(profile.total_seconds());
    out += ", \"steps\": " +
           std::to_string(profile.calls[static_cast<std::size_t>(util::phase::advance)]);
    out += "}";
    return out;
}

std::string metrics_json(const std::vector<metric_snapshot>& snapshots) {
    std::string out = "[";
    for (std::size_t i = 0; i < snapshots.size(); ++i) {
        const metric_snapshot& m = snapshots[i];
        if (i != 0) {
            out += ", ";
        }
        out += "{\"name\": ";
        service::dump_string(out, m.name);
        out += ", \"kind\": \"" + std::string{metric_kind_name(m.what)} + '"';
        if (m.what == metric_snapshot::kind::histogram) {
            out += ", \"bounds\": " + json_number_array(m.bounds);
            out += ", \"counts\": " + json_number_array(m.counts);
        } else {
            out += ", \"value\": " + fmt(m.value);
        }
        out += "}";
    }
    out += "]";
    return out;
}

std::string pool_json(const pool_stats& stats) {
    std::string out = "{";
    out += "\"workers\": " + std::to_string(stats.workers);
    out += ", \"tasks_run\": " + std::to_string(stats.tasks_run);
    out += ", \"queue_wait_s\": " + fmt(stats.queue_wait_seconds);
    out += ", \"queue_wait_bounds\": " + json_number_array(stats.queue_wait_bounds);
    out += ", \"queue_wait_counts\": " + json_number_array(stats.queue_wait_counts);
    out += ", \"busy_s\": " + json_number_array(stats.worker_busy_seconds);
    out += ", \"busy_fraction\": " + fmt(stats.busy_fraction());
    out += ", \"alive_s\": " + fmt(stats.alive_seconds);
    out += "}";
    return out;
}

trace_sink::trace_sink(std::string path, std::size_t publish_every)
    : publish_every_(publish_every == 0 ? 1 : publish_every), log_(path, "", "trace.publish") {
    // Publish the empty document now: an unwritable path fails before any
    // simulation work is spent (the same rule the result sinks follow).
    try {
        log_.publish("", true);
    } catch (const std::exception& e) {
        throw std::invalid_argument("trace_sink: cannot write '" + path + "': " + e.what());
    }
}

trace_sink::~trace_sink() {
    try {
        flush();
    } catch (const std::exception& e) {
        std::fprintf(stderr, "trace_sink: final publish failed: %s\n", e.what());
    }
}

void trace_sink::emit(const std::string& event, std::initializer_list<trace_field> fields) {
    emit(event, std::vector<trace_field>(fields));
}

void trace_sink::emit(const std::string& event, const std::vector<trace_field>& fields) {
    // Render outside the lock; "seq"/"t" need the lock, so the line is
    // assembled in two pieces.
    std::string tail;
    for (const trace_field& f : fields) {
        tail += ", ";
        service::dump_string(tail, f.key);
        tail += ": " + f.rendered;
    }
    tail += "}\n";

    const std::lock_guard<std::mutex> lock(mutex_);
    buffer_ += "{\"event\": ";
    service::dump_string(buffer_, event);
    buffer_ += ", \"seq\": " + std::to_string(seq_++);
    buffer_ += ", \"t\": " + fmt(clock_.seconds());
    buffer_ += tail;
    if (++unpublished_ >= publish_every_) {
        publish_locked(false);
    }
}

void trace_sink::flush() {
    const std::lock_guard<std::mutex> lock(mutex_);
    publish_locked(true);  // also with nothing buffered: it syncs what was written
}

std::size_t trace_sink::events() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return seq_;
}

std::size_t trace_sink::next_sweep_id() {
    const std::lock_guard<std::mutex> lock(mutex_);
    return sweeps_++;
}

void trace_sink::publish_locked(bool flush) {
    const std::string lines = std::move(buffer_);  // the log owns them now, even if it throws
    buffer_.clear();
    unpublished_ = 0;
    log_.publish(lines, flush);
}

}  // namespace manhattan::engine
