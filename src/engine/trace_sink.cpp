#include "engine/trace_sink.h"

#include <cstdio>
#include <exception>
#include <stdexcept>
#include <utility>

#include "codec/json.h"
#include "codec/number.h"
#include "engine/thread_pool.h"

namespace manhattan::engine {

using codec::f64_text;
using codec::number_array;

trace_field trace_field::num(std::string key, double value) {
    return {std::move(key), f64_text(value)};
}

trace_field trace_field::num(std::string key, std::uint64_t value) {
    return {std::move(key), std::to_string(value)};
}

trace_field trace_field::boolean(std::string key, bool value) {
    return {std::move(key), value ? "true" : "false"};
}

trace_field trace_field::str(std::string key, const std::string& value) {
    std::string rendered;
    codec::dump_string(rendered, value);
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
        codec::append_f64(out, profile.seconds[p]);
        out += ", ";
    }
    out += "\"total_s\": " + f64_text(profile.total_seconds());
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
        codec::dump_string(out, m.name);
        out += ", \"kind\": \"" + std::string{metric_kind_name(m.what)} + '"';
        if (m.what == metric_snapshot::kind::histogram) {
            out += ", \"bounds\": " + number_array(m.bounds);
            out += ", \"counts\": " + number_array(m.counts);
        } else {
            out += ", \"value\": " + f64_text(m.value);
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
    out += ", \"queue_wait_s\": " + f64_text(stats.queue_wait_seconds);
    out += ", \"queue_wait_bounds\": " + number_array(stats.queue_wait_bounds);
    out += ", \"queue_wait_counts\": " + number_array(stats.queue_wait_counts);
    out += ", \"busy_s\": " + number_array(stats.worker_busy_seconds);
    out += ", \"busy_fraction\": " + f64_text(stats.busy_fraction());
    out += ", \"alive_s\": " + f64_text(stats.alive_seconds);
    out += "}";
    return out;
}

trace_sink::trace_sink(std::string path) : log_(path, "", "trace.publish") {
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
    // Render outside the lock; "seq" and "t" need the lock, so the line is
    // assembled around them.
    std::string line = "{\"event\": ";
    codec::dump_string(line, event);
    line += ", \"seq\": ";
    std::string tail;
    for (const trace_field& f : fields) {
        tail += ", ";
        codec::dump_string(tail, f.key);
        tail += ": " + f.rendered;
    }
    tail += "}\n";

    const std::lock_guard<std::mutex> lock(mutex_);
    codec::append_u64(line, seq_++);
    line += ", \"t\": ";
    codec::append_f64(line, clock_.seconds());
    line += tail;
    log_.publish(line, false);
}

void trace_sink::flush() {
    const std::lock_guard<std::mutex> lock(mutex_);
    log_.publish("", true);  // syncs what earlier events wrote
}

std::size_t trace_sink::events() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return seq_;
}

std::size_t trace_sink::next_sweep_id() {
    const std::lock_guard<std::mutex> lock(mutex_);
    return sweeps_++;
}

}  // namespace manhattan::engine
