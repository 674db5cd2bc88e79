#include "engine/sink.h"

#include <cmath>
#include <cstdio>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "core/scenario_fields.h"
#include "engine/append_log.h"
#include "engine/error.h"
#include "engine/fault.h"

namespace manhattan::engine {

namespace {

/// Shortest round-trip double formatting (JSON/CSV want full precision).
std::string num(double v) {
    std::ostringstream os;
    os.precision(17);
    os << v;
    return os.str();
}

std::string csv_quote(const std::string& s) {
    if (s.find_first_of(",\"\n") == std::string::npos) {
        return s;
    }
    std::string quoted = "\"";
    for (const char c : s) {
        if (c == '"') {
            quoted += '"';
        }
        quoted += c;
    }
    quoted += '"';
    return quoted;
}

/// Semicolon-joined number list for one CSV cell (comma would split the cell).
std::string joined(const std::vector<double>& values) {
    std::string out;
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (i != 0) {
            out += ';';
        }
        out += num(values[i]);
    }
    return out;
}

/// JSON array of numbers.
std::string json_array(const std::vector<double>& values) {
    std::string out = "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (i != 0) {
            out += ", ";
        }
        out += num(values[i]);
    }
    out += "]";
    return out;
}

std::string json_quote(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
        }
        out += c;
    }
    out += '"';
    return out;
}

}  // namespace

void csv_sink::on_row(const sweep_row& row) {
    if (!header_written_) {
        // No wall-clock column: CSV data is a pure function of the sweep
        // spec, so a resumed run's file is byte-identical to an
        // uninterrupted one. Timing lives in the trace/metrics stream
        // (engine/trace_sink.h).
        out_ << "index,label,n,side,radius,speed,model,mode,gossip_p,reps,"
                "mean,stddev,min,median,max,ci_lo,ci_hi,completed_fraction,"
                "mean_cz_step,max_cz_step,cz_fraction,suburb_diameter,"
                "messages,message_mean_times,message_completed_fraction\n";
        header_written_ = true;
    }
    const auto& sc = row.point.sc;
    out_ << row.point.index << ',' << csv_quote(row.point.label) << ',' << sc.params.n << ','
         << num(sc.params.side) << ',' << num(sc.params.radius) << ',' << num(sc.params.speed)
         << ',' << core::enum_name(sc.model) << ',' << core::enum_name(sc.mode) << ','
         << num(sc.gossip_p) << ',' << row.times.size() << ',' << num(row.summary.mean) << ','
         << num(row.summary.stddev) << ',' << num(row.summary.min) << ','
         << num(row.summary.median) << ',' << num(row.summary.max) << ','
         << num(row.mean_ci.lo) << ',' << num(row.mean_ci.hi) << ','
         << num(row.completed_fraction) << ','
         << (row.mean_cz_step ? num(*row.mean_cz_step) : std::string{}) << ','
         << (row.max_cz_step ? num(*row.max_cz_step) : std::string{}) << ','
         << num(row.cz_fraction) << ','
         << num(row.suburb_diameter) << ','
         << row.message_mean_times.size() << ',' << joined(row.message_mean_times) << ','
         << joined(row.message_completed_fraction) << '\n';
    out_.flush();  // a killed multi-hour sweep keeps its completed rows
}

void json_sink::on_row(const sweep_row& row) {
    out_ << (open_ ? ",\n" : "{\"rows\": [\n");
    open_ = true;
    const auto& sc = row.point.sc;
    out_ << "  {\"index\": " << row.point.index << ", \"label\": " << json_quote(row.point.label)
         << ",\n   \"params\": {\"n\": " << sc.params.n << ", \"side\": " << num(sc.params.side)
         << ", \"radius\": " << num(sc.params.radius) << ", \"speed\": " << num(sc.params.speed)
         << ", \"model\": " << json_quote(core::enum_name(sc.model))
         << ", \"mode\": " << json_quote(core::enum_name(sc.mode))
         << ", \"gossip_p\": " << num(sc.gossip_p) << ", \"seed\": " << sc.seed
         << ", \"messages\": " << row.message_mean_times.size() << "},\n"
         << "   \"summary\": {\"reps\": " << row.times.size()
         << ", \"mean\": " << num(row.summary.mean) << ", \"stddev\": " << num(row.summary.stddev)
         << ", \"min\": " << num(row.summary.min) << ", \"median\": " << num(row.summary.median)
         << ", \"max\": " << num(row.summary.max) << ", \"ci95\": [" << num(row.mean_ci.lo)
         << ", " << num(row.mean_ci.hi) << "], \"completed_fraction\": "
         << num(row.completed_fraction) << ", \"suburb_diameter\": " << num(row.suburb_diameter)
         << ", \"mean_cz_step\": "
         << (row.mean_cz_step ? num(*row.mean_cz_step) : std::string{"null"})
         << ", \"max_cz_step\": "
         << (row.max_cz_step ? num(*row.max_cz_step) : std::string{"null"})
         << ", \"cz_fraction\": " << num(row.cz_fraction)
         << ", \"message_mean_times\": " << json_array(row.message_mean_times)
         << ", \"message_completed_fraction\": "
         << json_array(row.message_completed_fraction) << "}";
    if (per_replica_times_) {
        out_ << ",\n   \"times\": [";
        for (std::size_t i = 0; i < row.times.size(); ++i) {
            out_ << (i == 0 ? "" : ", ") << num(row.times[i]);
        }
        out_ << "]";
    }
    out_ << "}";
    out_.flush();  // a killed multi-hour sweep keeps its completed rows
}

void json_sink::finish() {
    if (finished_) {
        return;
    }
    finished_ = true;
    if (!open_) {
        out_ << "{\"rows\": [";
    }
    out_ << "\n]}\n";
    out_.flush();
}

atomic_file_sink::atomic_file_sink(std::string path, format fmt, bool per_replica_times)
    : path_(std::move(path)), format_(fmt) {
    if (format_ == format::csv) {
        csv_.emplace(buffer_);
    } else {
        json_.emplace(buffer_, per_replica_times);
    }
    try {
        publish(false, true);
    } catch (const std::runtime_error& e) {
        throw std::invalid_argument("atomic_file_sink: cannot write '" + path_ +
                                    "': " + e.what());
    }
}

void atomic_file_sink::on_row(const sweep_row& row) {
    if (format_ == format::csv) {
        csv_->on_row(row);
    } else {
        json_->on_row(row);
    }
    // Mid-sweep publishes degrade on persistent failure instead of throwing:
    // the replicas behind this row are already computed, and losing them to
    // a flaky disk would be strictly worse than a stale file on disk. The
    // buffered document keeps growing, so the next row (or finish()) retries
    // the complete state.
    publish(false, false);
}

void atomic_file_sink::finish() {
    if (finished_) {
        return;
    }
    finished_ = true;
    if (json_) {
        json_->finish();
    }
    publish(true, true);
    degraded_ = false;  // the final state landed after all
}

void atomic_file_sink::publish(bool closed, bool surface_errors) {
    std::string text = buffer_.str();
    if (format_ == format::json && !closed) {
        // Close the partial document so every published state parses; the
        // terminator matches what json_sink::finish() will eventually write.
        text += text.empty() ? "{\"rows\": [\n]}\n" : "\n]}\n";
    }
    try {
        with_retry(backoff_policy{}, "sink publish", [&] {
            fault::inject("sink.publish");
            atomic_write_file(path_, text);
        });
    } catch (const error&) {
        if (surface_errors) {
            throw;
        }
        if (!degraded_) {
            degraded_ = true;
            std::fprintf(stderr,
                         "sink: publish of '%s' failed after retries; rows are "
                         "retained and republished on the next row / finish\n",
                         path_.c_str());
        }
    }
}

table_sink::table_sink(std::ostream& out)
    : out_(out),
      table_({"point", "reps", "mean T", "sd", "95% CI", "done", "cz T", "S"}) {}

void table_sink::on_row(const sweep_row& row) {
    table_.add_row({row.point.label, util::fmt(row.times.size()), util::fmt(row.summary.mean),
                    util::fmt(row.summary.stddev),
                    "[" + util::fmt(row.mean_ci.lo) + ", " + util::fmt(row.mean_ci.hi) + "]",
                    util::fmt(row.completed_fraction),
                    row.mean_cz_step ? util::fmt(*row.mean_cz_step) : std::string{"-"},
                    util::fmt(row.suburb_diameter)});
}

void table_sink::finish() {
    if (finished_) {
        return;
    }
    finished_ = true;
    out_ << table_.markdown();
    out_.flush();
}

}  // namespace manhattan::engine
