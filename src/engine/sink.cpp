#include "engine/sink.h"

#include <cstdio>
#include <ostream>
#include <stdexcept>

#include "codec/json.h"
#include "codec/number.h"
#include "core/scenario_fields.h"
#include "engine/append_log.h"
#include "engine/error.h"
#include "engine/fault.h"

namespace manhattan::engine {

namespace {

using codec::f64_text;
using codec::number_array;
using codec::number_list;

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
         << f64_text(sc.params.side) << ',' << f64_text(sc.params.radius) << ','
         << f64_text(sc.params.speed) << ',' << core::enum_name(sc.model) << ','
         << core::enum_name(sc.mode) << ',' << f64_text(sc.gossip_p) << ',' << row.times.size()
         << ',' << f64_text(row.summary.mean) << ',' << f64_text(row.summary.stddev) << ','
         << f64_text(row.summary.min) << ',' << f64_text(row.summary.median) << ','
         << f64_text(row.summary.max) << ',' << f64_text(row.mean_ci.lo) << ','
         << f64_text(row.mean_ci.hi) << ',' << f64_text(row.completed_fraction) << ','
         << (row.mean_cz_step ? f64_text(*row.mean_cz_step) : std::string{}) << ','
         << (row.max_cz_step ? f64_text(*row.max_cz_step) : std::string{}) << ','
         << f64_text(row.cz_fraction) << ',' << f64_text(row.suburb_diameter) << ','
         // A semicolon-joined list per cell: a comma would split the cell.
         << row.message_mean_times.size() << ',' << number_list(row.message_mean_times, ";")
         << ',' << number_list(row.message_completed_fraction, ";") << '\n';
    out_.flush();  // a killed multi-hour sweep keeps its completed rows
}

void json_sink::on_row(const sweep_row& row) {
    out_ << (open_ ? ",\n" : "{\"rows\": [\n");
    open_ = true;
    const auto& sc = row.point.sc;
    std::string label;
    codec::dump_string(label, row.point.label);
    out_ << "  {\"index\": " << row.point.index << ", \"label\": " << label
         << ",\n   \"params\": {\"n\": " << sc.params.n
         << ", \"side\": " << f64_text(sc.params.side)
         << ", \"radius\": " << f64_text(sc.params.radius)
         << ", \"speed\": " << f64_text(sc.params.speed)
         << ", \"model\": \"" << core::enum_name(sc.model) << '"'
         << ", \"mode\": \"" << core::enum_name(sc.mode) << '"'
         << ", \"gossip_p\": " << f64_text(sc.gossip_p) << ", \"seed\": " << sc.seed
         << ", \"messages\": " << row.message_mean_times.size() << "},\n"
         << "   \"summary\": {\"reps\": " << row.times.size()
         << ", \"mean\": " << f64_text(row.summary.mean)
         << ", \"stddev\": " << f64_text(row.summary.stddev)
         << ", \"min\": " << f64_text(row.summary.min)
         << ", \"median\": " << f64_text(row.summary.median)
         << ", \"max\": " << f64_text(row.summary.max) << ", \"ci95\": ["
         << f64_text(row.mean_ci.lo) << ", " << f64_text(row.mean_ci.hi)
         << "], \"completed_fraction\": " << f64_text(row.completed_fraction)
         << ", \"suburb_diameter\": " << f64_text(row.suburb_diameter)
         << ", \"mean_cz_step\": "
         << (row.mean_cz_step ? f64_text(*row.mean_cz_step) : std::string{"null"})
         << ", \"max_cz_step\": "
         << (row.max_cz_step ? f64_text(*row.max_cz_step) : std::string{"null"})
         << ", \"cz_fraction\": " << f64_text(row.cz_fraction)
         << ", \"message_mean_times\": " << number_array(row.message_mean_times)
         << ", \"message_completed_fraction\": "
         << number_array(row.message_completed_fraction) << "}";
    if (per_replica_times_) {
        out_ << ",\n   \"times\": " << number_array(row.times);
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
