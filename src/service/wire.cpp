#include "service/wire.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "service/admission.h"

namespace manhattan::service {

namespace {

/// A stream socket bound and listening at \p path (replacing a stale socket
/// file, a killed daemon's), or connected to it.
int open_unix(const std::string& path, bool listening) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
        throw std::invalid_argument("socket path '" + path + "' exceeds the AF_UNIX limit");
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (listening) {
        ::unlink(path.c_str());
    }
    const auto* at = reinterpret_cast<const sockaddr*>(&addr);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0 || (listening ? ::bind(fd, at, sizeof addr) != 0 || ::listen(fd, 64) != 0
                             : ::connect(fd, at, sizeof addr) != 0)) {
        const std::string what = std::strerror(errno);
        if (fd >= 0) {
            ::close(fd);
        }
        throw engine::error(engine::errc::io,
                            (listening ? "cannot listen on '" : "cannot connect to '") + path +
                                "': " + what,
                            true);
    }
    return fd;
}

}  // namespace

int listen_unix(const std::string& path) { return open_unix(path, true); }

int connect_unix(const std::string& path) { return open_unix(path, false); }

bool line_channel::send(const json_value& v) {
    std::string line = dump(v);
    line += '\n';
    for (std::size_t sent = 0; sent < line.size();) {
        const ssize_t n = ::send(fd_, line.data() + sent, line.size() - sent, MSG_NOSIGNAL);
        if (n < 0 && errno == EINTR) {
            continue;
        }
        if (n <= 0) {
            return false;
        }
        sent += static_cast<std::size_t>(n);
    }
    return true;
}

std::optional<std::string> line_channel::next_line() {
    while (true) {
        if (const std::size_t pos = buffer_.find('\n'); pos != std::string::npos) {
            std::string line = buffer_.substr(0, pos);
            buffer_.erase(0, pos + 1);
            return line;
        }
        char chunk[4096];
        const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
        if (n < 0 && errno == EINTR) {
            continue;
        }
        if (n <= 0) {
            return std::nullopt;
        }
        buffer_.append(chunk, static_cast<std::size_t>(n));
    }
}

json_value reply(const std::string& op, bool ok) {
    json_value v = json_value::object();
    v.set("ok", json_value::boolean(ok));
    v.set("op", json_value::string(op));
    return v;
}

json_value event(const std::string& name, const std::string& job) {
    json_value v = json_value::object();
    v.set("event", json_value::string(name));
    v.set("job", json_value::string(job));
    return v;
}

json_value with_failure(json_value v, const std::exception& e) {
    const char* cls = dynamic_cast<const busy_error*>(&e) != nullptr
                          ? "busy"
                          : engine::errc_name(engine::classify(e));
    v.set("error", json_value::string(cls));
    v.set("message", json_value::string(e.what()));
    return v;
}

json_value with_failure(json_value v, engine::errc cls, const std::string& message) {
    v.set("error", json_value::string(engine::errc_name(cls)));
    v.set("message", json_value::string(message));
    return v;
}

void rethrow(const json_value& v) {
    const std::string name = codec::str_field(v, "error");
    engine::errc cls = engine::errc::runtime;  // busy, and any class not known here
    for (const engine::errc known :
         {engine::errc::spec, engine::errc::runtime, engine::errc::io, engine::errc::state}) {
        if (name == engine::errc_name(known)) {
            cls = known;
        }
    }
    const json_value* message = v.find("message");
    std::string what = message != nullptr && message->what == json_value::kind::string
                           ? message->text
                           : "daemon refused the request";
    if (const std::string prefix = std::string{engine::errc_name(cls)} + " error: ";
        what.starts_with(prefix)) {
        what.erase(0, prefix.size());
    }
    if (name == "busy") {
        throw busy_error(what);
    }
    throw engine::error(cls, what, cls == engine::errc::io);
}

namespace {

/// The sweep_spec wire layout, walked like core::for_each_field. Empty axes
/// are omitted (absent = not swept), so a one-point spec stays one short
/// line; street_blocks only matters to the topology axes, so it is only
/// emitted beside them and every pre-topology spec stays byte-identical.
template <typename Spec, typename Visitor>
void for_each_spec_field(Spec& spec, Visitor& v) {
    v.record("base", [&] { core::for_each_field(spec.base, v); });
    v.field("repetitions", spec.repetitions);
    v.field("standard_case", spec.standard_case);
    const auto axis = [&](const char* name, auto& values) {
        if (v.present(name, !values.empty())) {
            v.field(name, values);
        }
    };
    v.record("axes", [&] {
        axis("n", spec.n);
        axis("c1", spec.c1);
        axis("radius", spec.radius);
        axis("speed", spec.speed);
        axis("speed_factor", spec.speed_factor);
        axis("model", spec.model);
        axis("mode", spec.mode);
        axis("gossip_p", spec.gossip_p);
        axis("num_sources", spec.num_sources);
        axis("num_messages", spec.num_messages);
        axis("block_ratio", spec.block_ratio);
        axis("blocked_fraction", spec.blocked_fraction);
    });
    const bool street_axes = !spec.block_ratio.empty() || !spec.blocked_fraction.empty();
    if (v.present("street_blocks", street_axes)) {
        v.field("street_blocks", spec.street_blocks);
    }
}

/// The sweep_row wire layout, walked like core::for_each_field.
template <typename Row, typename Visitor>
void for_each_row_field(Row& row, Visitor& v) {
    v.field("index", row.point.index);
    v.field("label", row.point.label);
    v.record("scenario", [&] { core::for_each_field(row.point.sc, v); });
    v.field("times", row.times);
    v.record("summary", [&] {
        v.field("count", row.summary.count);
        v.field("mean", row.summary.mean);
        v.field("stddev", row.summary.stddev);
        v.field("min", row.summary.min);
        v.field("max", row.summary.max);
        v.field("median", row.summary.median);
        v.field("p25", row.summary.p25);
        v.field("p75", row.summary.p75);
    });
    v.record("mean_ci", [&] {
        v.field("lo", row.mean_ci.lo);
        v.field("hi", row.mean_ci.hi);
    });
    v.field("completed_fraction", row.completed_fraction);
    v.field("message_mean_times", row.message_mean_times);
    v.field("message_completed_fraction", row.message_completed_fraction);
    v.field("mean_cz_step", row.mean_cz_step);
    v.field("max_cz_step", row.max_cz_step);
    v.field("cz_fraction", row.cz_fraction);
    v.field("suburb_diameter", row.suburb_diameter);
    v.field("wall_seconds", row.wall_seconds);
}

}  // namespace

json_value encode_sweep_spec(const engine::sweep_spec& spec) {
    json_value v = json_value::object();
    codec::json_writer writer{&v};
    for_each_spec_field(spec, writer);
    return v;
}

engine::sweep_spec decode_sweep_spec(const json_value& v) {
    engine::sweep_spec spec;
    codec::json_reader reader{&v};
    for_each_spec_field(spec, reader);
    return spec;
}

json_value encode_sweep_row(const engine::sweep_row& row) {
    json_value v = json_value::object();
    codec::json_writer writer{&v};
    for_each_row_field(row, writer);
    return v;
}

engine::sweep_row decode_sweep_row(const json_value& v) {
    engine::sweep_row row;
    codec::json_reader reader{&v};
    for_each_row_field(row, reader);
    return row;
}

}  // namespace manhattan::service
