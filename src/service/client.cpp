#include "service/client.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "engine/sink.h"
#include "service/admission.h"

namespace manhattan::service {

client::client(const std::string& socket_path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) {
        throw engine::error(engine::errc::io, "client: socket() failed", true);
    }
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (socket_path.size() >= sizeof(addr.sun_path)) {
        ::close(fd_);
        fd_ = -1;
        throw std::invalid_argument("client: socket path '" + socket_path +
                                    "' exceeds the AF_UNIX limit");
    }
    std::strncpy(addr.sun_path, socket_path.c_str(), sizeof(addr.sun_path) - 1);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
        const std::string what = std::strerror(errno);
        ::close(fd_);
        fd_ = -1;
        // Transient: the daemon may still be binding — with_retry rides it out.
        throw engine::error(engine::errc::io,
                            "client: cannot connect to '" + socket_path + "': " + what,
                            true);
    }
}

client::~client() {
    if (fd_ >= 0) {
        ::close(fd_);
    }
}

void client::send(const json_value& v) {
    std::string line = dump(v);
    line += '\n';
    std::size_t sent = 0;
    while (sent < line.size()) {
        const ssize_t n = ::send(fd_, line.data() + sent, line.size() - sent, MSG_NOSIGNAL);
        if (n <= 0) {
            if (n < 0 && errno == EINTR) {
                continue;
            }
            throw engine::error(engine::errc::io, "client: send failed (daemon gone?)",
                                true);
        }
        sent += static_cast<std::size_t>(n);
    }
}

json_value client::read_response() {
    while (true) {
        const std::size_t pos = buffer_.find('\n');
        if (pos != std::string::npos) {
            const std::string line = buffer_.substr(0, pos);
            buffer_.erase(0, pos + 1);
            return parse_json(line);
        }
        char chunk[4096];
        const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
        if (n < 0 && errno == EINTR) {
            continue;
        }
        if (n <= 0) {
            throw engine::error(engine::errc::io,
                                "client: connection closed mid-response", true);
        }
        buffer_.append(chunk, static_cast<std::size_t>(n));
    }
}

void client::raise(const json_value& response) {
    const std::string cls = codec::str_field(response, "error");
    const json_value* message = response.find("message");
    const std::string what =
        message != nullptr && message->what == json_value::kind::string
            ? message->text
            : "daemon refused the request";
    if (cls == "busy") {
        throw busy_error(what);
    }
    if (cls == "spec") {
        throw engine::error(engine::errc::spec, what);
    }
    if (cls == "io") {
        throw engine::error(engine::errc::io, what, true);
    }
    if (cls == "state") {
        throw engine::error(engine::errc::state, what);
    }
    throw engine::error(engine::errc::runtime, what);
}

json_value client::request(const json_value& req) {
    send(req);
    const json_value response = read_response();
    if (!codec::bool_field(response, "ok")) {
        raise(response);
    }
    return response;
}

submit_outcome client::submit(const engine::sweep_spec& spec, const std::string& client_id,
                              std::span<engine::result_sink* const> sinks) {
    json_value req = json_value::object();
    req.set("op", json_value::string("submit"));
    req.set("client", json_value::string(client_id));
    req.set("spec", encode_sweep_spec(spec));
    send(req);

    const json_value header = read_response();
    if (!codec::bool_field(header, "ok")) {
        raise(header);
    }
    submit_outcome outcome;
    outcome.job = codec::str_field(header, "job");
    outcome.cached = codec::bool_field(header, "cached");

    while (true) {
        const json_value event = read_response();
        const std::string what = codec::str_field(event, "event");
        if (what == "row") {
            const engine::sweep_row row = decode_sweep_row(codec::require(event, "row"));
            for (engine::result_sink* sink : sinks) {
                sink->on_row(row);
            }
        } else if (what == "done") {
            outcome.rows = codec::u64_field(event, "rows");
            outcome.cached = codec::bool_field(event, "cached");
            outcome.fresh_replicas = codec::u64_field(event, "fresh_replicas");
            return outcome;
        } else if (what == "cancelled") {
            outcome.cancelled = true;
            return outcome;
        } else if (what == "error") {
            raise(event);
        } else {
            throw codec::wire_error("unexpected event '" + what + "' in submit stream");
        }
    }
}

namespace {

json_value one_op(const char* op) {
    json_value v = json_value::object();
    v.set("op", json_value::string(op));
    return v;
}

}  // namespace

json_value client::ping() { return request(one_op("ping")); }

json_value client::stats() { return request(one_op("stats")); }

json_value client::status(const std::string& job) {
    json_value req = one_op("status");
    req.set("job", json_value::string(job));
    return request(req);
}

json_value client::cancel(const std::string& job) {
    json_value req = one_op("cancel");
    req.set("job", json_value::string(job));
    return request(req);
}

void client::shutdown_daemon() { (void)request(one_op("shutdown")); }

}  // namespace manhattan::service
