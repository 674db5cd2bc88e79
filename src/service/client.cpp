#include "service/client.h"

#include <unistd.h>

#include "engine/sink.h"

namespace manhattan::service {

namespace {

json_value one_op(const char* op) {
    json_value v = json_value::object();
    v.set("op", json_value::string(op));
    return v;
}

}  // namespace

client::client(const std::string& socket_path) : channel_(connect_unix(socket_path)) {}

client::~client() { ::close(channel_.fd()); }

json_value client::next() {
    const std::optional<std::string> line = channel_.next_line();
    if (!line) {
        throw engine::error(engine::errc::io, "client: connection closed mid-response", true);
    }
    return parse_json(*line);
}

json_value client::request(const json_value& req) {
    if (!channel_.send(req)) {
        throw engine::error(engine::errc::io, "client: send failed (daemon gone?)", true);
    }
    json_value response = next();
    if (!codec::bool_field(response, "ok")) {
        rethrow(response);
    }
    return response;
}

submit_outcome client::submit(const engine::sweep_spec& spec, const std::string& client_id,
                              std::span<engine::result_sink* const> sinks) {
    json_value req = one_op("submit");
    req.set("client", json_value::string(client_id));
    req.set("spec", encode_sweep_spec(spec));
    const json_value header = request(req);
    submit_outcome outcome;
    outcome.job = codec::str_field(header, "job");
    outcome.cached = codec::bool_field(header, "cached");

    while (true) {
        const json_value line = next();
        const std::string what = codec::str_field(line, "event");
        if (what == "row") {
            const engine::sweep_row row = decode_sweep_row(codec::require(line, "row"));
            for (engine::result_sink* sink : sinks) {
                sink->on_row(row);
            }
        } else if (what == "done") {
            outcome.rows = codec::u64_field(line, "rows");
            outcome.cached = codec::bool_field(line, "cached");
            outcome.fresh_replicas = codec::u64_field(line, "fresh_replicas");
            return outcome;
        } else if (what == "cancelled") {
            outcome.cancelled = true;
            return outcome;
        } else if (what == "error") {
            rethrow(line);
        } else {
            throw codec::wire_error("unexpected event '" + what + "' in submit stream");
        }
    }
}

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
