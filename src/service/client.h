/// \file client.h
/// Client side of the daemon protocol (docs/SERVICE.md): connect to the
/// AF_UNIX socket, frame one JSON document per line, and decode streamed
/// result rows back into engine::sweep_row — which then feed the ordinary
/// sinks, so a daemon-served sweep renders byte-identically to a local
/// run_sweep through the same csv/json sinks.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "engine/error.h"
#include "engine/sweep.h"
#include "service/wire.h"

namespace manhattan::service {

/// What one submit produced.
struct submit_outcome {
    std::string job;                   ///< fingerprint hex — the cache key
    bool cached = false;               ///< served from the result cache
    std::size_t rows = 0;              ///< rows streamed back
    std::uint64_t fresh_replicas = 0;  ///< replicas the daemon computed anew
    bool cancelled = false;            ///< job withdrew before running
};

/// One connection. Requests are synchronous: send a line, read the
/// response line(s). Throws engine::error (class io) on connect/transport
/// failure, busy_error on an admission-shed submit, codec::wire_error on a
/// malformed peer, and rebuilds the daemon's typed error for failed ops
/// (rethrow in wire.h).
class client {
 public:
    explicit client(const std::string& socket_path);
    ~client();
    client(const client&) = delete;
    client& operator=(const client&) = delete;

    /// One request / one response op (ping, status, cancel, stats,
    /// shutdown; and a submit's header). Throws on an {"ok":false} response.
    json_value request(const json_value& req);

    /// Submit a sweep and stream its rows into \p sinks (on_row only —
    /// finish() stays with the caller, matching the run_sweep contract).
    submit_outcome submit(const engine::sweep_spec& spec, const std::string& client_id,
                          std::span<engine::result_sink* const> sinks);

    [[nodiscard]] json_value ping();
    [[nodiscard]] json_value stats();
    [[nodiscard]] json_value status(const std::string& job);
    [[nodiscard]] json_value cancel(const std::string& job);
    void shutdown_daemon();

 private:
    [[nodiscard]] json_value next();

    line_channel channel_;
};

}  // namespace manhattan::service
