/// \file wire.h
/// The service protocol, for both ends of a connection (docs/SERVICE.md):
/// the AF_UNIX socket, one JSON document per line, the reply and event
/// shapes, the failure classes, and the codecs for the engine's sweep types.
/// The codecs build on the canonical JSON codec (codec/json.h, which also
/// states the exactness and compatibility contracts they keep).
#pragma once

#include <exception>
#include <optional>
#include <string>

#include "codec/json.h"
#include "engine/error.h"
#include "engine/sweep.h"

namespace manhattan::service {

using codec::dump;
using codec::json_value;
using codec::parse_json;

/// A listening stream socket at \p path; a stale socket file there (a killed
/// daemon's) is replaced. Throws engine::error (class io) when it cannot
/// listen, std::invalid_argument for a path past the AF_UNIX limit.
[[nodiscard]] int listen_unix(const std::string& path);

/// A stream socket connected to \p path. Throws engine::error (class io,
/// transient: the daemon may still be binding) when nobody listens there.
[[nodiscard]] int connect_unix(const std::string& path);

/// Newline framing over a connected socket it does not own: one compact
/// document per line each way (a dump never contains a newline).
class line_channel {
 public:
    explicit line_channel(int fd) noexcept : fd_(fd) {}

    /// Send \p v and its newline. Returns false once the peer is gone.
    bool send(const json_value& v);

    /// The next line, without its newline; nullopt once the peer closed or
    /// reset the connection.
    [[nodiscard]] std::optional<std::string> next_line();

    [[nodiscard]] int fd() const noexcept { return fd_; }

 private:
    int fd_;
    std::string buffer_;
};

/// {"ok":ok,"op":op} — the head of every op's response.
[[nodiscard]] json_value reply(const std::string& op, bool ok = true);

/// {"event":name,"job":job} — the head of every submit-stream event.
[[nodiscard]] json_value event(const std::string& name, const std::string& job);

/// \p v with "error" (the failure class) and "message" appended. The class of
/// an exception is `busy` for a busy_error and engine::classify's name
/// otherwise; the message is its what().
[[nodiscard]] json_value with_failure(json_value v, const std::exception& e);
[[nodiscard]] json_value with_failure(json_value v, engine::errc cls,
                                      const std::string& message);

/// Throw the typed exception a failed reply or error event carries: busy_error
/// for `busy`, else engine::error of the named class (runtime for a class
/// this build does not know). A leading "<class> error: " in the message is
/// dropped first, so the rebuilt what() names the class once.
[[noreturn]] void rethrow(const json_value& v);

[[nodiscard]] json_value encode_sweep_spec(const engine::sweep_spec& spec);
[[nodiscard]] engine::sweep_spec decode_sweep_spec(const json_value& v);

[[nodiscard]] json_value encode_sweep_row(const engine::sweep_row& row);
[[nodiscard]] engine::sweep_row decode_sweep_row(const json_value& v);

}  // namespace manhattan::service
