/// \file wire.h
/// The service protocol's codecs for the engine's sweep types, built on the
/// canonical JSON codec (codec/json.h, which also states the exactness and
/// compatibility contracts these codecs keep). The protocol frames one JSON
/// document per line (docs/SERVICE.md).
#pragma once

#include "codec/json.h"
#include "engine/sweep.h"

namespace manhattan::service {

using codec::dump;
using codec::json_value;
using codec::parse_json;

[[nodiscard]] json_value encode_sweep_spec(const engine::sweep_spec& spec);
[[nodiscard]] engine::sweep_spec decode_sweep_spec(const json_value& v);

[[nodiscard]] json_value encode_sweep_row(const engine::sweep_row& row);
[[nodiscard]] engine::sweep_row decode_sweep_row(const json_value& v);

}  // namespace manhattan::service
