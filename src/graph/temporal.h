/// \file temporal.h
/// Temporal reachability over a recorded snapshot sequence: the
/// time-respecting analogue of BFS. Information held by an informed agent at
/// frame t-1 reaches every agent within radius R in frame t — exactly the
/// paper's flooding protocol, recomputed from raw position history.
///
/// This is an *independent oracle* for the flooding engine: running it over a
/// trajectory recorded from the same walker must reproduce flooding_sim's
/// per-agent informing steps bit-for-bit (asserted by the integration tests).
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "mobility/trace.h"

namespace manhattan::graph {

/// Sentinel for "never reached".
inline constexpr std::uint32_t temporal_unreached = std::numeric_limits<std::uint32_t>::max();

/// Result of a temporal flood (F.21 struct return).
struct temporal_reach {
    std::vector<std::uint32_t> reached_at;  ///< frame index per agent; source: 0
    std::size_t reached_count = 0;
    bool all_reached = false;
};

/// Earliest informing frame of every agent, flooding one hop per frame from
/// \p source over the recorded snapshots. Frame 0 is the initial state (only
/// the source informed); transmissions happen in frames 1..frame_count-1.
/// Throws if the recorder is empty or source is out of range.
[[nodiscard]] temporal_reach temporal_flood(const mobility::trajectory_recorder& trace,
                                            double radius, double side, std::size_t source);

/// Temporal eccentricity of \p source: the frame at which the last reachable
/// agent is informed (ignores unreached agents; 0 when none besides source).
[[nodiscard]] std::uint32_t temporal_eccentricity(const temporal_reach& result);

}  // namespace manhattan::graph
