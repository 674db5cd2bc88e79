#include "graph/temporal.h"

#include <stdexcept>

#include "geom/uniform_grid.h"

namespace manhattan::graph {

temporal_reach temporal_flood(const mobility::trajectory_recorder& trace, double radius,
                              double side, std::size_t source) {
    if (trace.frame_count() == 0) {
        throw std::invalid_argument("temporal_flood: empty trace");
    }
    if (source >= trace.agent_count()) {
        throw std::invalid_argument("temporal_flood: source out of range");
    }
    if (!(radius > 0.0) || !(side > 0.0)) {
        throw std::invalid_argument("temporal_flood: radius and side must be positive");
    }

    const std::size_t n = trace.agent_count();
    temporal_reach result;
    result.reached_at.assign(n, temporal_unreached);
    result.reached_at[source] = 0;
    result.reached_count = 1;

    geom::uniform_grid grid(side, std::min(radius, side));
    for (std::size_t f = 1; f < trace.frame_count() && result.reached_count < n; ++f) {
        const auto positions = trace.frame(f);
        grid.rebuild(positions);
        // One synchronous hop: agents reached strictly before frame f
        // transmit; mark new agents with frame f.
        std::vector<std::uint32_t> newly;
        for (std::uint32_t i = 0; i < n; ++i) {
            if (result.reached_at[i] >= f) {
                continue;  // not informed before this frame
            }
            grid.for_each_in_radius(positions[i], radius, [&](std::uint32_t j) {
                if (result.reached_at[j] == temporal_unreached) {
                    result.reached_at[j] = static_cast<std::uint32_t>(f);
                    newly.push_back(j);
                }
            });
        }
        result.reached_count += newly.size();
    }
    result.all_reached = result.reached_count == n;
    return result;
}

std::uint32_t temporal_eccentricity(const temporal_reach& result) {
    std::uint32_t ecc = 0;
    for (const std::uint32_t at : result.reached_at) {
        if (at != temporal_unreached && at > ecc) {
            ecc = at;
        }
    }
    return ecc;
}

}  // namespace manhattan::graph
