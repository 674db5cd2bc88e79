#include "core/spread.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>

#include "rng/rng.h"

namespace manhattan::core {

void source_spec::validate(std::size_t n) const {
    switch (how) {
        case kind::placement:
        case kind::random_k:
            if (count == 0) {
                throw std::invalid_argument("source_spec: count must be positive");
            }
            if (count > n) {
                throw std::invalid_argument("source_spec: count " + std::to_string(count) +
                                            " exceeds population " + std::to_string(n));
            }
            return;
        case kind::explicit_ids: {
            if (ids.empty()) {
                throw std::invalid_argument("source_spec: explicit id list is empty");
            }
            std::vector<std::size_t> sorted = ids;
            std::sort(sorted.begin(), sorted.end());
            if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
                throw std::invalid_argument("source_spec: explicit ids must be distinct");
            }
            if (sorted.back() >= n) {
                throw std::invalid_argument("source_spec: agent id " +
                                            std::to_string(sorted.back()) + " out of range");
            }
            return;
        }
    }
    throw std::invalid_argument("source_spec: unknown kind");
}

void stop_rule::validate() const {
    switch (how) {
        case kind::all_informed:
        case kind::central_zone:
            return;
        case kind::informed_fraction:
            if (!(fraction > 0.0 && fraction <= 1.0)) {
                throw std::invalid_argument("stop_rule: fraction must be in (0, 1]");
            }
            return;
        case kind::step_budget:
            if (steps == 0) {
                throw std::invalid_argument("stop_rule: step budget must be positive");
            }
            return;
    }
    throw std::invalid_argument("stop_rule: unknown kind");
}

namespace {

geom::vec2 placement_target(source_placement placement, double side) {
    switch (placement) {
        case source_placement::random_agent:
        case source_placement::corner_most:
            return {0.0, 0.0};
        case source_placement::center_most:
            return {side / 2.0, side / 2.0};
        case source_placement::corner_ne:
            return {side, side};
        case source_placement::corner_nw:
            return {0.0, side};
        case source_placement::corner_se:
            return {side, 0.0};
    }
    return {0.0, 0.0};
}

}  // namespace

std::vector<std::uint32_t> resolve_sources(const source_spec& spec,
                                           std::span<const geom::vec2> positions,
                                           double side, std::uint64_t source_seed) {
    const std::size_t n = positions.size();
    spec.validate(n);
    std::vector<std::uint32_t> out;

    switch (spec.how) {
        case source_spec::kind::placement: {
            if (spec.placement == source_placement::random_agent) {
                // Stationary samples are exchangeable, so the first count
                // agents are a uniform random subset already.
                out.resize(spec.count);
                std::iota(out.begin(), out.end(), 0u);
                return out;
            }
            const geom::vec2 target = placement_target(spec.placement, side);
            if (spec.count == 1) {
                // The hot path (every placement-sourced replica spawn):
                // a plain O(n) argmin, ties to the lower id.
                std::uint32_t best = 0;
                double best_d = geom::dist2(positions[0], target);
                for (std::uint32_t i = 1; i < n; ++i) {
                    const double d = geom::dist2(positions[i], target);
                    if (d < best_d) {
                        best_d = d;
                        best = i;
                    }
                }
                out.push_back(best);
                break;
            }
            // count > 1: select the count nearest by (distance, id) without
            // sorting all n — distances are computed once, not per compare.
            std::vector<std::pair<double, std::uint32_t>> keyed(n);
            for (std::uint32_t i = 0; i < n; ++i) {
                keyed[i] = {geom::dist2(positions[i], target), i};
            }
            const auto mid = keyed.begin() + static_cast<std::ptrdiff_t>(spec.count);
            std::nth_element(keyed.begin(), mid - 1, keyed.end());
            std::sort(keyed.begin(), mid);  // pairs order by (distance, id)
            for (auto it = keyed.begin(); it != mid; ++it) {
                out.push_back(it->second);
            }
            break;
        }
        case source_spec::kind::explicit_ids:
            out.assign(spec.ids.begin(), spec.ids.end());
            break;
        case source_spec::kind::random_k: {
            // Partial Fisher-Yates: k swap-draws over the id array give a
            // uniform k-subset, a pure function of source_seed.
            rng::rng gen(source_seed);
            std::vector<std::uint32_t> pool(n);
            std::iota(pool.begin(), pool.end(), 0u);
            for (std::size_t i = 0; i < spec.count; ++i) {
                const auto j = i + static_cast<std::size_t>(gen.uniform_index(n - i));
                std::swap(pool[i], pool[j]);
            }
            out.assign(pool.begin(), pool.begin() + static_cast<std::ptrdiff_t>(spec.count));
            break;
        }
    }
    std::sort(out.begin(), out.end());
    return out;
}

}  // namespace manhattan::core
