#include "geom/uniform_grid.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace manhattan::geom {

namespace {

// A cache hint for the id scatter (for_write) and the gather; a no-op where
// the GNU builtin is missing.
template <bool for_write>
inline void prefetch(const void* p) noexcept {
#if defined(__GNUC__)
    __builtin_prefetch(p, for_write ? 1 : 0);
#else
    (void)p;
#endif
}

}  // namespace

uniform_grid::uniform_grid(double side, double min_bucket_side) : side_(side) {
    if (!(side > 0.0) || !(min_bucket_side > 0.0)) {
        throw std::invalid_argument("uniform_grid: side and bucket side must be positive");
    }
    m_ = std::max<std::int32_t>(1, static_cast<std::int32_t>(std::floor(side / min_bucket_side)));
    bucket_side_ = side / m_;
    offsets_.assign(static_cast<std::size_t>(m_) * static_cast<std::size_t>(m_) + 1, 0);
}

void uniform_grid::count_buckets(std::span<const vec2> positions, std::size_t lane,
                                 std::size_t begin, std::size_t end) noexcept {
    // Constants in locals and no store the compiler must assume aliases
    // them: the id loop vectorises (two divides, two clamps, two casts per
    // agent). The histogram is a second loop, so it cannot stop that.
    const double bucket = bucket_side_;
    const double top = static_cast<double>(m_ - 1);
    const std::uint32_t m = static_cast<std::uint32_t>(m_);
    const vec2* p = positions.data();
    std::uint32_t* ids = bucket_of_.data();
    for (std::size_t i = begin; i < end; ++i) {
        ids[i] = static_cast<std::uint32_t>(axis_bucket(p[i].y, bucket, top)) * m +
                 static_cast<std::uint32_t>(axis_bucket(p[i].x, bucket, top));
    }
    const std::size_t buckets = bucket_count();
    std::uint32_t* hist = lane_cursor_.data() + lane * buckets;
    std::fill_n(hist, buckets, 0u);
    for (std::size_t i = begin; i < end; ++i) {
        ++hist[ids[i]];
    }
}

void uniform_grid::place_lanes(std::size_t lanes) noexcept {
    const std::size_t buckets = bucket_count();
    std::uint32_t* cursor = lane_cursor_.data();
    std::size_t slot = 0;
    for (std::size_t b = 0; b < buckets; ++b) {
        offsets_[b] = slot;
        for (std::size_t lane = 0; lane < lanes; ++lane) {
            const std::uint32_t count = cursor[lane * buckets + b];
            cursor[lane * buckets + b] = static_cast<std::uint32_t>(slot);
            slot += count;
        }
    }
    offsets_[buckets] = slot;
}

void uniform_grid::scatter_ids(std::size_t lane, std::size_t begin, std::size_t end) noexcept {
    // A cursor read early may still move before agent i + ahead is placed,
    // but only within its bucket's range, so the prefetched line is the one
    // written or a neighbour of it.
    constexpr std::size_t ahead = prefetch_ahead;
    std::uint32_t* cursor = lane_cursor_.data() + lane * bucket_count();
    const std::uint32_t* ids = bucket_of_.data();
    std::uint32_t* items = items_.data();
    std::size_t i = begin;
    for (; i + ahead < end; ++i) {
        prefetch<true>(items + cursor[ids[i + ahead]]);
        items[cursor[ids[i]]++] = static_cast<std::uint32_t>(i);
    }
    for (; i < end; ++i) {
        items[cursor[ids[i]]++] = static_cast<std::uint32_t>(i);
    }
}

void uniform_grid::gather_points(std::span<const vec2> positions, std::size_t begin,
                                 std::size_t end) noexcept {
    constexpr std::size_t ahead = prefetch_ahead;
    const vec2* from = positions.data();
    const std::uint32_t* items = items_.data();
    vec2* to = sorted_points_.data();
    std::size_t s = begin;
    for (; s + ahead < end; ++s) {
        prefetch<false>(from + items[s + ahead]);
        to[s] = from[items[s]];
    }
    for (; s < end; ++s) {
        to[s] = from[items[s]];
    }
}

void uniform_grid::resize_scratch(std::size_t n, std::size_t lanes) {
    items_.resize(n);
    sorted_points_.resize(n);
    bucket_of_.resize(n);
    // Never shrunk, so switching between one lane and many does not refill
    // the table; each lane zeroes its own histogram.
    lane_cursor_.resize(std::max(lane_cursor_.size(), lanes * bucket_count()));
}

void uniform_grid::rebuild(std::span<const vec2> positions) {
    const std::size_t n = positions.size();
    resize_scratch(n, 1);
    count_buckets(positions, 0, 0, n);
    place_lanes(1);
    scatter_ids(0, 0, n);
    gather_points(positions, 0, n);
}

void uniform_grid::rebuild(std::span<const vec2> positions, util::parallel_executor& ex) {
    if (ex.lanes() <= 1 || positions.size() < min_lane_agents * ex.lanes()) {
        rebuild(positions);
    } else {
        rebuild_lanes(positions, ex);
    }
}

void uniform_grid::rebuild_lanes(std::span<const vec2> positions, util::parallel_executor& ex) {
    const std::size_t n = positions.size();
    // run() skips empty slices, and lanes [n, lanes()) are the empty ones.
    const std::size_t lanes = std::min(ex.lanes(), n);
    resize_scratch(n, lanes);
    ex.run(n, [&](std::size_t lane, std::size_t begin, std::size_t end) {
        count_buckets(positions, lane, begin, end);
    });
    place_lanes(lanes);
    ex.run(n, [&](std::size_t lane, std::size_t begin, std::size_t end) {
        scatter_ids(lane, begin, end);
    });
    ex.run(n, [&](std::size_t, std::size_t begin, std::size_t end) {
        gather_points(positions, begin, end);
    });
}

std::vector<std::uint32_t> uniform_grid::query(vec2 p, double r) const {
    std::vector<std::uint32_t> out;
    for_each_in_radius(p, r, [&](std::uint32_t idx) { out.push_back(idx); });
    return out;
}

}  // namespace manhattan::geom
