#include "geom/uniform_grid.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
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

/// Pass 3 over the agents at(0) .. at(count - 1), in that order:
/// items[cursor[bucket]++] = agent, with the slot of the agent
/// prefetch_ahead places later prefetched for write. A cursor read early
/// may still move before that agent is placed, but only within its
/// bucket's range, so the prefetched line is the one written or a
/// neighbour of it.
template <typename At>
inline void scatter(const std::uint32_t* ids, std::uint32_t* cursor, std::uint32_t* items,
                    std::size_t count, At at) noexcept {
    constexpr std::size_t ahead = uniform_grid::prefetch_ahead;
    std::size_t j = 0;
    for (; j + ahead < count; ++j) {
        prefetch<true>(items + cursor[ids[at(j + ahead)]]);
        const std::uint32_t i = at(j);
        items[cursor[ids[i]]++] = i;
    }
    for (; j < count; ++j) {
        const std::uint32_t i = at(j);
        items[cursor[ids[i]]++] = i;
    }
}

/// body(lane, begin, end) over [0, count) on the lanes of \p ex, or as one
/// direct call (no std::function) without an executor.
template <typename Body>
void on_lanes(util::parallel_executor* ex, std::size_t count, Body&& body) {
    if (ex == nullptr) {
        if (count > 0) {
            body(std::size_t{0}, std::size_t{0}, count);
        }
    } else {
        ex->run(count, body);
    }
}

}  // namespace

uniform_grid::uniform_grid(double side, double min_bucket_side) : side_(side) {
    if (!(side > 0.0) || !(min_bucket_side > 0.0)) {
        throw std::invalid_argument("uniform_grid: side and bucket side must be positive");
    }
    m_ = std::max<std::int32_t>(1, static_cast<std::int32_t>(std::floor(side / min_bucket_side)));
    bucket_side_ = side / m_;
    const std::size_t buckets = static_cast<std::size_t>(m_) * static_cast<std::size_t>(m_);
    offsets_.assign(buckets + 1, 0);
    filled_.assign(buckets, 0);
    todo_.assign(buckets, 0);
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
    scatter(bucket_of_.data(), lane_cursor_.data() + lane * bucket_count(), items_.data(),
            end - begin, [begin](std::size_t j) { return static_cast<std::uint32_t>(begin + j); });
}

void uniform_grid::scatter_todo(std::size_t lane, std::size_t begin, std::size_t end) noexcept {
    // A block of agents at a time: the ids of those in todo buckets are
    // compacted without a branch (the write index advances by the bucket's
    // 0/1 flag), then scattered as in pass 3. A block is long enough that
    // most of a frontier's picks in it are prefetched.
    constexpr std::size_t block = 4096;
    std::array<std::uint32_t, block> picked;
    const std::uint32_t* ids = bucket_of_.data();
    const std::uint8_t* todo = todo_.data();
    std::uint32_t* cursor = lane_cursor_.data() + lane * bucket_count();
    for (std::size_t first = begin; first < end; first += block) {
        const std::size_t last = std::min(end, first + block);
        std::size_t count = 0;
        for (std::size_t i = first; i < last; ++i) {
            picked[count] = static_cast<std::uint32_t>(i);
            count += todo[ids[i]];
        }
        scatter(ids, cursor, items_.data(), count, [&](std::size_t j) { return picked[j]; });
    }
}

void uniform_grid::gather_points(std::size_t begin, std::size_t end) noexcept {
    constexpr std::size_t ahead = prefetch_ahead;
    const vec2* from = positions_.data();
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

void uniform_grid::index_on(std::span<const vec2> positions, util::parallel_executor* ex) {
    const std::size_t n = positions.size();
    positions_ = positions;
    ex_ = ex;
    // run() skips empty slices, and lanes [n, lanes()) are the empty ones;
    // with no agent, no lane counts and the prefix reads no histogram.
    const std::size_t lanes = std::min(ex == nullptr ? std::size_t{1} : ex->lanes(), n);
    resize_scratch(n, lanes);
    on_lanes(ex_, n, [&](std::size_t lane, std::size_t begin, std::size_t end) {
        count_buckets(positions, lane, begin, end);
    });
    place_lanes(lanes);
    std::fill(filled_.begin(), filled_.end(), std::uint8_t{0});
    filled_slots_ = 0;
}

void uniform_grid::index(std::span<const vec2> positions) { index_on(positions, nullptr); }

void uniform_grid::index(std::span<const vec2> positions, util::parallel_executor& ex) {
    const bool split = ex.lanes() > 1 && positions.size() >= min_lane_agents * ex.lanes();
    index_on(positions, split ? &ex : nullptr);
}

void uniform_grid::index_lanes(std::span<const vec2> positions, util::parallel_executor& ex) {
    index_on(positions, &ex);
}

void uniform_grid::fill_every_bucket() {
    const std::size_t n = size();
    on_lanes(ex_, n, [&](std::size_t lane, std::size_t begin, std::size_t end) {
        scatter_ids(lane, begin, end);
    });
    on_lanes(ex_, n, [&](std::size_t, std::size_t begin, std::size_t end) {
        gather_points(begin, end);
    });
    filled_slots_ = n;
}

void uniform_grid::fill_todo(std::size_t span) {
    // Mark the todo buckets filled, and join their slot ranges into runs
    // for the gather (slots of an empty bucket between two are none).
    const std::size_t buckets = bucket_count();
    todo_runs_.clear();
    for (std::size_t b = 0; b < buckets; ++b) {
        if (todo_[b] == 0) {
            continue;
        }
        filled_[b] = 1;
        if (!todo_runs_.empty() && todo_runs_.back().second == offsets_[b]) {
            todo_runs_.back().second = offsets_[b + 1];
        } else {
            todo_runs_.emplace_back(offsets_[b], offsets_[b + 1]);
        }
    }
    if (span == 0) {
        return;
    }
    on_lanes(ex_, size(), [&](std::size_t lane, std::size_t begin, std::size_t end) {
        scatter_todo(lane, begin, end);
    });
    on_lanes(ex_, todo_runs_.size(), [&](std::size_t, std::size_t begin, std::size_t end) {
        for (std::size_t r = begin; r < end; ++r) {
            gather_points(todo_runs_[r].first, todo_runs_[r].second);
        }
    });
    filled_slots_ += span;
}

void uniform_grid::fill(std::span<const std::uint8_t> mask) {
    if (filled_slots_ == size()) {
        return;
    }
    std::size_t span = 0;
    for (std::size_t b = 0; b < bucket_count(); ++b) {
        todo_[b] = static_cast<std::uint8_t>((mask[b] != 0) & (filled_[b] == 0));
        span += todo_[b] * (offsets_[b + 1] - offsets_[b]);
    }
    fill_todo(span);
}

void uniform_grid::fill_all() {
    if (filled_slots_ == size()) {
        return;
    }
    if (filled_slots_ == 0) {
        fill_every_bucket();  // no fill has moved a cursor from the prefix
        return;
    }
    for (std::size_t b = 0; b < bucket_count(); ++b) {
        todo_[b] = static_cast<std::uint8_t>(filled_[b] == 0);
    }
    fill_todo(size() - filled_slots_);
}

void uniform_grid::rebuild(std::span<const vec2> positions) {
    index(positions);
    fill_all();
}

void uniform_grid::rebuild(std::span<const vec2> positions, util::parallel_executor& ex) {
    index(positions, ex);
    fill_all();
}

std::vector<uniform_grid::axis_span> uniform_grid::query_reach(double r) const {
    const double inf = std::numeric_limits<double>::infinity();
    // lowest[i]: the least coordinate in axis bucket i. bucket_index is
    // monotone, so it is a few ulps from i * bucket side.
    const auto m = static_cast<std::size_t>(m_);
    std::vector<double> lowest(m, -inf);
    for (std::int32_t i = 1; i < m_; ++i) {
        double v = static_cast<double>(i) * bucket_side_;
        while (bucket_index(v) >= i) {
            v = std::nextafter(v, -inf);
        }
        while (bucket_index(v) < i) {
            v = std::nextafter(v, inf);
        }
        lowest[static_cast<std::size_t>(i)] = v;
    }
    std::vector<axis_span> reach(m);
    for (std::size_t i = 0; i < m; ++i) {
        const double highest = i + 1 < m ? std::nextafter(lowest[i + 1], -inf) : inf;
        reach[i] = {bucket_index(lowest[i] - r), bucket_index(highest + r)};
    }
    return reach;
}

std::vector<std::uint32_t> uniform_grid::query(vec2 p, double r) const {
    std::vector<std::uint32_t> out;
    for_each_in_radius(p, r, [&](std::uint32_t idx) { out.push_back(idx); });
    return out;
}

}  // namespace manhattan::geom
