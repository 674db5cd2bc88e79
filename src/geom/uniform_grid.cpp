#include "geom/uniform_grid.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace manhattan::geom {

namespace {

// A cache hint for the serial scatter (for_write) and gather; a no-op
// where the GNU builtin is missing.
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

void uniform_grid::assign_buckets(std::span<const vec2> positions, std::size_t begin,
                                  std::size_t end) noexcept {
    // Constants in locals and no store the compiler must assume aliases
    // them: the loop vectorises (two divides, two clamps, two casts per
    // agent).
    const double bucket = bucket_side_;
    const double top = static_cast<double>(m_ - 1);
    const std::uint32_t m = static_cast<std::uint32_t>(m_);
    const vec2* p = positions.data();
    std::uint32_t* ids = bucket_of_.data();
    for (std::size_t i = begin; i < end; ++i) {
        ids[i] = static_cast<std::uint32_t>(axis_bucket(p[i].y, bucket, top)) * m +
                 static_cast<std::uint32_t>(axis_bucket(p[i].x, bucket, top));
    }
}

void uniform_grid::rebuild(std::span<const vec2> positions) {
    const std::size_t n = positions.size();
    const std::size_t bucket_count =
        static_cast<std::size_t>(m_) * static_cast<std::size_t>(m_);
    offsets_.assign(bucket_count + 1, 0);
    items_.resize(n);
    sorted_points_.resize(n);
    bucket_of_.resize(n);

    // Pass 1: bucket ids. Pass 2: histogram and prefix sum.
    assign_buckets(positions, 0, n);
    const std::uint32_t* ids = bucket_of_.data();
    std::size_t* counts = offsets_.data() + 1;
    for (std::size_t i = 0; i < n; ++i) {
        ++counts[ids[i]];
    }
    for (std::size_t b = 0; b < bucket_count; ++b) {
        offsets_[b + 1] += offsets_[b];
    }
    cursor_.assign(offsets_.begin(), offsets_.end() - 1);

    // Pass 3: scatter the ids alone in ascending i, so every bucket fills
    // in ascending index order. A cursor read early may still move before
    // agent i + ahead is placed, but only within its bucket's range, so the
    // prefetched line is the one written or a neighbour of it.
    constexpr std::size_t ahead = prefetch_ahead;
    std::size_t* cursor = cursor_.data();
    std::uint32_t* items = items_.data();
    std::size_t i = 0;
    for (; i + ahead < n; ++i) {
        prefetch<true>(items + cursor[ids[i + ahead]]);
        items[cursor[ids[i]]++] = static_cast<std::uint32_t>(i);
    }
    for (; i < n; ++i) {
        items[cursor[ids[i]]++] = static_cast<std::uint32_t>(i);
    }

    // Pass 4: gather the positions in slot order.
    const vec2* from = positions.data();
    vec2* to = sorted_points_.data();
    std::size_t s = 0;
    for (; s + ahead < n; ++s) {
        prefetch<false>(from + items[s + ahead]);
        to[s] = from[items[s]];
    }
    for (; s < n; ++s) {
        to[s] = from[items[s]];
    }
}

void uniform_grid::rebuild(std::span<const vec2> positions, util::parallel_executor& ex) {
    const std::size_t lanes = ex.lanes();
    const std::size_t n = positions.size();
    if (lanes <= 1 || n < 2 * lanes) {
        rebuild(positions);
        return;
    }
    const std::size_t bucket_count =
        static_cast<std::size_t>(m_) * static_cast<std::size_t>(m_);
    items_.resize(n);
    sorted_points_.resize(n);
    bucket_of_.resize(n);
    cursor_.resize(bucket_count);
    lane_hist_.resize(lanes * bucket_count);

    // Per-lane bucket ids and histograms over contiguous index slices.
    // n >= 2 * lanes, so every lane runs and zeroes its own histogram.
    ex.run(n, [&](std::size_t lane, std::size_t begin, std::size_t end) {
        std::size_t* hist = lane_hist_.data() + lane * bucket_count;
        std::fill_n(hist, bucket_count, std::size_t{0});
        assign_buckets(positions, begin, end);
        for (std::size_t i = begin; i < end; ++i) {
            ++hist[bucket_of_[i]];
        }
    });

    // Column sum of the lane histograms, prefix-summed into the CSR offsets.
    std::copy_n(lane_hist_.begin(), bucket_count, offsets_.begin() + 1);
    for (std::size_t lane = 1; lane < lanes; ++lane) {
        const std::size_t* hist = lane_hist_.data() + lane * bucket_count;
        for (std::size_t b = 0; b < bucket_count; ++b) {
            offsets_[b + 1] += hist[b];
        }
    }
    offsets_[0] = 0;
    std::partial_sum(offsets_.begin(), offsets_.end(), offsets_.begin());

    // Owner-computes scatter. Lane l owns the buckets whose slots start in
    // [lane_begin(n, l), lane_begin(n, l + 1)): one contiguous slot range of
    // about n / lanes. Each lane reads every bucket id in ascending index
    // order and writes only its own buckets, so every bucket has a single
    // writer filling it in ascending index order (the serial sort's arrays),
    // and lanes share output cache lines only where their spans meet.
    const auto first_owned = [&](std::size_t lane) {
        const std::size_t slot = ex.lane_begin(n, lane);
        return static_cast<std::size_t>(
            std::lower_bound(offsets_.begin(), offsets_.end(), slot) - offsets_.begin());
    };
    ex.run(lanes, [&](std::size_t lane, std::size_t, std::size_t) {
        const std::size_t first = first_owned(lane);
        const std::size_t owned = first_owned(lane + 1) - first;
        std::copy_n(offsets_.begin() + first, owned, cursor_.begin() + first);
        for (std::size_t i = 0; i < n; ++i) {
            const std::size_t b = bucket_of_[i];
            // One unsigned compare (b < first wraps around): a single,
            // cheaper branch than testing both ends of the span.
            if (b - first < owned) {
                const std::size_t slot = cursor_[b]++;
                items_[slot] = static_cast<std::uint32_t>(i);
                sorted_points_[slot] = positions[i];
            }
        }
    });
}

std::vector<std::uint32_t> uniform_grid::query(vec2 p, double r) const {
    std::vector<std::uint32_t> out;
    for_each_in_radius(p, r, [&](std::uint32_t idx) { out.push_back(idx); });
    return out;
}

}  // namespace manhattan::geom
