/// \file uniform_grid.h
/// Bucketed spatial index over agent positions. Rebuilt once per simulated
/// time step (counting sort, O(n), optionally split over the lanes of an
/// executor); answers "all agents within Euclidean distance r of p" by
/// scanning the covering bucket rectangle. With bucket side ~= R this is the
/// classic O(1 + local density) disk-graph query. Positions are stored
/// bucket-sorted, so a radius query walks contiguous memory instead of
/// indirecting through the item ids.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "geom/vec2.h"
#include "util/parallel.h"

namespace manhattan::geom {

/// Spatial hash over [0, side]^2 with square buckets.
class uniform_grid {
 public:
    /// Buckets are chosen as the finest grid whose bucket side is at least
    /// \p min_bucket_side (so a radius-r query with r <= min_bucket_side
    /// touches at most 3x3 buckets). Throws if arguments are not positive.
    uniform_grid(double side, double min_bucket_side);

    /// How many agents ahead the id scatter and the gather prefetch, in
    /// every lane's slice: far enough that a line fetched from DRAM arrives
    /// before its store or load, near enough that it is still in L1 then.
    /// 8 to 64 ahead read the same at n = 1e5 on a 4-core Xeon VM (2 MB
    /// L2), 0.74-0.97 ms per serial rebuild, against 1.10-1.23 ms without
    /// the prefetch.
    static constexpr std::size_t prefetch_ahead = 16;

    /// Fewest agents per lane for which rebuild(positions, ex) splits the
    /// passes over lanes; below it, it runs the one-lane rebuild. Lanes
    /// scattering small slices write falsely shared lines of the item
    /// array. A kernel probe on the 4-core Xeon VM (each rebuild right after
    /// a 4-lane advance, as in a flood step; median of 300) read the 4-lane
    /// split at 0.92-1.12x the speed of one lane at 12 000 agents per lane,
    /// 0.91-0.96x at 16 000, 1.06-1.17x at 18 000 and 1.23-1.29x at 20 000.
    static constexpr std::size_t min_lane_agents = 18000;

    /// Re-bin all positions: a counting sort in four streaming passes, each
    /// a loop the compiler keeps simple.
    ///  1. The bucket id of every agent, in a loop free of stores to shared
    ///     state, so its divides and clamps vectorise; then the histogram of
    ///     those ids.
    ///  2. One prefix sum, bucket-major and lane-minor, into the CSR offsets
    ///     and every lane's write cursors.
    ///  3. An id-only scatter in ascending agent id: one 4-byte random write
    ///     per agent, not 20 (id and position), with the slot of the agent
    ///     prefetch_ahead places later prefetched for write.
    ///  4. A gather of the positions in slot order: sequential writes and
    ///     random reads, with the read prefetch_ahead slots later prefetched.
    /// Within every bucket, items stay in ascending index order. Scratch
    /// buffers are reused, so steady-state rebuilds allocate nothing.
    /// Indices reported by queries refer to positions in this span.
    /// Positions are copied so the caller may mutate theirs.
    void rebuild(std::span<const vec2> positions);

    /// The same four passes split over the lanes of \p ex: passes 1 and 3
    /// over contiguous index slices, each lane with its own histogram and
    /// cursors; pass 2 serial; pass 4 over contiguous slot slices. The
    /// prefix places lane l's items in every bucket after those of lanes
    /// 0..l-1, and every lane scatters its slice in ascending index, so
    /// within every bucket items stay in ascending index order and the
    /// arrays are bit-identical to rebuild(positions) at any lane count.
    /// With one lane, or fewer than min_lane_agents agents per lane, this
    /// is rebuild(positions).
    void rebuild(std::span<const vec2> positions, util::parallel_executor& ex);

    /// rebuild(positions, ex) without the min_lane_agents rule: the split
    /// passes at any n. Exposed for tests and probes.
    void rebuild_lanes(std::span<const vec2> positions, util::parallel_executor& ex);

    [[nodiscard]] double side() const noexcept { return side_; }
    [[nodiscard]] double bucket_side() const noexcept { return bucket_side_; }
    [[nodiscard]] std::int32_t buckets_per_side() const noexcept { return m_; }
    [[nodiscard]] std::size_t size() const noexcept { return items_.size(); }

    /// Visit the index of every point with dist(point, p) <= r.
    template <typename Fn>
    void for_each_in_radius(vec2 p, double r, Fn&& fn) const {
        const double r2 = r * r;
        visit_buckets(p, r, [&](std::size_t begin, std::size_t end) {
            for (std::size_t k = begin; k < end; ++k) {
                if (dist2(sorted_points_[k], p) <= r2) {
                    fn(items_[k]);
                }
            }
        });
    }

    /// Like for_each_in_radius but stops as soon as \p fn returns true.
    /// Returns whether any invocation returned true.
    template <typename Fn>
    [[nodiscard]] bool any_in_radius(vec2 p, double r, Fn&& fn) const {
        const double r2 = r * r;
        bool found = false;
        visit_buckets_until(p, r, [&](std::size_t begin, std::size_t end) {
            for (std::size_t k = begin; k < end; ++k) {
                if (dist2(sorted_points_[k], p) <= r2 && fn(items_[k])) {
                    found = true;
                    return true;
                }
            }
            return false;
        });
        return found;
    }

    /// Indices of all points within distance r of p (allocating convenience).
    [[nodiscard]] std::vector<std::uint32_t> query(vec2 p, double r) const;

    // ---- bucket metadata for span-based kernels (core/flooding.cpp) ----
    // The counting sort already computes everything a caller needs to build
    // per-bucket occupancy tables; these accessors expose it read-only. All
    // of them reflect the state as of the last rebuild.

    [[nodiscard]] std::size_t bucket_count() const noexcept { return offsets_.size() - 1; }
    /// Bucket holding input point \p i (i indexes the span passed to rebuild).
    [[nodiscard]] std::uint32_t bucket_of_item(std::size_t i) const noexcept {
        return bucket_of_[i];
    }
    /// Item-range bounds of bucket \p b (indices into items()/sorted_points()).
    [[nodiscard]] std::size_t bucket_begin(std::size_t b) const noexcept { return offsets_[b]; }
    [[nodiscard]] std::size_t bucket_end(std::size_t b) const noexcept {
        return offsets_[b + 1];
    }
    /// Input indices grouped by bucket / their positions, bucket-sorted.
    [[nodiscard]] std::span<const std::uint32_t> items() const noexcept { return items_; }
    [[nodiscard]] std::span<const vec2> sorted_points() const noexcept {
        return sorted_points_;
    }

    /// Visit the covering bucket rectangle of a radius-r query around \p p in
    /// row-major order, as fn(bucket id, item begin, item end) — the same
    /// ranges (and order) for_each_in_radius scans, with the bucket id
    /// exposed so kernels can consult per-bucket occupancy tables first.
    /// Stops early when \p fn returns true; returns whether any call did.
    template <typename Fn>
    bool visit_covering_buckets(vec2 p, double r, Fn&& fn) const {
        const std::int32_t x0 = bucket_index(p.x - r);
        const std::int32_t x1 = bucket_index(p.x + r);
        const std::int32_t y0 = bucket_index(p.y - r);
        const std::int32_t y1 = bucket_index(p.y + r);
        for (std::int32_t by = y0; by <= y1; ++by) {
            const std::size_t row = static_cast<std::size_t>(by) * static_cast<std::size_t>(m_);
            for (std::int32_t bx = x0; bx <= x1; ++bx) {
                const std::size_t b = row + static_cast<std::size_t>(bx);
                if (fn(b, offsets_[b], offsets_[b + 1])) {
                    return true;
                }
            }
        }
        return false;
    }

 private:
    /// Bucket along one axis of coordinate \p v, for buckets of side \p bucket
    /// and \p top = buckets per side - 1. The one definition of the clamp,
    /// shared by the rebuild's id pass and by the queries. It clamps in
    /// double before the cast, which is undefined outside the int32 range; a
    /// NaN lands in bucket 0. On the clamped, non-negative quotient the
    /// cast's truncation equals floor, so every in-range bucket is kept.
    [[nodiscard]] static std::int32_t axis_bucket(double v, double bucket,
                                                  double top) noexcept {
        const double q = v / bucket;
        return static_cast<std::int32_t>(q > 0.0 ? std::min(q, top) : 0.0);
    }
    [[nodiscard]] std::int32_t bucket_index(double v) const noexcept {
        return axis_bucket(v, bucket_side_, static_cast<double>(m_ - 1));
    }

    // The four passes (see rebuild). A lane's histogram, then its cursors,
    // are its row of lane_cursor_.
    void count_buckets(std::span<const vec2> positions, std::size_t lane, std::size_t begin,
                       std::size_t end) noexcept;
    void place_lanes(std::size_t lanes) noexcept;
    void scatter_ids(std::size_t lane, std::size_t begin, std::size_t end) noexcept;
    void gather_points(std::span<const vec2> positions, std::size_t begin,
                       std::size_t end) noexcept;
    void resize_scratch(std::size_t n, std::size_t lanes);

    template <typename Fn>
    void visit_buckets(vec2 p, double r, Fn&& fn) const {
        const std::int32_t x0 = bucket_index(p.x - r);
        const std::int32_t x1 = bucket_index(p.x + r);
        const std::int32_t y0 = bucket_index(p.y - r);
        const std::int32_t y1 = bucket_index(p.y + r);
        for (std::int32_t by = y0; by <= y1; ++by) {
            const std::size_t row = static_cast<std::size_t>(by) * static_cast<std::size_t>(m_);
            for (std::int32_t bx = x0; bx <= x1; ++bx) {
                const std::size_t b = row + static_cast<std::size_t>(bx);
                fn(offsets_[b], offsets_[b + 1]);
            }
        }
    }

    template <typename Fn>
    void visit_buckets_until(vec2 p, double r, Fn&& fn) const {
        const std::int32_t x0 = bucket_index(p.x - r);
        const std::int32_t x1 = bucket_index(p.x + r);
        const std::int32_t y0 = bucket_index(p.y - r);
        const std::int32_t y1 = bucket_index(p.y + r);
        for (std::int32_t by = y0; by <= y1; ++by) {
            const std::size_t row = static_cast<std::size_t>(by) * static_cast<std::size_t>(m_);
            for (std::int32_t bx = x0; bx <= x1; ++bx) {
                const std::size_t b = row + static_cast<std::size_t>(bx);
                if (fn(offsets_[b], offsets_[b + 1])) {
                    return;
                }
            }
        }
    }

    double side_;
    double bucket_side_;
    std::int32_t m_;
    std::vector<vec2> sorted_points_;    // position copies grouped by bucket (item order)
    std::vector<std::size_t> offsets_;   // CSR offsets, size m*m+1
    std::vector<std::uint32_t> items_;   // point indices grouped by bucket
    // Rebuild scratch, reused across steps (the per-step hot path must not
    // allocate):
    std::vector<std::uint32_t> bucket_of_;    // bucket of every input point
    std::vector<std::uint32_t> lane_cursor_;  // lane-major histograms, then cursors
};

}  // namespace manhattan::geom
