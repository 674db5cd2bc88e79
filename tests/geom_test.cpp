// Unit tests for the geom module: vec2 metrics, rect geometry, the cell grid
// of Section 4, and brute-force cross-validation of the uniform_grid spatial
// index (the engine behind every disk-graph query).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "engine/thread_pool.h"
#include "geom/grid_spec.h"
#include "geom/rect.h"
#include "geom/uniform_grid.h"
#include "geom/vec2.h"
#include "rng/rng.h"
#include "util/parallel.h"

namespace {

using manhattan::geom::cell_coord;
using manhattan::geom::grid_spec;
using manhattan::geom::rect;
using manhattan::geom::uniform_grid;
using manhattan::geom::vec2;

TEST(vec2_test, arithmetic) {
    const vec2 a{1.0, 2.0};
    const vec2 b{3.0, -4.0};
    EXPECT_EQ(a + b, (vec2{4.0, -2.0}));
    EXPECT_EQ(a - b, (vec2{-2.0, 6.0}));
    EXPECT_EQ(a * 2.0, (vec2{2.0, 4.0}));
    EXPECT_EQ(2.0 * a, (vec2{2.0, 4.0}));
}

TEST(vec2_test, compound_assignment) {
    vec2 a{1.0, 1.0};
    a += {2.0, 3.0};
    EXPECT_EQ(a, (vec2{3.0, 4.0}));
    a -= {1.0, 1.0};
    EXPECT_EQ(a, (vec2{2.0, 3.0}));
    a *= 0.5;
    EXPECT_EQ(a, (vec2{1.0, 1.5}));
}

TEST(vec2_test, metrics) {
    const vec2 a{0.0, 0.0};
    const vec2 b{3.0, 4.0};
    EXPECT_DOUBLE_EQ(manhattan::geom::dist(a, b), 5.0);
    EXPECT_DOUBLE_EQ(manhattan::geom::dist2(a, b), 25.0);
    EXPECT_DOUBLE_EQ(manhattan::geom::manhattan_dist(a, b), 7.0);
    EXPECT_DOUBLE_EQ(manhattan::geom::chebyshev_dist(a, b), 4.0);
}

TEST(vec2_test, metric_ordering_l1_ge_l2_ge_linf) {
    manhattan::rng::rng g{9};
    for (int i = 0; i < 1000; ++i) {
        const vec2 a{g.uniform(-10, 10), g.uniform(-10, 10)};
        const vec2 b{g.uniform(-10, 10), g.uniform(-10, 10)};
        const double l1 = manhattan::geom::manhattan_dist(a, b);
        const double l2 = manhattan::geom::dist(a, b);
        const double li = manhattan::geom::chebyshev_dist(a, b);
        ASSERT_GE(l1 + 1e-12, l2);
        ASSERT_GE(l2 + 1e-12, li);
    }
}

TEST(rect_test, make_validates) {
    EXPECT_NO_THROW(rect::make({0, 0}, {1, 1}));
    EXPECT_THROW((void)rect::make({1, 0}, {0, 1}), std::invalid_argument);
    EXPECT_THROW((void)rect::make({0, 1}, {1, 0}), std::invalid_argument);
}

TEST(rect_test, basic_geometry) {
    const rect r = rect::make({1, 2}, {4, 8});
    EXPECT_DOUBLE_EQ(r.width(), 3.0);
    EXPECT_DOUBLE_EQ(r.height(), 6.0);
    EXPECT_DOUBLE_EQ(r.area(), 18.0);
    EXPECT_EQ(r.center(), (vec2{2.5, 5.0}));
}

TEST(rect_test, contains_is_closed) {
    const rect r = rect::make({0, 0}, {1, 1});
    EXPECT_TRUE(r.contains({0, 0}));
    EXPECT_TRUE(r.contains({1, 1}));
    EXPECT_TRUE(r.contains({0.5, 0.5}));
    EXPECT_FALSE(r.contains({1.000001, 0.5}));
    EXPECT_FALSE(r.contains({0.5, -0.000001}));
}

TEST(rect_test, clamp_projects_to_nearest_point) {
    const rect r = rect::make({0, 0}, {2, 2});
    EXPECT_EQ(r.clamp({-1, 1}), (vec2{0, 1}));
    EXPECT_EQ(r.clamp({3, 3}), (vec2{2, 2}));
    EXPECT_EQ(r.clamp({1, 1}), (vec2{1, 1}));
}

TEST(rect_test, shrunk_core_is_centered_third) {
    const rect cell = rect::make({3, 3}, {6, 6});
    const rect core = cell.shrunk(1.0 / 3.0);
    EXPECT_DOUBLE_EQ(core.width(), 1.0);
    EXPECT_DOUBLE_EQ(core.height(), 1.0);
    EXPECT_EQ(core.center(), cell.center());
    EXPECT_THROW((void)cell.shrunk(0.0), std::invalid_argument);
    EXPECT_THROW((void)cell.shrunk(1.5), std::invalid_argument);
}

TEST(rect_test, manhattan_distance_to) {
    const rect r = rect::make({0, 0}, {1, 1});
    EXPECT_DOUBLE_EQ(r.manhattan_distance_to({0.5, 0.5}), 0.0);
    EXPECT_DOUBLE_EQ(r.manhattan_distance_to({2.0, 0.5}), 1.0);
    EXPECT_DOUBLE_EQ(r.manhattan_distance_to({2.0, 3.0}), 3.0);   // 1 + 2
    EXPECT_DOUBLE_EQ(r.manhattan_distance_to({-1.0, -1.0}), 2.0); // corner
}

TEST(rect_test, intersects) {
    const rect r = rect::make({0, 0}, {2, 2});
    EXPECT_TRUE(r.intersects(rect::make({1, 1}, {3, 3})));
    EXPECT_TRUE(r.intersects(rect::make({2, 2}, {3, 3})));  // touching corner
    EXPECT_FALSE(r.intersects(rect::make({2.1, 0}, {3, 1})));
}

TEST(grid_spec_test, construction_validates) {
    EXPECT_THROW((void)grid_spec(0.0, 4), std::invalid_argument);
    EXPECT_THROW((void)grid_spec(-1.0, 4), std::invalid_argument);
    EXPECT_THROW((void)grid_spec(10.0, 0), std::invalid_argument);
}

TEST(grid_spec_test, cell_of_maps_interior_points) {
    const grid_spec g(10.0, 5);  // cell side 2
    EXPECT_EQ(g.cell_of({0.5, 0.5}), (cell_coord{0, 0}));
    EXPECT_EQ(g.cell_of({9.5, 0.5}), (cell_coord{4, 0}));
    EXPECT_EQ(g.cell_of({5.0, 5.0}), (cell_coord{2, 2}));
}

TEST(grid_spec_test, border_points_clamp_into_grid) {
    const grid_spec g(10.0, 5);
    EXPECT_EQ(g.cell_of({10.0, 10.0}), (cell_coord{4, 4}));
    EXPECT_EQ(g.cell_of({-0.1, 10.5}), (cell_coord{0, 4}));
}

TEST(grid_spec_test, id_coord_roundtrip) {
    const grid_spec g(7.0, 9);
    for (std::size_t id = 0; id < g.cell_count(); ++id) {
        EXPECT_EQ(g.id_of(g.coord_of(id)), id);
    }
}

TEST(grid_spec_test, rect_of_tiles_the_square) {
    const grid_spec g(6.0, 3);
    double total_area = 0.0;
    for (std::size_t id = 0; id < g.cell_count(); ++id) {
        total_area += g.rect_of(g.coord_of(id)).area();
    }
    EXPECT_NEAR(total_area, 36.0, 1e-9);
    EXPECT_THROW((void)g.rect_of({3, 0}), std::out_of_range);
}

TEST(grid_spec_test, rect_of_contains_its_cell_points) {
    const grid_spec g(10.0, 7);
    manhattan::rng::rng rnd{4};
    for (int i = 0; i < 1000; ++i) {
        const vec2 p{rnd.uniform(0, 10), rnd.uniform(0, 10)};
        EXPECT_TRUE(g.rect_of(g.cell_of(p)).contains(p));
    }
}

TEST(grid_spec_test, orthogonal_neighbor_counts) {
    const grid_spec g(10.0, 4);
    EXPECT_EQ(g.orthogonal_neighbors({0, 0}).size(), 2u);    // corner
    EXPECT_EQ(g.orthogonal_neighbors({1, 0}).size(), 3u);    // edge
    EXPECT_EQ(g.orthogonal_neighbors({1, 1}).size(), 4u);    // interior
}

TEST(grid_spec_test, surrounding_counts) {
    const grid_spec g(10.0, 4);
    EXPECT_EQ(g.surrounding({0, 0}).size(), 3u);
    EXPECT_EQ(g.surrounding({1, 0}).size(), 5u);
    EXPECT_EQ(g.surrounding({2, 2}).size(), 8u);
}

/// Bit pattern of a position, so equal-comparing but distinct doubles
/// (-0.0 and 0.0) cannot hide a difference.
std::pair<std::uint64_t, std::uint64_t> bits(vec2 p) {
    return {std::bit_cast<std::uint64_t>(p.x), std::bit_cast<std::uint64_t>(p.y)};
}

/// Whole-array equality of two rebuilt grids: every bucket range, every
/// item and the bits of every sorted position.
void expect_same_arrays(const uniform_grid& got, const uniform_grid& want) {
    ASSERT_EQ(got.bucket_count(), want.bucket_count());
    for (std::size_t b = 0; b < want.bucket_count(); ++b) {
        ASSERT_EQ(got.bucket_begin(b), want.bucket_begin(b)) << "bucket " << b;
        ASSERT_EQ(got.bucket_end(b), want.bucket_end(b)) << "bucket " << b;
    }
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t k = 0; k < want.size(); ++k) {
        ASSERT_EQ(got.items()[k], want.items()[k]) << "slot " << k;
        ASSERT_EQ(bits(got.sorted_points()[k]), bits(want.sorted_points()[k])) << "slot " << k;
    }
}

/// One rebuild input on a 50 x 50 square.
struct rebuild_input {
    std::string name;
    double bucket;
    std::vector<vec2> pts;
};

/// The input shapes the lane split must handle at \p lanes lanes.
std::vector<rebuild_input> rebuild_inputs(std::size_t lanes) {
    manhattan::rng::rng gen(404 + lanes);
    const auto uniform = [&](std::size_t n, double lo, double hi) {
        std::vector<vec2> pts(n);
        for (auto& p : pts) {
            p = {gen.uniform(lo, hi), gen.uniform(lo, hi)};
        }
        return pts;
    };
    std::vector<rebuild_input> inputs;
    inputs.push_back({"uniform", 4.0, uniform(5000, 0.0, 50.0)});
    // Bucket (6, 6) of a 12 x 12 grid: every lane writes into one bucket.
    inputs.push_back({"one bucket", 4.0, uniform(1000, 25.5, 29.0)});
    std::vector<vec2> corner = uniform(1000, 0.0, 4.0);
    const std::vector<vec2> rest = uniform(1000, 0.0, 50.0);
    corner.insert(corner.end(), rest.begin(), rest.end());
    inputs.push_back({"half in a corner bucket", 4.0, corner});
    std::vector<vec2> edges = {{0.0, 0.0}, {50.0, 0.0}, {0.0, 50.0}, {50.0, 50.0}};
    for (int k = 0; k < 1000; ++k) {
        const double t = gen.uniform(0.0, 50.0);
        const vec2 on_edge[] = {{0.0, t}, {50.0, t}, {t, 0.0}, {t, 50.0}};
        edges.push_back(on_edge[k % 4]);
    }
    inputs.push_back({"on the edges", 4.0, edges});
    inputs.push_back({"n = 2 * lanes", 4.0, uniform(2 * lanes, 0.0, 50.0)});
    std::vector<vec2> centre = uniform(3000, 24.0, 26.0);
    const std::vector<vec2> suburb = uniform(1000, 0.0, 50.0);
    centre.insert(centre.end(), suburb.begin(), suburb.end());
    inputs.push_back({"dense centre, fine grid", 0.5, centre});
    return inputs;
}

TEST(uniform_grid_test, parallel_rebuild_matches_serial_bit_for_bit) {
    // The lane split must reproduce the serial counting sort array for
    // array (same bucket ranges, same item order within every bucket, same
    // position bits) at any lane count, including inputs where every lane
    // writes into the same bucket. index_lanes runs the split at these
    // sizes, below min_lane_agents.
    for (const std::size_t threads : {2u, 3u, 4u, 8u}) {
        manhattan::engine::thread_pool pool(threads);
        ASSERT_EQ(pool.executor().lanes(), threads);
        for (const rebuild_input& in : rebuild_inputs(threads)) {
            SCOPED_TRACE("threads=" + std::to_string(threads) + ", " + in.name);
            uniform_grid serial(50.0, in.bucket);
            serial.rebuild(in.pts);
            // Rebuild the reversed input first, so buffers left over from
            // a previous rebuild would show.
            uniform_grid parallel(50.0, in.bucket);
            const std::vector<vec2> reversed(in.pts.rbegin(), in.pts.rend());
            parallel.index_lanes(reversed, pool.executor());
            parallel.fill_all();
            parallel.index_lanes(in.pts, pool.executor());
            parallel.fill_all();
            expect_same_arrays(parallel, serial);
        }
    }
}

TEST(uniform_grid_test, serial_executor_rebuild_matches_plain_rebuild) {
    manhattan::util::serial_executor ex;
    const std::vector<vec2> pts = {{1, 1}, {9, 9}, {1.2, 1.1}, {5, 5}, {9.5, 9.5}};
    uniform_grid a(10.0, 2.0);
    uniform_grid b(10.0, 2.0);
    a.rebuild(pts);
    b.rebuild(pts, ex);
    for (const auto& p : pts) {
        EXPECT_EQ(a.query(p, 2.5), b.query(p, 2.5));
    }
}

/// The bucket a rebuild must give \p p, from the definition: per axis,
/// floor(coordinate / bucket side) clamped to [0, m - 1], a NaN in bucket
/// 0, and rows of m buckets.
std::uint32_t oracle_bucket(const uniform_grid& g, vec2 p) {
    const double top = g.buckets_per_side() - 1;
    const auto axis = [&](double v) {
        const double q = std::floor(v / g.bucket_side());
        return std::isnan(q) || q < 0.0 ? 0.0 : std::min(q, top);
    };
    return static_cast<std::uint32_t>(axis(p.y)) *
               static_cast<std::uint32_t>(g.buckets_per_side()) +
           static_cast<std::uint32_t>(axis(p.x));
}

/// Every array of \p g after rebuild(pts), against a stable sort of the
/// indices by oracle_bucket.
void expect_oracle_arrays(const uniform_grid& g, const std::vector<vec2>& pts) {
    ASSERT_EQ(g.size(), pts.size());
    std::vector<std::uint32_t> bucket(pts.size());
    std::vector<std::size_t> count(g.bucket_count(), 0);
    for (std::size_t i = 0; i < pts.size(); ++i) {
        bucket[i] = oracle_bucket(g, pts[i]);
        ASSERT_LT(bucket[i], g.bucket_count());
        ++count[bucket[i]];
        ASSERT_EQ(g.bucket_of_item(i), bucket[i]) << "point " << i;
    }
    std::vector<std::uint32_t> items(pts.size());
    std::iota(items.begin(), items.end(), 0u);
    std::stable_sort(items.begin(), items.end(),
                     [&](std::uint32_t a, std::uint32_t b) { return bucket[a] < bucket[b]; });
    for (std::size_t k = 0; k < items.size(); ++k) {
        ASSERT_EQ(g.items()[k], items[k]) << "slot " << k;
        ASSERT_EQ(bits(g.sorted_points()[k]), bits(pts[items[k]])) << "slot " << k;
    }
    std::size_t begin = 0;
    for (std::size_t b = 0; b < g.bucket_count(); ++b) {
        ASSERT_EQ(g.bucket_begin(b), begin) << "bucket " << b;
        begin += count[b];
        ASSERT_EQ(g.bucket_end(b), begin) << "bucket " << b;
    }
}

constexpr double oracle_side = 50.0;

/// \p n points drawn uniformly over the oracle tests' square.
std::vector<vec2> uniform_points(manhattan::rng::rng& gen, std::size_t n) {
    std::vector<vec2> pts(n);
    for (auto& p : pts) {
        p = {gen.uniform(0.0, oracle_side), gen.uniform(0.0, oracle_side)};
    }
    return pts;
}

/// The inputs every rebuild must sort like the oracle: the clamp's edges,
/// points outside the square, the lane-split shapes and the sizes around
/// the prefetch distance.
std::vector<rebuild_input> oracle_inputs() {
    constexpr double side = oracle_side;
    constexpr std::size_t ahead = uniform_grid::prefetch_ahead;
    const double bucket = uniform_grid(side, 4.0).bucket_side();
    const double inf = std::numeric_limits<double>::infinity();

    // First the right edge and just past it, below the top row: without
    // the upper clamp these points would land in the next row's first
    // bucket, a wrong bucket but a valid index.
    std::vector<vec2> right_edge;
    for (const double y : {0.0, 10.0, 25.0}) {
        for (const double x : {side, std::nextafter(side, inf), side + 1.0}) {
            right_edge.push_back({x, y});
        }
    }
    std::vector<rebuild_input> inputs = {{"on the right edge", 4.0, right_edge}};

    // The clamp's edges on either axis: first 0, the side, every multiple
    // of the bucket side and one ulp below it; then also points outside
    // the square, NaN and the infinities.
    std::vector<double> coords = {0.0, -0.0, side};
    for (int k = 0; k <= 12; ++k) {
        coords.push_back(k * bucket);
        coords.push_back(std::nextafter(k * bucket, -inf));
    }
    const auto product = [&] {
        std::vector<vec2> pts;
        for (const double x : coords) {
            for (const double y : coords) {
                pts.push_back({x, y});
            }
        }
        return pts;
    };
    inputs.push_back({"on the bucket lines", 4.0, product()});
    coords.insert(coords.end(), {-1.0, -1e-300, std::nextafter(side, inf), side + 1.0,
                                 13 * bucket, 1e300, -1e300, std::nan(""), inf, -inf});
    inputs.push_back({"outside the square", 4.0, product()});
    for (rebuild_input& in : rebuild_inputs(4)) {
        inputs.push_back(std::move(in));
    }

    // Sizes around the prefetch distance: the passes' main loops run for
    // none, some or all but the tail.
    manhattan::rng::rng gen(405);
    for (const std::size_t n : {std::size_t{0}, std::size_t{1}, ahead - 1, ahead, ahead + 1,
                                2 * ahead + 1}) {
        inputs.push_back({"n = " + std::to_string(n), 4.0, uniform_points(gen, n)});
    }
    inputs.push_back({"one spot", 4.0, std::vector<vec2>(3 * ahead + 5, vec2{21.0, 37.5})});
    return inputs;
}

/// A longer, reversed copy of \p pts, to rebuild first so that stale
/// scratch would show.
std::vector<vec2> longer_reversed(manhattan::rng::rng& gen, const std::vector<vec2>& pts) {
    std::vector<vec2> longer(pts.rbegin(), pts.rend());
    const std::vector<vec2> more = uniform_points(gen, 2 * uniform_grid::prefetch_ahead + 3);
    longer.insert(longer.end(), more.begin(), more.end());
    return longer;
}

TEST(uniform_grid_test, serial_rebuild_matches_a_stable_sort_oracle) {
    manhattan::rng::rng gen(406);
    for (const rebuild_input& in : oracle_inputs()) {
        SCOPED_TRACE(in.name);
        uniform_grid g(oracle_side, in.bucket);
        g.rebuild(longer_reversed(gen, in.pts));
        g.rebuild(in.pts);
        ASSERT_NO_FATAL_FAILURE(expect_oracle_arrays(g, in.pts));
    }
}

TEST(uniform_grid_test, lane_rebuild_matches_a_stable_sort_oracle) {
    // Every oracle input through the lane split, plus sizes where each
    // lane's slice sits around the prefetch distance, so each lane's main
    // loops and tails both run; then rebuild(pts, ex) on both sides of the
    // one-lane minimum.
    constexpr std::size_t ahead = uniform_grid::prefetch_ahead;
    manhattan::rng::rng gen(407);
    for (const std::size_t lanes : {2u, 3u, 4u, 8u}) {
        manhattan::engine::thread_pool pool(lanes);
        manhattan::util::parallel_executor& ex = pool.executor();
        ASSERT_EQ(ex.lanes(), lanes);
        std::vector<rebuild_input> inputs = oracle_inputs();
        for (const std::size_t n : {lanes * ahead - 1, lanes * ahead, lanes * ahead + 1}) {
            inputs.push_back({"n = " + std::to_string(n), 4.0, uniform_points(gen, n)});
        }
        for (const rebuild_input& in : inputs) {
            SCOPED_TRACE("lanes=" + std::to_string(lanes) + ", " + in.name);
            uniform_grid g(oracle_side, in.bucket);
            const std::vector<vec2> longer = longer_reversed(gen, in.pts);
            g.index_lanes(longer, ex);
            g.fill_all();
            g.index_lanes(in.pts, ex);
            g.fill_all();
            ASSERT_NO_FATAL_FAILURE(expect_oracle_arrays(g, in.pts));
        }
        const std::size_t least = uniform_grid::min_lane_agents * lanes;
        for (const std::size_t n : {least - 1, least}) {
            SCOPED_TRACE("lanes=" + std::to_string(lanes) + ", n = " + std::to_string(n));
            const std::vector<vec2> pts = uniform_points(gen, n);
            uniform_grid g(oracle_side, 4.0);
            g.rebuild(longer_reversed(gen, pts), ex);
            g.rebuild(pts, ex);
            ASSERT_NO_FATAL_FAILURE(expect_oracle_arrays(g, pts));
        }
    }
}

/// The bucket ranges of \p got and \p want, and the items and position
/// bits of every bucket b with filled[b] != 0.
void expect_same_filled_buckets(const uniform_grid& got, const uniform_grid& want,
                                const std::vector<std::uint8_t>& filled) {
    ASSERT_EQ(got.bucket_count(), want.bucket_count());
    for (std::size_t b = 0; b < want.bucket_count(); ++b) {
        ASSERT_EQ(got.bucket_begin(b), want.bucket_begin(b)) << "bucket " << b;
        ASSERT_EQ(got.bucket_end(b), want.bucket_end(b)) << "bucket " << b;
        if (filled[b] == 0) {
            continue;
        }
        for (std::size_t k = want.bucket_begin(b); k < want.bucket_end(b); ++k) {
            ASSERT_EQ(got.items()[k], want.items()[k]) << "bucket " << b << ", slot " << k;
            ASSERT_EQ(bits(got.sorted_points()[k]), bits(want.sorted_points()[k]))
                << "bucket " << b << ", slot " << k;
        }
    }
}

TEST(uniform_grid_test, masked_fills_match_rebuild_on_every_filled_bucket) {
    // index, then fill(mask) three times with fresh random masks, then
    // fill_all: after every call each bucket a mask named so far must hold
    // what rebuild gives it, bit for bit, at one lane (no executor) and
    // split over 2 and 4 lanes, for sparse and dense masks. Each grid first
    // holds the sort of another input, so a bucket a fill skipped would
    // show.
    manhattan::rng::rng gen(408);
    for (const std::size_t lanes : {1u, 2u, 4u}) {
        manhattan::engine::thread_pool pool(lanes);
        for (const rebuild_input& in : rebuild_inputs(lanes)) {
            uniform_grid want(oracle_side, in.bucket);
            want.rebuild(in.pts);
            const std::vector<vec2> stale = longer_reversed(gen, in.pts);
            for (const double density : {0.02, 0.1, 0.3, 0.9}) {
                SCOPED_TRACE("lanes=" + std::to_string(lanes) + ", " + in.name +
                             ", density " + std::to_string(density));
                uniform_grid g(oracle_side, in.bucket);
                const auto index = [&](const std::vector<vec2>& pts) {
                    if (lanes == 1) {
                        g.index(pts);
                    } else {
                        g.index_lanes(pts, pool.executor());
                    }
                };
                index(stale);
                g.fill_all();
                index(in.pts);
                std::vector<std::uint8_t> filled(g.bucket_count(), 0);
                std::vector<std::uint8_t> mask(g.bucket_count());
                for (int round = 0; round < 3; ++round) {
                    for (std::size_t b = 0; b < mask.size(); ++b) {
                        mask[b] = gen.uniform(0.0, 1.0) < density ? 1 : 0;
                        filled[b] |= mask[b];
                    }
                    g.fill(mask);
                    ASSERT_NO_FATAL_FAILURE(expect_same_filled_buckets(g, want, filled));
                }
                g.fill_all();
                ASSERT_NO_FATAL_FAILURE(expect_same_arrays(g, want));
            }
        }
    }
}

TEST(uniform_grid_test, query_reach_holds_every_covering_bucket) {
    // Every radius-r query from a point of axis bucket i covers buckets
    // inside query_reach(r)[i], on bucket lines and one ulp either side of
    // them included; and with r below the bucket side the reach is the
    // clamped i - 1 .. i + 1.
    const double inf = std::numeric_limits<double>::infinity();
    for (const auto& [side, bucket, r] : {std::tuple{50.0, 4.0, 4.0}, std::tuple{100.0, 5.0, 5.0},
                                          std::tuple{141.42, 3.147, 3.147},
                                          std::tuple{50.0, 4.0, 2.5}}) {
        SCOPED_TRACE("side " + std::to_string(side) + ", r " + std::to_string(r));
        const uniform_grid g(side, bucket);
        const auto reach = g.query_reach(r);
        ASSERT_EQ(reach.size(), static_cast<std::size_t>(g.buckets_per_side()));
        std::vector<double> coords = {-1.0, 0.0, side, side + 1.0, inf, -inf, std::nan("")};
        for (int k = 0; k <= g.buckets_per_side(); ++k) {
            const double line = k * g.bucket_side();
            coords.insert(coords.end(), {std::nextafter(line, -inf), line, std::nextafter(line, inf),
                                         line + 0.5 * g.bucket_side()});
        }
        for (const double v : coords) {
            uniform_grid one(side, bucket);
            const std::vector<vec2> pts = {{v, v}};
            one.rebuild(pts);
            const std::size_t b = one.bucket_of_item(0);
            const auto i = static_cast<std::size_t>(b) % reach.size();
            one.visit_covering_buckets(pts[0], r, [&](std::size_t c, std::size_t, std::size_t) {
                const auto x = static_cast<std::int32_t>(c % reach.size());
                EXPECT_GE(x, reach[i].first) << "v " << v;
                EXPECT_LE(x, reach[i].last) << "v " << v;
                return false;
            });
        }
        if (r < g.bucket_side()) {
            const auto top = static_cast<std::int32_t>(reach.size()) - 1;
            for (std::int32_t i = 0; i <= top; ++i) {
                EXPECT_EQ(reach[static_cast<std::size_t>(i)].first, std::max(i - 1, 0));
                EXPECT_EQ(reach[static_cast<std::size_t>(i)].last, std::min(i + 1, top));
            }
        }
    }
}

TEST(uniform_grid_test, construction_validates) {
    EXPECT_THROW((void)uniform_grid(0.0, 1.0), std::invalid_argument);
    EXPECT_THROW((void)uniform_grid(1.0, 0.0), std::invalid_argument);
}

TEST(uniform_grid_test, bucket_side_at_least_minimum) {
    const uniform_grid g(10.0, 3.0);
    EXPECT_GE(g.bucket_side(), 3.0);
    EXPECT_EQ(g.buckets_per_side(), 3);
}

TEST(uniform_grid_test, min_bucket_larger_than_side_gives_single_bucket) {
    const uniform_grid g(5.0, 50.0);
    EXPECT_EQ(g.buckets_per_side(), 1);
    EXPECT_DOUBLE_EQ(g.bucket_side(), 5.0);
}

TEST(uniform_grid_test, empty_rebuild_queries_cleanly) {
    uniform_grid g(10.0, 1.0);
    g.rebuild({});
    EXPECT_EQ(g.query({5, 5}, 3.0).size(), 0u);
}

TEST(uniform_grid_test, query_finds_exact_matches) {
    uniform_grid g(10.0, 2.0);
    const std::vector<vec2> pts = {{1, 1}, {1.5, 1}, {8, 8}, {5, 5}};
    g.rebuild(pts);
    const auto near_origin = g.query({1, 1}, 1.0);
    std::set<std::uint32_t> ids(near_origin.begin(), near_origin.end());
    EXPECT_EQ(ids, (std::set<std::uint32_t>{0, 1}));
}

TEST(uniform_grid_test, radius_boundary_is_inclusive) {
    uniform_grid g(10.0, 1.0);
    const std::vector<vec2> pts = {{0, 0}, {3, 4}};
    g.rebuild(pts);
    EXPECT_EQ(g.query({0, 0}, 5.0).size(), 2u);    // dist exactly 5
    EXPECT_EQ(g.query({0, 0}, 4.999).size(), 1u);
}

TEST(uniform_grid_test, any_in_radius_early_exit) {
    uniform_grid g(10.0, 2.0);
    const std::vector<vec2> pts = {{1, 1}, {1.1, 1}, {1.2, 1}};
    g.rebuild(pts);
    int visits = 0;
    const bool found = g.any_in_radius({1, 1}, 1.0, [&](std::uint32_t) {
        ++visits;
        return true;
    });
    EXPECT_TRUE(found);
    EXPECT_EQ(visits, 1);
}

TEST(uniform_grid_test, any_in_radius_false_when_no_match) {
    uniform_grid g(10.0, 2.0);
    const std::vector<vec2> pts = {{1, 1}};
    g.rebuild(pts);
    const bool found =
        g.any_in_radius({9, 9}, 1.0, [](std::uint32_t) { return true; });
    EXPECT_FALSE(found);
}

struct grid_case {
    std::size_t n;
    double side;
    double bucket;
    double radius;
    std::uint64_t seed;
};

class uniform_grid_sweep : public ::testing::TestWithParam<grid_case> {};

TEST_P(uniform_grid_sweep, matches_brute_force) {
    const auto c = GetParam();
    manhattan::rng::rng rnd{c.seed};
    std::vector<vec2> pts(c.n);
    for (auto& p : pts) {
        p = {rnd.uniform(0, c.side), rnd.uniform(0, c.side)};
    }
    uniform_grid g(c.side, c.bucket);
    g.rebuild(pts);

    for (int probe = 0; probe < 25; ++probe) {
        const vec2 q{rnd.uniform(0, c.side), rnd.uniform(0, c.side)};
        auto fast = g.query(q, c.radius);
        std::sort(fast.begin(), fast.end());
        std::vector<std::uint32_t> slow;
        for (std::uint32_t i = 0; i < pts.size(); ++i) {
            if (manhattan::geom::dist(pts[i], q) <= c.radius) {
                slow.push_back(i);
            }
        }
        ASSERT_EQ(fast, slow);
    }
}

INSTANTIATE_TEST_SUITE_P(
    cases, uniform_grid_sweep,
    ::testing::Values(grid_case{50, 10.0, 1.0, 1.0, 1}, grid_case{200, 10.0, 2.0, 2.0, 2},
                      grid_case{500, 100.0, 5.0, 5.0, 3},
                      // radius larger than bucket side: query spans many buckets
                      grid_case{300, 50.0, 2.0, 11.0, 4},
                      // radius larger than the whole square
                      grid_case{100, 10.0, 3.0, 25.0, 5},
                      grid_case{1, 10.0, 1.0, 2.0, 6}, grid_case{1000, 31.6, 3.0, 3.0, 7},
                      // bucket bounds past the int32 range
                      grid_case{100, 10.0, 1.0, 3e9, 8}));

}  // namespace
