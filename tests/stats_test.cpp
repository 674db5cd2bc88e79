// Unit tests for the stats module: summaries, goodness-of-fit
// statistics, and the regression helpers the scaling-law benches use.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "rng/rng.h"
#include "stats/fit.h"
#include "stats/gof.h"
#include "stats/summary.h"

namespace {

namespace stats = manhattan::stats;

TEST(summary_test, known_values) {
    const std::vector<double> xs = {4.0, 1.0, 3.0, 2.0, 5.0};
    const auto s = stats::summarize(xs);
    EXPECT_EQ(s.count, 5u);
    EXPECT_DOUBLE_EQ(s.mean, 3.0);
    EXPECT_DOUBLE_EQ(s.min, 1.0);
    EXPECT_DOUBLE_EQ(s.max, 5.0);
    EXPECT_DOUBLE_EQ(s.median, 3.0);
    EXPECT_DOUBLE_EQ(s.p25, 2.0);
    EXPECT_DOUBLE_EQ(s.p75, 4.0);
    EXPECT_NEAR(s.stddev, std::sqrt(2.5), 1e-12);
}

TEST(summary_test, single_element) {
    const std::vector<double> xs = {7.0};
    const auto s = stats::summarize(xs);
    EXPECT_DOUBLE_EQ(s.mean, 7.0);
    EXPECT_DOUBLE_EQ(s.stddev, 0.0);
    EXPECT_DOUBLE_EQ(s.median, 7.0);
}

TEST(summary_test, empty_sample_throws) {
    const std::vector<double> xs;
    EXPECT_THROW((void)stats::summarize(xs), std::invalid_argument);
    EXPECT_THROW((void)stats::mean(xs), std::invalid_argument);
    EXPECT_THROW((void)stats::percentile(xs, 0.5), std::invalid_argument);
}

TEST(percentile_test, interpolation) {
    const std::vector<double> xs = {0.0, 10.0};
    EXPECT_DOUBLE_EQ(stats::percentile(xs, 0.0), 0.0);
    EXPECT_DOUBLE_EQ(stats::percentile(xs, 1.0), 10.0);
    EXPECT_DOUBLE_EQ(stats::percentile(xs, 0.25), 2.5);
    EXPECT_THROW((void)stats::percentile(xs, 1.5), std::invalid_argument);
}

TEST(chi_square_test, perfect_fit_is_small) {
    const std::vector<std::uint64_t> obs = {1000, 1000, 1000, 1000};
    const std::vector<double> expected(4, 0.25);
    EXPECT_DOUBLE_EQ(stats::chi_square_statistic(obs, expected), 0.0);
}

TEST(chi_square_test, gross_mismatch_is_large) {
    const std::vector<std::uint64_t> obs = {4000, 0, 0, 0};
    const std::vector<double> expected(4, 0.25);
    EXPECT_GT(stats::chi_square_statistic(obs, expected), stats::chi_square_critical(3));
}

TEST(chi_square_test, uniform_sample_passes) {
    manhattan::rng::rng g{2};
    std::vector<std::uint64_t> obs(10, 0);
    for (int i = 0; i < 100'000; ++i) {
        ++obs[g.uniform_index(10)];
    }
    const std::vector<double> expected(10, 0.1);
    EXPECT_LT(stats::chi_square_statistic(obs, expected), stats::chi_square_critical(9));
}

TEST(chi_square_test, validates_input) {
    const std::vector<std::uint64_t> obs = {1, 2};
    EXPECT_THROW((void)stats::chi_square_statistic(obs, std::vector<double>{0.5}),
                 std::invalid_argument);
    EXPECT_THROW((void)stats::chi_square_statistic(obs, std::vector<double>{0.5, 0.0}),
                 std::invalid_argument);
    EXPECT_THROW((void)
        stats::chi_square_statistic(std::vector<std::uint64_t>{5}, std::vector<double>{1.0}),
        std::invalid_argument);
}

TEST(chi_square_test, critical_grows_with_dof) {
    EXPECT_LT(stats::chi_square_critical(1), stats::chi_square_critical(10));
    EXPECT_LT(stats::chi_square_critical(10), stats::chi_square_critical(100));
    // Must dominate the mean of the chi-square distribution (= dof).
    EXPECT_GT(stats::chi_square_critical(50), 50.0);
}

TEST(ks_test, uniform_sample_against_uniform_cdf_passes) {
    manhattan::rng::rng g{3};
    std::vector<double> sample;
    for (int i = 0; i < 20'000; ++i) {
        sample.push_back(g.uniform01());
    }
    const double d = stats::ks_statistic(sample, [](double x) {
        return x <= 0 ? 0.0 : x >= 1 ? 1.0 : x;
    });
    EXPECT_LT(d, stats::ks_critical(sample.size()));
}

TEST(ks_test, uniform_sample_against_wrong_cdf_fails) {
    manhattan::rng::rng g{3};
    std::vector<double> sample;
    for (int i = 0; i < 20'000; ++i) {
        sample.push_back(g.uniform01());
    }
    // Claim the sample is Beta(2,2): should be rejected decisively.
    const double d = stats::ks_statistic(sample, [](double x) {
        return x <= 0 ? 0.0 : x >= 1 ? 1.0 : 3 * x * x - 2 * x * x * x;
    });
    EXPECT_GT(d, stats::ks_critical(sample.size()));
}

TEST(ks_test, empty_sample_throws) {
    EXPECT_THROW((void)stats::ks_statistic({}, [](double) { return 0.5; }), std::invalid_argument);
}

TEST(total_variation_test, identical_distributions_have_zero_distance) {
    const std::vector<double> p = {0.25, 0.25, 0.5};
    EXPECT_DOUBLE_EQ(stats::total_variation(p, p), 0.0);
}

TEST(total_variation_test, disjoint_distributions_have_distance_one) {
    const std::vector<double> p = {1.0, 0.0};
    const std::vector<double> q = {0.0, 1.0};
    EXPECT_DOUBLE_EQ(stats::total_variation(p, q), 1.0);
}

TEST(total_variation_test, size_mismatch_throws) {
    EXPECT_THROW((void)
        stats::total_variation(std::vector<double>{1.0}, std::vector<double>{0.5, 0.5}),
        std::invalid_argument);
}

TEST(linear_fit_test, recovers_exact_line) {
    const std::vector<double> xs = {1, 2, 3, 4, 5};
    std::vector<double> ys;
    for (const double x : xs) {
        ys.push_back(2.5 * x - 1.0);
    }
    const auto fit = stats::linear_fit(xs, ys);
    EXPECT_NEAR(fit.slope, 2.5, 1e-12);
    EXPECT_NEAR(fit.intercept, -1.0, 1e-12);
    EXPECT_NEAR(fit.r2, 1.0, 1e-12);
}

TEST(linear_fit_test, noise_reduces_r2) {
    manhattan::rng::rng g{4};
    std::vector<double> xs;
    std::vector<double> ys;
    for (int i = 0; i < 200; ++i) {
        xs.push_back(static_cast<double>(i));
        ys.push_back(g.uniform(-1, 1));  // pure noise: slope ~ 0, r2 ~ 0
    }
    const auto fit = stats::linear_fit(xs, ys);
    EXPECT_LT(fit.r2, 0.2);
    EXPECT_NEAR(fit.slope, 0.0, 0.05);
}

TEST(linear_fit_test, validates_input) {
    EXPECT_THROW((void)stats::linear_fit(std::vector<double>{1.0}, std::vector<double>{1.0}),
                 std::invalid_argument);
    EXPECT_THROW((void)
        stats::linear_fit(std::vector<double>{1, 1, 1}, std::vector<double>{1, 2, 3}),
        std::invalid_argument);
    EXPECT_THROW((void)stats::linear_fit(std::vector<double>{1, 2}, std::vector<double>{1}),
                 std::invalid_argument);
}

TEST(power_fit_test, recovers_exponent) {
    std::vector<double> xs;
    std::vector<double> ys;
    for (int i = 1; i <= 20; ++i) {
        xs.push_back(static_cast<double>(i));
        ys.push_back(3.0 * std::pow(static_cast<double>(i), -1.5));
    }
    const auto fit = stats::power_fit(xs, ys);
    EXPECT_NEAR(fit.exponent, -1.5, 1e-9);
    EXPECT_NEAR(fit.coefficient, 3.0, 1e-9);
    EXPECT_NEAR(fit.r2, 1.0, 1e-12);
}

TEST(power_fit_test, rejects_non_positive_values) {
    EXPECT_THROW((void)stats::power_fit(std::vector<double>{1, -2}, std::vector<double>{1, 2}),
                 std::invalid_argument);
    EXPECT_THROW((void)stats::power_fit(std::vector<double>{1, 2}, std::vector<double>{0, 2}),
                 std::invalid_argument);
}

}  // namespace
