#include "stats/bootstrap.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace manhattan::stats {

interval bootstrap_mean_ci(std::span<const double> sample, double confidence,
                           std::size_t resamples, rng::rng& gen) {
    if (sample.empty()) {
        throw std::invalid_argument("bootstrap_mean_ci: empty sample");
    }
    if (!(confidence > 0.0) || !(confidence < 1.0)) {
        throw std::invalid_argument("bootstrap_mean_ci: confidence must be in (0,1)");
    }
    if (resamples == 0) {
        throw std::invalid_argument("bootstrap_mean_ci: need at least one resample");
    }
    std::vector<double> means;
    means.reserve(resamples);
    for (std::size_t r = 0; r < resamples; ++r) {
        double acc = 0.0;
        for (std::size_t i = 0; i < sample.size(); ++i) {
            acc += sample[gen.uniform_index(sample.size())];
        }
        means.push_back(acc / static_cast<double>(sample.size()));
    }
    const double alpha = (1.0 - confidence) / 2.0;
    const auto rank = [&](double q) {
        return static_cast<std::size_t>(q * static_cast<double>(means.size() - 1));
    };
    const std::size_t lo = rank(alpha);
    const std::size_t hi = rank(1.0 - alpha);  // >= lo: alpha < 1/2
    // The two order statistics a full sort would leave at lo and hi: select
    // hi over all the means, then lo among the hi means below it.
    std::nth_element(means.begin(), means.begin() + hi, means.end());
    std::nth_element(means.begin(), means.begin() + lo, means.begin() + hi);
    return {means[lo], means[hi]};
}

double two_sample_ks(std::span<const double> a, std::span<const double> b) {
    if (a.empty() || b.empty()) {
        throw std::invalid_argument("two_sample_ks: empty sample");
    }
    std::vector<double> sa(a.begin(), a.end());
    std::vector<double> sb(b.begin(), b.end());
    std::sort(sa.begin(), sa.end());
    std::sort(sb.begin(), sb.end());

    double stat = 0.0;
    std::size_t ia = 0;
    std::size_t ib = 0;
    while (ia < sa.size() && ib < sb.size()) {
        if (sa[ia] <= sb[ib]) {
            ++ia;
        } else {
            ++ib;
        }
        const double fa = static_cast<double>(ia) / static_cast<double>(sa.size());
        const double fb = static_cast<double>(ib) / static_cast<double>(sb.size());
        stat = std::max(stat, std::abs(fa - fb));
    }
    return stat;
}

double two_sample_ks_critical(std::size_t n, std::size_t m) {
    const double c = std::sqrt(-std::log(0.0005) / 2.0);  // alpha ~ 1e-3
    const auto dn = static_cast<double>(n);
    const auto dm = static_cast<double>(m);
    return c * std::sqrt((dn + dm) / (dn * dm));
}

}  // namespace manhattan::stats
