#include "rng/rng.h"

#include <cmath>

namespace manhattan::rng {

rng rng::split() noexcept {
    rng child = *this;
    engine_.long_jump();
    return child;
}

double rng::beta22() noexcept {
    const double a = uniform01();
    const double b = uniform01();
    const double c = uniform01();
    // Median of three without sorting the array.
    const double hi = std::fmax(a, std::fmax(b, c));
    const double lo = std::fmin(a, std::fmin(b, c));
    return a + b + c - hi - lo;
}

double rng::exponential(double rate) noexcept {
    return -std::log1p(-uniform01()) / rate;
}

}  // namespace manhattan::rng
