/// \file rng.h
/// The random façade used across the library. Wraps the xoshiro256++ engine
/// with the distributions the simulation needs. All simulation randomness
/// flows through this type so a (seed) pair fully reproduces a run.
///
/// The per-draw distributions (uniform01, uniform, uniform_index,
/// bernoulli) are defined here, inline: out of line, a draw-bound loop such
/// as the stationary sampler or the bootstrap pays a call per draw and a
/// round trip of the generator state through memory. Inlining changes no
/// stream: the build's -ffp-contract=off keeps lo + (hi - lo) * u unfused.
#pragma once

#include <cstdint>

#include "rng/xoshiro256.h"

namespace manhattan::rng {

/// Random number façade. Cheap to copy; pass by reference into samplers.
class rng {
 public:
    explicit rng(std::uint64_t seed = 1) noexcept : engine_(seed) {}

    /// A derived generator whose stream is guaranteed non-overlapping with
    /// this one (2^128 draws apart). Use one substream per repetition.
    [[nodiscard]] rng split() noexcept;

    /// Raw 64 random bits.
    [[nodiscard]] std::uint64_t bits() noexcept { return engine_(); }

    /// Uniform double in [0, 1).
    [[nodiscard]] double uniform01() noexcept {
        // 53 high bits -> double in [0,1) with full mantissa resolution.
        return static_cast<double>(engine_() >> 11) * 0x1.0p-53;
    }

    /// Uniform double in [lo, hi). Requires lo <= hi.
    [[nodiscard]] double uniform(double lo, double hi) noexcept {
        return lo + (hi - lo) * uniform01();
    }

    /// Uniform integer in [0, n). Requires n > 0. Uses Lemire's method
    /// (multiply-shift with rejection) — no modulo bias.
    [[nodiscard]] std::uint64_t uniform_index(std::uint64_t n) noexcept {
        // Lemire 2019: unbiased bounded integers without division in the hot path.
        std::uint64_t x = engine_();
        __uint128_t m = static_cast<__uint128_t>(x) * n;
        auto lo = static_cast<std::uint64_t>(m);
        if (lo < n) {
            const std::uint64_t threshold = (0 - n) % n;
            while (lo < threshold) {
                x = engine_();
                m = static_cast<__uint128_t>(x) * n;
                lo = static_cast<std::uint64_t>(m);
            }
        }
        return static_cast<std::uint64_t>(m >> 64);
    }

    /// Bernoulli(p) trial.
    [[nodiscard]] bool bernoulli(double p) noexcept { return uniform01() < p; }

    /// Fair coin.
    [[nodiscard]] bool coin() noexcept { return (engine_() >> 63) != 0; }

    /// Beta(2,2) variate on [0,1]: pdf 6u(1-u). Sampled as the median of
    /// three uniforms (the order-statistic identity), branch-light.
    [[nodiscard]] double beta22() noexcept;

    /// Exponential(rate) variate. Requires rate > 0.
    [[nodiscard]] double exponential(double rate) noexcept;

    /// Underlying engine access (satisfies UniformRandomBitGenerator) for
    /// interoperation with <random> distributions in tests.
    [[nodiscard]] xoshiro256pp& engine() noexcept { return engine_; }

 private:
    xoshiro256pp engine_;
};

}  // namespace manhattan::rng
