/// \file splitmix64.h
/// SplitMix64 — Steele, Lea & Flood's 64-bit mixing generator. We use it only
/// to expand a user seed into the state of the main engine (the recommended
/// seeding procedure for the xoshiro family).
#pragma once

#include <cstdint>

namespace manhattan::rng {

/// SplitMix64 PRNG. Satisfies UniformRandomBitGenerator.
class splitmix64 {
 public:
    using result_type = std::uint64_t;

    /// The state increment per draw (2^64 / golden ratio, odd), so the
    /// k-th draw mixes seed + k * gamma.
    static constexpr std::uint64_t gamma = 0x9e3779b97f4a7c15ULL;

    constexpr explicit splitmix64(std::uint64_t seed) noexcept : state_(seed) {}

    static constexpr result_type min() noexcept { return 0; }
    static constexpr result_type max() noexcept { return ~std::uint64_t{0}; }

    constexpr result_type operator()() noexcept {
        std::uint64_t z = (state_ += gamma);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }

 private:
    std::uint64_t state_;
};

}  // namespace manhattan::rng
