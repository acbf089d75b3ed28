/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * Every experiment in incam must be bit-reproducible across runs and
 * platforms, so we implement our own xoshiro256++ generator (public-domain
 * algorithm by Blackman & Vigna) instead of relying on implementation-
 * defined std::default_random_engine behaviour. Distribution helpers are
 * likewise hand-rolled because libstdc++'s std::normal_distribution is not
 * specified bit-exactly.
 */

#ifndef INCAM_COMMON_RNG_HH
#define INCAM_COMMON_RNG_HH

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>

#include "common/logging.hh"

namespace incam {

/** xoshiro256++ PRNG with splitmix64 seeding. */
class Rng
{
  public:
    /** Seed deterministically; the same seed yields the same stream. */
    explicit Rng(uint64_t seed = 0x1234abcdu) { reseed(seed); }

    /** Re-initialize the state from a 64-bit seed via splitmix64. */
    void
    reseed(uint64_t seed)
    {
        uint64_t x = seed;
        for (auto &word : state) {
            // splitmix64 step
            x += 0x9e3779b97f4a7c15ull;
            uint64_t z = x;
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
            word = z ^ (z >> 31);
        }
        haveGauss = false;
    }

    /** Next raw 64-bit output. */
    uint64_t
    next()
    {
        const uint64_t result = rotl(state[0] + state[3], 23) + state[0];
        const uint64_t t = state[1] << 17;
        state[2] ^= state[0];
        state[3] ^= state[1];
        state[1] ^= state[2];
        state[0] ^= state[3];
        state[2] ^= t;
        state[3] = rotl(state[3], 45);
        return result;
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return (next() >> 11) * 0x1.0p-53;
    }

    /** Uniform double in [lo, hi). */
    double
    uniform(double lo, double hi)
    {
        return lo + (hi - lo) * uniform();
    }

    /** Uniform integer in [0, n). n must be positive. */
    uint64_t
    below(uint64_t n)
    {
        incam_assert(n > 0, "Rng::below needs a positive bound");
        // Rejection sampling to avoid modulo bias.
        const uint64_t threshold = (0 - n) % n;
        for (;;) {
            uint64_t r = next();
            if (r >= threshold) {
                return r % n;
            }
        }
    }

    /** Uniform integer in [lo, hi] inclusive. */
    int64_t
    range(int64_t lo, int64_t hi)
    {
        incam_assert(lo <= hi, "Rng::range needs lo <= hi");
        return lo + static_cast<int64_t>(
                        below(static_cast<uint64_t>(hi - lo) + 1));
    }

    /** Bernoulli draw with probability p of true. */
    bool
    chance(double p)
    {
        return uniform() < p;
    }

    /** Standard normal via Marsaglia polar method (deterministic). */
    double
    gaussian()
    {
        if (haveGauss) {
            haveGauss = false;
            return cachedGauss;
        }
        double u, v, s;
        do {
            u = uniform(-1.0, 1.0);
            v = uniform(-1.0, 1.0);
            s = u * u + v * v;
        } while (s >= 1.0 || s == 0.0);
        const double m = std::sqrt(-2.0 * std::log(s) / s);
        cachedGauss = v * m;
        haveGauss = true;
        return u * m;
    }

    /** Normal draw with the given mean and standard deviation. */
    double
    gaussian(double mean, double stddev)
    {
        return mean + stddev * gaussian();
    }

    /**
     * Fill @p out with @p n standard normals: the same values, and the
     * same generator state afterwards, as @p n calls to gaussian().
     *
     * Works a block of polar pairs at a time: draw and accept every
     * pair's (u, v, s) in stream order, then take each pair's
     * sqrt(-2 log s / s) — independent of the others, so the scalar
     * log calls overlap — then interleave the outputs.
     */
    void
    gaussians(double *out, size_t n)
    {
        size_t i = 0;
        if (haveGauss && n > 0) {
            haveGauss = false;
            out[i++] = cachedGauss;
        }
        constexpr size_t kBlock = 64;
        double us[kBlock], vs[kBlock], ss[kBlock];
        while (i < n) {
            const size_t pairs = std::min(kBlock, (n - i + 1) / 2);
            // Branch-free acceptance: a rejected draw is overwritten.
            for (size_t k = 0; k < pairs;) {
                const double u = uniform(-1.0, 1.0);
                const double v = uniform(-1.0, 1.0);
                const double s = u * u + v * v;
                us[k] = u;
                vs[k] = v;
                ss[k] = s;
                k += (s < 1.0) & (s != 0.0);
            }
            for (size_t k = 0; k < pairs; ++k) {
                ss[k] = std::sqrt(-2.0 * std::log(ss[k]) / ss[k]);
            }
            for (size_t k = 0; k < pairs; ++k) {
                out[i++] = us[k] * ss[k];
                if (i == n) {
                    cachedGauss = vs[k] * ss[k];
                    haveGauss = true;
                    break;
                }
                out[i++] = vs[k] * ss[k];
            }
        }
    }

  private:
    static uint64_t
    rotl(uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    uint64_t state[4] = {};
    bool haveGauss = false;
    double cachedGauss = 0.0;
};

} // namespace incam

#endif // INCAM_COMMON_RNG_HH
