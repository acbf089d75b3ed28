/**
 * @file
 * Determinism and distribution sanity tests for the xoshiro256++ RNG.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hh"

namespace incam {
namespace {

TEST(Rng, DeterministicPerSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(a.next(), b.next());
    }
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i) {
        if (a.next() == b.next()) {
            ++same;
        }
    }
    EXPECT_LT(same, 2);
}

TEST(Rng, ReseedRestoresStream)
{
    Rng a(42);
    const uint64_t first = a.next();
    a.next();
    a.reseed(42);
    EXPECT_EQ(a.next(), first);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    double lo = 1.0, hi = 0.0, sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double v = rng.uniform();
        ASSERT_GE(v, 0.0);
        ASSERT_LT(v, 1.0);
        lo = std::min(lo, v);
        hi = std::max(hi, v);
        sum += v;
    }
    EXPECT_NEAR(sum / n, 0.5, 0.02);
    EXPECT_LT(lo, 0.01);
    EXPECT_GT(hi, 0.99);
}

TEST(Rng, BelowIsUnbiased)
{
    Rng rng(9);
    int counts[5] = {};
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
        ++counts[rng.below(5)];
    }
    for (int c : counts) {
        EXPECT_NEAR(static_cast<double>(c) / n, 0.2, 0.02);
    }
}

TEST(Rng, RangeInclusive)
{
    Rng rng(10);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const int64_t v = rng.range(-3, 3);
        ASSERT_GE(v, -3);
        ASSERT_LE(v, 3);
        saw_lo |= v == -3;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, GaussianMoments)
{
    Rng rng(11);
    double sum = 0.0, sum_sq = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
        const double v = rng.gaussian();
        sum += v;
        sum_sq += v * v;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(Rng, GaussianScaled)
{
    Rng rng(12);
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        sum += rng.gaussian(5.0, 2.0);
    }
    EXPECT_NEAR(sum / n, 5.0, 0.05);
}

TEST(Rng, GaussiansMatchTheScalarStream)
{
    for (const size_t n : {0, 1, 2, 3, 255, 256, 257, 400, 19200}) {
        for (const bool cached : {false, true}) {
            Rng batch(1000 + n), scalar(1000 + n);
            if (cached) {
                // Leaves the second value of a polar pair cached.
                EXPECT_EQ(batch.gaussian(), scalar.gaussian());
            }
            std::vector<double> got(n);
            batch.gaussians(got.data(), n);
            for (size_t i = 0; i < n; ++i) {
                ASSERT_EQ(got[i], scalar.gaussian())
                    << "n " << n << " cached " << cached << " at " << i;
            }
            // The cache and the state the batch leaves behind.
            for (int i = 0; i < 3; ++i) {
                EXPECT_EQ(batch.gaussian(), scalar.gaussian())
                    << "n " << n << " cached " << cached << " after " << i;
            }
        }
    }
}

TEST(Rng, ChanceProbability)
{
    Rng rng(13);
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        if (rng.chance(0.3)) {
            ++hits;
        }
    }
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

} // namespace
} // namespace incam
