/**
 * @file
 * Tests for the common substrate: logging capture, the stats package,
 * and the deterministic PRNG.
 */

#include <cmath>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "common/parse.hh"
#include "common/random.hh"
#include "common/stats.hh"

namespace alr {
namespace {

TEST(Logging, CaptureCollectsWarnAndInform)
{
    setLogCapture(true);
    warn("watch out %d", 7);
    inform("hello %s", "world");
    std::string captured = setLogCapture(false);
    EXPECT_NE(captured.find("warn: watch out 7"), std::string::npos);
    EXPECT_NE(captured.find("info: hello world"), std::string::npos);
}

TEST(Logging, AssertPassesOnTrueCondition)
{
    ALR_ASSERT(1 + 1 == 2, "math works");
    SUCCEED();
}

TEST(LoggingDeath, PanicAborts)
{
    EXPECT_DEATH(panic("boom %d", 42), "boom 42");
}

TEST(LoggingDeath, AssertAbortsWithContext)
{
    EXPECT_DEATH(ALR_ASSERT(false, "value was %d", 3), "value was 3");
}

TEST(Stats, ScalarAccumulates)
{
    stats::Scalar s;
    s += 2.5;
    ++s;
    EXPECT_DOUBLE_EQ(s.value(), 3.5);
    s.reset();
    EXPECT_DOUBLE_EQ(s.value(), 0.0);
}

TEST(Stats, DistributionTracksMoments)
{
    stats::Distribution d;
    for (double v : {1.0, 2.0, 3.0, 4.0})
        d.sample(v);
    EXPECT_EQ(d.count(), 4u);
    EXPECT_DOUBLE_EQ(d.mean(), 2.5);
    EXPECT_DOUBLE_EQ(d.min(), 1.0);
    EXPECT_DOUBLE_EQ(d.max(), 4.0);
    EXPECT_NEAR(d.variance(), 1.25, 1e-12);
}

TEST(Stats, GroupLookupAndDump)
{
    stats::StatGroup g("unit");
    stats::Scalar a;
    a += 7.0;
    g.registerScalar("a", &a, "a counter");
    g.registerFormula("twice_a", [&a] { return 2.0 * a.value(); },
                      "derived");
    EXPECT_TRUE(g.has("a"));
    EXPECT_FALSE(g.has("b"));
    EXPECT_DOUBLE_EQ(g.lookup("a"), 7.0);
    EXPECT_DOUBLE_EQ(g.lookup("twice_a"), 14.0);

    std::ostringstream os;
    g.dump(os);
    EXPECT_NE(os.str().find("unit.a"), std::string::npos);
    EXPECT_NE(os.str().find("# a counter"), std::string::npos);
}

TEST(Stats, GroupResetClearsScalars)
{
    stats::StatGroup g("unit");
    stats::Scalar a;
    a += 3.0;
    g.registerScalar("a", &a, "");
    g.resetAll();
    EXPECT_DOUBLE_EQ(a.value(), 0.0);
}

TEST(StatsDeath, DuplicateRegistrationPanics)
{
    stats::StatGroup g("unit");
    stats::Scalar a;
    g.registerScalar("a", &a, "");
    EXPECT_DEATH(g.registerScalar("a", &a, ""), "duplicate");
}

TEST(ParseBounded, IntegersAcceptOnlyWholeInRangeValues)
{
    uint32_t v = 7;
    EXPECT_TRUE(parseBounded<uint32_t>("1", 1, 1024, &v));
    EXPECT_EQ(v, 1u);
    EXPECT_TRUE(parseBounded<uint32_t>("1024", 1, 1024, &v));
    EXPECT_EQ(v, 1024u);
    EXPECT_TRUE(parseBounded<uint32_t>("4294967295", 0, UINT32_MAX, &v));
    EXPECT_EQ(v, UINT32_MAX);
    for (const char *bad : {"", "abc", "0", "1025", "-1", "8x", "x8", "1.5",
                            "1e3", "99999999999999999999"}) {
        v = 7;
        EXPECT_FALSE(parseBounded<uint32_t>(bad, 1, 1024, &v)) << bad;
        EXPECT_EQ(v, 7u) << bad;
    }
    EXPECT_FALSE(parseBounded<uint32_t>("4294967296", 0, UINT32_MAX, &v));
    int64_t big = 0;
    EXPECT_TRUE(parseBounded("9223372036854775807", 1, INT64_MAX, &big));
    EXPECT_EQ(big, INT64_MAX);
    EXPECT_FALSE(parseBounded("9223372036854775808", 1, INT64_MAX, &big));
}

TEST(ParseBounded, DoublesRejectNonFiniteAndOutOfRange)
{
    double d = -1.0;
    EXPECT_TRUE(parseBounded("0.25", 0.0, 1.0, &d));
    EXPECT_EQ(d, 0.25);
    for (const char *bad : {"", "nan", "inf", "-inf", "1.5", "-0.1", "0.5x",
                            "1e999"}) {
        d = -1.0;
        EXPECT_FALSE(parseBounded(bad, 0.0, 1.0, &d)) << bad;
        EXPECT_EQ(d, -1.0) << bad;
    }
}

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 4);
}

TEST(Rng, RangeRespectsBound)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.nextRange(13), 13u);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng rng(8);
    for (int i = 0; i < 1000; ++i) {
        double v = rng.nextDouble();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
    }
}

TEST(Rng, GaussianHasReasonableMoments)
{
    Rng rng(9);
    double sum = 0.0, sq = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        double v = rng.nextGaussian();
        sum += v;
        sq += v * v;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.05);
    EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, PermutationIsAPermutation)
{
    Rng rng(10);
    auto perm = rng.permutation(50);
    std::vector<bool> seen(50, false);
    for (auto v : perm) {
        ASSERT_LT(v, 50u);
        EXPECT_FALSE(seen[v]);
        seen[v] = true;
    }
}

TEST(Rng, BernoulliTracksProbability)
{
    Rng rng(11);
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        hits += rng.nextBool(0.3);
    EXPECT_NEAR(double(hits) / n, 0.3, 0.02);
}

TEST(Zipf, RankFrequencySlopeTracksTheExponent)
{
    // P(k) ~ 1/(k+1)^s, so log(freq) vs log(rank+1) is a line of
    // slope -s.  Fit it over the head ranks (plenty of mass there;
    // the tail is sampling noise) for two skews on either side of 1.
    for (double s : {0.8, 1.2}) {
        Rng rng(99);
        ZipfSampler zipf(64, s);
        std::vector<uint64_t> freq(zipf.n(), 0);
        constexpr int kDraws = 200000;
        for (int i = 0; i < kDraws; ++i)
            ++freq[zipf.sample(rng)];

        constexpr int kHead = 16;
        double sx = 0, sy = 0, sxx = 0, sxy = 0;
        for (int k = 0; k < kHead; ++k) {
            ASSERT_GT(freq[k], 0u) << "s=" << s << " rank " << k;
            double x = std::log(double(k + 1));
            double y = std::log(double(freq[k]));
            sx += x;
            sy += y;
            sxx += x * x;
            sxy += x * y;
        }
        double slope =
            (kHead * sxy - sx * sy) / (kHead * sxx - sx * sx);
        EXPECT_NEAR(slope, -s, 0.12) << "s=" << s;
    }
}

TEST(Zipf, ZeroExponentIsUniform)
{
    Rng rng(7);
    ZipfSampler zipf(16, 0.0);
    std::vector<uint64_t> freq(zipf.n(), 0);
    constexpr int kDraws = 160000;
    for (int i = 0; i < kDraws; ++i)
        ++freq[zipf.sample(rng)];
    for (uint32_t k = 0; k < zipf.n(); ++k)
        EXPECT_NEAR(double(freq[k]) / kDraws, 1.0 / zipf.n(), 0.01)
            << "rank " << k;
}

} // namespace
} // namespace alr
