/**
 * @file
 * Serving-plane metrics registry (ISSUE 9): counter/gauge/histogram
 * registration and identity, JSON + Prometheus exposition, atomic
 * snapshot publication, and the exact-percentile helper -- including
 * the documented agreement between stats::Distribution's log2-bucket
 * percentile and exact order statistics at bucket boundaries.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hh"
#include "common/metrics.hh"
#include "common/stats.hh"

using namespace alr;

namespace {

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

} // namespace

TEST(MetricsRegistry, FindOrCreateReturnsStableIdentity)
{
    metrics::Registry reg;
    metrics::Counter &a = reg.counter("reqs", "served requests");
    metrics::Counter &b = reg.counter("reqs", "served requests");
    EXPECT_EQ(&a, &b);
    a.add(3.0);
    ++b;
    EXPECT_DOUBLE_EQ(a.value(), 4.0);
    EXPECT_EQ(reg.size(), 1u);

    // Distinct label sets are distinct metrics in one family.
    metrics::Counter &l1 =
        reg.counter("reqs", "served requests", {{"matrix", "a"}});
    metrics::Counter &l2 =
        reg.counter("reqs", "served requests", {{"matrix", "b"}});
    EXPECT_NE(&l1, &l2);
    EXPECT_NE(&l1, &a);
    EXPECT_EQ(reg.size(), 3u);

    double out = 0.0;
    EXPECT_TRUE(reg.lookup("reqs", {}, &out));
    EXPECT_DOUBLE_EQ(out, 4.0);
    EXPECT_FALSE(reg.lookup("reqs", {{"matrix", "c"}}, &out));
    EXPECT_FALSE(reg.lookup("absent", {}, &out));
}

TEST(MetricsRegistry, GaugeSetsAndHistogramObserves)
{
    metrics::Registry reg;
    metrics::Gauge &depth = reg.gauge("depth", "queue depth");
    depth.set(7.0);
    depth.add(-2.0);
    EXPECT_DOUBLE_EQ(depth.value(), 5.0);

    metrics::Histogram &h = reg.histogram("lat", "latency");
    for (int i = 1; i <= 100; ++i)
        h.observe(double(i));
    EXPECT_EQ(h.count(), 100u);
    stats::Distribution d = h.distribution();
    EXPECT_EQ(d.count(), 100u);
    EXPECT_DOUBLE_EQ(d.min(), 1.0);
    EXPECT_DOUBLE_EQ(d.max(), 100.0);
    std::vector<double> window = h.window();
    ASSERT_EQ(window.size(), 100u);
    EXPECT_DOUBLE_EQ(window.front(), 1.0);
    EXPECT_DOUBLE_EQ(window.back(), 100.0);
}

TEST(MetricsRegistry, HistogramWindowIsBoundedAndKeepsTheTail)
{
    metrics::Histogram h;
    const size_t n = metrics::Histogram::kWindow + 100;
    for (size_t i = 0; i < n; ++i)
        h.observe(double(i));
    EXPECT_EQ(h.count(), n);
    std::vector<double> window = h.window();
    ASSERT_EQ(window.size(), metrics::Histogram::kWindow);
    // Oldest first, and only the most recent kWindow survive.
    EXPECT_DOUBLE_EQ(window.front(), 100.0);
    EXPECT_DOUBLE_EQ(window.back(), double(n - 1));
}

TEST(MetricsRegistry, ConcurrentObserversLoseNothing)
{
    metrics::Registry reg;
    metrics::Counter &c = reg.counter("n", "count");
    metrics::Histogram &h = reg.histogram("v", "values");
    constexpr int kThreads = 4, kPer = 2000;
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t)
        pool.emplace_back([&] {
            for (int i = 0; i < kPer; ++i) {
                c.add(1.0);
                h.observe(1.0);
            }
        });
    for (std::thread &t : pool)
        t.join();
    EXPECT_DOUBLE_EQ(c.value(), double(kThreads * kPer));
    EXPECT_EQ(h.count(), uint64_t(kThreads * kPer));
}

TEST(MetricsRegistry, JsonExposesSchemaFields)
{
    metrics::Registry reg;
    reg.counter("reqs", "served requests").add(5.0);
    reg.gauge("depth", "queue depth", {{"matrix", "em-sphere"}}).set(2.0);
    metrics::Histogram &h = reg.histogram("lat_us", "latency");
    h.observe(3.0);
    h.observe(9.0);

    std::ostringstream os;
    reg.writeJson(os);
    std::string doc = os.str();
    EXPECT_NE(doc.find("\"snapshot\""), std::string::npos);
    EXPECT_NE(doc.find("\"metrics\""), std::string::npos);
    EXPECT_NE(doc.find("\"name\": \"reqs\""), std::string::npos);
    EXPECT_NE(doc.find("\"type\": \"counter\""), std::string::npos);
    EXPECT_NE(doc.find("\"type\": \"gauge\""), std::string::npos);
    EXPECT_NE(doc.find("\"type\": \"histogram\""), std::string::npos);
    EXPECT_NE(doc.find("\"matrix\": \"em-sphere\""), std::string::npos);
    EXPECT_NE(doc.find("\"window\""), std::string::npos);
    EXPECT_NE(doc.find("\"buckets\""), std::string::npos);
    EXPECT_NE(doc.find("\"p99.9\""), std::string::npos);
}

TEST(MetricsRegistry, JsonStrictParsesAndLabelValuesRoundTrip)
{
    const std::string label = "say \"hi\"\nthen leave";
    metrics::Registry reg;
    reg.counter("reqs", "served requests", {{"matrix", label}}).add(5.0);
    metrics::Histogram &h = reg.histogram("lat_us", "latency");
    h.observe(3.0);
    h.observe(9.0);

    std::ostringstream os;
    reg.writeJson(os);
    json::Parsed doc = json::parse(os.str());
    ASSERT_TRUE(doc.ok) << doc.error << " at " << doc.offset;
    const auto &ms = doc.value.find("metrics")->elements();
    ASSERT_EQ(ms.size(), 2u);
    // Sorted by name: lat_us, then reqs.
    EXPECT_EQ(ms[1].find("labels")->stringAt("matrix"), label);
    EXPECT_TRUE(ms[1].find("value")->isInt()); // counters stay integers
    const json::Value *buckets = ms[0].find("buckets");
    ASSERT_EQ(buckets->members().size(), 2u);
    EXPECT_EQ(buckets->members()[0].first, "4");
    EXPECT_EQ(buckets->members()[1].first, "16");
}

TEST(MetricsRegistry, PrometheusExposesFamiliesAndCumulativeBuckets)
{
    metrics::Registry reg;
    reg.counter("serve_reqs", "served requests").add(5.0);
    metrics::Histogram &h = reg.histogram("serve_lat", "latency");
    h.observe(3.0);  // bucket upper edge 4
    h.observe(9.0);  // bucket upper edge 16

    std::ostringstream os;
    reg.writePrometheus(os);
    std::string doc = os.str();
    EXPECT_NE(doc.find("# TYPE serve_reqs counter"), std::string::npos);
    EXPECT_NE(doc.find("serve_reqs 5"), std::string::npos);
    EXPECT_NE(doc.find("# TYPE serve_lat histogram"), std::string::npos);
    // Cumulative le buckets: the 16-edge line counts both samples, and
    // +Inf closes the histogram.
    EXPECT_NE(doc.find("serve_lat_bucket{le=\"4\"} 1"), std::string::npos);
    EXPECT_NE(doc.find("serve_lat_bucket{le=\"16\"} 2"),
              std::string::npos);
    EXPECT_NE(doc.find("serve_lat_bucket{le=\"+Inf\"} 2"),
              std::string::npos);
    EXPECT_NE(doc.find("serve_lat_count 2"), std::string::npos);
    EXPECT_NE(doc.find("serve_lat_sum 12"), std::string::npos);
}

TEST(MetricsRegistry, SnapshotFilesArePublishedAtomically)
{
    metrics::Registry reg;
    reg.counter("reqs", "served requests").add(1.0);

    std::string dir = ::testing::TempDir();
    std::string json = dir + "/metrics_test.json";
    std::string prom = dir + "/metrics_test.prom";
    ASSERT_TRUE(reg.writeSnapshotFiles(json, prom));
    EXPECT_EQ(reg.snapshots(), 1u);
    ASSERT_TRUE(reg.writeSnapshotFiles(json, prom));
    EXPECT_EQ(reg.snapshots(), 2u);

    std::string doc = slurp(json);
    EXPECT_NE(doc.find("\"snapshot\": 2"), std::string::npos);
    EXPECT_NE(slurp(prom).find("# TYPE reqs counter"), std::string::npos);
    // The write-then-rename protocol leaves no temp files behind.
    EXPECT_FALSE(std::ifstream(json + ".tmp").good());
    EXPECT_FALSE(std::ifstream(prom + ".tmp").good());
    std::remove(json.c_str());
    std::remove(prom.c_str());
}

TEST(ExactPercentile, MatchesOrderStatisticInterpolation)
{
    std::vector<double> s = {1.0, 2.0, 3.0, 4.0};
    EXPECT_DOUBLE_EQ(metrics::exactPercentile(s, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(metrics::exactPercentile(s, 100.0), 4.0);
    EXPECT_DOUBLE_EQ(metrics::exactPercentile(s, 50.0), 2.5);
    EXPECT_DOUBLE_EQ(metrics::exactPercentile(s, 25.0), 1.75);
    // Order does not matter; the helper sorts a copy.
    std::vector<double> shuffled = {4.0, 1.0, 3.0, 2.0};
    EXPECT_DOUBLE_EQ(metrics::exactPercentile(shuffled, 50.0), 2.5);
    EXPECT_DOUBLE_EQ(metrics::exactPercentile({}, 50.0), 0.0);
    EXPECT_DOUBLE_EQ(metrics::exactPercentile({7.0}, 99.0), 7.0);
}

TEST(PercentileAgreement, ExactAtDegenerateAndBoundaryCases)
{
    // A single-valued sample set: the bucketed percentile clamps its
    // bucket's upper edge to [min, max] == {v}, so it agrees exactly
    // with the order statistic at every p -- including at a power of
    // two, which sits on a bucket boundary.
    for (double v : {1.0, 8.0, 1024.0, 3.5}) {
        stats::Distribution d;
        std::vector<double> s(17, v);
        for (double x : s)
            d.sample(x);
        for (double p : {0.0, 10.0, 50.0, 99.0, 100.0})
            EXPECT_DOUBLE_EQ(d.percentile(p),
                             metrics::exactPercentile(s, p))
                << "v=" << v << " p=" << p;
    }

    // The endpoints bypass the buckets entirely (exact extrema), so
    // they agree for any sample set.
    stats::Distribution d;
    std::vector<double> s = {3.0, 17.0, 100.0, 1000.0, 4096.0};
    for (double x : s)
        d.sample(x);
    EXPECT_DOUBLE_EQ(d.percentile(0.0), metrics::exactPercentile(s, 0.0));
    EXPECT_DOUBLE_EQ(d.percentile(100.0),
                     metrics::exactPercentile(s, 100.0));
}

TEST(PercentileAgreement, BucketedStaysWithinLog2ResolutionOfExact)
{
    // Log-spaced samples, one per bucket: the bucketed percentile may
    // land one rank away from the interpolated order statistic and
    // reports its bucket's upper edge, so it tracks the exact value
    // within the log2 bucket resolution -- never wildly off, never
    // below half the exact value.
    std::vector<double> s;
    for (int i = 0; i < 12; ++i)
        s.push_back(1.5 * std::ldexp(1.0, i));
    stats::Distribution d;
    for (double x : s)
        d.sample(x);
    double prev = 0.0;
    for (double p : {5.0, 25.0, 50.0, 75.0, 95.0}) {
        double exact = metrics::exactPercentile(s, p);
        double approx = d.percentile(p);
        EXPECT_GE(approx, exact / 2.0) << "p=" << p;
        EXPECT_LE(approx, exact * 4.0) << "p=" << p;
        EXPECT_GE(approx, prev) << "p=" << p;
        prev = approx;
    }
}
