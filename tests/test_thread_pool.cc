/**
 * @file
 * Thread-pool unit tests: full range coverage, chunk contiguity,
 * serial fallback, nested-call inlining, exception propagation, the
 * ALR_THREADS environment override, and the bound on thread counts
 * read from outside the program.  The bound is checked through the
 * parser only: no test starts a pool past the cap.
 */

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.hh"

namespace alr {
namespace {

TEST(ThreadPool, CoversEveryIndexExactlyOnce)
{
    for (int threads : {1, 2, 8}) {
        ThreadPool pool(threads);
        constexpr size_t kN = 1000;
        std::vector<std::atomic<int>> hits(kN);
        pool.parallelFor(0, kN, [&](size_t i) {
            hits[i].fetch_add(1, std::memory_order_relaxed);
        });
        for (size_t i = 0; i < kN; ++i)
            EXPECT_EQ(hits[i].load(), 1) << "index " << i << " with "
                                         << threads << " threads";
    }
}

TEST(ThreadPool, EmptyAndSingletonRanges)
{
    ThreadPool pool(4);
    int calls = 0;
    pool.parallelFor(5, 5, [&](size_t) { ++calls; });
    EXPECT_EQ(calls, 0);
    pool.parallelFor(7, 8, [&](size_t i) {
        ++calls;
        EXPECT_EQ(i, 7u);
    });
    EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, ChunksAreContiguousAndOrdered)
{
    ThreadPool pool(3);
    std::vector<std::pair<size_t, size_t>> chunks(3,
                                                  {size_t(0), size_t(0)});
    std::atomic<size_t> next{0};
    pool.parallelForChunks(10, 110, [&](size_t lo, size_t hi) {
        ASSERT_LT(lo, hi);
        chunks[next.fetch_add(1)] = {lo, hi};
    });
    ASSERT_EQ(next.load(), 3u);
    std::sort(chunks.begin(), chunks.end());
    EXPECT_EQ(chunks.front().first, 10u);
    EXPECT_EQ(chunks.back().second, 110u);
    for (size_t c = 1; c < chunks.size(); ++c)
        EXPECT_EQ(chunks[c].first, chunks[c - 1].second);
}

TEST(ThreadPool, SingleThreadRunsInline)
{
    ThreadPool pool(1);
    EXPECT_EQ(pool.threadCount(), 1);
    std::thread::id caller = std::this_thread::get_id();
    pool.parallelFor(0, 16, [&](size_t) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
    });
}

TEST(ThreadPool, NestedParallelForRunsInline)
{
    ThreadPool pool(4);
    std::atomic<int> inner{0};
    pool.parallelFor(0, 8, [&](size_t) {
        // A nested call from a worker must not deadlock waiting for
        // the pool's own queue; it runs inline.
        pool.parallelFor(0, 4, [&](size_t) {
            inner.fetch_add(1, std::memory_order_relaxed);
        });
    });
    EXPECT_EQ(inner.load(), 8 * 4);
}

TEST(ThreadPool, PropagatesFirstException)
{
    for (int threads : {1, 4}) {
        ThreadPool pool(threads);
        std::atomic<int> ran{0};
        try {
            pool.parallelFor(0, 64, [&](size_t i) {
                ran.fetch_add(1, std::memory_order_relaxed);
                if (i == 13)
                    throw std::runtime_error("boom 13");
            });
            FAIL() << "expected exception with " << threads
                   << " threads";
        } catch (const std::runtime_error &e) {
            EXPECT_NE(std::string(e.what()).find("boom"),
                      std::string::npos);
        }
        EXPECT_GT(ran.load(), 0);
    }
}

TEST(ThreadPool, EnvOverridesDefaultThreadCount)
{
    ASSERT_EQ(setenv("ALR_THREADS", "3", 1), 0);
    EXPECT_EQ(ThreadPool::defaultThreadCount(), 3);
    ASSERT_EQ(setenv("ALR_THREADS", "not-a-number", 1), 0);
    EXPECT_GE(ThreadPool::defaultThreadCount(), 1);
    ASSERT_EQ(unsetenv("ALR_THREADS"), 0);
    EXPECT_GE(ThreadPool::defaultThreadCount(), 1);
}

TEST(ThreadPool, ParseThreadCountAcceptsOnlyBoundedIntegers)
{
    int n = -7;
    EXPECT_TRUE(ThreadPool::parseThreadCount("1", &n));
    EXPECT_EQ(n, 1);
    EXPECT_TRUE(ThreadPool::parseThreadCount("4", &n));
    EXPECT_EQ(n, 4);
    const std::string cap = std::to_string(ThreadPool::kMaxThreads);
    EXPECT_TRUE(ThreadPool::parseThreadCount(cap.c_str(), &n));
    EXPECT_EQ(n, ThreadPool::kMaxThreads);

    const std::string past = std::to_string(ThreadPool::kMaxThreads + 1);
    for (const char *bad :
         {"", "0", "-1", "4x", "x4", "1.5", "1000000", past.c_str(),
          "2147483648", "99999999999999999999999", "-99999999999999999999"}) {
        n = -7;
        EXPECT_FALSE(ThreadPool::parseThreadCount(bad, &n)) << bad;
        EXPECT_EQ(n, -7) << bad;
    }
}

TEST(ThreadPool, OutOfRangeEnvThreadCountFallsBack)
{
    ASSERT_EQ(unsetenv("ALR_THREADS"), 0);
    const int fallback = ThreadPool::defaultThreadCount();
    EXPECT_GE(fallback, 1);
    EXPECT_LE(fallback, ThreadPool::kMaxThreads);
    for (const char *bad : {"1000000", "99999999999999999999999", "0"}) {
        ASSERT_EQ(setenv("ALR_THREADS", bad, 1), 0);
        EXPECT_EQ(ThreadPool::defaultThreadCount(), fallback) << bad;
    }
    ASSERT_EQ(unsetenv("ALR_THREADS"), 0);
}

TEST(ThreadPool, GlobalPoolResizes)
{
    ThreadPool::setGlobalThreadCount(2);
    EXPECT_EQ(ThreadPool::global().threadCount(), 2);
    std::atomic<long> sum{0};
    parallelFor(1, 101, [&](size_t i) {
        sum.fetch_add(long(i), std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), 5050);
    ThreadPool::setGlobalThreadCount(0); // restore the env default
}

} // namespace
} // namespace alr
