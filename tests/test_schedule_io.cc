/**
 * @file
 * Persistent schedule cache (ISSUE 8): content-hash keys, the
 * versioned on-disk format, warm starts with zero compiles, and the
 * recompile fallback on every corruption the loader can meet.  A
 * restored schedule must be indistinguishable from a compiled one --
 * results, cycles, and the whole stat dump bit for bit.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "alrescha/accelerator.hh"
#include "alrescha/sim/replay.hh"
#include "alrescha/sim/schedule.hh"
#include "alrescha/sim/schedule_io.hh"
#include "common/hash.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "sparse/generators.hh"

using namespace alr;

namespace {

std::string
statDump(Engine &e)
{
    std::ostringstream os;
    e.statGroup().dump(os);
    return os.str();
}

AccelParams
makeParams(Index omega = 8)
{
    AccelParams p;
    p.omega = omega;
    return p;
}

/** A small SpMV problem (matrix + table) owned together. */
struct Problem
{
    CsrMatrix a;
    LocallyDenseMatrix ld;
    ConfigTable table;

    explicit Problem(uint64_t seed, Index omega = 8)
        : a([&] {
              Rng rng(seed);
              return gen::randomSpd(73, 5, rng);
          }()),
          ld(LocallyDenseMatrix::encode(a, omega, LdLayout::Plain)),
          table(ConfigTable::convert(KernelType::SpMV, ld))
    {
    }
};

/** Reads a string in place, so probing every offset of a cache file
 *  does not copy the file once per offset. */
struct ViewBuf : std::streambuf
{
    explicit ViewBuf(std::string &s)
    {
        setg(s.data(), s.data(), s.data() + s.size());
    }
};

} // namespace

TEST(ContentHash, StableAcrossIdenticalObjects)
{
    // Two encodings of the same matrix hash identically even though
    // they are distinct objects with distinct generations -- that is
    // what makes the persisted cache restart-stable.
    Problem p1(42), p2(42);
    EXPECT_EQ(p1.ld.contentHash(), p2.ld.contentHash());
    EXPECT_EQ(p1.table.contentHash(), p2.table.contentHash());

    Problem other(43);
    EXPECT_NE(p1.ld.contentHash(), other.ld.contentHash());
}

TEST(ContentHash, PayloadChangesTheHash)
{
    Rng rng(7);
    CsrMatrix a = gen::randomSpd(48, 4, rng);
    CsrMatrix a2 = a;
    a2.vals()[0] *= 2.0; // same shape, one value differs
    auto ld = LocallyDenseMatrix::encode(a, 8, LdLayout::Plain);
    auto ld2 = LocallyDenseMatrix::encode(a2, 8, LdLayout::Plain);
    EXPECT_NE(ld.contentHash(), ld2.contentHash());
}

TEST(ContentHash, DigestIgnoresHowTheWritesAreSplit)
{
    // contentHash() is the word hash of the canonical serialized
    // bytes, and the streaming hasher must agree with a one-shot hash
    // however the serializer chops its writes.
    Problem p(81);
    std::ostringstream os;
    p.ld.serialize(os);
    const std::string bytes = os.str();
    const uint64_t oneShot = hash::words(bytes.data(), bytes.size());
    EXPECT_EQ(p.ld.contentHash(), oneShot);

    for (uint64_t seed = 1; seed <= 16; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Rng rng(seed);
        hash::HashingStreambuf buf;
        size_t at = 0;
        while (at < bytes.size()) {
            // Mostly short writes, some single characters (the
            // overflow path), some long runs spanning many stripes.
            size_t len = rng.nextBool(0.1) ? 1 + rng.nextRange(300)
                                           : rng.nextRange(12);
            len = std::min(len, bytes.size() - at);
            if (len == 1)
                buf.sputc(bytes[at]);
            else
                buf.sputn(bytes.data() + at, std::streamsize(len));
            at += len;
        }
        EXPECT_EQ(buf.digest(), oneShot);
    }

    // Every length around the 8-byte word and 32-byte stripe edges,
    // split at every point.
    for (size_t n = 0; n <= 70; ++n) {
        const uint64_t whole = hash::words(bytes.data(), n);
        for (size_t cut = 0; cut <= n; ++cut) {
            hash::HashingStreambuf buf;
            buf.sputn(bytes.data(), std::streamsize(cut));
            buf.sputn(bytes.data() + cut, std::streamsize(n - cut));
            EXPECT_EQ(buf.digest(), whole) << "n " << n << " cut " << cut;
        }
        if (n > 0) {
            EXPECT_NE(whole, hash::words(bytes.data(), n - 1)) << "n " << n;
        }
    }
}

TEST(ScheduleSerialization, RoundTripReplaysBitIdentically)
{
    Problem p(11);
    AccelParams params = makeParams();
    ExecSchedule s = compileSchedule(p.ld, p.table, params);

    std::stringstream ss;
    serializeSchedule(ss, s);
    ExecSchedule back = deserializeSchedule(ss);
    replay::specialize(back, params);

    // Flat fields and every vector round-trip exactly.
    EXPECT_EQ(back.kernel, s.kernel);
    EXPECT_EQ(back.omega, s.omega);
    EXPECT_EQ(back.pathCount, s.pathCount);
    EXPECT_EQ(back.dp, s.dp);
    EXPECT_EQ(back.rowIndex, s.rowIndex);
    EXPECT_EQ(back.values, s.values);
    EXPECT_EQ(back.rowBegin, s.rowBegin);
    EXPECT_EQ(back.streamCycles, s.streamCycles);
    EXPECT_EQ(back.totalStreamBytes, s.totalStreamBytes);
    EXPECT_EQ(back.parFlops, s.parFlops);
    EXPECT_EQ(back.paddedOperand, s.paddedOperand);
}

TEST(ScheduleCachePersistence, WarmStartCompilesNothing)
{
    Problem p(21);
    AccelParams params = makeParams();
    DenseVector x(p.a.cols());
    for (size_t i = 0; i < x.size(); ++i)
        x[i] = Value(i % 11) - 5.0;

    // Cold engine: compile, run, persist.
    Engine cold(params);
    cold.program(&p.ld, &p.table);
    DenseVector yCold = cold.runSpmv(x);
    EXPECT_EQ(cold.scheduleCompiles(), 1u);
    std::stringstream ss;
    ASSERT_TRUE(cold.saveScheduleCache(ss));

    // Warm engine: restore, program a *fresh copy* of the same matrix
    // (new generations, same content), run.  Zero compiles.
    Problem fresh(21);
    Engine warm(params);
    ASSERT_TRUE(warm.loadScheduleCache(ss));
    EXPECT_EQ(warm.restoredSchedules(), 1u);
    warm.program(&fresh.ld, &fresh.table);
    EXPECT_NE(warm.prepareSchedule(), nullptr);
    EXPECT_EQ(warm.scheduleCompiles(), 0u);

    // The restored schedule replays bit-identically: results, cycles,
    // and the entire stat dump.
    DenseVector yWarm = warm.runSpmv(x);
    EXPECT_EQ(yCold, yWarm);
    EXPECT_EQ(cold.totalCycles(), warm.totalCycles());
    EXPECT_EQ(statDump(cold), statDump(warm));
    EXPECT_EQ(warm.scheduleCompiles(), 0u);
}

TEST(ScheduleCachePersistence, MultiTableFleetRoundTrip)
{
    // A PDE accelerator persists all three schedules (SpMV + both
    // SymGS sweeps) and a rebuilt accelerator restores every one.
    CsrMatrix a = gen::stencil2d(9, 9);
    AccelParams params = makeParams();

    Accelerator cold(params);
    cold.loadPde(a);
    DenseVector b(a.rows(), 1.0), xc(a.rows(), 0.0);
    cold.spmv(b);
    cold.symgsSweep(b, xc, GsSweep::Symmetric);
    EXPECT_EQ(cold.engine().scheduleCompiles(), 3u);
    std::stringstream ss;
    ASSERT_TRUE(cold.engine().saveScheduleCache(ss));

    Accelerator warm(params);
    warm.loadPde(a);
    ASSERT_TRUE(warm.engine().loadScheduleCache(ss));
    EXPECT_EQ(warm.engine().restoredSchedules(), 3u);
    DenseVector xw(a.rows(), 0.0);
    DenseVector yw = warm.spmv(b);
    warm.symgsSweep(b, xw, GsSweep::Symmetric);
    EXPECT_EQ(warm.engine().scheduleCompiles(), 0u);
    EXPECT_EQ(xc, xw);
    EXPECT_EQ(cold.engine().totalCycles(), warm.engine().totalCycles());
    EXPECT_EQ(statDump(cold.engine()), statDump(warm.engine()));
}

TEST(ScheduleCachePersistence, FileRoundTripAndMissingFile)
{
    Problem p(31);
    Engine e(makeParams());
    e.program(&p.ld, &p.table);
    e.prepareSchedule();

    std::string path = ::testing::TempDir() + "sched_cache_rt.sched";
    ASSERT_TRUE(e.saveScheduleCacheFile(path));

    Engine warm(makeParams());
    EXPECT_TRUE(warm.loadScheduleCacheFile(path));
    EXPECT_EQ(warm.restoredSchedules(), 1u);

    // A missing file is a cold start, not an error.
    Engine cold2(makeParams());
    EXPECT_FALSE(cold2.loadScheduleCacheFile(path + ".does-not-exist"));
    EXPECT_EQ(cold2.restoredSchedules(), 0u);
    std::remove(path.c_str());
}

TEST(ScheduleCachePersistence, CorruptionFallsBackToRecompile)
{
    Problem p(41);
    Engine e(makeParams());
    e.program(&p.ld, &p.table);
    e.prepareSchedule();
    std::stringstream good;
    ASSERT_TRUE(e.saveScheduleCache(good));
    const std::string bytes = good.str();

    auto loadFails = [&](std::string mutated) {
        std::stringstream ss(std::move(mutated));
        Engine fresh(makeParams());
        bool ok = fresh.loadScheduleCache(ss);
        EXPECT_EQ(fresh.restoredSchedules(), 0u);
        return !ok;
    };

    // Wrong magic.
    {
        std::string bad = bytes;
        bad[0] = char(bad[0] + 1);
        EXPECT_TRUE(loadFails(bad));
    }
    // Truncated at every interesting boundary.
    EXPECT_TRUE(loadFails(bytes.substr(0, 3)));
    EXPECT_TRUE(loadFails(bytes.substr(0, 16)));
    EXPECT_TRUE(loadFails(bytes.substr(0, bytes.size() / 2)));
    EXPECT_TRUE(loadFails(bytes.substr(0, bytes.size() - 1)));
    // A flipped byte anywhere -- header fields or deep inside a
    // serialized double -- fails the body checksum (or a header gate)
    // and the loader rejects the whole file.  Every offset: the word
    // hash is injective in each word, so no single flip can slip by.
    {
        setLogCapture(true);
        Engine probe(makeParams());
        std::string bad = bytes;
        for (size_t off = 0; off < bad.size(); ++off) {
            bad[off] = char(bad[off] ^ 0x5a);
            ViewBuf view(bad);
            std::istream in(&view);
            EXPECT_FALSE(probe.loadScheduleCache(in))
                << "flip at offset " << off << " of " << bad.size();
            bad[off] = bytes[off];
        }
        setLogCapture(false);
        EXPECT_EQ(probe.restoredSchedules(), 0u);
    }
    // Empty stream.
    EXPECT_TRUE(loadFails(""));

    // After any failed load the engine recompiles and still computes
    // the right answer.
    Engine fresh(makeParams());
    std::stringstream trunc(bytes.substr(0, bytes.size() / 2));
    EXPECT_FALSE(fresh.loadScheduleCache(trunc));
    Problem same(41);
    fresh.program(&same.ld, &same.table);
    DenseVector x(p.a.cols(), 1.0);
    Engine ref(makeParams());
    Problem refp(41);
    ref.program(&refp.ld, &refp.table);
    EXPECT_EQ(fresh.runSpmv(x), ref.runSpmv(x));
    EXPECT_EQ(fresh.scheduleCompiles(), 1u);
}

TEST(ScheduleCachePersistence, VersionOneFilesRecompile)
{
    // Version 1 keyed and checksummed with FNV-1a; version 2 carried
    // the D-SymGS level schedule in its body; version 3 carried the
    // timing-walk partition boundaries; version 4 carried the block-row
    // group plan and three never-read records.  None can feed a
    // version 5 engine, so the header gate refuses all four files.
    Problem p(45);
    Engine e(makeParams());
    e.program(&p.ld, &p.table);
    e.prepareSchedule();
    std::stringstream good;
    ASSERT_TRUE(e.saveScheduleCache(good));
    const std::string current = good.str();
    uint32_t version = 0;
    std::memcpy(&version, current.data() + 4, sizeof(version));
    EXPECT_EQ(version, 5u);

    for (uint32_t old_version : {1u, 2u, 3u, 4u}) {
        SCOPED_TRACE("version " + std::to_string(old_version));
        std::string bytes = current;
        std::memcpy(bytes.data() + 4, &old_version, sizeof(old_version));

        setLogCapture(true);
        Engine warm(makeParams());
        std::stringstream old(bytes);
        EXPECT_FALSE(warm.loadScheduleCache(old));
        EXPECT_NE(setLogCapture(false).find("version mismatch"),
                  std::string::npos);
        EXPECT_EQ(warm.restoredSchedules(), 0u);

        Problem same(45);
        warm.program(&same.ld, &same.table);
        DenseVector x(same.a.cols(), 1.0);
        EXPECT_EQ(warm.runSpmv(x), e.runSpmv(x));
        EXPECT_EQ(warm.scheduleCompiles(), 1u);
    }
}

TEST(ScheduleCachePersistence, CraftedIndicesRecompile)
{
    // The body checksum is unkeyed, so a hand-edited cache file with a
    // recomputed checksum passes every gate of loadScheduleCache.  Its
    // indices are outside input: a restored schedule whose operand
    // length, chunk offsets or row indices do not fit the programmed
    // matrix must be recompiled, never replayed.
    Problem p(47);
    AccelParams params = makeParams();
    Engine cold(params);
    cold.program(&p.ld, &p.table);
    DenseVector x(p.a.cols());
    for (size_t i = 0; i < x.size(); ++i)
        x[i] = Value(i % 7) - 3.0;
    const DenseVector want = cold.runSpmv(x);
    std::stringstream saved;
    ASSERT_TRUE(cold.saveScheduleCache(saved));
    const std::string file = saved.str();

    // File layout: a 32-byte header (magic, version, params
    // fingerprint, body length, body checksum), then the body: a u32
    // schedule count and a 45-byte content key ahead of the one
    // serialized schedule, which a fresh compile reproduces exactly.
    constexpr size_t kHeader = 32, kKey = 4 + 45;
    const ExecSchedule s = compileSchedule(p.ld, p.table, params);
    {
        std::stringstream body;
        serializeSchedule(body, s);
        ASSERT_EQ(file.substr(kHeader + kKey), body.str());
    }
    ASSERT_GE(s.pathCount, 3u);
    auto craft = [&](const ExecSchedule &edited) {
        std::stringstream sched;
        serializeSchedule(sched, edited);
        const std::string body = file.substr(kHeader, kKey) + sched.str();
        const uint64_t len = body.size();
        const uint64_t sum = hash::words(body.data(), body.size());
        std::string out = file.substr(0, 16);
        out.append(reinterpret_cast<const char *>(&len), sizeof(len));
        out.append(reinterpret_cast<const char *>(&sum), sizeof(sum));
        return out + body;
    };

    // Restores cleanly, but does not fit the matrix.
    std::vector<std::pair<const char *, ExecSchedule>> misfits;
    misfits.emplace_back("row past the matrix edge and short operand", s);
    misfits.back().second.rowIndex.back() = p.ld.rows();
    misfits.back().second.paddedOperand -= s.omega;
    misfits.emplace_back("operand shorter than x", s);
    misfits.back().second.paddedOperand -= s.omega;
    misfits.emplace_back("row past the matrix edge", s);
    misfits.back().second.rowIndex.back() = p.ld.rows();
    misfits.emplace_back("row outside its block row", s);
    misfits.back().second.rowIndex.front() += s.omega;
    misfits.emplace_back("chunk past the operand", s);
    misfits.back().second.xOff.back() = uint32_t(s.paddedOperand);
    for (const auto &[what, edited] : misfits) {
        SCOPED_TRACE(what);
        std::stringstream in(craft(edited));
        Engine warm(params);
        ASSERT_TRUE(warm.loadScheduleCache(in));
        ASSERT_EQ(warm.restoredSchedules(), 1u);
        Problem same(47);
        warm.program(&same.ld, &same.table);
        setLogCapture(true);
        warm.prepareSchedule();
        const std::string log = setLogCapture(false);
        // Checked before the first replay, which would follow the
        // edited indices out of bounds.
        ASSERT_EQ(warm.scheduleCompiles(), 1u);
        EXPECT_NE(log.find("does not fit"), std::string::npos) << log;
        EXPECT_EQ(warm.runSpmv(x), want);
    }

    // Structurally inconsistent: the parser rejects the whole file.
    std::vector<std::pair<const char *, ExecSchedule>> corrupt;
    corrupt.emplace_back("rowBegin not monotone", s);
    corrupt.back().second.rowBegin[1] = s.rowBegin[2] + 1;
    corrupt.emplace_back("memCycles short of pathCount", s);
    corrupt.back().second.memCycles.pop_back();
    corrupt.emplace_back("xOff short of pathCount", s);
    corrupt.back().second.xOff.pop_back();
    for (const auto &[what, edited] : corrupt) {
        SCOPED_TRACE(what);
        std::stringstream in(craft(edited));
        Engine warm(params);
        setLogCapture(true);
        EXPECT_FALSE(warm.loadScheduleCache(in));
        EXPECT_NE(setLogCapture(false).find("inconsistent schedule"),
                  std::string::npos);
        EXPECT_EQ(warm.restoredSchedules(), 0u);
    }
}

TEST(ScheduleCachePersistence, ParamsFingerprintMismatchRejected)
{
    Problem p(51);
    Engine e(makeParams(8));
    e.program(&p.ld, &p.table);
    e.prepareSchedule();
    std::stringstream ss;
    ASSERT_TRUE(e.saveScheduleCache(ss));

    // A different omega reshapes every schedule: the fingerprint gate
    // rejects the whole file and the engine recompiles.
    AccelParams other = makeParams(8);
    other.cacheBytes *= 2;
    Engine warm(other);
    EXPECT_FALSE(warm.loadScheduleCache(ss));
    EXPECT_EQ(warm.restoredSchedules(), 0u);

    EXPECT_NE(scheduleParamsFingerprint(makeParams(8)),
              scheduleParamsFingerprint(other));
}

TEST(ScheduleCachePersistence, StaleHashRecompilesInsteadOfAliasing)
{
    // Persist a cache for matrix A, restore it, then serve matrix B
    // (same shape, different payload): the content hash must miss and
    // the engine must compile B's schedule, never replay A's.
    Rng rng(61);
    CsrMatrix a = gen::randomSpd(64, 5, rng);
    CsrMatrix b = a;
    for (Value &v : b.vals())
        v *= 3.0;

    AccelParams params = makeParams();
    auto ldA = LocallyDenseMatrix::encode(a, 8, LdLayout::Plain);
    auto tableA = ConfigTable::convert(KernelType::SpMV, ldA);
    Engine cold(params);
    cold.program(&ldA, &tableA);
    cold.prepareSchedule();
    std::stringstream ss;
    ASSERT_TRUE(cold.saveScheduleCache(ss));

    auto ldB = LocallyDenseMatrix::encode(b, 8, LdLayout::Plain);
    auto tableB = ConfigTable::convert(KernelType::SpMV, ldB);
    Engine warm(params);
    ASSERT_TRUE(warm.loadScheduleCache(ss));
    warm.program(&ldB, &tableB);
    DenseVector x(b.cols(), 1.0);
    DenseVector y = warm.runSpmv(x);
    EXPECT_EQ(warm.scheduleCompiles(), 1u)
        << "restored schedule served for a different matrix";

    Engine ref(params);
    ref.program(&ldB, &tableB);
    EXPECT_EQ(y, ref.runSpmv(x));
}

TEST(ScheduleCacheCapacity, ParamBoundsTheCacheAndCountsEvictions)
{
    Rng rng(71);
    CsrMatrix a = gen::randomSpd(48, 4, rng);
    auto ld = LocallyDenseMatrix::encode(a, 8, LdLayout::Plain);
    std::vector<ConfigTable> tables;
    for (int i = 0; i < 5; ++i)
        tables.push_back(ConfigTable::convert(KernelType::SpMV, ld));

    AccelParams params = makeParams();
    params.scheduleCacheCapacity = 2;
    Engine e(params);
    DenseVector x(a.cols(), 1.0);
    for (auto &t : tables) {
        e.program(&ld, &t);
        e.runSpmv(x);
    }
    EXPECT_EQ(e.scheduleCompiles(), 5u);
    EXPECT_EQ(e.cachedSchedules(), 2u);
    EXPECT_EQ(e.scheduleEvictions(), 3u);

    // The eviction count is a registered stat, visible in the dump.
    EXPECT_NE(statDump(e).find("schedule_evictions"), std::string::npos);
}

TEST(ScheduleCacheCapacity, RestoredPoolSurvivesEviction)
{
    // Capacity 1 with two restored schedules: each program() switch
    // evicts the other's slot, but promotion out of the restored pool
    // happened at most once per table -- after both promotions the
    // evicted schedule is gone and must recompile (correct, counted).
    CsrMatrix a = gen::stencil2d(8, 8);
    AccelParams params = makeParams();
    Accelerator cold(params);
    cold.loadPde(a);
    DenseVector b(a.rows(), 1.0), x0(a.rows(), 0.0);
    cold.spmv(b);
    cold.symgsSweep(b, x0, GsSweep::Forward);
    std::stringstream ss;
    ASSERT_TRUE(cold.engine().saveScheduleCache(ss));

    AccelParams tiny = params;
    tiny.scheduleCacheCapacity = 1;
    Accelerator warm(tiny);
    warm.loadPde(a);
    ASSERT_TRUE(warm.engine().loadScheduleCache(ss));
    EXPECT_EQ(warm.engine().restoredSchedules(), 2u);

    DenseVector xw(a.rows(), 0.0);
    warm.spmv(b);                               // restore #1
    warm.symgsSweep(b, xw, GsSweep::Forward);   // restore #2, evicts #1
    EXPECT_EQ(warm.engine().scheduleCompiles(), 0u);
    warm.spmv(b); // evicted and no longer in the pool: recompile
    EXPECT_EQ(warm.engine().scheduleCompiles(), 1u);
    EXPECT_GE(warm.engine().scheduleEvictions(), 1u);
}
