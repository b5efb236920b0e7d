/**
 * @file
 * Timing walk tests: the scheduled engine (functional replay plus the
 * in-order timing walk) must be bit-identical to the per-entry
 * reference model (engine_reference.hh) -- results, cycle counts, full
 * stat dumps, profile buckets, and modeled timeline events -- with the
 * matrix preprocessed on host pools of 1 to 8 workers and on the
 * default pool, and across cache geometries and exposed
 * reconfiguration costs.  Plus the profiler conservation invariant.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "alrescha/accelerator.hh"
#include "alrescha/sim/profile.hh"
#include "alrescha/sim/schedule.hh"
#include "common/random.hh"
#include "common/timeline.hh"
#include "engine_reference.hh"
#include "sparse/generators.hh"

using namespace alr;
using testref::ReferenceEngine;
using testref::statDump;

namespace {

AccelParams
makeParams(Index omega)
{
    AccelParams p;
    p.omega = omega;
    return p;
}

void
expectTimingEq(const RunTiming &a, const RunTiming &b, const char *what)
{
    EXPECT_EQ(a.cycles, b.cycles) << what;
    EXPECT_EQ(a.seqCycles, b.seqCycles) << what;
    EXPECT_EQ(a.parCycles, b.parCycles) << what;
}

struct ProfileGuard
{
    ProfileGuard()
    {
        profile::reset();
        profile::setEnabled(true);
    }
    ~ProfileGuard()
    {
        profile::setEnabled(false);
        profile::reset();
    }
};

struct TimelineGuard
{
    TimelineGuard()
    {
        timeline::reset();
        timeline::setEnabled(true);
    }
    ~TimelineGuard()
    {
        timeline::setEnabled(false);
        timeline::reset();
    }
};

void
expectSameBuckets(const profile::Snapshot &a, const profile::Snapshot &b,
                  const std::string &what)
{
    ASSERT_EQ(a.buckets.size(), b.buckets.size()) << what;
    for (size_t i = 0; i < a.buckets.size(); ++i) {
        const profile::BucketRow &ra = a.buckets[i];
        const profile::BucketRow &rb = b.buckets[i];
        EXPECT_EQ(ra.dp, rb.dp) << what << " bucket " << i;
        EXPECT_EQ(ra.blockRow, rb.blockRow) << what << " bucket " << i;
        EXPECT_EQ(ra.cause, rb.cause) << what << " bucket " << i;
        EXPECT_EQ(ra.cycles, rb.cycles)
            << what << " bucket " << i << " (" << toString(ra.dp)
            << ", row " << ra.blockRow << ", "
            << profile::toString(ra.cause) << ")";
        EXPECT_EQ(ra.bytes, rb.bytes)
            << what << " bucket " << i << " (" << toString(ra.dp)
            << ", row " << ra.blockRow << ", "
            << profile::toString(ra.cause) << ")";
    }
}

/** Modeled-pid events only: host spans (wall clocks, worker tracks)
 *  legitimately differ between engines and pool sizes. */
std::vector<timeline::Event>
modeledEvents()
{
    std::vector<timeline::Event> out;
    for (const timeline::Event &e : timeline::events())
        if (e.pid == timeline::kPidModeled)
            out.push_back(e);
    return out;
}

void
expectSameModeledEvents(const std::vector<timeline::Event> &a,
                        const std::vector<timeline::Event> &b,
                        const std::string &what)
{
    ASSERT_EQ(a.size(), b.size()) << what;
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_STREQ(a[i].name, b[i].name) << what << " event " << i;
        EXPECT_STREQ(a[i].cat, b[i].cat) << what << " event " << i;
        EXPECT_EQ(a[i].ts, b[i].ts)
            << what << " event " << i << " (" << a[i].name << ")";
        EXPECT_EQ(a[i].dur, b[i].dur)
            << what << " event " << i << " (" << a[i].name << ")";
        EXPECT_EQ(a[i].value, b[i].value) << what << " event " << i;
        EXPECT_EQ(a[i].tid, b[i].tid) << what << " event " << i;
        EXPECT_EQ(a[i].kind, b[i].kind) << what << " event " << i;
    }
}

struct Case
{
    Index omega;
    /** Process-wide host pool size the case encodes and converts on
     *  (0: the ALR_THREADS default); the "_t" of the test name. */
    int poolThreads;
    uint64_t seed;
};

class PwalkEquivalence : public ::testing::TestWithParam<Case>
{
  protected:
    testref::GlobalPoolScope _pool{GetParam().poolThreads};
};

} // namespace

// ---------------------------------------------------------------------
// Bit-identity sweep: the scheduled engine must reproduce the
// reference model exactly -- results, all three cycle counters, and
// the entire serialized stat dump -- with cache and switch state
// carried across repeated runs, whatever host pool preprocessed the
// matrix.

TEST_P(PwalkEquivalence, SpmvBitIdentical)
{
    const Case c = GetParam();
    Rng rng(c.seed);
    CsrMatrix a = gen::randomSpd(97, 6, rng);
    LocallyDenseMatrix ld =
        LocallyDenseMatrix::encode(a, c.omega, LdLayout::Plain);
    ConfigTable table = ConfigTable::convert(KernelType::SpMV, ld);

    ReferenceEngine ser(makeParams(c.omega));
    Engine par(makeParams(c.omega));
    ser.program(&ld, &table);
    par.program(&ld, &table);

    DenseVector x(a.cols());
    for (size_t i = 0; i < x.size(); ++i)
        x[i] = Value(i % 13) - 6.0;

    for (int run = 0; run < 3; ++run) {
        RunTiming ts, tp;
        DenseVector ys = ser.runSpmv(x, &ts);
        DenseVector yp = par.runSpmv(x, &tp);
        ASSERT_EQ(ys, yp) << "run " << run;
        expectTimingEq(ts, tp, "spmv timing");
    }
    EXPECT_EQ(statDump(ser), statDump(par));
}

TEST_P(PwalkEquivalence, SpmmBitIdentical)
{
    const Case c = GetParam();
    Rng rng(c.seed + 100);
    CsrMatrix a = gen::blockStructured(96, c.omega, 3, 0.5, rng);
    LocallyDenseMatrix ld =
        LocallyDenseMatrix::encode(a, c.omega, LdLayout::Plain);
    ConfigTable table = ConfigTable::convert(KernelType::SpMV, ld);

    ReferenceEngine ser(makeParams(c.omega));
    Engine par(makeParams(c.omega));
    ser.program(&ld, &table);
    par.program(&ld, &table);

    std::vector<DenseVector> xs(3, DenseVector(a.cols()));
    for (size_t j = 0; j < xs.size(); ++j)
        for (size_t i = 0; i < xs[j].size(); ++i)
            xs[j][i] = Value((i * (j + 1)) % 17) - 8.0;

    for (int run = 0; run < 3; ++run) {
        RunTiming ts, tp;
        auto ys = ser.runSpmm(xs, &ts);
        auto yp = par.runSpmm(xs, &tp);
        ASSERT_EQ(ys, yp) << "run " << run;
        expectTimingEq(ts, tp, "spmm timing");
    }
    EXPECT_EQ(statDump(ser), statDump(par));
}

TEST_P(PwalkEquivalence, SymgsBitIdentical)
{
    const Case c = GetParam();
    Rng rng(c.seed + 200);
    CsrMatrix a = gen::banded(101, 5, 0.7, rng);
    LocallyDenseMatrix ld =
        LocallyDenseMatrix::encode(a, c.omega, LdLayout::SymGs);
    ConfigTable fwd = ConfigTable::convert(KernelType::SymGS, ld, true,
                                           GsSweep::Forward);
    ConfigTable bwd = ConfigTable::convert(KernelType::SymGS, ld, true,
                                           GsSweep::Backward);

    ReferenceEngine ser(makeParams(c.omega));
    Engine par(makeParams(c.omega));

    DenseVector b(a.rows(), 1.0);
    DenseVector xs(a.rows(), 0.0), xp(a.rows(), 0.0);
    for (int run = 0; run < 4; ++run) {
        const ConfigTable &t = run % 2 ? bwd : fwd;
        ser.program(&ld, &t);
        par.program(&ld, &t);
        RunTiming ts, tp;
        ser.runSymgsSweep(b, xs, &ts);
        par.runSymgsSweep(b, xp, &tp);
        ASSERT_EQ(xs, xp) << "sweep " << run;
        expectTimingEq(ts, tp, "symgs timing");
    }
    EXPECT_EQ(statDump(ser), statDump(par));
}

TEST_P(PwalkEquivalence, MixedKernelsShareState)
{
    // Interleave SpMV and SymGS through one engine pair: the walk must
    // leave cache, link-stack, and switch state exactly where the
    // reference model does, or the next kernel diverges.
    const Case c = GetParam();
    CsrMatrix a = gen::stencil2d(9, 9);
    LocallyDenseMatrix ld =
        LocallyDenseMatrix::encode(a, c.omega, LdLayout::SymGs);
    ConfigTable spmv = ConfigTable::convert(KernelType::SpMV, ld);
    ConfigTable fwd = ConfigTable::convert(KernelType::SymGS, ld, true,
                                           GsSweep::Forward);

    ReferenceEngine ser(makeParams(c.omega));
    Engine par(makeParams(c.omega));

    DenseVector b(a.rows(), 0.5);
    DenseVector xs(a.rows(), 0.0), xp(a.rows(), 0.0);
    for (int run = 0; run < 3; ++run) {
        ser.program(&ld, &spmv);
        par.program(&ld, &spmv);
        RunTiming ts, tp;
        DenseVector ys = ser.runSpmv(b, &ts);
        DenseVector yp = par.runSpmv(b, &tp);
        ASSERT_EQ(ys, yp);
        expectTimingEq(ts, tp, "mixed spmv timing");

        ser.program(&ld, &fwd);
        par.program(&ld, &fwd);
        ser.runSymgsSweep(b, xs, &ts);
        par.runSymgsSweep(b, xp, &tp);
        ASSERT_EQ(xs, xp);
        expectTimingEq(ts, tp, "mixed symgs timing");
    }
    EXPECT_EQ(statDump(ser), statDump(par));
}

// ---------------------------------------------------------------------
// Profiler: every bucket identical to the reference model's, and the
// conservation invariant (attributed cycles == engine cycles,
// attributed bytes == memory traffic) holds because the walk emits
// attribution in path order.

TEST_P(PwalkEquivalence, ProfileBucketsIdenticalAndConserved)
{
    ProfileGuard guard;
    const Case c = GetParam();
    Rng rng(c.seed + 400);
    CsrMatrix a = gen::blockStructured(96, 8, 4, 0.7, rng);

    // The reference side runs on the accelerator's encoded matrix and
    // tables, exactly as the accelerator programs its own engine.
    auto runProfiled = [&](bool reference, const char *kernel,
                           uint64_t *cycles, double *bytes) {
        profile::reset();
        AccelParams params = makeParams(c.omega);
        Accelerator acc(params);
        ReferenceEngine ref(params);
        if (std::strcmp(kernel, "spmv") == 0) {
            acc.loadSpmvOnly(a);
            DenseVector x(a.cols(), 1.0);
            if (reference)
                testref::spmv(ref, acc, x);
            else
                acc.spmv(x);
        } else {
            acc.loadPde(a);
            DenseVector b(a.rows(), 1.0), x(a.rows(), 0.0);
            if (reference)
                testref::symgsSweep(ref, acc, b, x, GsSweep::Symmetric);
            else
                acc.symgsSweep(b, x, GsSweep::Symmetric);
        }
        *cycles = reference ? ref.totalCycles() : acc.engine().totalCycles();
        *bytes = reference ? ref.memory().totalBytes()
                           : acc.engine().memory().totalBytes();
        return profile::snapshot();
    };

    for (const char *kernel : {"spmv", "symgs"}) {
        uint64_t cs = 0, cp = 0;
        double bs = 0.0, bp = 0.0;
        profile::Snapshot ss = runProfiled(true, kernel, &cs, &bs);
        profile::Snapshot sp = runProfiled(false, kernel, &cp, &bp);
        std::string what = std::string(kernel) + " omega " +
                           std::to_string(c.omega);
        expectSameBuckets(ss, sp, what);
        EXPECT_EQ(cs, cp) << what;
        EXPECT_EQ(sp.attributedCycles, cp) << what;
        EXPECT_EQ(double(sp.attributedBytes), bp) << what;
        EXPECT_GT(sp.buckets.size(), 0u) << what;
    }
}

// ---------------------------------------------------------------------
// Timeline: the modeled event stream (spans and counters on the
// modeled pid) is identical in content AND order, since the walk emits
// it in path order exactly as the reference model does.  Host-pid spans
// are excluded: wall-clock tracks legitimately differ across engines
// and pool sizes.

TEST_P(PwalkEquivalence, ModeledTimelineIdentical)
{
    const Case c = GetParam();
    Rng rng(c.seed + 500);
    CsrMatrix a = gen::banded(101, 5, 0.7, rng);
    LocallyDenseMatrix ld =
        LocallyDenseMatrix::encode(a, c.omega, LdLayout::SymGs);
    ConfigTable spmv = ConfigTable::convert(KernelType::SpMV, ld);
    ConfigTable fwd = ConfigTable::convert(KernelType::SymGS, ld, true,
                                           GsSweep::Forward);

    auto capture = [&](auto &e) {
        TimelineGuard guard;
        DenseVector b(a.rows(), 0.5);
        DenseVector x(a.rows(), 0.0);
        for (int run = 0; run < 2; ++run) {
            e.program(&ld, &spmv);
            e.runSpmv(b, nullptr);
            e.program(&ld, &fwd);
            e.runSymgsSweep(b, x, nullptr);
        }
        return modeledEvents();
    };

    ReferenceEngine ref(makeParams(c.omega));
    Engine eng(makeParams(c.omega));
    std::vector<timeline::Event> ser = capture(ref);
    std::vector<timeline::Event> par = capture(eng);
    ASSERT_GT(ser.size(), 0u);
    expectSameModeledEvents(ser, par,
                            "omega " + std::to_string(c.omega));
}

// "OmegaThreads" and the "_t" suffix predate the engine thread knob's
// removal; they stay so that test ids stay comparable across history.
INSTANTIATE_TEST_SUITE_P(
    OmegaThreads, PwalkEquivalence,
    ::testing::Values(Case{4, 1, 21}, Case{4, 2, 22}, Case{4, 4, 23},
                      Case{4, 8, 24}, Case{8, 1, 25}, Case{8, 2, 26},
                      Case{8, 4, 27}, Case{8, 8, 28}, Case{2, 1, 29},
                      Case{2, 4, 30}, Case{16, 1, 31}, Case{16, 4, 32},
                      Case{8, 0, 33}),
    [](const ::testing::TestParamInfo<Case> &info) {
        // Appended piecewise: "w" + std::to_string(...) trips a GCC 12
        // -Wrestrict false positive at -O2.
        std::string name = "w";
        name += std::to_string(info.param.omega);
        name += "_t";
        name += std::to_string(info.param.poolThreads);
        return name;
    });

// ---------------------------------------------------------------------
// Cache geometry and exposed reconfiguration: a 2-line cache (nearly
// every access misses and evicts), a 1024-line cache (almost nothing
// evicts), and configCycles above the tree drain (every switch exposes
// cycles) must all stay bit-identical to the reference model through
// interleaved SpMV, SpMM and both SymGS sweep directions.

struct Geometry
{
    uint32_t cacheBytes;
    int configCycles;
};

std::string
geometryName(const Geometry &g)
{
    std::string name = "cache";
    name += std::to_string(g.cacheBytes);
    name += "_cfg";
    name += std::to_string(g.configCycles);
    return name;
}

class PwalkCacheGeometry : public ::testing::TestWithParam<Geometry>
{
};

TEST_P(PwalkCacheGeometry, AllKernelsBitIdentical)
{
    const Geometry g = GetParam();
    const std::string what = geometryName(g);
    AccelParams params = makeParams(8);
    params.cacheBytes = g.cacheBytes;
    params.configCycles = g.configCycles;

    Rng rng(61);
    CsrMatrix a = gen::banded(131, 9, 0.6, rng);
    LocallyDenseMatrix ld =
        LocallyDenseMatrix::encode(a, params.omega, LdLayout::SymGs);
    ConfigTable spmv = ConfigTable::convert(KernelType::SpMV, ld);
    ConfigTable fwd = ConfigTable::convert(KernelType::SymGS, ld, true,
                                           GsSweep::Forward);
    ConfigTable bwd = ConfigTable::convert(KernelType::SymGS, ld, true,
                                           GsSweep::Backward);

    struct Outcome
    {
        std::vector<DenseVector> ys;
        std::vector<RunTiming> ts;
        std::string stats;
        profile::Snapshot prof;
    };
    auto drive = [&](auto &e) {
        ProfileGuard guard;
        Outcome o;
        DenseVector b(a.rows(), 1.0), x(a.rows(), 0.0);
        std::vector<DenseVector> xs(3, DenseVector(a.cols()));
        for (size_t j = 0; j < xs.size(); ++j)
            for (size_t i = 0; i < xs[j].size(); ++i)
                xs[j][i] = Value((i * (j + 2)) % 11) - 5.0;
        for (int run = 0; run < 2; ++run) {
            RunTiming t;
            e.program(&ld, &spmv);
            o.ys.push_back(e.runSpmv(xs[0], &t));
            o.ts.push_back(t);
            for (DenseVector &y : e.runSpmm(xs, &t))
                o.ys.push_back(std::move(y));
            o.ts.push_back(t);
            for (const ConfigTable *table : {&fwd, &bwd}) {
                e.program(&ld, table);
                e.runSymgsSweep(b, x, &t);
                o.ys.push_back(x);
                o.ts.push_back(t);
            }
        }
        o.stats = statDump(e);
        o.prof = profile::snapshot();
        return o;
    };

    ReferenceEngine ref(params);
    Engine eng(params);
    Outcome want = drive(ref);
    Outcome got = drive(eng);
    ASSERT_EQ(want.ys, got.ys);
    ASSERT_EQ(want.ts.size(), got.ts.size());
    for (size_t i = 0; i < want.ts.size(); ++i)
        expectTimingEq(want.ts[i], got.ts[i], what.c_str());
    EXPECT_EQ(want.stats, got.stats);
    expectSameBuckets(want.prof, got.prof, what);
    EXPECT_EQ(want.prof.attributedCycles, got.prof.attributedCycles);
    EXPECT_EQ(want.prof.attributedBytes, got.prof.attributedBytes);
    EXPECT_GT(eng.rcu().cache().misses(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, PwalkCacheGeometry,
    ::testing::Values(Geometry{128, 8}, Geometry{64 * 1024, 8},
                      Geometry{1024, 40}),
    [](const ::testing::TestParamInfo<Geometry> &info) {
        return geometryName(info.param);
    });
