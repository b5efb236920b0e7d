/**
 * @file
 * Graph-round differential tests: the engine's occupancy-plan walk for
 * D-PR, D-BFS, D-SSSP, and label propagation must reproduce the
 * per-element reference loops (engine_reference.hh) bit for bit --
 * round values, RunTiming, the whole stat dump, and the profile
 * snapshot -- over randomized matrices, omegas (including non-powers
 * of two and a multi-word lane mask), row skipping on and off, full
 * and frontier rounds, and consecutive rounds on one engine so cache
 * and switch state carry across rounds and kernels.  Plus the plan
 * invalidation test: re-encoding a different matrix into the same
 * object must never replay a stale plan.
 */

#include <gtest/gtest.h>

#include <bit>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "alrescha/sim/engine.hh"
#include "alrescha/sim/profile.hh"
#include "common/random.hh"
#include "engine_reference.hh"
#include "sparse/coo.hh"

using namespace alr;
using testref::ReferenceEngine;
using testref::statDump;

namespace {

constexpr Value kInfV = std::numeric_limits<Value>::infinity();

struct ProfileGuard
{
    ProfileGuard() { profile::reset(); }
    ~ProfileGuard()
    {
        profile::setEnabled(false);
        profile::reset();
    }
};

AccelParams
makeParams(Index omega, bool skip)
{
    AccelParams p;
    p.omega = omega;
    p.skipEmptyBlockRows = skip;
    return p;
}

/**
 * A random square matrix of positive weights with the shapes the plan
 * must get right: empty rows and columns, one dense row, a size that is
 * not a multiple of omega, and one fully dense block next to very
 * sparse ones.
 */
CsrMatrix
randomMatrix(Rng &rng, Index omega)
{
    Index n = omega * Index(3 + rng.nextRange(6)) + 1 +
              Index(rng.nextRange(omega > 1 ? omega - 1 : 1));
    if (n % omega == 0)
        ++n;
    CooMatrix coo(n, n);
    const Index emptyRow = Index(rng.nextRange(n));
    const Index emptyCol = Index(rng.nextRange(n));
    Index denseRow = Index(rng.nextRange(n));
    if (denseRow == emptyRow)
        denseRow = (denseRow + 1) % n;
    auto add = [&](Index r, Index c) {
        if (r != emptyRow && c != emptyCol)
            coo.add(r, c, rng.nextDouble(0.5, 9.5));
    };
    const Index edges = n * Index(1 + rng.nextRange(4));
    for (Index k = 0; k < edges; ++k)
        add(Index(rng.nextRange(n)), Index(rng.nextRange(n)));
    for (Index c = 0; c < n; ++c)
        add(denseRow, c);
    // One fully dense diagonal block.
    Index b0 = Index(rng.nextRange(n / omega)) * omega;
    for (Index r = b0; r < b0 + omega; ++r)
        for (Index c = b0; c < b0 + omega; ++c)
            add(r, c);
    return CsrMatrix::fromCoo(coo);
}

/** Operand vectors with the values that separate sloppy reductions:
 *  infinities, signed zeros, and ordinary magnitudes. */
DenseVector
randomOperand(Rng &rng, Index n, bool allow_inf)
{
    DenseVector v(n);
    for (Index i = 0; i < n; ++i) {
        uint64_t pick = rng.nextRange(10);
        if (pick == 0 && allow_inf)
            v[i] = kInfV;
        else if (pick == 1)
            v[i] = -0.0;
        else if (pick == 2)
            v[i] = 0.0;
        else
            v[i] = rng.nextDouble(-3.0, 12.0);
    }
    return v;
}

std::vector<uint8_t>
randomFrontier(Rng &rng, Index n, Index omega)
{
    std::vector<uint8_t> active((n + omega - 1) / omega);
    for (uint8_t &a : active)
        a = rng.nextBool(0.5) ? 1 : 0;
    return active;
}

void
expectBitsEq(const DenseVector &a, const DenseVector &b,
             const std::string &what)
{
    ASSERT_EQ(a.size(), b.size()) << what;
    for (size_t i = 0; i < a.size(); ++i)
        ASSERT_EQ(std::bit_cast<uint64_t>(a[i]),
                  std::bit_cast<uint64_t>(b[i]))
            << what << ": entry " << i << " (" << a[i] << " vs " << b[i]
            << ")";
}

void
expectSnapshotsEq(const profile::Snapshot &a, const profile::Snapshot &b,
                  const std::string &what)
{
    EXPECT_EQ(a.attributedCycles, b.attributedCycles) << what;
    EXPECT_EQ(a.attributedBytes, b.attributedBytes) << what;
    EXPECT_EQ(a.runs, b.runs) << what;
    ASSERT_EQ(a.buckets.size(), b.buckets.size()) << what;
    for (size_t i = 0; i < a.buckets.size(); ++i) {
        const profile::BucketRow &x = a.buckets[i];
        const profile::BucketRow &y = b.buckets[i];
        EXPECT_TRUE(x.dp == y.dp && x.blockRow == y.blockRow &&
                    x.cause == y.cause && x.cycles == y.cycles &&
                    x.bytes == y.bytes)
            << what << ": bucket " << i << " (" << toString(x.dp)
            << ", row " << x.blockRow << ", "
            << profile::toString(x.cause) << ")";
    }
}

/**
 * Drives one reference model and one engine through the same round
 * sequence and checks every round: values, timing, the stat dump, and
 * (on profiled rounds) the profile snapshot.
 */
class Pair
{
  public:
    explicit Pair(const AccelParams &p) : _ref(p), _eng(p) {}

    void program(const LocallyDenseMatrix *ld, const ConfigTable *t)
    {
        _ref.program(ld, t);
        _eng.program(ld, t);
    }

    template <class Fn>
    DenseVector round(const std::string &what, bool profiled, Fn &&fn)
    {
        profile::reset();
        profile::setEnabled(profiled);
        RunTiming tr, te;
        DenseVector vr = fn(_ref, &tr);
        profile::Snapshot sr = profile::snapshot();
        profile::reset();
        DenseVector ve = fn(_eng, &te);
        profile::Snapshot se = profile::snapshot();
        profile::setEnabled(false);

        expectBitsEq(vr, ve, what);
        EXPECT_EQ(tr.cycles, te.cycles) << what;
        EXPECT_EQ(tr.seqCycles, te.seqCycles) << what;
        EXPECT_EQ(tr.parCycles, te.parCycles) << what;
        EXPECT_EQ(statDump(_ref), statDump(_eng)) << what;
        EXPECT_EQ(_ref.memory().totalBytes(), _eng.memory().totalBytes())
            << what;
        if (profiled)
            expectSnapshotsEq(sr, se, what);
        return ve;
    }

  private:
    ReferenceEngine _ref;
    Engine _eng;
};

/** The full round mix on one matrix: PR, BFS, CC, SSSP (full and
 *  frontier), then PR again after the relax rounds. */
void
runDifferential(uint64_t seed, Index omega, bool skip)
{
    std::string tag = "seed " + std::to_string(seed) + " omega " +
                      std::to_string(omega) +
                      (skip ? " skip-on" : " skip-off");
    SCOPED_TRACE(tag);
    Rng rng(seed);
    CsrMatrix m = randomMatrix(rng, omega);
    const Index n = m.rows();
    LocallyDenseMatrix ld =
        LocallyDenseMatrix::encode(m, omega, LdLayout::Plain);
    ConfigTable prT = ConfigTable::convert(KernelType::PageRank, ld);
    ConfigTable bfsT = ConfigTable::convert(KernelType::BFS, ld);
    ConfigTable ssspT = ConfigTable::convert(KernelType::SSSP, ld);
    std::vector<Index> outdeg(n);
    for (Index &d : outdeg)
        d = rng.nextBool(0.2) ? 0 : Index(1 + rng.nextRange(9));

    ProfileGuard guard;
    Pair pair(makeParams(omega, skip));
    int k = 0;
    auto name = [&](const char *what) {
        return tag + " round " + std::to_string(k++) + " " + what;
    };

    pair.program(&ld, &prT);
    DenseVector rank = randomOperand(rng, n, false);
    for (int it = 0; it < 3; ++it) {
        rank = pair.round(name("pagerank"), it != 1,
                          [&](auto &e, RunTiming *t) {
                              return e.runPrRound(rank, outdeg, t);
                          });
    }
    // An infinite rank turns 0 x inf into NaN on every absent lane of
    // its chunk: the plan walk must keep those lanes.
    DenseVector hot = randomOperand(rng, n, true);
    pair.round(name("pagerank inf"), true, [&](auto &e, RunTiming *t) {
        return e.runPrRound(hot, outdeg, t);
    });

    pair.program(&ld, &bfsT);
    DenseVector dist = randomOperand(rng, n, true);
    dist = pair.round(name("bfs"), true, [&](auto &e, RunTiming *t) {
        return e.runRelaxRound(dist, t);
    });
    std::vector<uint8_t> active = randomFrontier(rng, n, omega);
    dist = pair.round(name("bfs frontier"), false,
                      [&](auto &e, RunTiming *t) {
                          return e.runRelaxRound(dist, active, t);
                      });
    DenseVector labels = randomOperand(rng, n, true);
    labels = pair.round(name("cc"), true, [&](auto &e, RunTiming *t) {
        return e.runLabelRound(labels, t);
    });
    active = randomFrontier(rng, n, omega);
    pair.round(name("cc frontier"), true, [&](auto &e, RunTiming *t) {
        return e.runLabelRound(labels, active, t);
    });

    pair.program(&ld, &ssspT);
    DenseVector sd = randomOperand(rng, n, true);
    for (int it = 0; it < 2; ++it) {
        sd = pair.round(name("sssp"), it == 0, [&](auto &e, RunTiming *t) {
            return e.runRelaxRound(sd, t);
        });
    }
    active = randomFrontier(rng, n, omega);
    pair.round(name("sssp frontier"), true, [&](auto &e, RunTiming *t) {
        return e.runRelaxRound(sd, active, t);
    });

    pair.program(&ld, &prT);
    pair.round(name("pagerank after relax"), true,
               [&](auto &e, RunTiming *t) {
                   return e.runPrRound(rank, outdeg, t);
               });
}

} // namespace

TEST(GraphRoundDifferential, MatchesReferenceAcrossOmegasAndSkipping)
{
    for (Index omega : {Index(2), Index(3), Index(4), Index(8), Index(16)}) {
        for (bool skip : {true, false}) {
            for (uint64_t s = 0; s < 4; ++s) {
                uint64_t seed = 1000 * omega + 10 * s + (skip ? 1 : 0);
                runDifferential(seed, omega, skip);
                if (::testing::Test::HasFatalFailure())
                    return;
            }
        }
    }
}

TEST(GraphRoundDifferential, MultiWordLaneMasks)
{
    // omega > 64: each block row's mask spans two words.
    for (bool skip : {true, false})
        runDifferential(7070 + (skip ? 1 : 0), 70, skip);
}

TEST(GraphPlanInvalidation, ReencodedMatrixNeverReplaysAStalePlan)
{
    // Two matrices with the same block structure but different in-block
    // patterns, re-encoded into the same objects: a plan keyed on the
    // object (or on the block list) would replay A's masks for B.
    const Index omega = 4;
    Rng rng(99);
    CooMatrix ca(37, 37), cb(37, 37);
    for (int k = 0; k < 120; ++k) {
        Index r = Index(rng.nextRange(37)), c = Index(rng.nextRange(37));
        Value w = rng.nextDouble(1.0, 5.0);
        ca.add(r, c, w);
        // Same block, other lane: c ^ 1 stays inside the block column.
        Index c2 = (c ^ 1) < 37 ? (c ^ 1) : c;
        cb.add(r, c2, w + 1.0);
    }
    CsrMatrix a = CsrMatrix::fromCoo(ca), b = CsrMatrix::fromCoo(cb);
    std::vector<Index> outdeg(37, 2);
    DenseVector rank(37);
    for (Index v = 0; v < 37; ++v)
        rank[v] = 1.0 + double(v);
    DenseVector dist(37, kInfV);
    dist[0] = 0.0;
    dist[5] = 1.0;

    for (bool skip : {true, false}) {
        SCOPED_TRACE(skip ? "skip-on" : "skip-off");
        LocallyDenseMatrix ld =
            LocallyDenseMatrix::encode(a, omega, LdLayout::Plain);
        ConfigTable prT = ConfigTable::convert(KernelType::PageRank, ld);
        ConfigTable ssspT = ConfigTable::convert(KernelType::SSSP, ld);
        ProfileGuard guard;
        Pair pair(makeParams(omega, skip));

        pair.program(&ld, &prT);
        DenseVector ra = pair.round("A pagerank", true,
                                    [&](auto &e, RunTiming *t) {
                                        return e.runPrRound(rank, outdeg, t);
                                    });
        pair.program(&ld, &ssspT);
        pair.round("A sssp", true, [&](auto &e, RunTiming *t) {
            return e.runRelaxRound(dist, t);
        });

        const LocallyDenseMatrix *addr = &ld;
        const size_t blocksA = ld.blocks().size();
        ld = LocallyDenseMatrix::encode(b, omega, LdLayout::Plain);
        prT = ConfigTable::convert(KernelType::PageRank, ld);
        ssspT = ConfigTable::convert(KernelType::SSSP, ld);
        ASSERT_EQ(&ld, addr);
        ASSERT_EQ(ld.blocks().size(), blocksA)
            << "B must share A's block structure for this test to bite";

        pair.program(&ld, &prT);
        DenseVector rb = pair.round("B pagerank", true,
                                    [&](auto &e, RunTiming *t) {
                                        return e.runPrRound(rank, outdeg, t);
                                    });
        EXPECT_NE(ra, rb) << "A and B must round differently";
        pair.program(&ld, &ssspT);
        pair.round("B sssp", true, [&](auto &e, RunTiming *t) {
            return e.runRelaxRound(dist, t);
        });
    }
}
