/**
 * @file
 * Randomized differential tests over seeded random shapes: the engine's
 * scheduled SpMV, SpMM and SymGS must match the per-entry reference
 * model (engine_reference.hh) bit for bit -- results, RunTiming, and
 * the stat dump -- and the golden CSR kernels within rounding.
 *
 * Shapes cover rectangular matrices, empty rows and columns, a single
 * dense row, sizes that are not a multiple of omega, omega in
 * {2, 4, 8, 16}, k in {1, 3} right-hand sides, and square SPD systems
 * for forward and backward Gauss-Seidel sweeps.  Every failure names
 * its seed and shape.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <string>
#include <vector>

#include "common/random.hh"
#include "engine_reference.hh"
#include "kernels/spmv.hh"
#include "kernels/symgs.hh"
#include "sparse/coo.hh"

using namespace alr;
using testref::ReferenceEngine;
using testref::statDump;

namespace {

constexpr Index kOmegas[] = {2, 4, 8, 16};

/** A size in [omega, 7 omega] that is not a multiple of omega. */
Index
ragged(Rng &rng, Index omega)
{
    return omega * Index(1 + rng.nextRange(6)) +
           Index(1 + rng.nextRange(omega - 1));
}

AccelParams
makeParams(Index omega)
{
    AccelParams p;
    p.omega = omega;
    return p;
}

DenseVector
randomVector(Rng &rng, Index n)
{
    DenseVector v(n);
    for (Value &e : v)
        e = rng.nextDouble(-2.0, 2.0);
    return v;
}

/** Per-row sums of |a_ij x_j|: the golden comparison's tolerance scale,
 *  since the engine's tree order differs from CSR's left-to-right sum. */
std::vector<Value>
absRowSums(const CsrMatrix &a, const DenseVector &x)
{
    std::vector<Value> s(a.rows(), 0.0);
    for (Index r = 0; r < a.rows(); ++r)
        for (Index k = a.rowPtr()[r]; k < a.rowPtr()[r + 1]; ++k)
            s[r] += std::abs(a.vals()[k] * x[a.colIdx()[k]]);
    return s;
}

void
expectBitsEq(const DenseVector &a, const DenseVector &b, const char *what)
{
    ASSERT_EQ(a.size(), b.size()) << what;
    for (size_t i = 0; i < a.size(); ++i)
        ASSERT_EQ(std::bit_cast<uint64_t>(a[i]),
                  std::bit_cast<uint64_t>(b[i]))
            << what << ": entry " << i << " (" << a[i] << " vs " << b[i]
            << ")";
}

void
expectTimingEq(const RunTiming &a, const RunTiming &b, const char *what)
{
    EXPECT_EQ(a.cycles, b.cycles) << what;
    EXPECT_EQ(a.seqCycles, b.seqCycles) << what;
    EXPECT_EQ(a.parCycles, b.parCycles) << what;
}

/**
 * A rows x cols matrix with one empty row, one empty column, one dense
 * row, and a random fill elsewhere (some of it in the matrix's ragged
 * edge blocks).
 */
CsrMatrix
randomRectangular(Rng &rng, Index rows, Index cols)
{
    CooMatrix coo(rows, cols);
    const Index emptyRow = Index(rng.nextRange(rows));
    const Index emptyCol = Index(rng.nextRange(cols));
    Index denseRow = Index(rng.nextRange(rows));
    if (denseRow == emptyRow)
        denseRow = (denseRow + 1) % rows;
    auto add = [&](Index r, Index c) {
        if (r != emptyRow && c != emptyCol)
            coo.add(r, c, rng.nextDouble(-1.0, 1.0));
    };
    const Index fill = rows * Index(1 + rng.nextRange(3));
    for (Index k = 0; k < fill; ++k)
        add(Index(rng.nextRange(rows)), Index(rng.nextRange(cols)));
    for (Index c = 0; c < cols; ++c)
        add(denseRow, c);
    add(rows - 1, cols - 1);
    return CsrMatrix::fromCoo(coo);
}

/**
 * A symmetric, strictly diagonally dominant (hence SPD) n x n system
 * with one row that couples only to itself and one dense row (and so a
 * dense column).
 */
CsrMatrix
randomSpdSystem(Rng &rng, Index n)
{
    std::vector<std::vector<Value>> dense(n, std::vector<Value>(n, 0.0));
    const Index isolated = Index(rng.nextRange(n));
    Index hub = Index(rng.nextRange(n));
    if (hub == isolated)
        hub = (hub + 1) % n;
    auto couple = [&](Index i, Index j) {
        if (i == j || i == isolated || j == isolated)
            return;
        Value w = rng.nextDouble(-1.0, 1.0);
        dense[i][j] += w;
        dense[j][i] += w;
    };
    const Index fill = n * Index(1 + rng.nextRange(3));
    for (Index k = 0; k < fill; ++k)
        couple(Index(rng.nextRange(n)), Index(rng.nextRange(n)));
    for (Index j = 0; j < n; ++j)
        couple(hub, j);
    CooMatrix coo(n, n);
    for (Index i = 0; i < n; ++i) {
        Value offSum = 0.0;
        for (Index j = 0; j < n; ++j) {
            if (j != i && dense[i][j] != 0.0) {
                coo.add(i, j, dense[i][j]);
                offSum += std::abs(dense[i][j]);
            }
        }
        coo.add(i, i, offSum + 1.0 + rng.nextDouble(0.0, 1.0));
    }
    return CsrMatrix::fromCoo(coo);
}

std::string
shapeName(uint64_t seed, Index omega, const CsrMatrix &a, size_t k)
{
    std::string s = "seed ";
    s += std::to_string(seed);
    s += " omega ";
    s += std::to_string(omega);
    s += " shape ";
    s += std::to_string(a.rows());
    s += "x";
    s += std::to_string(a.cols());
    s += " nnz ";
    s += std::to_string(a.nnz());
    if (k > 0) {
        s += " k ";
        s += std::to_string(k);
    }
    return s;
}

} // namespace

TEST(RandomShapes, SpmvAndSpmmMatchReferenceAndGolden)
{
    for (uint64_t seed = 1; seed <= 48; ++seed) {
        Rng rng(seed * 7919);
        const Index omega = kOmegas[seed % 4];
        const size_t k = seed % 2 ? 3 : 1;
        CsrMatrix a = randomRectangular(rng, ragged(rng, omega),
                                        ragged(rng, omega));
        SCOPED_TRACE(shapeName(seed, omega, a, k));

        LocallyDenseMatrix ld =
            LocallyDenseMatrix::encode(a, omega, LdLayout::Plain);
        ConfigTable table = ConfigTable::convert(KernelType::SpMV, ld);
        ReferenceEngine ref(makeParams(omega));
        Engine eng(makeParams(omega));
        ref.program(&ld, &table);
        eng.program(&ld, &table);

        // Two SpMVs (cache state carries across runs), then one SpMM.
        for (int run = 0; run < 2; ++run) {
            DenseVector x = randomVector(rng, a.cols());
            RunTiming tr, te;
            DenseVector yr = ref.runSpmv(x, &tr);
            DenseVector ye = eng.runSpmv(x, &te);
            expectBitsEq(yr, ye, "spmv vs reference");
            expectTimingEq(tr, te, "spmv timing");
            DenseVector g = spmv(a, x);
            std::vector<Value> tol = absRowSums(a, x);
            for (Index i = 0; i < a.rows(); ++i)
                ASSERT_NEAR(ye[i], g[i], 1e-13 * (1.0 + tol[i]))
                    << "spmv vs golden, row " << i;
        }

        std::vector<DenseVector> xs;
        for (size_t j = 0; j < k; ++j)
            xs.push_back(randomVector(rng, a.cols()));
        RunTiming tr, te;
        std::vector<DenseVector> yr = ref.runSpmm(xs, &tr);
        std::vector<DenseVector> ye = eng.runSpmm(xs, &te);
        ASSERT_EQ(yr.size(), k);
        ASSERT_EQ(ye.size(), k);
        for (size_t j = 0; j < k; ++j) {
            expectBitsEq(yr[j], ye[j], "spmm vs reference");
            DenseVector g = spmv(a, xs[j]);
            std::vector<Value> tol = absRowSums(a, xs[j]);
            for (Index i = 0; i < a.rows(); ++i)
                ASSERT_NEAR(ye[j][i], g[i], 1e-13 * (1.0 + tol[i]))
                    << "spmm vs golden, rhs " << j << " row " << i;
        }
        expectTimingEq(tr, te, "spmm timing");
        EXPECT_EQ(statDump(ref), statDump(eng));
        if (::testing::Test::HasFatalFailure())
            return;
    }
}

TEST(RandomShapes, SymgsSweepsMatchReferenceAndGolden)
{
    for (uint64_t seed = 1; seed <= 32; ++seed) {
        Rng rng(seed * 104729);
        const Index omega = kOmegas[seed % 4];
        CsrMatrix a = randomSpdSystem(rng, ragged(rng, omega));
        SCOPED_TRACE(shapeName(seed, omega, a, 0));

        LocallyDenseMatrix ld =
            LocallyDenseMatrix::encode(a, omega, LdLayout::SymGs);
        ConfigTable fwd = ConfigTable::convert(KernelType::SymGS, ld, true,
                                               GsSweep::Forward);
        ConfigTable bwd = ConfigTable::convert(KernelType::SymGS, ld, true,
                                               GsSweep::Backward);
        ReferenceEngine ref(makeParams(omega));
        Engine eng(makeParams(omega));

        DenseVector b = randomVector(rng, a.rows());
        DenseVector x0 = randomVector(rng, a.rows());
        DenseVector xr = x0, xe = x0, xg = x0;
        // Forward, backward, forward: each sweep starts from the
        // previous iterate, so the recurrence is checked three times.
        for (int sweep = 0; sweep < 3; ++sweep) {
            const bool backward = sweep == 1;
            const ConfigTable &t = backward ? bwd : fwd;
            const char *dir = backward ? "backward" : "forward";
            ref.program(&ld, &t);
            eng.program(&ld, &t);
            RunTiming tr, te;
            ref.runSymgsSweep(b, xr, &tr);
            eng.runSymgsSweep(b, xe, &te);
            expectBitsEq(xr, xe, dir);
            expectTimingEq(tr, te, dir);
            gaussSeidelSweep(a, b, xg,
                             backward ? GsSweep::Backward
                                      : GsSweep::Forward);
            for (Index i = 0; i < a.rows(); ++i)
                ASSERT_NEAR(xe[i], xg[i], 1e-11 * (1.0 + std::abs(xg[i])))
                    << dir << " sweep " << sweep << " vs golden, row " << i;
        }
        EXPECT_EQ(statDump(ref), statDump(eng));
        if (::testing::Test::HasFatalFailure())
            return;
    }
}
