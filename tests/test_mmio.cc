/**
 * @file
 * Matrix Market reader/writer tests, including symmetric/pattern
 * variants and malformed-input rejection.
 */

#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>

#include <gtest/gtest.h>

#include "common/random.hh"
#include "sparse/coo.hh"
#include "sparse/csr.hh"
#include "sparse/generators.hh"
#include "sparse/mmio.hh"

namespace alr {
namespace {

TEST(Mmio, WriteReadRoundTrip)
{
    Rng rng(1);
    CsrMatrix a = gen::randomSparse(20, 14, 3, rng);
    CooMatrix coo = a.toCoo();

    std::stringstream ss;
    writeMatrixMarket(ss, coo);
    CooMatrix back = readMatrixMarket(ss);
    EXPECT_EQ(back, coo);
}

TEST(Mmio, ReadsGeneralRealFile)
{
    std::stringstream ss;
    ss << "%%MatrixMarket matrix coordinate real general\n"
       << "% a comment line\n"
       << "3 3 2\n"
       << "1 2 1.5\n"
       << "3 1 -2.0\n";
    CooMatrix coo = readMatrixMarket(ss);
    EXPECT_EQ(coo.rows(), 3u);
    EXPECT_EQ(coo.nnz(), 2u);
    EXPECT_DOUBLE_EQ(CsrMatrix::fromCoo(coo).at(0, 1), 1.5);
    EXPECT_DOUBLE_EQ(CsrMatrix::fromCoo(coo).at(2, 0), -2.0);
}

TEST(Mmio, ExpandsSymmetricFiles)
{
    std::stringstream ss;
    ss << "%%MatrixMarket matrix coordinate real symmetric\n"
       << "3 3 2\n"
       << "2 1 4.0\n"
       << "3 3 7.0\n";
    CooMatrix coo = readMatrixMarket(ss);
    CsrMatrix a = CsrMatrix::fromCoo(coo);
    EXPECT_DOUBLE_EQ(a.at(1, 0), 4.0);
    EXPECT_DOUBLE_EQ(a.at(0, 1), 4.0);
    EXPECT_DOUBLE_EQ(a.at(2, 2), 7.0);
    EXPECT_EQ(a.nnz(), 3u);
}

TEST(Mmio, ExpandsSkewSymmetric)
{
    std::stringstream ss;
    ss << "%%MatrixMarket matrix coordinate real skew-symmetric\n"
       << "2 2 1\n"
       << "2 1 3.0\n";
    CsrMatrix a = CsrMatrix::fromCoo(readMatrixMarket(ss));
    EXPECT_DOUBLE_EQ(a.at(1, 0), 3.0);
    EXPECT_DOUBLE_EQ(a.at(0, 1), -3.0);
}

TEST(Mmio, PatternFilesGetUnitValues)
{
    std::stringstream ss;
    ss << "%%MatrixMarket matrix coordinate pattern general\n"
       << "2 2 2\n"
       << "1 1\n"
       << "2 2\n";
    CsrMatrix a = CsrMatrix::fromCoo(readMatrixMarket(ss));
    EXPECT_DOUBLE_EQ(a.at(0, 0), 1.0);
    EXPECT_DOUBLE_EQ(a.at(1, 1), 1.0);
}

TEST(Mmio, RejectsMissingBanner)
{
    std::stringstream ss;
    ss << "not a matrix\n1 1 0\n";
    EXPECT_THROW(readMatrixMarket(ss), std::runtime_error);
}

TEST(Mmio, RejectsArrayFormat)
{
    std::stringstream ss;
    ss << "%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n";
    EXPECT_THROW(readMatrixMarket(ss), std::runtime_error);
}

TEST(Mmio, RejectsOutOfRangeIndices)
{
    std::stringstream ss;
    ss << "%%MatrixMarket matrix coordinate real general\n"
       << "2 2 1\n"
       << "3 1 1.0\n";
    EXPECT_THROW(readMatrixMarket(ss), std::runtime_error);
}

TEST(Mmio, RejectsTruncatedEntryList)
{
    std::stringstream ss;
    ss << "%%MatrixMarket matrix coordinate real general\n"
       << "2 2 2\n"
       << "1 1 1.0\n";
    EXPECT_THROW(readMatrixMarket(ss), std::runtime_error);
}

TEST(Mmio, SymmetricMatrixWritesSymmetricForm)
{
    Rng rng(3);
    CsrMatrix a = gen::randomSpd(24, 4, rng);
    ASSERT_TRUE(a.isSymmetric());

    std::stringstream ss;
    writeMatrixMarket(ss, a.toCoo());
    std::string text = ss.str();
    EXPECT_NE(text.find("coordinate real symmetric"), std::string::npos);

    // Stored entries are the lower triangle only: no doubling.
    CooMatrix acoo = a.toCoo();
    Index lower = 0;
    for (const Triplet &t : acoo.triplets())
        lower += t.row >= t.col;
    std::istringstream count(text);
    std::string line;
    std::getline(count, line); // banner
    std::getline(count, line); // size line
    long rows = 0, cols = 0, stored = 0;
    std::istringstream(line) >> rows >> cols >> stored;
    EXPECT_EQ(Index(stored), lower);

    // Round trip reproduces the matrix exactly (nnz preserved).
    std::istringstream back(text);
    CooMatrix coo = readMatrixMarket(back);
    EXPECT_EQ(CsrMatrix::fromCoo(coo), a);

    // A second write of the round-tripped matrix is byte-identical:
    // the write->read->write cycle is stable.
    std::stringstream again;
    writeMatrixMarket(again, coo);
    EXPECT_EQ(again.str(), text);
}

TEST(Mmio, NonSymmetricMatrixStaysGeneral)
{
    Rng rng(4);
    CsrMatrix a = gen::randomSparse(12, 12, 3, rng);
    ASSERT_FALSE(a.isSymmetric());
    std::stringstream ss;
    writeMatrixMarket(ss, a.toCoo());
    EXPECT_NE(ss.str().find("coordinate real general"),
              std::string::npos);
    std::istringstream back(ss.str());
    EXPECT_EQ(CsrMatrix::fromCoo(readMatrixMarket(back)), a);
}

TEST(Mmio, SkipsBlankLinesBeforeSizeLine)
{
    std::stringstream ss;
    ss << "%%MatrixMarket matrix coordinate real general\n"
       << "% comment\n"
       << "\n"
       << "2 2 1\n"
       << "1 2 5.0\n";
    CooMatrix coo = readMatrixMarket(ss);
    EXPECT_EQ(coo.nnz(), 1u);
    EXPECT_DOUBLE_EQ(CsrMatrix::fromCoo(coo).at(0, 1), 5.0);
}

TEST(Mmio, RejectsTrailingTokensOnEntryLines)
{
    std::stringstream ss;
    ss << "%%MatrixMarket matrix coordinate real general\n"
       << "2 2 1\n"
       << "1 2 3.0 junk\n";
    EXPECT_THROW(readMatrixMarket(ss), std::runtime_error);
}

TEST(Mmio, EntryErrorsReportLineNumber)
{
    std::stringstream ss;
    ss << "%%MatrixMarket matrix coordinate real general\n"
       << "% comment\n"
       << "2 2 2\n"
       << "1 1 1.0\n"
       << "9 9 2.0\n";
    try {
        readMatrixMarket(ss);
        FAIL() << "expected malformed-entry rejection";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("line 5"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Mmio, RejectsTrailingTokensOnSizeLine)
{
    std::stringstream ss;
    ss << "%%MatrixMarket matrix coordinate real general\n"
       << "2 2 1 extra\n"
       << "1 1 1.0\n";
    EXPECT_THROW(readMatrixMarket(ss), std::runtime_error);
}

TEST(Mmio, FileRoundTrip)
{
    Rng rng(2);
    CsrMatrix a = gen::randomSpd(25, 4, rng);
    std::string path = ::testing::TempDir() + "/alr_mmio_test.mtx";
    writeMatrixMarketFile(path, a.toCoo());
    CooMatrix back = readMatrixMarketFile(path);
    EXPECT_EQ(CsrMatrix::fromCoo(back), a);
    std::remove(path.c_str());
}

/** Parse @p text through the stream reader; rethrows parse errors. */
CooMatrix
readText(const std::string &text)
{
    std::istringstream in(text);
    return readMatrixMarket(in);
}

/** The error message the stream reader gives for @p text. */
std::string
errorOf(const std::string &text)
{
    try {
        readText(text);
    } catch (const std::runtime_error &e) {
        return e.what();
    }
    ADD_FAILURE() << "accepted:\n" << text;
    return "";
}

/** Bit-exact triplet comparison: EXPECT_EQ on doubles would let -0.0
 *  equal 0.0 and could not tell which entry differs. */
void
expectSameBits(const CooMatrix &a, const CooMatrix &b)
{
    ASSERT_EQ(a.rows(), b.rows());
    ASSERT_EQ(a.cols(), b.cols());
    ASSERT_EQ(a.nnz(), b.nnz());
    for (size_t i = 0; i < a.triplets().size(); ++i) {
        const Triplet &x = a.triplets()[i];
        const Triplet &y = b.triplets()[i];
        EXPECT_EQ(x.row, y.row) << "entry " << i;
        EXPECT_EQ(x.col, y.col) << "entry " << i;
        EXPECT_EQ(std::bit_cast<uint64_t>(x.val),
                  std::bit_cast<uint64_t>(y.val))
            << "entry " << i << ": " << x.val << " vs " << y.val;
    }
}

TEST(MmioParity, CrlfTabsSignsAndExponents)
{
    CooMatrix coo = readText(
        "%%MatrixMarket matrix coordinate real general\r\n"
        "% comment\r\n"
        "\t3 \t 3\t4 \r\n"
        "+1\t+2 +1.5\r\n"
        "2 3 -2.5e-3\r\n"
        "3\t1 .25E+2\r\n"
        "3 3 7.\r\n");
    CooMatrix expect(3, 3);
    expect.add(0, 1, 1.5);
    expect.add(1, 2, -2.5e-3);
    expect.add(2, 0, 25.0);
    expect.add(2, 2, 7.0);
    expect.canonicalize();
    expectSameBits(coo, expect);
}

TEST(MmioParity, IntegerAndPatternFields)
{
    CooMatrix ints = readText("%%MatrixMarket matrix coordinate integer "
                              "general\n2 2 2\n1 1 -3\n2 1 +12\n");
    CooMatrix expect(2, 2);
    expect.add(0, 0, -3.0);
    expect.add(1, 0, 12.0);
    expect.canonicalize();
    expectSameBits(ints, expect);

    CooMatrix pattern = readText("%%MatrixMarket matrix coordinate pattern "
                                 "symmetric\n3 3 2\n2 1\n3 3\n");
    CooMatrix unit(3, 3);
    unit.add(0, 1, 1.0);
    unit.add(1, 0, 1.0);
    unit.add(2, 2, 1.0);
    unit.canonicalize();
    expectSameBits(pattern, unit);
    // A pattern entry carries no value token.
    EXPECT_NE(errorOf("%%MatrixMarket matrix coordinate pattern general\n"
                      "2 2 1\n1 1 5\n")
                  .find("line 3: trailing tokens"),
              std::string::npos);
}

TEST(MmioParity, SkewSymmetricMirrorsWithNegation)
{
    CooMatrix coo = readText("%%MatrixMarket matrix coordinate real "
                             "skew-symmetric\n3 3 2\n2 1 1.5\n3 2 -4\n");
    CooMatrix expect(3, 3);
    expect.add(1, 0, 1.5);
    expect.add(0, 1, -1.5);
    expect.add(2, 1, -4.0);
    expect.add(1, 2, 4.0);
    expect.canonicalize();
    expectSameBits(coo, expect);
}

TEST(MmioParity, CommentsAndBlankLinesInEveryLegalPosition)
{
    // Comments and blank lines may sit anywhere between the banner and
    // the size line; blank lines (CRLF ones too) also between entries
    // and after the last one.
    CooMatrix coo = readText("%%MatrixMarket matrix coordinate real general\n"
                             "\n"
                             "% first comment\n"
                             "\r\n"
                             "%\n"
                             "%% a comment with the banner prefix\n"
                             "\n"
                             "2 2 2\n"
                             "\n"
                             "\r\n"
                             "1 1 1.0\n"
                             "\n"
                             "2 2 2.0\n"
                             "\n"
                             "\n");
    CooMatrix expect(2, 2);
    expect.add(0, 0, 1.0);
    expect.add(1, 1, 2.0);
    expect.canonicalize();
    expectSameBits(coo, expect);

    // No trailing newline on the last entry is fine too.
    expectSameBits(readText("%%MatrixMarket matrix coordinate real general\n"
                            "2 2 2\n1 1 1.0\n2 2 2.0"),
                   expect);
    // A comment among the entries is not legal: it reads as an entry.
    EXPECT_NE(errorOf("%%MatrixMarket matrix coordinate real general\n"
                      "2 2 2\n1 1 1.0\n% late comment\n2 2 2.0\n")
                  .find("line 4: bad entry '% late comment'"),
              std::string::npos);
    // Nor is a whitespace-only line: only empty lines are skipped.
    EXPECT_NE(errorOf("%%MatrixMarket matrix coordinate real general\n"
                      "2 2 1\n \n1 1 1.0\n")
                  .find("line 3: bad entry ' '"),
              std::string::npos);
}

TEST(MmioParity, ErrorMessagesNameTheLine)
{
    const std::string head =
        "%%MatrixMarket matrix coordinate real general\n";
    EXPECT_EQ(errorOf(""), "matrix market: empty stream");
    EXPECT_EQ(errorOf(head), "matrix market: missing size line");
    EXPECT_EQ(errorOf("%%MatrixMarket matrix coordinate complex general\n"
                      "1 1 0\n"),
              "matrix market: unsupported field type 'complex'");
    EXPECT_EQ(errorOf("%%MatrixMarket matrix coordinate real hermitian\n"
                      "1 1 0\n"),
              "matrix market: unsupported symmetry 'hermitian'");
    EXPECT_EQ(errorOf(head + "% c\n2 2\n"),
              "matrix market: line 3: bad size line '2 2'");
    EXPECT_EQ(errorOf(head + "2 2 1 extra\r\n1 1 1\n"),
              "matrix market: line 2: bad size line '2 2 1 extra'");
    EXPECT_EQ(errorOf(head + "2 2 2\n1 1 1\n\n"),
              "matrix market: line 4: truncated entry list (1 of 2 "
              "entries read)");
    EXPECT_EQ(errorOf(head + "2 2 1\n0 1 1\n"),
              "matrix market: line 3: bad entry '0 1 1'");
    EXPECT_EQ(errorOf(head + "2 2 1\n1 1 1 2\r\n"),
              "matrix market: line 3: trailing tokens on entry '1 1 1 2'");
}

TEST(MmioParity, NumberSyntaxMatchesTheStreamExtractors)
{
    const std::string head =
        "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 ";
    // inf and nan were never numbers to the stream extractors; they
    // stay rejected, as do doubled signs and overflow.
    for (const char *tok : {"inf", "-inf", "+inf", "nan", "infinity",
                            "+-1", "++1", "1e309", "-1e400", "1e", "1e+",
                            "0x10", "."})
        EXPECT_NE(errorOf(head + tok + "\n").find("line 3: "),
                  std::string::npos)
            << tok;
    // Underflow reads as a signed zero (then drops as an explicit
    // zero); the smallest subnormal survives bit for bit.
    EXPECT_EQ(readText(head + "1e-400\n").nnz(), 0u);
    EXPECT_EQ(readText(head + "-2e-324\n").nnz(), 0u);
    CooMatrix tiny = readText(head + "4.9406564584124654e-324\n");
    ASSERT_EQ(tiny.nnz(), 1u);
    EXPECT_EQ(tiny.triplets()[0].val,
              std::numeric_limits<double>::denorm_min());
}

TEST(MmioParity, RunTogetherNumbersAreRejected)
{
    // The one place the reader is stricter than the stream extractors
    // were: numbers run together without whitespace.  "1 1.5" used to
    // read as row 1, column 1, value .5; it is now a short entry.
    EXPECT_NE(errorOf("%%MatrixMarket matrix coordinate real general\n"
                      "2 2 1\n1 1.5\n")
                  .find("line 3: bad entry"),
              std::string::npos);
    EXPECT_NE(errorOf("%%MatrixMarket matrix coordinate real general\n"
                      "2 2 1\n1 2-3\n")
                  .find("line 3: bad entry"),
              std::string::npos);
}

TEST(MmioBounds, RejectsDimensionsBeyond32Bits)
{
    // 4294967297 used to wrap silently to a 1-row matrix.
    std::string err =
        errorOf("%%MatrixMarket matrix coordinate real general\n"
                "% c\n4294967297 2 1\n1 1 1.0\n");
    EXPECT_NE(err.find("line 3: dimensions 4294967297 x 2 exceed the "
                       "32-bit index range"),
              std::string::npos)
        << err;
    EXPECT_NE(errorOf("%%MatrixMarket matrix coordinate real general\n"
                      "2 99999999999 0\n")
                  .find("line 2: dimensions"),
              std::string::npos);
    // The largest 32-bit dimension is still accepted.
    CooMatrix wide = readText("%%MatrixMarket matrix coordinate real "
                              "general\n1 4294967295 1\n1 4294967295 2\n");
    EXPECT_EQ(wide.cols(), 4294967295u);
    EXPECT_EQ(wide.triplets().at(0).col, 4294967294u);
}

TEST(MmioBounds, RejectsEntryCountTheFileCannotHold)
{
    // Checked before any triplet storage is reserved: a 60-byte file
    // cannot claim a trillion entries.
    std::string err =
        errorOf("%%MatrixMarket matrix coordinate real general\n"
                "2 2 1000000000000\n1 1 1\n");
    EXPECT_NE(err.find("line 2: 1000000000000 entries cannot fit in the "
                       "6 bytes that follow"),
              std::string::npos)
        << err;
    // Exactly at the bound: two 3-byte entries and one newline.
    CooMatrix two = readText("%%MatrixMarket matrix coordinate pattern "
                             "general\n2 2 2\n1 1\n2 2");
    EXPECT_EQ(two.nnz(), 2u);
    EXPECT_NE(errorOf("%%MatrixMarket matrix coordinate pattern general\n"
                      "2 2 3\n1 1\n2 2")
                  .find("line 2: 3 entries cannot fit"),
              std::string::npos);
}

TEST(MmioBounds, RejectsNonSquareSymmetricFiles)
{
    // The mirrored entry (3, 2) of a 2 x 4 symmetric file would fall
    // outside the matrix.
    EXPECT_NE(errorOf("%%MatrixMarket matrix coordinate real symmetric\n"
                      "2 4 1\n2 3 1.0\n")
                  .find("line 2: a symmetric matrix must be square, not "
                        "2 x 4"),
              std::string::npos);
    EXPECT_NE(errorOf("%%MatrixMarket matrix coordinate real "
                      "skew-symmetric\n3 2 0\n")
                  .find("line 2: a skew-symmetric matrix must be square"),
              std::string::npos);
}

TEST(MmioParity, StreamAndFileReadersAgree)
{
    const std::string path = ::testing::TempDir() + "/alr_mmio_parity.mtx";
    for (const std::string &text :
         {std::string("%%MatrixMarket matrix coordinate real general\r\n"
                      "% c\r\n\r\n3 4 3\r\n1 4 -1e-3\r\n\r\n"
                      "3 1\t+2\r\n2 2 6.02214076e23"),
          std::string("%%MatrixMarket matrix coordinate pattern symmetric\n"
                      "3 3 3\n1 1\n3 1\n3 2\n")}) {
        {
            std::ofstream out(path, std::ios::binary);
            out << text;
        }
        expectSameBits(readMatrixMarketFile(path), readText(text));
    }
    std::remove(path.c_str());
}

TEST(MmioParity, SeededRoundTripIsBitExact)
{
    // writeMatrixMarket prints 17 significant digits, which round-trip
    // every finite double: subnormals and the extremes included.
    const double specials[] = {
        std::numeric_limits<double>::max(),
        -std::numeric_limits<double>::max(),
        std::numeric_limits<double>::min(),
        -std::numeric_limits<double>::min(),
        std::numeric_limits<double>::denorm_min(),
        -std::numeric_limits<double>::denorm_min(),
        std::bit_cast<double>(uint64_t(0x000FFFFFFFFFFFFFULL)),
        1e-310,
        1.0 / 3.0,
    };
    for (uint64_t seed = 1; seed <= 20; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        Rng rng(seed);
        const Index rows = Index(1 + rng.nextRange(40));
        const Index cols = rows + Index(1 + rng.nextRange(9));
        CooMatrix coo(rows, cols);
        for (Index r = 0; r < rows; ++r) {
            for (Index c = 0; c < cols; ++c) {
                if (!rng.nextBool(0.2))
                    continue;
                double v = 0.0;
                if (rng.nextBool(0.2)) {
                    v = specials[rng.nextRange(std::size(specials))];
                } else {
                    // Any finite non-zero bit pattern.
                    do {
                        v = std::bit_cast<double>(rng.next());
                    } while (!std::isfinite(v) || v == 0.0);
                }
                coo.add(r, c, v);
            }
        }
        coo.canonicalize();
        std::stringstream ss;
        writeMatrixMarket(ss, coo);
        expectSameBits(readMatrixMarket(ss), coo);
    }
}

} // namespace
} // namespace alr
