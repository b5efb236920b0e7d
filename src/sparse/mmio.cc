#include "sparse/mmio.hh"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string_view>
#include <system_error>

#include "common/logging.hh"
#include "sparse/csr.hh"

namespace alr {

namespace {

[[noreturn]] void
malformed(const std::string &why)
{
    throw std::runtime_error("matrix market: " + why);
}

[[noreturn]] void
malformedAt(long lineno, const std::string &why)
{
    malformed("line " + std::to_string(lineno) + ": " + why);
}

/** Whitespace as the C locale's isspace() sees it ('\n' ends lines). */
bool
isSpace(char c)
{
    return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f';
}

/** Split the next whitespace-delimited token off @p s; empty when
 *  none is left. */
std::string_view
nextToken(std::string_view &s)
{
    size_t b = 0;
    while (b < s.size() && isSpace(s[b]))
        ++b;
    size_t e = b;
    while (e < s.size() && !isSpace(s[e]))
        ++e;
    std::string_view tok = s.substr(b, e - b);
    s.remove_prefix(e);
    return tok;
}

/**
 * Drop one leading '+' (which std::from_chars does not take) and check
 * that a digit, or for reals a '.', starts what is left.  This is the
 * number syntax of std::istream's extractors: no second sign, and no
 * "inf" or "nan".
 */
bool
stripSign(std::string_view &tok, bool real)
{
    size_t first = 0;
    if (!tok.empty() && tok[0] == '+')
        tok.remove_prefix(1);
    else if (!tok.empty() && tok[0] == '-')
        first = 1;
    if (first >= tok.size())
        return false;
    char c = tok[first];
    return (c >= '0' && c <= '9') || (real && c == '.');
}

/** Parse all of @p tok as a decimal integer. */
bool
parseInt(std::string_view tok, long &v)
{
    if (!stripSign(tok, false))
        return false;
    auto [end, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), v);
    return ec == std::errc() && end == tok.data() + tok.size();
}

/**
 * Parse all of @p tok as a real.  As with std::istream's extractor,
 * a value that underflows reads as a signed zero and one that
 * overflows is rejected; from_chars reports both as out of range, so
 * strtod settles that rare case.
 */
bool
parseReal(std::string_view tok, double &v)
{
    if (!stripSign(tok, true))
        return false;
    const char *last = tok.data() + tok.size();
    auto [end, ec] = std::from_chars(tok.data(), last, v);
    if (end != last)
        return false;
    if (ec == std::errc::result_out_of_range) {
        v = std::strtod(std::string(tok).c_str(), nullptr);
        return !std::isinf(v);
    }
    return ec == std::errc();
}

/** Parse the file text into unsorted triplets (no canonicalize). */
CooMatrix
parseText(std::string_view text)
{
    // Lines as std::getline splits them: a final line without a
    // newline still counts, and the '\r' of a CRLF ending is stripped.
    std::string_view rest = text, line;
    long lineno = 0;
    auto getLine = [&]() -> bool {
        if (rest.empty())
            return false;
        const void *nl = std::memchr(rest.data(), '\n', rest.size());
        size_t len = nl ? size_t(static_cast<const char *>(nl) - rest.data())
                        : rest.size();
        line = rest.substr(0, len);
        rest.remove_prefix(nl ? len + 1 : len);
        ++lineno;
        if (!line.empty() && line.back() == '\r')
            line.remove_suffix(1);
        return true;
    };

    if (!getLine())
        malformed("empty stream");

    std::string_view header = line;
    std::string banner(nextToken(header)), object(nextToken(header)),
        format(nextToken(header)), field(nextToken(header)),
        symmetry(nextToken(header));
    if (banner != "%%MatrixMarket")
        malformed("missing %%MatrixMarket banner");
    if (object != "matrix" || format != "coordinate")
        malformed("only coordinate matrices are supported");
    bool pattern = field == "pattern";
    if (field != "real" && field != "integer" && field != "pattern")
        malformed("unsupported field type '" + field + "'");
    bool symmetric = symmetry == "symmetric";
    bool skew = symmetry == "skew-symmetric";
    if (!symmetric && !skew && symmetry != "general")
        malformed("unsupported symmetry '" + symmetry + "'");

    // Skip comments and blank lines (both legal between the banner and
    // the size line).
    do {
        if (!getLine())
            malformed("missing size line");
    } while (line.empty() || line[0] == '%');

    std::string_view size = line;
    long rows = 0, cols = 0, entries = 0;
    if (!parseInt(nextToken(size), rows) ||
        !parseInt(nextToken(size), cols) ||
        !parseInt(nextToken(size), entries) || rows <= 0 || cols <= 0 ||
        entries < 0 || !nextToken(size).empty())
        malformedAt(lineno,
                    "bad size line '" + std::string(line) + "'");
    // Index is 32-bit: a larger dimension would silently wrap.
    constexpr long kMaxDim = std::numeric_limits<Index>::max();
    if (rows > kMaxDim || cols > kMaxDim)
        malformedAt(lineno,
                    "dimensions " + std::to_string(rows) + " x " +
                        std::to_string(cols) +
                        " exceed the 32-bit index range");
    // A symmetric file stores one triangle and mirrors it, which only
    // stays in range on a square matrix.
    if ((symmetric || skew) && rows != cols)
        malformedAt(lineno,
                    "a " + symmetry + " matrix must be square, not " +
                        std::to_string(rows) + " x " + std::to_string(cols));
    // The shortest entry line is "r c" plus a newline, so k entries
    // take at least 4k - 1 bytes: check before reserving k triplets.
    if (entries > long((rest.size() + 1) / 4))
        malformedAt(lineno,
                    std::to_string(entries) + " entries cannot fit in the " +
                        std::to_string(rest.size()) +
                        " bytes that follow");

    CooMatrix coo{Index(rows), Index(cols)};
    coo.triplets().reserve(size_t(entries) * (symmetric || skew ? 2 : 1));
    for (long i = 0; i < entries; ++i) {
        do {
            if (!getLine())
                malformedAt(lineno,
                            "truncated entry list (" + std::to_string(i) +
                                " of " + std::to_string(entries) +
                                " entries read)");
        } while (line.empty());
        std::string_view entry = line;
        long r = 0, c = 0;
        double v = 1.0;
        if (!parseInt(nextToken(entry), r) ||
            !parseInt(nextToken(entry), c) ||
            (!pattern && !parseReal(nextToken(entry), v)) || r < 1 ||
            c < 1 || r > rows || c > cols)
            malformedAt(lineno,
                        "bad entry '" + std::string(line) + "'");
        if (!nextToken(entry).empty())
            malformedAt(lineno, "trailing tokens on entry '" +
                                            std::string(line) + "'");
        coo.add(Index(r - 1), Index(c - 1), v);
        if ((symmetric || skew) && r != c)
            coo.add(Index(c - 1), Index(r - 1), skew ? -v : v);
    }
    return coo;
}

/** Read everything left in @p in; @p size_hint presizes the buffer so
 *  a file of known size is read in one call. */
std::string
readAll(std::istream &in, size_t size_hint = 0)
{
    std::string text;
    // One spare byte, so reading a file of known size comes up short
    // and sees EOF in a single call.
    text.reserve(size_hint + 1);
    size_t used = 0;
    while (in) {
        if (text.capacity() == used)
            text.reserve(2 * used);
        text.resize(text.capacity());
        in.read(text.data() + used, std::streamsize(text.size() - used));
        used += size_t(in.gcount());
    }
    text.resize(used);
    return text;
}

/**
 * The one Matrix Market parser behind both readers.  It frees the file
 * text before canonicalizing, so the text and the sorted copy of the
 * triplets are never resident together.
 */
CooMatrix
parse(std::string text)
{
    CooMatrix coo = parseText(text);
    std::string().swap(text);
    coo.canonicalize();
    return coo;
}

} // namespace

CooMatrix
readMatrixMarket(std::istream &in)
{
    return parse(readAll(in));
}

CooMatrix
readMatrixMarketFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal("cannot open matrix file '%s'", path.c_str());
    std::error_code ec;
    uintmax_t bytes = std::filesystem::file_size(path, ec);
    try {
        return parse(readAll(in, ec ? 0 : size_t(bytes)));
    } catch (const std::exception &e) {
        fatal("%s: %s", path.c_str(), e.what());
    }
}

void
writeMatrixMarket(std::ostream &out, const CooMatrix &coo)
{
    CooMatrix canon = coo;
    canon.canonicalize();

    // Symmetric matrices are written in the Matrix Market symmetric
    // form (lower triangle only): a write->read round trip then
    // preserves nnz instead of doubling the off-diagonal entries.
    bool symmetric = canon.rows() == canon.cols() && canon.nnz() > 0 &&
                     CsrMatrix::fromCoo(canon).isSymmetric();

    out << "%%MatrixMarket matrix coordinate real "
        << (symmetric ? "symmetric" : "general") << "\n";
    out.precision(17);
    if (symmetric) {
        Index stored = 0;
        for (const Triplet &t : canon.triplets())
            stored += t.row >= t.col;
        out << canon.rows() << " " << canon.cols() << " " << stored
            << "\n";
        for (const Triplet &t : canon.triplets()) {
            if (t.row >= t.col)
                out << (t.row + 1) << " " << (t.col + 1) << " " << t.val
                    << "\n";
        }
        return;
    }
    out << canon.rows() << " " << canon.cols() << " " << canon.nnz()
        << "\n";
    for (const Triplet &t : canon.triplets())
        out << (t.row + 1) << " " << (t.col + 1) << " " << t.val << "\n";
}

void
writeMatrixMarketFile(const std::string &path, const CooMatrix &coo)
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot create matrix file '%s'", path.c_str());
    writeMatrixMarket(out, coo);
}

} // namespace alr
