/**
 * @file
 * Matrix Market (.mtx) coordinate-format reader/writer, covering the
 * general/symmetric x real/pattern/integer variants used by SuiteSparse.
 */

#ifndef ALR_SPARSE_MMIO_HH
#define ALR_SPARSE_MMIO_HH

#include <iosfwd>
#include <string>

#include "sparse/coo.hh"

namespace alr {

/**
 * Parse a Matrix Market coordinate stream into COO form.  Symmetric and
 * skew-symmetric files are expanded to both triangles; pattern files get
 * unit values.  Blank lines around the size line and between entries are
 * skipped; entry lines with trailing tokens are rejected, and parse
 * errors report the 1-based line number.  Numbers are whitespace-
 * separated decimal tokens (an optional sign, no inf or nan); a real
 * that underflows reads as zero and one that overflows is rejected.
 * Headers whose dimensions exceed the 32-bit Index range, whose entry
 * count the rest of the input could not hold, or that declare a
 * non-square symmetric matrix are rejected before anything is
 * allocated.
 *
 * Both readers share one parser: the whole input is read into one
 * buffer, which is freed before the triplets are canonicalized.  The
 * stream API reads @p in to its end and throws std::runtime_error on
 * malformed input so tests can probe errors.
 */
CooMatrix readMatrixMarket(std::istream &in);

/** Read a .mtx file from @p path (fatal() if unreadable/malformed). */
CooMatrix readMatrixMarketFile(const std::string &path);

/**
 * Write @p coo as a real coordinate Matrix Market stream.  Numerically
 * symmetric square matrices are emitted in the symmetric form (lower
 * triangle only), so a write->read round trip preserves nnz and bytes;
 * everything else is written as general.
 */
void writeMatrixMarket(std::ostream &out, const CooMatrix &coo);

/** Write @p coo to @p path (fatal() if the file cannot be created). */
void writeMatrixMarketFile(const std::string &path, const CooMatrix &coo);

} // namespace alr

#endif // ALR_SPARSE_MMIO_HH
