/**
 * @file
 * Bounded parsing of numbers that arrive from outside the program:
 * command-line flags and environment variables.
 *
 * atoi/atof read "abc" as 0, stop silently at trailing junk ("4x" is
 * 4) and overflow into undefined behaviour.  parseBounded() accepts
 * only a whole, well-formed number inside a caller-given range, so a
 * bad value is reported where it is typed instead of tripping an
 * assertion deep inside the simulator.
 */

#ifndef ALR_COMMON_PARSE_HH
#define ALR_COMMON_PARSE_HH

#include <cstdint>
#include <cstdio>
#include <string>
#include <type_traits>

namespace alr {

/**
 * Parse all of @p text as a base-10 integer in [lo, hi] (strtoll
 * grammar: leading whitespace and a sign are allowed).  Stores it in
 * @p out and returns true; returns false, leaving @p out alone, on
 * empty text, trailing characters, overflow, or a value outside the
 * range.
 */
bool parseBounded(const char *text, int64_t lo, int64_t hi, int64_t *out);

/** The same for a finite decimal number (strtod grammar) in [lo, hi]. */
bool parseBounded(const char *text, double lo, double hi, double *out);

/** Integer-typed form; @p hi must fit int64. */
template <typename T>
    requires std::is_integral_v<T>
bool
parseBounded(const char *text, std::type_identity_t<T> lo,
             std::type_identity_t<T> hi, T *out)
{
    int64_t v = 0;
    if (!parseBounded(text, int64_t(lo), int64_t(hi), &v))
        return false;
    *out = T(v);
    return true;
}

/**
 * parseBounded() for the value @p text of command-line flag @p flag.
 * On failure prints "<prog>: <flag> wants an integer in [lo, hi], got
 * '<text>'" to stderr and returns false; the caller then prints its
 * usage text and exits.
 */
template <typename T>
bool
parseFlag(const char *prog, const std::string &flag, const std::string &text,
          std::type_identity_t<T> lo, std::type_identity_t<T> hi, T *out)
{
    if (parseBounded(text.c_str(), lo, hi, out))
        return true;
    if constexpr (std::is_integral_v<T>)
        std::fprintf(stderr, "%s: %s wants an integer in [%lld, %lld], "
                     "got '%s'\n", prog, flag.c_str(), (long long)lo,
                     (long long)hi, text.c_str());
    else
        std::fprintf(stderr, "%s: %s wants a number in [%.9g, %.9g], got "
                     "'%s'\n", prog, flag.c_str(), lo, hi, text.c_str());
    return false;
}

} // namespace alr

#endif // ALR_COMMON_PARSE_HH
