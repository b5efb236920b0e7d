#include "common/parse.hh"

#include <cerrno>
#include <cmath>
#include <cstdlib>

namespace alr {

bool
parseBounded(const char *text, int64_t lo, int64_t hi, int64_t *out)
{
    errno = 0;
    char *tail = nullptr;
    long long v = std::strtoll(text, &tail, 10);
    if (tail == text || *tail != '\0' || errno == ERANGE || v < lo ||
        v > hi)
        return false;
    *out = int64_t(v);
    return true;
}

bool
parseBounded(const char *text, double lo, double hi, double *out)
{
    errno = 0;
    char *tail = nullptr;
    double v = std::strtod(text, &tail);
    if (tail == text || *tail != '\0' || errno == ERANGE ||
        !std::isfinite(v) || v < lo || v > hi)
        return false;
    *out = v;
    return true;
}

} // namespace alr
