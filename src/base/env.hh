/**
 * @file
 * Strict parsers for SE_* environment values, shared by every path
 * that reads a knob (RuntimeOptions::fromEnv and the thread budget).
 * A value either parses completely or the parser throws
 * std::invalid_argument: the old atoi/atof plumbing silently mapped
 * typos to 0, so SE_THREADS=four selected a serial path instead of
 * failing, which is the worst possible way to "honor" a perf knob.
 */

#ifndef SE_BASE_ENV_HH
#define SE_BASE_ENV_HH

#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <string>

namespace se {
namespace base {

/** Parse a whole base-10 integer; throws on trailing junk or range. */
inline long long
envInt(const char *name, const char *value)
{
    char *end = nullptr;
    errno = 0;
    const long long out = std::strtoll(value, &end, 10);
    if (end == value || *end != '\0' || errno == ERANGE)
        throw std::invalid_argument(std::string(name) +
                                    " must be an integer, got '" +
                                    value + "'");
    return out;
}

/**
 * envInt narrowed to int. The range is checked before narrowing so
 * that e.g. SE_THREADS=4294967296 cannot wrap to 0.
 */
inline int
envIntNarrow(const char *name, const char *value)
{
    const long long v = envInt(name, value);
    if (v < INT_MIN || v > INT_MAX)
        throw std::invalid_argument(std::string(name) +
                                    " out of range: '" + value + "'");
    return (int)v;
}

/** Parse a whole finite floating-point number. */
inline double
envDouble(const char *name, const char *value)
{
    char *end = nullptr;
    errno = 0;
    const double out = std::strtod(value, &end);
    if (end == value || *end != '\0' || errno == ERANGE ||
        !std::isfinite(out))
        throw std::invalid_argument(std::string(name) +
                                    " must be a finite number, got '" +
                                    value + "'");
    return out;
}

} // namespace base
} // namespace se

#endif // SE_BASE_ENV_HH
