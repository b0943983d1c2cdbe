#include "common/env.hh"

#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "common/contract.hh"
#include "common/log.hh"

namespace desc::env {

namespace {

constexpr Info kInfos[kNumVars] = {
#define DESC_ENV_VAR(id, name, type, def, doc) {name, type, def, doc},
#include "common/env_registry.def"
#undef DESC_ENV_VAR
};

std::atomic<std::uint64_t> g_lookups{0};

/** "DESC_SIM_JOBS" -> "desc-sim-jobs": the warnOnce key stem. */
std::string
warnKey(Var v)
{
    std::string key(name(v));
    for (char &c : key) {
        if (c == '_')
            c = '-';
        else if (c >= 'A' && c <= 'Z')
            c = char(c - 'A' + 'a');
    }
    return key;
}

} // namespace

const Info &
info(Var v)
{
    DESC_ASSERT(unsigned(v) < kNumVars, "bad env::Var ", unsigned(v));
    return kInfos[unsigned(v)];
}

const char *
name(Var v)
{
    return info(v).name;
}

const char *
raw(Var v)
{
    g_lookups.fetch_add(1, std::memory_order_relaxed);
    return std::getenv(info(v).name);
}

bool
isSet(Var v)
{
    return raw(v) != nullptr;
}

bool
enabledNotZero(Var v)
{
    const char *value = raw(v);
    return !(value && std::strcmp(value, "0") == 0);
}

bool
parseBool(Var v, const char *value, bool def, const char *off_suffix)
{
    if (!value || !*value)
        return def;
    if (std::strcmp(value, "0") == 0)
        return false;
    if (std::strcmp(value, "1") == 0)
        return true;
    warnOnce(detail::concat(warnKey(v), "-", value),
             detail::concat("ignoring invalid ", name(v), "=\"", value,
                            "\" (want 0 or 1)", off_suffix));
    return def;
}

std::uint64_t
parseUint(Var v, const char *value, std::uint64_t def,
          std::uint64_t lo, std::uint64_t hi, const char *suffix)
{
    if (!value)
        return def;
    char *end = nullptr;
    errno = 0;
    unsigned long long parsed = std::strtoull(value, &end, 10);
    // strtoull silently wraps negatives; reject any sign explicitly.
    bool negative = std::strchr(value, '-') != nullptr;
    if (end == value || *end != '\0' || errno != 0 || negative
        || parsed < lo || parsed > hi) {
        warnOnce(detail::concat(warnKey(v), "-", value),
                 detail::concat("ignoring invalid ", name(v), "=\"",
                                value, "\" (want an integer in [", lo,
                                ", ", hi, "])", suffix));
        return def;
    }
    return parsed;
}

double
parsePositiveFloat(Var v, const char *value, double def,
                   const char *def_str)
{
    if (!value || !*value)
        return def;
    char *end = nullptr;
    errno = 0;
    double parsed = std::strtod(value, &end);
    if (end == value || *end != '\0' || errno == ERANGE
        || !std::isfinite(parsed) || parsed <= 0.0) {
        warn(detail::concat("ignoring invalid ", name(v), "=\"", value,
                            "\" (want a finite value > 0); using ",
                            def_str));
        return def;
    }
    return parsed;
}

bool
boolOr(Var v, bool def, const char *off_suffix)
{
    return parseBool(v, raw(v), def, off_suffix);
}

std::uint64_t
uintOr(Var v, std::uint64_t def, std::uint64_t lo, std::uint64_t hi,
       const char *suffix)
{
    return parseUint(v, raw(v), def, lo, hi, suffix);
}

double
positiveFloatOr(Var v, double def, const char *def_str)
{
    return parsePositiveFloat(v, raw(v), def, def_str);
}

std::string
stringOr(Var v, const char *def)
{
    const char *value = raw(v);
    return std::string(value && *value ? value : def);
}

std::uint64_t
lookupCount()
{
    return g_lookups.load(std::memory_order_relaxed);
}

} // namespace desc::env
