/**
 * @file
 * Typed registry for every DESC_* environment knob.
 *
 * Every knob is declared exactly once in env_registry.def with a
 * name, a type word, a human-readable default, and a doc string; this
 * header generates the Var enum and the metadata accessors from that
 * table. All environment access in the tree goes through raw() /
 * the typed getters below — desc-analyze's env-registry check fails
 * any std::getenv call outside common/env.cc, so an undeclared knob
 * cannot be read at all, and `desc_analyze.py --list-env` can emit
 * the complete, always-current table for the docs.
 *
 * Parsing follows the strict warnOnce discipline: a set-but-invalid
 * value warns once per process (keyed per variable, or per
 * variable+value where the existing diagnostics did) and falls back
 * to the caller's default; an unset variable falls back silently.
 * The getters are read-through — they consult the environment on
 * every call so tests can setenv/unsetenv around them — and callers
 * on simulation hot paths memoize the result behind a magic static
 * (the mode selectors, simScale()), so steady-state code performs no
 * environment lookups at all; bench/perf_kernel asserts that via
 * lookupCount().
 */

#ifndef DESC_COMMON_ENV_HH
#define DESC_COMMON_ENV_HH

#include <cstddef>
#include <cstdint>
#include <string>

namespace desc::env {

/** One enumerator per registered DESC_* variable. */
enum class Var : unsigned {
#define DESC_ENV_VAR(id, name, type, def, doc) id,
#include "common/env_registry.def"
#undef DESC_ENV_VAR
};

constexpr unsigned kNumVars = 0
#define DESC_ENV_VAR(id, name, type, def, doc) +1
#include "common/env_registry.def"
#undef DESC_ENV_VAR
    ;

/** Registry metadata for one knob, as declared in env_registry.def. */
struct Info
{
    const char *name; ///< environment variable name ("DESC_SIM_JOBS")
    const char *type; ///< type vocabulary word ("int", "enum", ...)
    const char *def;  ///< human-readable default ("1.0", "unset")
    const char *doc;  ///< one-line description for the docs table
};

/** Metadata for @p v (static storage, never fails). */
const Info &info(Var v);

/** Environment variable name for @p v. */
const char *name(Var v);

/**
 * Raw environment lookup; nullptr when unset. The only std::getenv
 * call site in the tree lives behind this function.
 */
const char *raw(Var v);

/** True when the variable is set at all, even to the empty string. */
bool isSet(Var v);

/**
 * Default-on toggle: false only when the variable is set to exactly
 * "0" (DESC_SIM_CACHE semantics; other values, including garbage,
 * leave the feature on without a diagnostic).
 */
bool enabledNotZero(Var v);

/**
 * Strict boolean: unset/empty returns @p def; "0"/"1" parse; anything
 * else warns once (keyed per variable+value, with @p off_suffix
 * appended to the diagnostic) and returns @p def.
 */
bool boolOr(Var v, bool def, const char *off_suffix = "");

/**
 * Strict unsigned integer in [@p lo, @p hi]: unset/empty returns
 * @p def; out-of-range, signed, or non-numeric values warn once
 * (keyed per variable+value, @p suffix appended) and return @p def.
 */
std::uint64_t uintOr(Var v, std::uint64_t def, std::uint64_t lo,
                     std::uint64_t hi, const char *suffix = "");

/**
 * Strict positive finite double: unset/empty returns @p def;
 * garbage, non-finite, or non-positive values warn (once per process
 * effectively — memoize at the call site) naming @p def_str as the
 * fallback and return @p def.
 */
double positiveFloatOr(Var v, double def, const char *def_str);

/** String value, or @p def when unset or empty. */
std::string stringOr(Var v, const char *def);

/** One acceptable word of an enum knob and the value it maps to. */
struct EnumName
{
    const char *name;
    int value;
};

/**
 * Word-list enum: unset/empty returns @p def; an exact match on one
 * of @p names returns its value; anything else warns once (keyed per
 * variable) listing the acceptable words and returns @p def. By
 * convention names[0] is the default's word.
 */
int enumOr(Var v, const EnumName *names, std::size_t count, int def);

/**
 * Pure parse cores behind the getters above: same validation and
 * diagnostics, but applied to @p value instead of the environment,
 * so tests can exercise boundary and garbage inputs without
 * touching process state.
 */
bool parseBool(Var v, const char *value, bool def,
               const char *off_suffix = "");
std::uint64_t parseUint(Var v, const char *value, std::uint64_t def,
                        std::uint64_t lo, std::uint64_t hi,
                        const char *suffix = "");
double parsePositiveFloat(Var v, const char *value, double def,
                          const char *def_str);
int parseEnum(Var v, const char *value, const EnumName *names,
              std::size_t count, int def);

/**
 * Total raw() lookups so far in this process. Environment reads are
 * a startup activity: hot components memoize their knobs, and
 * bench/perf_kernel asserts this counter does not move inside the
 * measured simulation regions.
 */
std::uint64_t lookupCount();

} // namespace desc::env

#endif // DESC_COMMON_ENV_HH
