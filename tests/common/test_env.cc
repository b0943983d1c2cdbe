/**
 * @file
 * Unit tests for the typed DESC_* environment registry (desc::env).
 *
 * The registry is the single source of truth for every knob: the
 * metadata tests pin the invariants the tooling relies on
 * (alphabetical order, complete docs), the parse tests exercise the
 * pure cores behind the typed getters on boundary and garbage input
 * (ported from the historical per-site DESC_SIM_JOBS /
 * DESC_SIM_SCALE suites), and the read-through tests prove the
 * getters see setenv/unsetenv immediately.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "common/env.hh"

namespace env = desc::env;

namespace {

/** Sets one variable for a scope and restores it afterwards. */
struct EnvGuard
{
    std::string var;
    std::string saved;
    bool was_set;

    EnvGuard(const char *name, const char *value) : var(name)
    {
        const char *old = getenv(name);
        was_set = old != nullptr;
        if (was_set)
            saved = old;
        if (value)
            setenv(name, value, 1);
        else
            unsetenv(name);
    }

    ~EnvGuard()
    {
        if (was_set)
            setenv(var.c_str(), saved.c_str(), 1);
        else
            unsetenv(var.c_str());
    }
};

} // namespace

// --- registry metadata --------------------------------------------

TEST(EnvRegistry, EveryVarHasCompleteMetadata)
{
    for (unsigned i = 0; i < env::kNumVars; i++) {
        const auto &info = env::info(env::Var(i));
        ASSERT_NE(info.name, nullptr);
        EXPECT_EQ(std::string(info.name).rfind("DESC_", 0), 0u)
            << info.name;
        EXPECT_FALSE(std::string(info.type).empty()) << info.name;
        EXPECT_FALSE(std::string(info.def).empty()) << info.name;
        EXPECT_GE(std::string(info.doc).size(), 10u) << info.name;
        EXPECT_STREQ(env::name(env::Var(i)), info.name);
    }
}

TEST(EnvRegistry, EntriesAreAlphabeticalAndUnique)
{
    // --list-env, the README table, and the analyzer's self-test all
    // assume the .def file is sorted by variable name.
    for (unsigned i = 1; i < env::kNumVars; i++) {
        EXPECT_LT(std::string(env::name(env::Var(i - 1))),
                  std::string(env::name(env::Var(i))));
    }
}

TEST(EnvRegistry, KnownKnobsAreRegistered)
{
    EXPECT_STREQ(env::name(env::Var::SimJobs), "DESC_SIM_JOBS");
    EXPECT_STREQ(env::name(env::Var::SimScale), "DESC_SIM_SCALE");
    EXPECT_STREQ(env::name(env::Var::EncoderMode), "DESC_ENCODER_MODE");
}

TEST(EnvRegistry, KnobCountIsPinned)
{
    // A new knob is a new code path: adding (or dropping) one must
    // update this count deliberately.
    EXPECT_EQ(env::kNumVars, 15u);
}

// --- raw access and the lookup counter ----------------------------

TEST(EnvRegistry, RawIsReadThrough)
{
    EnvGuard guard("DESC_VCD_OUT", "a.vcd");
    ASSERT_NE(env::raw(env::Var::VcdOut), nullptr);
    EXPECT_STREQ(env::raw(env::Var::VcdOut), "a.vcd");
    setenv("DESC_VCD_OUT", "b.vcd", 1);
    EXPECT_STREQ(env::raw(env::Var::VcdOut), "b.vcd");
    unsetenv("DESC_VCD_OUT");
    EXPECT_EQ(env::raw(env::Var::VcdOut), nullptr);
    EXPECT_FALSE(env::isSet(env::Var::VcdOut));
}

TEST(EnvRegistry, IsSetSeesEmptyString)
{
    EnvGuard guard("DESC_VCD_OUT", "");
    EXPECT_TRUE(env::isSet(env::Var::VcdOut));
    // But the string getter treats empty as unset.
    EXPECT_EQ(env::stringOr(env::Var::VcdOut, "dflt"), "dflt");
}

TEST(EnvRegistry, LookupCountAdvancesPerRawRead)
{
    std::uint64_t before = env::lookupCount();
    (void)env::raw(env::Var::VcdOut);
    (void)env::isSet(env::Var::Trace);
    EXPECT_EQ(env::lookupCount(), before + 2);
}

// --- typed getters (read-through) ---------------------------------

TEST(EnvRegistry, EnabledNotZeroSemantics)
{
    {
        EnvGuard guard("DESC_SIM_CACHE", nullptr);
        EXPECT_TRUE(env::enabledNotZero(env::Var::SimCache));
    }
    {
        EnvGuard guard("DESC_SIM_CACHE", "0");
        EXPECT_FALSE(env::enabledNotZero(env::Var::SimCache));
    }
    {
        EnvGuard guard("DESC_SIM_CACHE", "1");
        EXPECT_TRUE(env::enabledNotZero(env::Var::SimCache));
    }
    {
        // Garbage leaves a default-on toggle on, silently.
        EnvGuard guard("DESC_SIM_CACHE", "maybe");
        EXPECT_TRUE(env::enabledNotZero(env::Var::SimCache));
    }
}

TEST(EnvRegistry, UintOrReadsTheEnvironment)
{
    {
        EnvGuard guard("DESC_SIM_JOBS", "3");
        EXPECT_EQ(env::uintOr(env::Var::SimJobs, 7, 1, 4096), 3u);
    }
    {
        EnvGuard guard("DESC_SIM_JOBS", nullptr);
        EXPECT_EQ(env::uintOr(env::Var::SimJobs, 7, 1, 4096), 7u);
    }
}

TEST(EnvRegistry, StringOrReadsTheEnvironment)
{
    EnvGuard guard("DESC_STATS_OUT", "stats.json");
    EXPECT_EQ(env::stringOr(env::Var::StatsOut, ""), "stats.json");
}

// --- pure parse cores: ported boundary/garbage suites -------------

TEST(EnvParse, UintAcceptsRangeAndBoundaries)
{
    const auto v = env::Var::SimJobs;
    EXPECT_EQ(env::parseUint(v, "1", 9, 1, 4096), 1u);
    EXPECT_EQ(env::parseUint(v, "4096", 9, 1, 4096), 4096u);
    EXPECT_EQ(env::parseUint(v, "2048", 9, 1, 4096), 2048u);
}

TEST(EnvParse, UintRejectsZeroNegativeAndGarbage)
{
    // Ported from the per-site DESC_SIM_JOBS suite: every malformed
    // value falls back, without crashing, wrapping a negative into a
    // huge count, or accepting trailing junk.
    const auto v = env::Var::SimJobs;
    for (const char *bad :
         {"0", "-1", "-4096", "banana", "3banana", "", " ",
          "99999999999999999999", "4097", "0x10", "+ 3", "3 "}) {
        EXPECT_EQ(env::parseUint(v, bad, 9, 1, 4096), 9u)
            << "value \"" << bad << '"';
    }
}

TEST(EnvParse, UintUnsetIsSilentDefault)
{
    EXPECT_EQ(env::parseUint(env::Var::SimJobs, nullptr, 9, 1, 4096),
              9u);
}

TEST(EnvParse, BoolIsStrictZeroOne)
{
    const auto v = env::Var::Prof;
    EXPECT_FALSE(env::parseBool(v, "0", true));
    EXPECT_TRUE(env::parseBool(v, "1", false));
    EXPECT_FALSE(env::parseBool(v, nullptr, false));
    EXPECT_TRUE(env::parseBool(v, nullptr, true));
    EXPECT_FALSE(env::parseBool(v, "", false));
    for (const char *bad : {"2", "yes", "true", "on", "01", "1 "}) {
        EXPECT_FALSE(env::parseBool(v, bad, false))
            << "value \"" << bad << '"';
        EXPECT_TRUE(env::parseBool(v, bad, true))
            << "value \"" << bad << '"';
    }
}

TEST(EnvParse, FloatAcceptsPositiveFinite)
{
    // Ported from the DESC_SIM_SCALE suite.
    const auto v = env::Var::SimScale;
    EXPECT_DOUBLE_EQ(env::parsePositiveFloat(v, "2.5", 1.0, "1.0"), 2.5);
    EXPECT_DOUBLE_EQ(env::parsePositiveFloat(v, "0.05", 1.0, "1.0"),
                     0.05);
    EXPECT_DOUBLE_EQ(env::parsePositiveFloat(v, "1e-3", 1.0, "1.0"),
                     1e-3);
}

TEST(EnvParse, FloatRejectsNonPositiveAndGarbage)
{
    const auto v = env::Var::SimScale;
    for (const char *bad :
         {"0", "-1", "-0.5", "nan", "inf", "-inf", "abc", "1.5x", ""}) {
        EXPECT_DOUBLE_EQ(env::parsePositiveFloat(v, bad, 1.0, "1.0"),
                         1.0)
            << "value \"" << bad << '"';
    }
    EXPECT_DOUBLE_EQ(env::parsePositiveFloat(v, nullptr, 0.25, "0.25"),
                     0.25);
}

TEST(EnvParse, EnumMatchesExactWordsOnly)
{
    static const env::EnumName kWords[] = {
        {"auto", 0}, {"scalar", 1}, {"batched", 2}};
    const auto v = env::Var::EncoderMode;
    EXPECT_EQ(env::parseEnum(v, "auto", kWords, 3, 0), 0);
    EXPECT_EQ(env::parseEnum(v, "scalar", kWords, 3, 0), 1);
    EXPECT_EQ(env::parseEnum(v, "batched", kWords, 3, 0), 2);
    EXPECT_EQ(env::parseEnum(v, nullptr, kWords, 3, 0), 0);
    EXPECT_EQ(env::parseEnum(v, "", kWords, 3, 0), 0);
    for (const char *bad :
         {"AUTO", "Batched", "bogus", "batched ", "scal"}) {
        EXPECT_EQ(env::parseEnum(v, bad, kWords, 3, 0), 0)
            << "value \"" << bad << '"';
    }
}
