/**
 * @file
 * Config parsing unit tests.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "common/config.hh"

namespace mopac
{
namespace
{

TEST(Config, ParseLineBasics)
{
    Config c;
    c.parseLine("foo = 12");
    c.parseLine("bar=hello");
    c.parseLine("  baz.qux =  -3 ");
    EXPECT_EQ(c.getInt("foo"), 12);
    EXPECT_EQ(c.getString("bar"), "hello");
    EXPECT_EQ(c.getInt("baz.qux"), -3);
}

TEST(Config, CommentsAndBlanksIgnored)
{
    Config c;
    c.parseLine("# a comment");
    c.parseLine("");
    c.parseLine("   ");
    c.parseLine("key = 5 # trailing comment");
    EXPECT_EQ(c.getInt("key"), 5);
    EXPECT_EQ(c.keys().size(), 1u);
}

TEST(Config, SetOverridesParsedValue)
{
    Config c;
    c.parseArgs({"a=1"});
    c.set("a", "2"); // Programmatic override is allowed...
    EXPECT_EQ(c.getInt("a"), 2);
}

TEST(ConfigDeathTest, DuplicateParsedKeyIsFatal)
{
    Config c;
    // ...but parsing the same key twice is a config bug.
    EXPECT_EXIT(c.parseArgs({"a=1", "a=2"}),
                ::testing::ExitedWithCode(1), "'a' set twice");
}

TEST(ConfigDeathTest, DuplicateNamesBothOrigins)
{
    const std::string path = ::testing::TempDir() + "/mopac_cfg_dup";
    {
        std::ofstream out(path);
        out << "x = 1\n"
            << "x = 2\n";
    }
    Config c;
    EXPECT_EXIT(c.parseFile(path), ::testing::ExitedWithCode(1),
                ":1.*:2");
    std::remove(path.c_str());
}

TEST(Config, RejectUnknownKeysPassesWhenAllConsumed)
{
    Config c;
    c.parseArgs({"a=1", "b=2"});
    (void)c.getInt("a");
    EXPECT_TRUE(c.has("b"));
    EXPECT_TRUE(c.unconsumedKeys().empty());
    c.rejectUnknownKeys("test"); // Must not exit.
}

TEST(ConfigDeathTest, RejectUnknownKeysIsFatal)
{
    Config c;
    c.parseArgs({"good=1", "tpyo=2"});
    (void)c.getInt("good");
    ASSERT_EQ(c.unconsumedKeys(),
              std::vector<std::string>{"tpyo"});
    EXPECT_EXIT(c.rejectUnknownKeys("test"),
                ::testing::ExitedWithCode(1), "unknown config key.*tpyo");
}

TEST(Config, Defaults)
{
    Config c;
    EXPECT_EQ(c.getInt("missing", 7), 7);
    EXPECT_EQ(c.getUint("missing", 8u), 8u);
    EXPECT_DOUBLE_EQ(c.getDouble("missing", 1.5), 1.5);
    EXPECT_TRUE(c.getBool("missing", true));
    EXPECT_EQ(c.getString("missing", "d"), "d");
}

TEST(Config, BooleanSpellings)
{
    Config c;
    c.parseArgs({"a=true", "b=1", "c=yes", "d=on", "e=false", "f=0",
                 "g=no", "h=off"});
    EXPECT_TRUE(c.getBool("a"));
    EXPECT_TRUE(c.getBool("b"));
    EXPECT_TRUE(c.getBool("c"));
    EXPECT_TRUE(c.getBool("d"));
    EXPECT_FALSE(c.getBool("e"));
    EXPECT_FALSE(c.getBool("f"));
    EXPECT_FALSE(c.getBool("g"));
    EXPECT_FALSE(c.getBool("h"));
}

TEST(Config, NumericFormats)
{
    Config c;
    c.parseArgs({"hex=0x10", "fp=2.5e3", "neg_hex=-0x10", "oct=017",
                 "max=9223372036854775807", "min=-9223372036854775808",
                 "lo=-1"});
    EXPECT_EQ(c.getInt("hex"), 16);
    EXPECT_EQ(c.getInt("neg_hex"), -16);
    EXPECT_EQ(c.getInt("oct"), 15);
    EXPECT_EQ(c.getInt("max"), std::numeric_limits<std::int64_t>::max());
    EXPECT_EQ(c.getInt("min"), std::numeric_limits<std::int64_t>::min());
    EXPECT_EQ(c.getInt("lo", 0, -1, 0x7fffffff), -1);
    EXPECT_DOUBLE_EQ(c.getDouble("fp"), 2500.0);
}

TEST(Config, FileRoundTrip)
{
    const std::string path = ::testing::TempDir() + "/mopac_cfg_test";
    {
        std::ofstream out(path);
        out << "# test config\n"
            << "dram.trh = 500\n"
            << "workload = mcf\n";
    }
    Config c;
    c.parseFile(path);
    EXPECT_EQ(c.getUint("dram.trh"), 500u);
    EXPECT_EQ(c.getString("workload"), "mcf");
    std::remove(path.c_str());
}

TEST(ConfigDeathTest, MalformedEntryIsFatal)
{
    Config c;
    EXPECT_EXIT(c.parseLine("no_equals_here"),
                ::testing::ExitedWithCode(1), "expected key=value");
    EXPECT_EXIT(c.parseLine("= value"), ::testing::ExitedWithCode(1),
                "empty key");
}

TEST(ConfigDeathTest, TypeErrorsAreFatal)
{
    Config c;
    c.parseLine("word = hello");
    EXPECT_EXIT((void)c.getInt("word"), ::testing::ExitedWithCode(1),
                "not an integer");
    EXPECT_EXIT((void)c.getBool("word"), ::testing::ExitedWithCode(1),
                "not a boolean");
    c.parseLine("negative = -1");
    EXPECT_EXIT((void)c.getUint("negative"), ::testing::ExitedWithCode(1),
                "not an unsigned integer");
    // Past 2^64 - 1 is an overflow, not a clamp to 2^64 - 1.
    c.parseLine("huge = 99999999999999999999");
    EXPECT_EXIT((void)c.getUint("huge"), ::testing::ExitedWithCode(1),
                "not an unsigned integer");
    c.parseLine("huge_hex = 0x1ffffffffffffffff");
    EXPECT_EXIT((void)c.getUint("huge_hex"),
                ::testing::ExitedWithCode(1), "not an unsigned integer");
    // A value past the caller's field width is fatal, not narrowed.
    c.parseLine("wide = 4294967297");
    EXPECT_EXIT((void)c.getUint("wide", 0, 0xffffffffu),
                ::testing::ExitedWithCode(1), "not an unsigned integer");
    // getInt: past INT64_MAX (or below INT64_MIN) is an overflow, and
    // a value outside the caller's bound is fatal, not narrowed.
    EXPECT_EXIT((void)c.getInt("huge"), ::testing::ExitedWithCode(1),
                "not an integer");
    c.parseLine("past_min = -9223372036854775809");
    EXPECT_EXIT((void)c.getInt("past_min"),
                ::testing::ExitedWithCode(1), "not an integer");
    EXPECT_EXIT((void)c.getInt("wide", 0, -1, 0x7fffffff),
                ::testing::ExitedWithCode(1), "not an integer");
    c.parseLine("below = -2");
    EXPECT_EXIT((void)c.getInt("below", 0, -1, 0x7fffffff),
                ::testing::ExitedWithCode(1), "not an integer");
}

TEST(Config, UintAcceptsEveryBaseUpToItsBound)
{
    Config c;
    c.parseLine("dec = 18446744073709551615");
    c.parseLine("hex = 0x1F");
    c.parseLine("oct = 017");
    c.parseLine("zero = 0");
    c.parseLine("edge = 4294967295");
    EXPECT_EQ(c.getUint("dec"), 18446744073709551615ull);
    EXPECT_EQ(c.getUint("hex"), 31u);
    EXPECT_EQ(c.getUint("oct"), 15u);
    EXPECT_EQ(c.getUint("zero"), 0u);
    EXPECT_EQ(c.getUint("edge", 0, 0xffffffffu), 0xffffffffu);
}

} // namespace
} // namespace mopac
