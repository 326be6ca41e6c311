/**
 * @file
 * The shared bench flag parser: in-range values parse, and a value
 * that does not fit its field is fatal before any sweep or worker
 * thread starts, instead of wrapping or clamping.
 */

#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bench_util.hh"

namespace
{

using namespace mopac;
using namespace mopac::bench;

/** parseBenchArgs over @p args (argv[0] supplied), MOPAC_JOBS unset. */
BenchOptions
parse(std::vector<std::string> args)
{
    ::unsetenv("MOPAC_JOBS");
    args.insert(args.begin(), "bench");
    std::vector<char *> argv;
    for (std::string &arg : args) {
        argv.push_back(arg.data());
    }
    return parseBenchArgs(static_cast<int>(argv.size()), argv.data());
}

TEST(BenchArgs, InRangeValuesParse)
{
    const BenchOptions opts =
        parse({"--jobs", "4", "--replay=7", "--journal", "dir"});
    EXPECT_EQ(opts.jobs, 4u);
    EXPECT_EQ(opts.replay, 7);
    EXPECT_EQ(opts.journal, "dir");
    EXPECT_EQ(parse({"--jobs=4294967295"}).jobs, 4294967295u);
    EXPECT_EQ(parse({"--replay", "9223372036854775807"}).replay,
              9223372036854775807ll);
}

TEST(BenchArgsDeathTest, OutOfRangeValuesAreFatal)
{
    // 2^32 + 1 used to narrow to one worker; past 2^64 - 1 used to
    // clamp to UINT_MAX workers.
    EXPECT_EXIT(parse({"--jobs", "4294967297"}),
                ::testing::ExitedWithCode(1),
                "--jobs expects a non-negative number");
    EXPECT_EXIT(parse({"--jobs", "99999999999999999999"}),
                ::testing::ExitedWithCode(1),
                "--jobs expects a non-negative number");
    // Past INT64_MAX used to wrap to a negative id, i.e. no replay.
    EXPECT_EXIT(parse({"--replay", "18446744073709551615"}),
                ::testing::ExitedWithCode(1),
                "--replay expects a non-negative number");
    EXPECT_EXIT(parse({"--jobs", "-1"}), ::testing::ExitedWithCode(1),
                "--jobs expects a non-negative number");
    EXPECT_EXIT(
        {
            ::setenv("MOPAC_JOBS", "4294967297", 1);
            std::vector<char *> argv = {const_cast<char *>("bench")};
            (void)parseBenchArgs(1, argv.data());
        },
        ::testing::ExitedWithCode(1),
        "MOPAC_JOBS expects a non-negative number");
}

} // namespace
