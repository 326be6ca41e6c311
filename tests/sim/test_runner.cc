/**
 * @file
 * Unit tests for sweep expansion and the runner's failure paths
 * (quarantine, timeout, replay, journal-write brownout).  The heavyweight
 * jobs-1-vs-jobs-N determinism sweep lives in tests/regression.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/serialize.hh"
#include "sim/journal.hh"
#include "sim/runner.hh"
#include "sim/sharding.hh"
#include "sim/system.hh"

namespace mopac
{
namespace
{

SystemConfig
tinyConfig(MitigationKind kind = MitigationKind::kNone)
{
    SystemConfig cfg = makeConfig(kind, 500);
    cfg.num_cores = 1;
    cfg.insts_per_core = 2000;
    cfg.warmup_insts = 200;
    return cfg;
}

SweepSpec
tinySweep()
{
    SweepSpec spec;
    spec.master_seed = 99;
    spec.configs = {{"base", tinyConfig()},
                    {"mopac-d", tinyConfig(MitigationKind::kMopacD)}};
    spec.workloads = {"mcf", "add"};
    return spec;
}

TEST(Sharding, ExpandIsWorkloadMajorWithDenseIds)
{
    const auto points = tinySweep().expand();
    ASSERT_EQ(points.size(), 4u);
    for (std::size_t i = 0; i < points.size(); ++i) {
        EXPECT_EQ(points[i].point_id, i);
    }
    EXPECT_EQ(points[0].workload, "mcf");
    EXPECT_EQ(points[0].config_label, "base");
    EXPECT_EQ(points[1].workload, "mcf");
    EXPECT_EQ(points[1].config_label, "mopac-d");
    EXPECT_EQ(points[2].workload, "add");
    EXPECT_EQ(points[3].workload, "add");
}

TEST(Sharding, PerWorkloadPolicyPairsSeedsAcrossConfigs)
{
    SweepSpec spec = tinySweep();
    spec.seed_policy = SweepSpec::SeedPolicy::kPerWorkload;
    const auto points = spec.expand();
    // Baseline and test on the same workload share a trace seed;
    // different workloads never do.
    EXPECT_EQ(points[0].cfg.seed, points[1].cfg.seed);
    EXPECT_EQ(points[2].cfg.seed, points[3].cfg.seed);
    EXPECT_NE(points[0].cfg.seed, points[2].cfg.seed);
    EXPECT_EQ(points[0].cfg.seed, Rng::streamSeed(spec.master_seed, 0));
    EXPECT_EQ(points[2].cfg.seed, Rng::streamSeed(spec.master_seed, 1));
}

TEST(Sharding, PerPointPolicyGivesEveryCellItsOwnSeed)
{
    SweepSpec spec = tinySweep();
    spec.seed_policy = SweepSpec::SeedPolicy::kPerPoint;
    const auto points = spec.expand();
    std::set<std::uint64_t> seeds;
    for (const auto &p : points) {
        seeds.insert(p.cfg.seed);
    }
    EXPECT_EQ(seeds.size(), points.size());
    EXPECT_EQ(points[3].cfg.seed, Rng::streamSeed(spec.master_seed, 3));
}

TEST(Sharding, ConfigSignatureSeparatesMeaningfulFields)
{
    const SystemConfig a = tinyConfig();
    EXPECT_EQ(configSignature(a), configSignature(a));
    SystemConfig b = a;
    b.trh = 250;
    EXPECT_NE(configSignature(a), configSignature(b));
    b = a;
    b.seed += 1;
    EXPECT_NE(configSignature(a), configSignature(b));
    b = a;
    b.mitigation = MitigationKind::kMopacC;
    EXPECT_NE(configSignature(a), configSignature(b));
    b = a;
    b.geometry.chips = 16;
    EXPECT_NE(configSignature(a), configSignature(b));
}

TEST(Runner, QuarantinesFailingPointWithoutKillingSweep)
{
    SweepSpec spec = tinySweep();
    spec.workloads = {"mcf", "nosuchworkload"};
    const auto points = spec.expand();
    Runner runner(RunnerOptions{.jobs = 2});
    const auto results = runner.run(points);
    ASSERT_EQ(results.size(), 4u);
    // mcf points succeed...
    EXPECT_EQ(results[0].status, PointStatus::kOk);
    EXPECT_EQ(results[1].status, PointStatus::kOk);
    // ...the unknown-workload points fail in quarantine, carrying
    // their seed and a non-empty diagnostic for --replay.
    for (std::size_t i : {std::size_t{2}, std::size_t{3}}) {
        EXPECT_EQ(results[i].status, PointStatus::kFailed);
        EXPECT_FALSE(results[i].error.empty());
        EXPECT_EQ(results[i].seed, points[i].cfg.seed);
        EXPECT_EQ(results[i].point_id, points[i].point_id);
    }
}

TEST(Runner, CycleGuardClassifiesPointAsTimedOut)
{
    SweepSpec spec = tinySweep();
    spec.workloads = {"mcf"};
    spec.configs = {{"base", tinyConfig()}};
    auto points = spec.expand();
    points[0].cfg.max_cycles = 500; // Far too few to finish.
    const auto results = Runner(RunnerOptions{.jobs = 1}).run(points);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].status, PointStatus::kTimedOut);
    EXPECT_FALSE(results[0].error.empty());
}

TEST(Runner, ReplayReproducesTheSweepResult)
{
    SweepSpec spec = tinySweep();
    spec.workloads = {"mcf"};
    const auto points = spec.expand();
    const auto sweep = Runner(RunnerOptions{.jobs = 2}).run(points);
    const PointResult again = Runner::replay(points[1]);
    ASSERT_EQ(sweep[1].status, PointStatus::kOk);
    ASSERT_EQ(again.status, PointStatus::kOk);
    EXPECT_EQ(again.seed, sweep[1].seed);
    EXPECT_EQ(again.run.cycles, sweep[1].run.cycles);
    EXPECT_EQ(again.run.acts, sweep[1].run.acts);
    EXPECT_TRUE(again.stats == sweep[1].stats);
}

TEST(Runner, MergeStatsSumsOkPointsOnly)
{
    SweepSpec spec = tinySweep();
    spec.workloads = {"mcf", "nosuchworkload"};
    const auto points = spec.expand();
    const auto results = Runner(RunnerOptions{.jobs = 1}).run(points);
    const StatSnapshot merged = Runner::mergeStats(results);
    ASSERT_TRUE(merged.has("subch0.dram.acts"));
    std::uint64_t sum = 0;
    for (const auto &r : results) {
        if (r.status == PointStatus::kOk) {
            sum += r.stats.scalar("subch0.dram.acts");
        }
    }
    EXPECT_EQ(merged.scalar("subch0.dram.acts"), sum);
}

TEST(Runner, ZeroJobsResolvesToHardwareConcurrency)
{
    EXPECT_GE(Runner(RunnerOptions{.jobs = 0}).jobs(), 1u);
    EXPECT_EQ(Runner(RunnerOptions{.jobs = 5}).jobs(), 5u);
}

TEST(Runner, ProgressCallbackFiresOncePerPoint)
{
    SweepSpec spec = tinySweep();
    spec.workloads = {"mcf"};
    const auto points = spec.expand();
    std::atomic<unsigned> calls{0};
    Runner(RunnerOptions{.jobs = 2})
        .run(points, [&](const ExperimentPoint &,
                         const PointResult &) { ++calls; });
    EXPECT_EQ(calls.load(), points.size());
}

/** Deterministic bytes of a result (wall clock zeroed). */
std::vector<std::uint8_t>
canonicalBytes(const PointResult &result)
{
    PointResult canon = result;
    canon.wall_seconds = 0.0;
    Serializer ser;
    savePointResult(ser, canon);
    return ser.finish(FileKind::kPointRecord, canon.point_id);
}

/** RAII: fail every durable write except the journal manifest. */
struct PointRecordsFail
{
    PointRecordsFail()
    {
        setWriteFaultHook([](const std::string &path) {
            if (std::filesystem::path(path).filename() !=
                "manifest.bin") {
                throw SerializeError("injected ENOSPC writing " + path);
            }
        });
    }
    ~PointRecordsFail() { setWriteFaultHook({}); }
};

TEST(Runner, JournalWriteFailureKeepsTheSweepRunning)
{
    const auto points = tinySweep().expand();
    const auto clean = Runner(RunnerOptions{.jobs = 1}).run(points);
    for (unsigned jobs : {1u, 2u}) {
        const std::string dir = ::testing::TempDir() +
                                "mopac_runner_brownout_" +
                                std::to_string(jobs);
        std::filesystem::remove_all(dir);
        JournaledSweepResult sweep;
        {
            // Every point record fails to write: the sweep neither
            // throws nor aborts, and keeps each result in memory.
            PointRecordsFail full_disk;
            sweep = Runner(RunnerOptions{.jobs = jobs})
                        .runJournaled(points, dir);
        }
        ASSERT_TRUE(sweep.complete()) << "jobs " << jobs;
        EXPECT_EQ(sweep.executed, points.size());
        for (std::size_t i = 0; i < points.size(); ++i) {
            EXPECT_EQ(canonicalBytes(sweep.results[i]),
                      canonicalBytes(clean[i]))
                << "jobs " << jobs << " point " << i;
        }
        // Only durability degraded: a resume re-runs every point.
        const JournaledSweepResult resumed =
            Runner(RunnerOptions{.jobs = jobs}).runJournaled(points, dir);
        EXPECT_EQ(resumed.reused, 0u);
        EXPECT_EQ(resumed.executed, points.size());
        std::filesystem::remove_all(dir);
    }
}

} // namespace
} // namespace mopac
