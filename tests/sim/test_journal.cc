/**
 * @file
 * Sweep-journal tests: resume skips finished points, merged stats are
 * bit-identical to an uninterrupted run at any jobs count, a
 * mismatched or corrupt MANIFEST is a structured fatal error,
 * record-level damage (bit flips, torn tails at any truncation
 * offset) heals to "re-run that point" with identical final results,
 * and a hard abort mid-sweep leaves only finished points journaled.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include <dirent.h>

#include "common/rng.hh"
#include "common/serialize.hh"
#include "sim/journal.hh"
#include "sim/runner.hh"
#include "sim/stop.hh"

namespace mopac
{
namespace
{

SystemConfig
quickConfig(MitigationKind kind, std::uint32_t trh = 500)
{
    SystemConfig cfg = makeConfig(kind, trh);
    cfg.insts_per_core = 6000;
    cfg.warmup_insts = 600;
    cfg.num_cores = 2;
    return cfg;
}

std::vector<ExperimentPoint>
samplePoints()
{
    const char *workloads[] = {"mcf", "bwaves", "omnetpp", "xz"};
    const MitigationKind kinds[] = {MitigationKind::kNone,
                                    MitigationKind::kMopacC};
    std::vector<ExperimentPoint> points;
    for (const char *wl : workloads) {
        for (MitigationKind kind : kinds) {
            ExperimentPoint p;
            p.point_id = points.size();
            p.config_label = toString(kind);
            p.workload = wl;
            p.cfg = quickConfig(kind);
            points.push_back(std::move(p));
        }
    }
    return points;
}

/** Fresh scratch journal directory (removed best-effort on reuse). */
std::string
freshDir(const std::string &tag)
{
    const std::string dir = ::testing::TempDir() + "mopac_jnl_" + tag;
    for (const char *sub : {"/points", "/quarantine", ""}) {
        const std::string where = dir + sub;
        if (DIR *d = ::opendir(where.c_str())) {
            while (const dirent *ent = ::readdir(d)) {
                std::remove((where + "/" + ent->d_name).c_str());
            }
            ::closedir(d);
            ::rmdir(where.c_str());
        }
    }
    return dir;
}

void
expectSameStats(const StatSnapshot &a, const StatSnapshot &b)
{
    std::ostringstream sa;
    std::ostringstream sb;
    a.dump(sa);
    b.dump(sb);
    EXPECT_EQ(sa.str(), sb.str());
}

/** Master seed of the abort sweep's per-point streams. */
constexpr std::uint64_t kAbortSweepSeed = 0xab0127;

/** Journal record image of @p result with its wall time zeroed. */
std::vector<std::uint8_t>
recordImage(PointResult result)
{
    result.wall_seconds = 0.0;
    Serializer ser;
    savePointResult(ser, result);
    return ser.finish(FileKind::kPointRecord, 0);
}

/**
 * Hard-abort a journaled sweep from the progress callback of its
 * first finished point, then resume it.  Every point of the cut sweep
 * must be either OK and byte-equal to an uninterrupted run, or
 * NOT-RUN with no record on disk; the resume must converge on the
 * uninterrupted results.
 */
void
abortMidSweepThenResume(unsigned jobs)
{
    sweepstop::reset();
    auto points = samplePoints();
    for (ExperimentPoint &p : points) {
        p.cfg.seed = Rng::streamSeed(kAbortSweepSeed, p.point_id);
    }
    RunnerOptions ref_opts;
    ref_opts.jobs = 1;
    const std::vector<PointResult> reference =
        Runner(ref_opts).run(points);

    const std::string dir = freshDir("abort" + std::to_string(jobs));
    RunnerOptions opts;
    opts.jobs = jobs;
    const JournaledSweepResult cut = Runner(opts).runJournaled(
        points, dir, [](const ExperimentPoint &, const PointResult &) {
            sweepstop::requestAbort();
        });
    sweepstop::reset();

    std::size_t ok = 0;
    for (std::size_t i = 0; i < points.size(); ++i) {
        const PointResult &r = cut.results[i];
        const std::string rec = std::to_string(points[i].point_id) + ".rec";
        if (r.status == PointStatus::kOk) {
            ++ok;
            EXPECT_EQ(recordImage(r), recordImage(reference[i])) << i;
            EXPECT_TRUE(fileExists(dir + "/points/" + rec)) << i;
        } else {
            EXPECT_EQ(r.status, PointStatus::kNotRun) << i;
            EXPECT_FALSE(fileExists(dir + "/points/" + rec)) << i;
            EXPECT_FALSE(fileExists(dir + "/quarantine/" + rec)) << i;
        }
    }
    EXPECT_GE(ok, 1u);
    EXPECT_FALSE(cut.complete());
    EXPECT_EQ(cut.executed, ok);
    EXPECT_EQ(cut.pending, points.size() - ok);

    const JournaledSweepResult resumed =
        Runner(opts).runJournaled(points, dir);
    sweepstop::reset();
    EXPECT_TRUE(resumed.complete());
    EXPECT_EQ(resumed.reused, ok);
    EXPECT_EQ(resumed.executed, points.size() - ok);
    for (std::size_t i = 0; i < points.size(); ++i) {
        EXPECT_EQ(recordImage(resumed.results[i]),
                  recordImage(reference[i]))
            << i;
    }
    expectSameStats(Runner::mergeStats(reference),
                    Runner::mergeStats(resumed.results));
}

TEST(Journal, PointResultRoundTripsThroughTheContainer)
{
    PointResult result;
    result.point_id = 17;
    result.status = PointStatus::kOk;
    result.seed = 424242;
    result.wall_seconds = 1.5;
    result.outcome = OutcomeClass::kDegraded;
    result.attempts = 3;
    result.run.ipcs = {0.5, 1.25};
    result.run.cycles = 123456;
    result.run.acts = 999;
    result.run.rbhr = 0.75;

    Serializer ser;
    savePointResult(ser, result);
    Deserializer des(ser.finish(FileKind::kPointRecord, 7),
                     FileKind::kPointRecord, 7);
    const PointResult loaded = loadPointResult(des);
    des.finish();

    EXPECT_EQ(loaded.point_id, result.point_id);
    EXPECT_EQ(loaded.status, result.status);
    EXPECT_EQ(loaded.seed, result.seed);
    EXPECT_EQ(loaded.wall_seconds, result.wall_seconds);
    EXPECT_EQ(loaded.outcome, result.outcome);
    EXPECT_EQ(loaded.attempts, result.attempts);
    EXPECT_EQ(loaded.run.ipcs, result.run.ipcs);
    EXPECT_EQ(loaded.run.cycles, result.run.cycles);
    EXPECT_EQ(loaded.run.acts, result.run.acts);
    EXPECT_EQ(loaded.run.rbhr, result.run.rbhr);

    // A quarantine record: failure status, error text and the kHung
    // outcome of a hang-killed worker all survive the container.
    PointResult hung;
    hung.point_id = 18;
    hung.status = PointStatus::kFailed;
    hung.seed = 99;
    hung.attempts = 3;
    hung.outcome = OutcomeClass::kHung;
    hung.error = "worker hung on all 3 attempts; quarantined";
    Serializer ser2;
    savePointResult(ser2, hung);
    Deserializer des2(ser2.finish(FileKind::kPointRecord, 7),
                      FileKind::kPointRecord, 7);
    const PointResult back = loadPointResult(des2);
    des2.finish();
    EXPECT_EQ(back.point_id, hung.point_id);
    EXPECT_EQ(back.status, PointStatus::kFailed);
    EXPECT_EQ(back.attempts, hung.attempts);
    EXPECT_EQ(back.outcome, OutcomeClass::kHung);
    EXPECT_EQ(back.error, hung.error);
}

TEST(Journal, CompletesAndThenResumesWithNothingToDo)
{
    sweepstop::reset();
    const auto points = samplePoints();
    const std::string dir = freshDir("complete");

    RunnerOptions opts;
    opts.jobs = 2;
    const JournaledSweepResult first =
        Runner(opts).runJournaled(points, dir);
    EXPECT_TRUE(first.complete());
    EXPECT_EQ(first.executed, points.size());
    EXPECT_EQ(first.reused, 0u);

    // Re-invoking is pure journal replay: nothing executes.
    const JournaledSweepResult second =
        Runner(opts).runJournaled(points, dir);
    EXPECT_TRUE(second.complete());
    EXPECT_EQ(second.executed, 0u);
    EXPECT_EQ(second.reused, points.size());
}

TEST(Journal, InterruptedSweepResumesToIdenticalMergedStats)
{
    sweepstop::reset();
    const auto points = samplePoints();

    // Reference: uninterrupted, single worker.
    RunnerOptions ref_opts;
    ref_opts.jobs = 1;
    const StatSnapshot reference =
        Runner::mergeStats(Runner(ref_opts).run(points));

    // Interrupted run: stop after the first few points finish.
    const std::string dir = freshDir("resume");
    RunnerOptions opts;
    opts.jobs = 2;
    std::atomic<unsigned> finished{0};
    const JournaledSweepResult partial = Runner(opts).runJournaled(
        points, dir, [&finished](const ExperimentPoint &,
                                 const PointResult &) {
            if (finished.fetch_add(1) + 1 >= 3) {
                sweepstop::requestStop();
            }
        });
    EXPECT_FALSE(partial.complete());
    EXPECT_GT(partial.pending, 0u);
    EXPECT_LT(partial.executed, points.size());

    // Resume at a DIFFERENT jobs count; merged stats must still be
    // bit-identical to the uninterrupted single-threaded reference.
    sweepstop::reset();
    RunnerOptions resume_opts;
    resume_opts.jobs = 3;
    const JournaledSweepResult full =
        Runner(resume_opts).runJournaled(points, dir);
    EXPECT_TRUE(full.complete());
    EXPECT_EQ(full.reused + full.executed, points.size());
    EXPECT_GT(full.reused, 0u);
    expectSameStats(reference, Runner::mergeStats(full.results));

    // Per-point results are also identical to a plain run.
    const std::vector<PointResult> plain =
        Runner(ref_opts).run(points);
    for (std::size_t i = 0; i < points.size(); ++i) {
        EXPECT_EQ(full.results[i].status, plain[i].status) << i;
        EXPECT_EQ(full.results[i].run.cycles, plain[i].run.cycles)
            << i;
        EXPECT_EQ(full.results[i].run.acts, plain[i].run.acts) << i;
    }
}

TEST(Journal, AbortMidSweepJournalsOnlyFinishedPointsAtOneJob)
{
    abortMidSweepThenResume(1);
}

TEST(Journal, AbortMidSweepJournalsOnlyFinishedPointsAtThreeJobs)
{
    abortMidSweepThenResume(3);
}

TEST(Journal, RejectsAJournalFromADifferentSweep)
{
    sweepstop::reset();
    auto points = samplePoints();
    const std::string dir = freshDir("mismatch");
    RunnerOptions opts;
    opts.jobs = 1;
    (void)Runner(opts).runJournaled(points, dir);

    // Same directory, different sweep (changed threshold): the
    // manifest hash no longer matches -- structured fatal error.
    points[0].cfg.trh += 100;
    EXPECT_THROW(Runner(opts).runJournaled(points, dir),
                 SerializeError);
}

TEST(Journal, HealsACorruptPointRecordByReRunningIt)
{
    sweepstop::reset();
    const auto points = samplePoints();
    const std::string dir = freshDir("corrupt");
    RunnerOptions opts;
    opts.jobs = 1;
    const JournaledSweepResult first =
        Runner(opts).runJournaled(points, dir);
    EXPECT_TRUE(first.complete());

    // Flip one payload bit in a finished record: the journal heals
    // (quarantines the file as *.corrupt, re-runs that one point)
    // rather than bricking the whole sweep.
    const std::string victim = dir + "/points/0.rec";
    std::vector<std::uint8_t> image = readFileBytes(victim);
    image[image.size() / 2] ^= 0x10;
    atomicWriteFile(victim, image);

    const JournaledSweepResult healed =
        Runner(opts).runJournaled(points, dir);
    EXPECT_TRUE(healed.complete());
    EXPECT_EQ(healed.executed, 1u);
    EXPECT_EQ(healed.reused, points.size() - 1);
    EXPECT_TRUE(fileExists(victim + ".corrupt"));

    // The healed sweep is bit-identical to the uninterrupted one.
    expectSameStats(Runner::mergeStats(first.results),
                    Runner::mergeStats(healed.results));
    std::remove((victim + ".corrupt").c_str());
}

TEST(Journal, HealsATornTailRecordAtEveryTruncationOffset)
{
    // A torn final record -- the process died mid-write, leaving a
    // prefix of the point record -- must heal to "re-run the last
    // point" at EVERY truncation offset, never corrupt the manifest
    // or the other records.  One-point sweep keeps the loop cheap.
    sweepstop::reset();
    std::vector<ExperimentPoint> points = {samplePoints()[0]};
    const std::string dir = freshDir("torn");
    RunnerOptions opts;
    opts.jobs = 1;
    const JournaledSweepResult first =
        Runner(opts).runJournaled(points, dir);
    ASSERT_TRUE(first.complete());

    const std::string victim = dir + "/points/0.rec";
    const std::vector<std::uint8_t> pristine = readFileBytes(victim);
    ASSERT_GT(pristine.size(), 0u);

    for (std::size_t len = 0; len < pristine.size(); ++len) {
        std::vector<std::uint8_t> torn(pristine.begin(),
                                       pristine.begin() + len);
        atomicWriteFile(victim, torn);
        SweepJournal journal(dir, points);
        EXPECT_EQ(journal.healed(), 1u) << "offset " << len;
        EXPECT_TRUE(journal.completed().empty()) << "offset " << len;
        EXPECT_FALSE(fileExists(victim)) << "offset " << len;
        std::remove((victim + ".corrupt").c_str());
    }

    // After the last heal, a resume re-runs the point and converges
    // on the same results as the clean first pass.
    const JournaledSweepResult again =
        Runner(opts).runJournaled(points, dir);
    EXPECT_TRUE(again.complete());
    EXPECT_EQ(again.executed, 1u);
    expectSameStats(Runner::mergeStats(first.results),
                    Runner::mergeStats(again.results));
}

TEST(Journal, RejectsATruncatedManifest)
{
    sweepstop::reset();
    const auto points = samplePoints();
    const std::string dir = freshDir("truncated");
    RunnerOptions opts;
    opts.jobs = 1;
    (void)Runner(opts).runJournaled(points, dir);

    const std::string manifest = dir + "/manifest.bin";
    std::vector<std::uint8_t> image = readFileBytes(manifest);
    image.resize(image.size() / 2);
    atomicWriteFile(manifest, image);
    EXPECT_THROW(Runner(opts).runJournaled(points, dir),
                 SerializeError);
}

TEST(Journal, QuarantinedPointsReRunOnResume)
{
    sweepstop::reset();
    auto points = samplePoints();
    // Sabotage one point so it fails and lands in quarantine/.
    points[2].workload = "no-such-workload";
    const std::string dir = freshDir("quarantine");
    RunnerOptions opts;
    opts.jobs = 1;
    const JournaledSweepResult first =
        Runner(opts).runJournaled(points, dir);
    EXPECT_TRUE(first.complete());
    EXPECT_EQ(first.results[2].status, PointStatus::kFailed);
    EXPECT_TRUE(fileExists(dir + "/quarantine/2.rec"));
    EXPECT_FALSE(fileExists(dir + "/points/2.rec"));

    // On resume the failed point re-runs (it may be fixed by now);
    // the finished ones do not.
    const JournaledSweepResult second =
        Runner(opts).runJournaled(points, dir);
    EXPECT_EQ(second.reused, points.size() - 1);
    EXPECT_EQ(second.executed, 1u);
}

} // namespace
} // namespace mopac
