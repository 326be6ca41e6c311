/**
 * @file
 * Resource-pressure tests: the syscall fault shim (deterministic
 * ENOSPC / EINTR / short-write injection), brownout (storage failures
 * tolerated, results served from memory), and a graceful stop whose
 * journal resumes to the clean run's results.
 *
 * Threaded socketpair tests never fork, and forking tests never run
 * with live threads, so the whole file is clean under
 * ThreadSanitizer.
 */

#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/serialize.hh"
#include "serve/cache.hh"
#include "serve/io.hh"
#include "serve/supervisor.hh"
#include "sim/experiment.hh"
#include "sim/journal.hh"
#include "sim/sharding.hh"
#include "sim/stop.hh"

namespace
{

using namespace mopac;
using namespace mopac::serve;

/** A tiny 4-point clean sweep (2 configs x 2 workloads). */
std::vector<ExperimentPoint>
tinySweep(std::uint64_t insts = 3000)
{
    SweepSpec spec;
    spec.master_seed = 17;
    for (std::uint32_t trh : {500u, 1000u}) {
        SystemConfig cfg = makeConfig(MitigationKind::kMopacD, trh);
        cfg.insts_per_core = insts;
        cfg.warmup_insts = insts / 10;
        spec.configs.push_back(
            {"mopac-d@" + std::to_string(trh), cfg});
    }
    spec.workloads = {"mcf", "xz"};
    return spec.expand();
}

SupervisorOptions
fastOptions(unsigned workers)
{
    SupervisorOptions opts;
    opts.workers = workers;
    opts.heartbeat_sec = 0.1;
    opts.hang_timeout_sec = 20.0;
    opts.backoff_base_sec = 0.01;
    opts.backoff_cap_sec = 0.04;
    return opts;
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

/** Fresh scratch directory under the gtest temp root. */
std::string
freshDir(const std::string &tag)
{
    const std::string dir =
        ::testing::TempDir() + "mopac_pressure_" + tag;
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    return dir;
}

/** RAII: whatever happens in the test, disarm the fault shim. */
struct ShimGuard
{
    explicit ShimGuard(const IoFaultConfig &config)
    {
        setIoFaultShim(config);
    }
    ~ShimGuard() { setIoFaultShim(IoFaultConfig{}); }
};

// ------------------------------------------------------------------
// The fault shim itself
// ------------------------------------------------------------------

/** Push @p payload through a socketpair under the live shim. */
std::vector<std::uint8_t>
roundTrip(const std::vector<std::uint8_t> &payload)
{
    const SocketPair pair = makeSocketPair();
    std::vector<std::uint8_t> got(payload.size(), 0);
    std::thread reader([&] {
        ASSERT_EQ(readExact(pair.worker_fd, got.data(), got.size(),
                            30.0),
                  IoStatus::kOk);
    });
    EXPECT_EQ(writeAll(pair.supervisor_fd, payload.data(),
                       payload.size(), 30.0),
              IoStatus::kOk);
    reader.join();
    closeQuiet(pair.supervisor_fd);
    closeQuiet(pair.worker_fd);
    return got;
}

TEST(IoFaultShim, EintrAndShortWritesPreserveByteStreams)
{
    // 100 KiB with both EINTR skips and short-write truncation
    // injected at a high rate: the retry/continuation loops must
    // still deliver every byte in order.
    std::vector<std::uint8_t> payload(100 * 1024);
    for (std::size_t i = 0; i < payload.size(); ++i) {
        payload[i] = static_cast<std::uint8_t>(i * 2654435761u >> 13);
    }
    IoFaultConfig config;
    config.seed = 42;
    config.eintr_rate = 0.4;
    config.short_write_rate = 0.4;
    ShimGuard shim(config);

    const std::vector<std::uint8_t> got = roundTrip(payload);
    EXPECT_EQ(got, payload);
    const IoFaultStats stats = ioFaultShimStats();
    EXPECT_GT(stats.eintr, 0u);
    EXPECT_GT(stats.short_writes, 0u);
}

TEST(IoFaultShim, InjectionSequenceIsDeterministic)
{
    // Same seed, same call sequence => identical injection counts:
    // decisions are counter-mode draws, not wall-clock noise.
    std::vector<std::uint8_t> payload(32 * 1024, 0x5a);
    IoFaultConfig config;
    config.seed = 7;
    config.eintr_rate = 0.3;
    config.short_write_rate = 0.3;

    IoFaultStats first;
    {
        ShimGuard shim(config);
        (void)roundTrip(payload);
        first = ioFaultShimStats();
    }
    IoFaultStats second;
    {
        ShimGuard shim(config);
        (void)roundTrip(payload);
        second = ioFaultShimStats();
    }
    EXPECT_GT(first.eintr + first.short_writes, 0u);
    EXPECT_EQ(first.eintr, second.eintr);
    EXPECT_EQ(first.short_writes, second.short_writes);
}

TEST(IoFaultShim, EnospcFailsAtomicWritesWithoutTornFiles)
{
    const std::string dir = freshDir("enospc");
    ensureDir(dir);
    const std::string path = dir + "/victim.bin";

    Serializer ser;
    const std::vector<std::uint8_t> image =
        ser.finish(FileKind::kSnapshot, 1);
    IoFaultConfig config;
    config.seed = 11;
    config.enospc_rate = 1.0;
    {
        ShimGuard shim(config);
        EXPECT_THROW(atomicWriteFile(path, image), SerializeError);
        EXPECT_GE(ioFaultShimStats().enospc, 1u);
        // Failed before any byte: no file, not even a temp.
        EXPECT_FALSE(fileExists(path));
    }
    atomicWriteFile(path, image);
    EXPECT_EQ(readFileBytes(path), image);
}

// ------------------------------------------------------------------
// Supervised sweeps under storage pressure (brownout)
// ------------------------------------------------------------------

TEST(SupervisorPressure, EnospcBrownoutKeepsServingResults)
{
    sweepstop::reset();
    const std::vector<ExperimentPoint> points = tinySweep();

    RunnerOptions serial;
    serial.jobs = 1;
    const std::vector<PointResult> clean = Runner(serial).run(points);

    // Journal and cache are created while the disk still works; then
    // every later durable write fails.  The sweep must complete from
    // memory, counting (not crashing on) each failed journal write;
    // the caller's cache stores fail the same way, as in perfbench's
    // served_sweep (lookup before run(), store after).
    const std::string dir = freshDir("brownout");
    ensureDir(dir);
    SweepJournal journal(dir + "/journal", points);
    ResultCache cache(dir + "/cache");
    for (const ExperimentPoint &point : points) {
        ASSERT_FALSE(cache.lookup(point).has_value());
    }

    IoFaultConfig config;
    config.seed = 13;
    config.enospc_rate = 1.0;
    ShimGuard shim(config);

    Supervisor sup(fastOptions(2));
    sup.setJournal(&journal);
    const SupervisorReport report = sup.run(points);

    EXPECT_EQ(report.exitCode(), 0);
    // One failed journal write per point.
    EXPECT_EQ(report.storage_write_failures, points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        EXPECT_THROW(cache.store(points[i], report.results[i]),
                     SerializeError);
    }
    for (const auto &entry :
         std::filesystem::directory_iterator(cache.dir())) {
        EXPECT_NE(entry.path().extension(), ".rec") << entry.path();
    }
    for (std::size_t i = 0; i < points.size(); ++i) {
        EXPECT_EQ(report.results[i].status, PointStatus::kOk);
        EXPECT_EQ(canonicalBytes(report.results[i]),
                  canonicalBytes(clean[i]));
        EXPECT_FALSE(fileExists(journal.dir() + "/points/" +
                                std::to_string(points[i].point_id) +
                                ".rec"));
    }
}

// ------------------------------------------------------------------
// Graceful stop and journal resume
// ------------------------------------------------------------------

TEST(SupervisorStop, GracefulStopThenResumeMatchesCleanRun)
{
    sweepstop::reset();
    const std::vector<ExperimentPoint> points = tinySweep();
    RunnerOptions serial;
    serial.jobs = 1;
    const std::vector<PointResult> clean = Runner(serial).run(points);
    const std::string jnl_dir = freshDir("stop_jnl");

    // Run 1: one worker, stop as soon as the first point resolves.
    SweepJournal journal_a(jnl_dir, points);
    Supervisor first(fastOptions(1));
    first.setJournal(&journal_a);
    std::size_t resolved = 0;
    const SupervisorReport partial = first.run(
        points,
        [&resolved](const ExperimentPoint &, const PointResult &) {
            if (++resolved == 1) {
                sweepstop::requestStop();
            }
        });
    EXPECT_TRUE(partial.stopped);
    EXPECT_EQ(partial.exitCode(), sweepstop::kResumableExit);
    std::size_t pending = 0;
    for (const PointResult &result : partial.results) {
        pending += result.status == PointStatus::kNotRun ? 1 : 0;
    }
    EXPECT_GE(pending, 2u);

    // Run 2: same journal.  Finished points are adopted, the pending
    // ones run from scratch, and the merged manifest is bit-identical
    // to the clean run.
    sweepstop::reset();
    SweepJournal journal_b(jnl_dir, points);
    Supervisor second(fastOptions(1));
    second.setJournal(&journal_b);
    const SupervisorReport full = second.run(points);

    EXPECT_EQ(full.exitCode(), 0);
    EXPECT_GE(full.journal_reused, 1u);
    for (std::size_t i = 0; i < points.size(); ++i) {
        EXPECT_EQ(canonicalBytes(full.results[i]),
                  canonicalBytes(clean[i]));
    }
}

} // namespace
