/**
 * @file
 * Wire-protocol, worker and result-cache tests for the serve layer:
 * codec round-trips, framing over a real socketpair,
 * timeout/peer-closed outcomes, corrupt-frame rejection, the worker's
 * out-of-range-index exit, and the content-addressed cache's
 * hit/miss/self-heal behaviour.
 */

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "serve/cache.hh"
#include "serve/io.hh"
#include "serve/protocol.hh"
#include "serve/worker.hh"
#include "sim/experiment.hh"
#include "sim/journal.hh"
#include "sim/sharding.hh"

namespace
{

using namespace mopac;
using namespace mopac::serve;

SystemConfig
sampleConfig()
{
    SystemConfig cfg = makeConfig(MitigationKind::kMopacC, 500);
    cfg.seed = 0xfeedbeef;
    cfg.insts_per_core = 12345;
    cfg.warmup_insts = 678;
    cfg.faults = FaultPlan::single(FaultKind::kAlertDrop, 0.125);
    return cfg;
}

ExperimentPoint
samplePoint(std::uint64_t id = 3)
{
    ExperimentPoint p;
    p.point_id = id;
    p.config_label = "mopac-c@500";
    p.workload = "mcf";
    p.cfg = sampleConfig();
    p.cfg.seed += id; // distinct cache identity per id
    return p;
}

PointResult
okResult(const ExperimentPoint &point)
{
    PointResult r;
    r.point_id = point.point_id;
    r.status = PointStatus::kOk;
    r.seed = point.cfg.seed;
    r.wall_seconds = 0.25;
    r.run.ipcs = {1.25};
    return r;
}

std::string
freshDir(const std::string &tag)
{
    const std::string dir = ::testing::TempDir() + "mopac_serve_" + tag;
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    return dir;
}

TEST(ServeProtocol, TamperedConfigBytesAreAStructuredError)
{
    // A bit flip inside a sealed kAssign frame must fail the
    // receiver's validation, never decode into a different point.
    Serializer ser;
    saveAssignment(ser, Assignment{3, 0});
    std::vector<std::uint8_t> frame = sealFrame(ser, MsgType::kAssign);
    frame[8 + (frame.size() - 8) / 2] ^= 0x40; // body bit flip
    SocketPair pair = makeSocketPair();
    ASSERT_EQ(writeAll(pair.supervisor_fd, frame.data(), frame.size(),
                       1.0),
              IoStatus::kOk);
    EXPECT_THROW(recvMessage(pair.worker_fd, 1.0), SerializeError);
    closeQuiet(pair.supervisor_fd);
    closeQuiet(pair.worker_fd);
}

TEST(ServeProtocol, AssignmentAndEventsRoundTrip)
{
    Assignment assign;
    assign.index = 9;
    assign.raise_signal = 9;
    Serializer ser;
    saveAssignment(ser, assign);
    const auto bytes = ser.finish(FileKind::kServeMessage, 0);

    Deserializer des(bytes, FileKind::kServeMessage, 0);
    const Assignment back = loadAssignment(des);
    des.finish();
    EXPECT_EQ(back.index, assign.index);
    EXPECT_EQ(back.raise_signal, assign.raise_signal);

    // The one worker event, kPointDone, is a bare PointResult.
    const PointResult done = okResult(samplePoint(77));
    Serializer ser2;
    savePointResult(ser2, done);
    const auto bytes2 = ser2.finish(FileKind::kServeMessage, 0);
    Deserializer des2(bytes2, FileKind::kServeMessage, 0);
    const PointResult back2 = loadPointResult(des2);
    des2.finish();
    EXPECT_EQ(back2.point_id, done.point_id);
    EXPECT_EQ(back2.status, done.status);
    EXPECT_DOUBLE_EQ(back2.run.ipcs.at(0), done.run.ipcs.at(0));
}

TEST(ServeProtocol, FramesRoundTripOverASocketpair)
{
    SocketPair pair = makeSocketPair();
    Serializer ser;
    saveAssignment(ser, Assignment{0x1234, 0});
    ASSERT_EQ(sendMessage(pair.supervisor_fd, ser, MsgType::kAssign,
                          1.0),
              IoStatus::kOk);

    ReceivedMessage msg = recvMessage(pair.worker_fd, 1.0);
    ASSERT_EQ(msg.status, IoStatus::kOk);
    EXPECT_EQ(msg.type, MsgType::kAssign);
    ASSERT_TRUE(msg.payload.has_value());
    EXPECT_EQ(loadAssignment(*msg.payload).index, 0x1234u);
    msg.payload->finish();

    // Empty payloads (heartbeat, retire) carry only the envelope.
    ASSERT_EQ(sendEmptyMessage(pair.worker_fd, MsgType::kHeartbeat,
                               1.0),
              IoStatus::kOk);
    ReceivedMessage beat = recvMessage(pair.supervisor_fd, 1.0);
    EXPECT_EQ(beat.status, IoStatus::kOk);
    EXPECT_EQ(beat.type, MsgType::kHeartbeat);

    closeQuiet(pair.supervisor_fd);
    closeQuiet(pair.worker_fd);
}

TEST(ServeProtocol, RecvTimesOutOnASilentPeer)
{
    SocketPair pair = makeSocketPair();
    const ReceivedMessage msg = recvMessage(pair.worker_fd, 0.05);
    EXPECT_EQ(msg.status, IoStatus::kTimeout);
    closeQuiet(pair.supervisor_fd);
    closeQuiet(pair.worker_fd);
}

TEST(ServeProtocol, RecvReportsAClosedPeer)
{
    SocketPair pair = makeSocketPair();
    closeQuiet(pair.supervisor_fd);
    const ReceivedMessage msg = recvMessage(pair.worker_fd, 0.5);
    EXPECT_EQ(msg.status, IoStatus::kPeerClosed);
    closeQuiet(pair.worker_fd);
}

TEST(ServeProtocol, OversizedFrameLengthIsRejected)
{
    SocketPair pair = makeSocketPair();
    // A length prefix claiming > kMaxFrameBytes must be rejected
    // before any allocation attempt.
    std::uint8_t prefix[8];
    const std::uint64_t huge = kMaxFrameBytes + 1;
    for (int i = 0; i < 8; ++i) {
        prefix[i] = static_cast<std::uint8_t>(huge >> (8 * i));
    }
    ASSERT_EQ(writeAll(pair.supervisor_fd, prefix, sizeof(prefix), 1.0),
              IoStatus::kOk);
    EXPECT_THROW(recvMessage(pair.worker_fd, 0.5), SerializeError);
    closeQuiet(pair.supervisor_fd);
    closeQuiet(pair.worker_fd);
}

TEST(ServeProtocol, GarbagePayloadIsAStructuredError)
{
    SocketPair pair = makeSocketPair();
    std::vector<std::uint8_t> junk(64, 0x5a);
    std::uint8_t prefix[8] = {64, 0, 0, 0, 0, 0, 0, 0};
    ASSERT_EQ(writeAll(pair.supervisor_fd, prefix, sizeof(prefix), 1.0),
              IoStatus::kOk);
    ASSERT_EQ(writeAll(pair.supervisor_fd, junk.data(), junk.size(),
                       1.0),
              IoStatus::kOk);
    EXPECT_THROW(recvMessage(pair.worker_fd, 0.5), SerializeError);
    closeQuiet(pair.supervisor_fd);
    closeQuiet(pair.worker_fd);
}

TEST(ServeWorker, AssignmentIndexPastTheEndIsAProtocolError)
{
    // The worker runs on this thread over a socketpair: it reads the
    // queued kAssign, finds no point at index 2, and returns 1 without
    // simulating or replying.
    const std::vector<ExperimentPoint> points = {samplePoint(0),
                                                 samplePoint(1)};
    SocketPair pair = makeSocketPair();
    Serializer ser;
    saveAssignment(ser, Assignment{points.size(), 0});
    ASSERT_EQ(sendMessage(pair.supervisor_fd, ser, MsgType::kAssign,
                          1.0),
              IoStatus::kOk);
    EXPECT_EQ(workerMain(pair.worker_fd, 5.0, points), 1);
    closeQuiet(pair.worker_fd);
    EXPECT_EQ(recvMessage(pair.supervisor_fd, 1.0).status,
              IoStatus::kPeerClosed);
    closeQuiet(pair.supervisor_fd);
}

// ------------------------------------------------------------------
// Result cache
// ------------------------------------------------------------------

TEST(ResultCache, MissThenHitThenKeyIdentity)
{
    ResultCache cache(freshDir("cache_hit"));
    const ExperimentPoint point = samplePoint(5);
    EXPECT_FALSE(cache.lookup(point).has_value());
    EXPECT_EQ(cache.misses(), 1u);

    cache.store(point, okResult(point));
    const auto back = cache.lookup(point);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(back->status, PointStatus::kOk);
    EXPECT_DOUBLE_EQ(back->run.ipcs.at(0), 1.25);

    // Identity is (config, workload), not the point id: the same cell
    // under a different id hits and is re-labelled with the new id.
    ExperimentPoint renumbered = point;
    renumbered.point_id = 99;
    const auto relabeled = cache.lookup(renumbered);
    ASSERT_TRUE(relabeled.has_value());
    EXPECT_EQ(relabeled->point_id, 99u);

    // A different workload is a different cell entirely.
    ExperimentPoint other = point;
    other.workload = "xz";
    EXPECT_NE(ResultCache::keyFor(other), ResultCache::keyFor(point));
    EXPECT_FALSE(cache.lookup(other).has_value());
}

TEST(ResultCache, NonOkResultsAreNeverStored)
{
    ResultCache cache(freshDir("cache_nonok"));
    const ExperimentPoint point = samplePoint(6);
    PointResult bad = okResult(point);
    bad.status = PointStatus::kFailed;
    bad.outcome = OutcomeClass::kViolated;
    cache.store(point, bad);
    EXPECT_FALSE(cache.lookup(point).has_value());
}

TEST(ResultCache, CorruptEntryHealsToAMiss)
{
    const std::string dir = freshDir("cache_heal");
    ResultCache cache(dir);
    const ExperimentPoint point = samplePoint(7);
    cache.store(point, okResult(point));
    ASSERT_TRUE(cache.lookup(point).has_value());

    // Flip one payload byte in the single entry on disk.
    std::string entry;
    for (const auto &de : std::filesystem::directory_iterator(dir)) {
        if (de.path().extension() == ".rec") {
            entry = de.path().string();
        }
    }
    ASSERT_FALSE(entry.empty());
    {
        std::fstream f(entry, std::ios::in | std::ios::out |
                                  std::ios::binary);
        f.seekg(0, std::ios::end);
        const std::streamoff size = f.tellg();
        f.seekp(size / 2);
        f.put('\x7f');
    }

    EXPECT_FALSE(cache.lookup(point).has_value());
    EXPECT_EQ(cache.healed(), 1u);
    // The poisoned file is quarantined out of the entry namespace, so
    // a re-store works and subsequent lookups hit again.
    cache.store(point, okResult(point));
    EXPECT_TRUE(cache.lookup(point).has_value());
}

} // namespace
