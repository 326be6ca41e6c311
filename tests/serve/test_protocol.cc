/**
 * @file
 * Wire-protocol and result-cache tests for the serve layer: codec
 * round-trips (config drift guard included), framing over a real
 * socketpair, timeout/peer-closed outcomes, corrupt-frame rejection,
 * and the content-addressed cache's hit/miss/self-heal behaviour.
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
#include "sim/experiment.hh"
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

std::string
freshDir(const std::string &tag)
{
    const std::string dir = ::testing::TempDir() + "mopac_serve_" + tag;
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    return dir;
}

TEST(ServeProtocol, SystemConfigRoundTripsWithMatchingSignature)
{
    const SystemConfig cfg = sampleConfig();
    Serializer ser;
    saveSystemConfig(ser, cfg);
    const auto bytes = ser.finish(FileKind::kServeMessage, 0);

    Deserializer des(bytes, FileKind::kServeMessage, 0);
    const SystemConfig back = loadSystemConfig(des);
    des.finish();
    EXPECT_EQ(configSignature(back), configSignature(cfg));
    EXPECT_EQ(back.seed, cfg.seed);
    EXPECT_EQ(back.faults.intensity, cfg.faults.intensity);
}

TEST(ServeProtocol, TamperedConfigBytesAreAStructuredError)
{
    Serializer ser;
    saveSystemConfig(ser, sampleConfig());
    auto bytes = ser.finish(FileKind::kServeMessage, 0);
    bytes[bytes.size() / 2] ^= 0x40; // payload bit flip
    EXPECT_THROW(Deserializer(bytes, FileKind::kServeMessage, 0),
                 SerializeError);
}

TEST(ServeProtocol, AssignmentAndEventsRoundTrip)
{
    Assignment assign;
    assign.attempt = 4;
    assign.point = samplePoint(9);
    assign.point.workload = "xz";
    assign.raise_signal = 9;
    Serializer ser;
    saveAssignment(ser, assign);
    const auto bytes = ser.finish(FileKind::kServeMessage, 0);

    Deserializer des(bytes, FileKind::kServeMessage, 0);
    const Assignment back = loadAssignment(des);
    des.finish();
    EXPECT_EQ(back.attempt, assign.attempt);
    EXPECT_EQ(back.point.point_id, assign.point.point_id);
    EXPECT_EQ(back.point.config_label, assign.point.config_label);
    EXPECT_EQ(back.point.workload, assign.point.workload);
    EXPECT_EQ(configSignature(back.point.cfg),
              configSignature(assign.point.cfg));
    EXPECT_EQ(back.raise_signal, assign.raise_signal);

    PointEvent event{77, 3};
    Serializer ser2;
    savePointEvent(ser2, event);
    const auto bytes2 = ser2.finish(FileKind::kServeMessage, 0);
    Deserializer des2(bytes2, FileKind::kServeMessage, 0);
    const PointEvent back2 = loadPointEvent(des2);
    des2.finish();
    EXPECT_EQ(back2.point_id, event.point_id);
    EXPECT_EQ(back2.attempt, event.attempt);
}

TEST(ServeProtocol, FramesRoundTripOverASocketpair)
{
    SocketPair pair = makeSocketPair();
    Serializer ser;
    savePointEvent(ser, PointEvent{0x1234, 2});
    ASSERT_EQ(sendMessage(pair.worker_fd, ser, MsgType::kPointStart,
                          1.0),
              IoStatus::kOk);

    ReceivedMessage msg = recvMessage(pair.supervisor_fd, 1.0);
    ASSERT_EQ(msg.status, IoStatus::kOk);
    EXPECT_EQ(msg.type, MsgType::kPointStart);
    ASSERT_TRUE(msg.payload.has_value());
    EXPECT_EQ(loadPointEvent(*msg.payload).point_id, 0x1234u);
    msg.payload->finish();

    // Empty payloads (heartbeat, retire) carry only the envelope.
    ASSERT_EQ(sendEmptyMessage(pair.supervisor_fd, MsgType::kRetire,
                               1.0),
              IoStatus::kOk);
    ReceivedMessage retire = recvMessage(pair.worker_fd, 1.0);
    EXPECT_EQ(retire.status, IoStatus::kOk);
    EXPECT_EQ(retire.type, MsgType::kRetire);

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

// ------------------------------------------------------------------
// Result cache
// ------------------------------------------------------------------

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
