/**
 * @file
 * Assignment codec + framing implementation.
 */

#include "protocol.hh"

#include "common/format.hh"

namespace mopac::serve
{

namespace
{

/** Section tag (serve-layer range, disjoint from journal tags). */
constexpr std::uint32_t kTagAssign = 0x5341474E; // 'SAGN'

} // namespace

void
saveAssignment(Serializer &ser, const Assignment &assignment)
{
    ser.begin(kTagAssign);
    ser.putU64(assignment.index);
    ser.putU32(assignment.raise_signal);
    ser.end();
}

Assignment
loadAssignment(Deserializer &des)
{
    Assignment assignment;
    des.begin(kTagAssign);
    assignment.index = des.getU64();
    assignment.raise_signal = des.getU32();
    des.end();
    return assignment;
}

std::vector<std::uint8_t>
sealFrame(const Serializer &ser, MsgType type)
{
    const std::vector<std::uint8_t> body = ser.finish(
        FileKind::kServeMessage, static_cast<std::uint64_t>(type));
    std::vector<std::uint8_t> frame;
    frame.reserve(8 + body.size());
    const std::uint64_t n = body.size();
    for (unsigned i = 0; i < 8; ++i) {
        frame.push_back(static_cast<std::uint8_t>(n >> (8 * i)));
    }
    frame.insert(frame.end(), body.begin(), body.end());
    return frame;
}

IoStatus
sendMessage(int fd, const Serializer &ser, MsgType type,
            double timeout_sec)
{
    const std::vector<std::uint8_t> frame = sealFrame(ser, type);
    return writeAll(fd, frame.data(), frame.size(), timeout_sec);
}

IoStatus
sendEmptyMessage(int fd, MsgType type, double timeout_sec)
{
    Serializer empty;
    return sendMessage(fd, empty, type, timeout_sec);
}

ReceivedMessage
recvMessage(int fd, double timeout_sec)
{
    ReceivedMessage msg;
    std::uint8_t len_bytes[8];
    msg.status = readExact(fd, len_bytes, sizeof(len_bytes),
                           timeout_sec);
    if (msg.status != IoStatus::kOk) {
        return msg;
    }
    std::uint64_t n = 0;
    for (unsigned i = 0; i < 8; ++i) {
        n |= static_cast<std::uint64_t>(len_bytes[i]) << (8 * i);
    }
    if (n == 0 || n > kMaxFrameBytes) {
        throw SerializeError(
            format("implausible frame length {}", n));
    }
    std::vector<std::uint8_t> body(n);
    // The length prefix arrived, so the body must follow promptly: a
    // peer that stalls mid-frame is treated as broken, not waited on
    // forever.
    const double body_budget =
        timeout_sec < 0.0 ? 30.0 : timeout_sec;
    const IoStatus body_status =
        readExact(fd, body.data(), body.size(), body_budget);
    if (body_status != IoStatus::kOk) {
        throw IoError(format("frame body {} after length prefix",
                             toString(body_status)));
    }
    msg.payload.emplace(std::move(body), FileKind::kServeMessage,
                        Deserializer::kAnyConfigHash);
    msg.type = static_cast<MsgType>(msg.payload->configHash());
    return msg;
}

} // namespace mopac::serve
