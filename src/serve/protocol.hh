/**
 * @file
 * Wire protocol between the Supervisor and its forked workers.
 *
 * Every supervisor<->worker message is one length-prefixed frame:
 *
 *   +--------------------------------------------------------------+
 *   | u64 frame length N (little-endian)                           |
 *   | N bytes: a serialize-layer container (magic "MOPACSER",      |
 *   |   version, kind = kServeMessage, config-hash field = the     |
 *   |   MsgType, CRC32 trailer)                                    |
 *   +--------------------------------------------------------------+
 *
 * Reusing the checkpoint container gives the protocol the same
 * properties as the on-disk artifacts for free: strict versioning
 * (version skew is a structured SerializeError, not garbage), CRC
 * integrity over every frame, and tagged sections so reader/writer
 * drift is detected rather than misparsed.
 *
 * No configuration crosses the wire.  A worker is fork()ed by
 * Supervisor::run() after the point list exists, so it already holds
 * every point: an assignment names a point by its index into that
 * list, and the reply is the finished PointResult.
 */

#ifndef MOPAC_SERVE_PROTOCOL_HH
#define MOPAC_SERVE_PROTOCOL_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "common/serialize.hh"
#include "serve/io.hh"

namespace mopac::serve
{

/** Frames larger than this are rejected as corrupt (1 GiB). */
constexpr std::uint64_t kMaxFrameBytes = 1ull << 30;

/** Message discriminator (carried in the envelope's hash field). */
enum class MsgType : std::uint64_t
{
    kError = 55,  //!< Placeholder type of a message not yet received.

    // Supervisor -> worker.
    kAssign = 100, //!< One point to execute.
    kRetire,       //!< Drain and exit cleanly.

    // Worker -> supervisor.
    kPointDone = 150, //!< One finished PointResult.
    kHeartbeat,       //!< Idle liveness beat.
};

/** One point assignment (kAssign payload). */
struct Assignment
{
    /** Position of the point in the list passed to Supervisor::run()
     *  (not its point_id: a caller may pass a sparse subset). */
    std::uint64_t index = 0;
    /**
     * Injected failure: 0 (none), SIGKILL or SIGSTOP, which the
     * worker raises on itself as soon as it receives the assignment.
     * Raised by the worker rather than signalled by the supervisor,
     * so a point that finishes quickly cannot escape its scripted
     * failure.
     */
    std::uint32_t raise_signal = 0;
};

/** Serialize an Assignment. */
void saveAssignment(Serializer &ser, const Assignment &assignment);

/** Restore an Assignment. */
Assignment loadAssignment(Deserializer &des);

/**
 * Seal @p ser into a full frame (length prefix + container) for
 * @p type.  The Serializer must have all sections closed.
 */
std::vector<std::uint8_t> sealFrame(const Serializer &ser,
                                    MsgType type);

/**
 * Send one message.  Returns kOk / kTimeout / kPeerClosed; throws
 * IoError on hard failures.
 */
IoStatus sendMessage(int fd, const Serializer &ser, MsgType type,
                     double timeout_sec);

/** Convenience: a message with an empty payload (kRetire, kHeartbeat...). */
IoStatus sendEmptyMessage(int fd, MsgType type, double timeout_sec);

/** A received, envelope-validated message. */
struct ReceivedMessage
{
    IoStatus status = IoStatus::kTimeout;
    MsgType type = MsgType::kError;
    /** Valid when status == kOk; positioned at the payload start. */
    std::optional<Deserializer> payload;
};

/**
 * Receive one message, waiting up to @p timeout_sec for the first
 * byte (a frame already started must complete within the timeout or
 * the connection is declared corrupt).  Throws SerializeError on a
 * corrupt frame and IoError on hard I/O failures.
 */
ReceivedMessage recvMessage(int fd, double timeout_sec);

} // namespace mopac::serve

#endif // MOPAC_SERVE_PROTOCOL_HH
