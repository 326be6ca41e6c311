/**
 * @file
 * Worker main loop implementation.
 */

#include "worker.hh"

#include <csignal>

#include "common/log.hh"
#include "serve/protocol.hh"
#include "sim/journal.hh"
#include "sim/runner.hh"

namespace mopac::serve
{

int
workerMain(int fd, double heartbeat_sec,
           const std::vector<ExperimentPoint> &points)
{
    for (;;) {
        ReceivedMessage msg;
        try {
            msg = recvMessage(fd, heartbeat_sec);
        } catch (const std::exception &err) {
            warn("worker: receive failed: {}", err.what());
            return 1;
        }
        if (msg.status == IoStatus::kPeerClosed) {
            // Supervisor is gone; orphan workers must not linger.
            return 0;
        }
        if (msg.status == IoStatus::kTimeout) {
            if (sendEmptyMessage(fd, MsgType::kHeartbeat, 10.0) !=
                IoStatus::kOk) {
                return 0;
            }
            continue;
        }
        switch (msg.type) {
          case MsgType::kRetire:
            return 0;
          case MsgType::kAssign: {
            Assignment assignment;
            try {
                assignment = loadAssignment(*msg.payload);
                msg.payload->finish();
            } catch (const std::exception &err) {
                warn("worker: bad assignment: {}", err.what());
                return 1;
            }
            if (assignment.index >= points.size()) {
                warn("worker: assignment index {} is past the {} "
                     "points",
                     assignment.index, points.size());
                return 1;
            }
            if (assignment.raise_signal != 0) {
                ::raise(static_cast<int>(assignment.raise_signal));
            }
            Serializer done;
            savePointResult(done,
                            Runner::replay(points[assignment.index]));
            if (sendMessage(fd, done, MsgType::kPointDone, 30.0) !=
                IoStatus::kOk) {
                return 0; // Supervisor gone mid-report.
            }
            break;
          }
          default:
            warn("worker: unexpected message type {}",
                 static_cast<std::uint64_t>(msg.type));
            return 1;
        }
    }
}

} // namespace mopac::serve
