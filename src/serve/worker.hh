/**
 * @file
 * Worker-process side of the supervisor<->worker protocol.
 *
 * A worker is a fork()ed child of the supervisor that executes one
 * assigned point at a time on its end of a SOCK_STREAM socketpair:
 *
 *   supervisor -> worker : kAssign (index of the point to run)
 *                          kRetire (drain and exit 0)
 *   worker -> supervisor : kPointDone  (full PointResult)
 *                          kHeartbeat  (idle liveness beat)
 *
 * The worker is forked after the point list exists, so it runs the
 * point from the copy it inherited; no configuration crosses the
 * wire.  It holds NO retry or scheduling logic: it runs what it is
 * told with Runner::replay (single-threaded, deterministic) and
 * reports the result.  All supervision -- heartbeat watchdogs, crash
 * detection, retry/backoff, quarantine -- lives on the parent side,
 * so a worker can die at any instant (SIGKILL mid-simulation) without
 * corrupting anything: the parent reassigns the in-flight point.
 *
 * Because the simulation loop is blocking, a worker cannot beat
 * mid-point; the in-simulation hang protection is the cycle guard
 * plus the forward-progress watchdog inside the simulator, and the
 * supervisor gives a busy worker a per-point deadline counted from
 * the moment it sent the assignment.
 */

#ifndef MOPAC_SERVE_WORKER_HH
#define MOPAC_SERVE_WORKER_HH

#include <vector>

#include "sim/sharding.hh"

namespace mopac::serve
{

/**
 * Worker main loop.  Runs in the forked child; services assignments
 * on @p fd until a kRetire message, the socket closes (supervisor
 * died -- orphan workers must not linger), or a protocol error.
 *
 * @param fd The worker end of the socketpair.
 * @param heartbeat_sec Idle beat period.
 * @param points The sweep's point list; an assignment's index selects
 *        one of them.
 * @return Process exit code (0 on clean retire, 1 on protocol error,
 *         including an index past the end of @p points).  The caller
 *         must _exit() with it -- never return through main() from a
 *         forked child.
 */
int workerMain(int fd, double heartbeat_sec,
               const std::vector<ExperimentPoint> &points);

} // namespace mopac::serve

#endif // MOPAC_SERVE_WORKER_HH
