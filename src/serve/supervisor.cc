/**
 * @file
 * Worker supervision implementation.
 */

#include "supervisor.hh"

#include <algorithm>
#include <csignal>

#include <unistd.h>

#include "common/log.hh"
#include "common/rng.hh"
#include "serve/io.hh"
#include "serve/protocol.hh"
#include "serve/worker.hh"
#include "sim/stop.hh"

namespace mopac::serve
{

namespace
{

/** Seconds granted to in-flight points after a graceful stop. */
constexpr double kDrainDeadlineSec = 10.0;

/** Seed of the chaos decision streams (chaos_kill_rate/stop_rate). */
constexpr std::uint64_t kChaosSeed = 0x63686f6b696c6cull;

} // namespace

/** One worker process slot. */
struct Supervisor::Slot
{
    pid_t pid = -1;
    int fd = -1;
    bool busy = false;
    bool hang_killed = false; //!< Watchdog (not chaos/crash) kill.
    std::size_t index = 0;    //!< In-flight point (when busy).
    std::uint32_t attempt = 0;
    wallclock::TimePoint last_beat;
    wallclock::TimePoint busy_since;

    bool alive() const { return pid > 0; }
};

/** One not-yet-assigned (point, attempt) with its ready time. */
struct Supervisor::Pending
{
    std::size_t index = 0;
    std::uint32_t attempt = 1;
    wallclock::TimePoint ready;
};

int
SupervisorReport::exitCode() const
{
    return sweepExitCode(results);
}

Supervisor::Supervisor(SupervisorOptions opts) : opts_(std::move(opts))
{
    if (opts_.workers == 0) {
        opts_.workers = 1;
    }
    if (opts_.max_strikes == 0) {
        opts_.max_strikes = 1;
    }
}

Supervisor::~Supervisor()
{
    // Backstop only: run() retires its workers.  Never leak children.
    for (Slot &slot : slots_) {
        if (slot.alive()) {
            ::kill(slot.pid, SIGKILL);
            closeQuiet(slot.fd);
            reapChild(slot.pid);
        }
    }
}

double
Supervisor::backoffDelay(std::uint64_t point_id,
                         std::uint32_t attempt) const
{
    const unsigned shift =
        attempt >= 17 ? 16 : static_cast<unsigned>(attempt - 1);
    double expo = opts_.backoff_base_sec *
                  static_cast<double>(1ull << shift);
    expo = std::min(expo, opts_.backoff_cap_sec);
    // Jitter stream keyed by (seed, point, attempt): reproducible at
    // any worker count, decorrelated across points and attempts.
    Rng rng = Rng::forStream(
        Rng::streamSeed(opts_.backoff_seed, point_id), attempt);
    return expo * (0.5 + rng.uniform());
}

void
Supervisor::spawnWorker(Slot &slot)
{
    const SocketPair pair = makeSocketPair();
    const pid_t pid = ::fork();
    if (pid < 0) {
        closeQuiet(pair.supervisor_fd);
        closeQuiet(pair.worker_fd);
        throw IoError("fork failed");
    }
    if (pid == 0) {
        // Worker child: drop every supervisor-side fd, then serve
        // assignments until retired.  _exit, never return: a forked
        // child must not unwind gtest / atexit state it shares with
        // the parent image.
        closeQuiet(pair.supervisor_fd);
        for (const Slot &other : slots_) {
            closeQuiet(other.fd);
        }
        ::_exit(workerMain(pair.worker_fd, opts_.heartbeat_sec,
                           *points_));
    }
    closeQuiet(pair.worker_fd);
    slot.pid = pid;
    slot.fd = pair.supervisor_fd;
    slot.busy = false;
    slot.hang_killed = false;
    slot.last_beat = wallclock::now();
    ++report_->workers_forked;
}

void
Supervisor::killWorker(Slot &slot)
{
    if (slot.alive()) {
        ::kill(slot.pid, SIGKILL);
    }
}

void
Supervisor::resolve(std::size_t index, const PointResult &result)
{
    report_->results[index] = result;
    MOPAC_ASSERT(unresolved_ > 0);
    --unresolved_;
    if (progress_ && *progress_) {
        (*progress_)((*points_)[index], result);
    }
}

void
Supervisor::journalRecord(const PointResult &result)
{
    if (journal_ == nullptr) {
        return;
    }
    // Storage failures (full disk, injected ENOSPC) must not lose a
    // finished result: keep it in memory, count the brownout, and let
    // the sweep keep serving.  A later resume re-runs the point.
    try {
        journal_->record(result);
    } catch (const std::exception &err) {
        ++report_->storage_write_failures;
        warn("supervisor: journal write for point {} failed ({}); "
             "serving the in-memory result",
             result.point_id, err.what());
    }
}

void
Supervisor::quarantine(std::size_t index, std::uint32_t attempts,
                       bool hang)
{
    const ExperimentPoint &point = (*points_)[index];
    PointResult result;
    result.point_id = point.point_id;
    result.status = PointStatus::kFailed;
    result.seed = point.cfg.seed;
    result.attempts = attempts;
    result.outcome = hang ? OutcomeClass::kHung : OutcomeClass::kOk;
    result.error =
        format("worker {} on all {} attempts; quarantined "
               "(replay with --replay {})",
               hang ? "hung" : "died", attempts, point.point_id);
    warn("supervisor: point {} quarantined: {}", point.point_id,
         result.error);
    journalRecord(result);
    resolve(index, result);
}

void
Supervisor::reschedule(std::size_t index,
                       std::uint32_t failed_attempt, bool hang)
{
    const std::uint64_t point_id = (*points_)[index].point_id;
    const double delay = backoffDelay(point_id, failed_attempt);
    RetryRecord record;
    record.attempt = failed_attempt;
    record.delay_sec = delay;
    record.reason = hang ? "hang" : "crash";
    report_->retries[point_id].push_back(record);
    Pending pending;
    pending.index = index;
    pending.attempt = failed_attempt + 1;
    pending.ready = wallclock::deadlineAfter(delay);
    pending_.push_back(pending);
}

void
Supervisor::onWorkerDeath(Slot &slot, bool hang)
{
    if (hang) {
        ++report_->workers_hung_killed;
    } else {
        ++report_->workers_crashed;
    }
    closeQuiet(slot.fd);
    slot.fd = -1;
    slot.pid = -1;
    if (!slot.busy) {
        return; // Idle death: nothing in flight, just respawn later.
    }
    slot.busy = false;
    const std::size_t index = slot.index;
    ++strikes_[index];
    if (strikes_[index] >= opts_.max_strikes) {
        quarantine(index, strikes_[index], hang);
    } else {
        reschedule(index, slot.attempt, hang);
    }
}

std::uint32_t
Supervisor::failureSignal(std::uint64_t point_id,
                          std::uint32_t attempt) const
{
    const auto it = fail_schedule_.find({point_id, attempt});
    if (it != fail_schedule_.end()) {
        return it->second == FailAction::kKillWorker ? SIGKILL
                                                     : SIGSTOP;
    }
    if (opts_.chaos_kill_rate <= 0.0 && opts_.chaos_stop_rate <= 0.0) {
        return 0;
    }
    Rng rng = Rng::forStream(Rng::streamSeed(kChaosSeed, point_id),
                             attempt);
    const double u = rng.uniform();
    if (u < opts_.chaos_kill_rate) {
        return SIGKILL;
    }
    if (u < opts_.chaos_kill_rate + opts_.chaos_stop_rate) {
        return SIGSTOP;
    }
    return 0;
}

void
Supervisor::assignReady(wallclock::TimePoint now)
{
    for (Slot &slot : slots_) {
        if (!slot.alive() || slot.busy) {
            continue;
        }
        // First pending item whose backoff delay has expired, in
        // queue order (initial points first, retries as they ripen).
        auto it = std::find_if(
            pending_.begin(), pending_.end(),
            [now](const Pending &p) { return p.ready <= now; });
        if (it == pending_.end()) {
            return;
        }
        const Pending item = *it;
        pending_.erase(it);

        Assignment assignment;
        assignment.index = item.index;
        assignment.raise_signal =
            failureSignal((*points_)[item.index].point_id, item.attempt);
        Serializer ser;
        saveAssignment(ser, assignment);
        bool sent = false;
        try {
            sent = sendMessage(slot.fd, ser, MsgType::kAssign,
                               10.0) == IoStatus::kOk;
        } catch (const IoError &) {
            sent = false;
        }
        if (!sent) {
            // Worker is wedged or gone: give the item back and let
            // the reaper / watchdog recycle the slot.
            pending_.insert(pending_.begin(), item);
            killWorker(slot);
            continue;
        }
        // The hang clock starts with the assignment.
        slot.busy = true;
        slot.index = item.index;
        slot.attempt = item.attempt;
        slot.busy_since = now;
        slot.last_beat = now;
    }
}

void
Supervisor::handleMessage(Slot &slot)
{
    ReceivedMessage msg;
    try {
        // The fd polled readable, so the frame head is here; a frame
        // must then complete promptly or the worker is broken.
        msg = recvMessage(slot.fd, 5.0);
    } catch (const std::exception &err) {
        warn("supervisor: bad frame from worker {}: {}", slot.pid,
             err.what());
        killWorker(slot);
        return;
    }
    if (msg.status != IoStatus::kOk) {
        // kPeerClosed: the reaper collects the death.  kTimeout: a
        // spurious wakeup; nothing to do.
        return;
    }
    slot.last_beat = wallclock::now();
    try {
        switch (msg.type) {
          case MsgType::kHeartbeat:
            break;
          case MsgType::kPointDone: {
            const PointResult result =
                loadPointResult(*msg.payload);
            msg.payload->finish();
            if (!slot.busy ||
                (*points_)[slot.index].point_id != result.point_id) {
                throw SerializeError(format(
                    "unexpected completion of point {}",
                    result.point_id));
            }
            slot.busy = false;
            journalRecord(result);
            resolve(slot.index, result);
            break;
          }
          default:
            throw SerializeError(
                format("unexpected worker message type {}",
                       static_cast<std::uint64_t>(msg.type)));
        }
    } catch (const std::exception &err) {
        warn("supervisor: worker {} protocol error: {}", slot.pid,
             err.what());
        killWorker(slot);
    }
}

void
Supervisor::retireWorkers(bool force)
{
    for (Slot &slot : slots_) {
        if (!slot.alive()) {
            continue;
        }
        if (force || slot.busy) {
            killWorker(slot);
        } else {
            try {
                sendEmptyMessage(slot.fd, MsgType::kRetire, 1.0);
            } catch (const IoError &) {
                killWorker(slot);
            }
        }
    }
    // Collect the exits; SIGKILL stragglers past the grace period.
    auto grace = wallclock::deadlineAfter(3.0);
    bool escalated = force;
    for (;;) {
        bool any_alive = false;
        std::vector<int> fds;
        for (Slot &slot : slots_) {
            if (!slot.alive()) {
                continue;
            }
            const ChildStatus status = reapChild(slot.pid);
            if (status.exited) {
                closeQuiet(slot.fd);
                slot.fd = -1;
                slot.pid = -1;
                continue;
            }
            any_alive = true;
            fds.push_back(slot.fd);
        }
        if (!any_alive) {
            return;
        }
        if (wallclock::secondsSince(grace) >= 0.0) {
            if (escalated) {
                // SIGKILL cannot be ignored; give the kernel another
                // grace period rather than abandoning zombies.
                grace = wallclock::deadlineAfter(3.0);
            } else {
                for (Slot &slot : slots_) {
                    killWorker(slot);
                }
                escalated = true;
                grace = wallclock::deadlineAfter(3.0);
            }
        }
        waitAnyReadable(fds, 0.05); // Doubles as the retry sleep.
    }
}

SupervisorReport
Supervisor::run(const std::vector<ExperimentPoint> &points,
                const ProgressFn &progress)
{
    SupervisorReport report;
    report.results = SweepJournal::adopt(journal_, points);

    points_ = &points;
    report_ = &report;
    progress_ = &progress;
    pending_.clear();
    strikes_.assign(points.size(), 0);
    unresolved_ = points.size();

    // Report journal-adopted results first; only the remainder is
    // scheduled onto workers.
    for (std::size_t i = 0; i < points.size(); ++i) {
        if (report.results[i].status != PointStatus::kNotRun) {
            ++report.journal_reused;
            const PointResult adopted = report.results[i];
            resolve(i, adopted);
            continue;
        }
        Pending pending;
        pending.index = i;
        pending.attempt = 1;
        pending.ready = wallclock::now();
        pending_.push_back(pending);
    }

    slots_.clear();
    slots_.resize(opts_.workers);

    const double idle_beat_grace =
        std::max(4.0 * opts_.heartbeat_sec, 2.0);
    auto drain_deadline = wallclock::now();
    bool stopping = false;

    while (unresolved_ > 0) {
        const auto now = wallclock::now();

        if (!stopping && sweepstop::stopRequested()) {
            stopping = true;
            pending_.clear(); // Unstarted points stay kNotRun.
            drain_deadline = wallclock::deadlineAfter(kDrainDeadlineSec);
        }
        if (stopping) {
            const bool abort =
                sweepstop::abortRequested() ||
                wallclock::secondsSince(drain_deadline) >= 0.0;
            bool any_busy = false;
            for (const Slot &slot : slots_) {
                any_busy = any_busy || (slot.alive() && slot.busy);
            }
            if (!any_busy || abort) {
                break;
            }
        }

        // Keep the pool at strength while there is work for it.
        const std::size_t want = std::min<std::size_t>(
            opts_.workers, stopping ? 0 : unresolved_);
        std::size_t alive = 0;
        for (const Slot &slot : slots_) {
            alive += slot.alive() ? 1 : 0;
        }
        for (Slot &slot : slots_) {
            if (alive >= want) {
                break;
            }
            if (!slot.alive()) {
                spawnWorker(slot);
                ++alive;
            }
        }

        if (!stopping) {
            assignReady(now);
        }

        std::vector<int> fds;
        fds.reserve(slots_.size());
        for (const Slot &slot : slots_) {
            fds.push_back(slot.alive() ? slot.fd : -1);
        }
        for (std::size_t ready : waitAnyReadable(fds, 0.05)) {
            // waitAnyReadable skips -1 fds but reports original
            // indices, so `ready` maps straight onto slots_.
            if (slots_[ready].alive()) {
                handleMessage(slots_[ready]);
            }
        }

        for (Slot &slot : slots_) {
            if (!slot.alive()) {
                continue;
            }
            const ChildStatus status = reapChild(slot.pid);
            if (status.exited) {
                onWorkerDeath(slot, slot.hang_killed);
                continue;
            }
            // Watchdogs: a busy worker gets the per-point deadline, an
            // idle one must keep its heartbeat.
            const double quiet =
                wallclock::secondsSince(slot.last_beat);
            const bool hung =
                slot.busy
                    ? (opts_.hang_timeout_sec > 0.0 &&
                       wallclock::secondsSince(slot.busy_since) >
                           opts_.hang_timeout_sec)
                    : quiet > idle_beat_grace;
            if (hung && !slot.hang_killed) {
                warn("supervisor: worker {} hung ({}); killing",
                     slot.pid,
                     slot.busy ? "point deadline" : "no heartbeat");
                slot.hang_killed = true;
                killWorker(slot);
            }
        }
    }

    report.stopped = unresolved_ > 0;
    retireWorkers(sweepstop::abortRequested());

    points_ = nullptr;
    report_ = nullptr;
    progress_ = nullptr;
    pending_.clear();
    return report;
}

} // namespace mopac::serve
