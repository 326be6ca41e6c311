/**
 * @file
 * Worker-process supervision: process-isolated, self-healing sweeps.
 *
 * The Supervisor shards a point list across fork()ed worker processes
 * and keeps the sweep alive through every worker-side failure mode:
 *
 *  - CRASH: a worker that exits or dies on a signal mid-point is
 *    detected via waitpid; its in-flight point is rescheduled.
 *  - HANG: a worker that stops making progress (SIGSTOP, runaway
 *    simulation past the per-point deadline, silent idle worker) is
 *    SIGKILLed by the watchdog and its point rescheduled.  This is
 *    the process-level analogue of the in-sim forward-progress
 *    watchdog: the simulator catches livelocks *inside* a point, the
 *    supervisor catches dead *processes*.
 *  - RETRY/BACKOFF: each reschedule is delayed by deterministic
 *    jittered exponential backoff -- the jitter comes from a
 *    counter-mode RNG stream keyed by (backoff_seed, point_id,
 *    attempt), so the full retry schedule of a point is a pure
 *    function of the failure history, identical at any worker count.
 *  - QUARANTINE: a point whose worker dies max_strikes times is
 *    quarantined with a synthesized kFailed result (outcome kHung
 *    when the watchdog did the killing) and journaled as a replay
 *    artifact, exactly like an in-process crash under the Runner.
 *
 * Determinism: a point's simulation seed does not depend on the
 * attempt number or the worker that runs it, so a rerun after a
 * worker SIGKILL is bit-identical to a clean first run -- the final
 * manifest of a chaos-ridden sweep equals the clean serial one.
 *
 * Workers are fork()ed inside run(), after the point list exists,
 * so each one already holds every point: the wire carries only the
 * index of the point to run and the finished PointResult back.
 *
 * Journal write failures are tolerated as a brownout: the result
 * stays in memory and the failure is counted.  A graceful stop
 * (sweepstop) lets in-flight points finish within a fixed drain
 * deadline and leaves the rest kNotRun; with a journal, a rerun
 * adopts the finished points and runs only the remainder.  Result
 * caching is the caller's job: look up before run(), pass only the
 * misses, store after.
 *
 * The supervisor is single-threaded (poll-based event loop), which
 * keeps fork() safe under TSAN.  Callers are perfbench's
 * served_sweep and bench/chaos_soak; the bench drivers run their
 * sweeps in-process on the Runner.
 */

#ifndef MOPAC_SERVE_SUPERVISOR_HH
#define MOPAC_SERVE_SUPERVISOR_HH

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/wallclock.hh"
#include "sim/journal.hh"
#include "sim/runner.hh"

namespace mopac::serve
{

/** Injected failure action for deterministic supervision tests. */
enum class FailAction : std::uint8_t
{
    kKillWorker, //!< The worker SIGKILLs itself as the attempt starts.
    kStopWorker, //!< It SIGSTOPs itself (the watchdog must kill it).
};

/** Supervision tuning knobs. */
struct SupervisorOptions
{
    /** Worker processes (>= 1). */
    unsigned workers = 1;
    /** Quarantine a point after this many failed attempts. */
    unsigned max_strikes = 3;
    /** Idle worker heartbeat period, seconds. */
    double heartbeat_sec = 0.5;
    /** Per-point deadline before a busy worker is hang-killed. */
    double hang_timeout_sec = 300.0;
    /** Backoff base delay (attempt 1 -> base, doubling after). */
    double backoff_base_sec = 0.05;
    /** Backoff ceiling, seconds. */
    double backoff_cap_sec = 2.0;
    /** Counter-mode seed of the backoff jitter streams. */
    std::uint64_t backoff_seed = 0x6d6f706163736572ull;

    // Chaos injection (bench/chaos_soak kWorkerKill, smoke tests).
    // Decisions are drawn per (point, attempt) from counter-mode
    // streams of one fixed seed, so they are worker-count invariant.
    /** P(SIGKILL the worker right after it starts an attempt). */
    double chaos_kill_rate = 0.0;
    /** P(SIGSTOP instead -- exercises the hang watchdog). */
    double chaos_stop_rate = 0.0;
};

/** One reschedule decision (retry-trace row). */
struct RetryRecord
{
    /** The attempt that failed (1-based). */
    std::uint32_t attempt = 0;
    /** Backoff delay applied before the next attempt, seconds. */
    double delay_sec = 0.0;
    /** Why: "crash" (exit/signal) or "hang" (watchdog kill). */
    std::string reason;
};

/** Everything a supervised sweep reports back. */
struct SupervisorReport
{
    /**
     * Per-point results, indexed like the input point list.  kNotRun
     * marks a point a graceful stop cut off; any status other than
     * kOk and kNotRun is a quarantined point.
     */
    std::vector<PointResult> results;
    /**
     * Retry trace: point_id -> ordered reschedule decisions.  A pure
     * function of (seeds, injected failure schedule), so two runs
     * with equal seeds and schedules produce byte-equal traces at
     * ANY worker count -- the determinism tests diff exactly this.
     */
    std::map<std::uint64_t, std::vector<RetryRecord>> retries;
    /** Workers forked over the sweep's lifetime. */
    std::uint64_t workers_forked = 0;
    /** Worker deaths observed (crash + chaos kills). */
    std::uint64_t workers_crashed = 0;
    /** Workers SIGKILLed by the hang/heartbeat watchdogs. */
    std::uint64_t workers_hung_killed = 0;
    /** Points adopted finished from the journal. */
    std::uint64_t journal_reused = 0;
    /** Journal writes that failed and were tolerated (the result
     *  stays in memory; the sweep keeps serving -- brownout). */
    std::uint64_t storage_write_failures = 0;
    /** True when a graceful stop left points kNotRun. */
    bool stopped = false;

    /** Exit code per the shared map in sim/stop.hh. */
    int exitCode() const;
};

/** Shards points over supervised worker processes; see file comment. */
class Supervisor
{
  public:
    using ProgressFn = Runner::ProgressFn;

    explicit Supervisor(SupervisorOptions opts);
    ~Supervisor();

    Supervisor(const Supervisor &) = delete;
    Supervisor &operator=(const Supervisor &) = delete;

    /** Record finished points into @p journal (borrowed; may be null). */
    void setJournal(SweepJournal *journal) { journal_ = journal; }

    /**
     * Inject a deterministic failure schedule: when the mapped
     * (point_id, attempt) starts on a worker, apply the action.
     * Supervision tests use this to script exact failure histories.
     */
    void setFailSchedule(
        std::map<std::pair<std::uint64_t, std::uint32_t>, FailAction>
            schedule)
    {
        fail_schedule_ = std::move(schedule);
    }

    /**
     * The backoff delay before retrying @p point_id after failed
     * attempt @p attempt: capped exponential with jitter from the
     * (backoff_seed, point_id, attempt) counter-mode stream.
     */
    double backoffDelay(std::uint64_t point_id,
                        std::uint32_t attempt) const;

    /**
     * Execute the sweep to completion (or graceful stop).  @p progress
     * fires once per resolved point from this thread.
     */
    SupervisorReport run(const std::vector<ExperimentPoint> &points,
                         const ProgressFn &progress = nullptr);

  private:
    struct Slot;
    struct Pending;

    void spawnWorker(Slot &slot);
    void killWorker(Slot &slot);
    void assignReady(wallclock::TimePoint now);
    void handleMessage(Slot &slot);
    std::uint32_t failureSignal(std::uint64_t point_id,
                                std::uint32_t attempt) const;
    void onWorkerDeath(Slot &slot, bool hang);
    void journalRecord(const PointResult &result);
    void resolve(std::size_t index, const PointResult &result);
    void quarantine(std::size_t index, std::uint32_t attempts,
                    bool hang);
    void reschedule(std::size_t index, std::uint32_t failed_attempt,
                    bool hang);
    void retireWorkers(bool force);

    SupervisorOptions opts_;
    SweepJournal *journal_ = nullptr;
    std::map<std::pair<std::uint64_t, std::uint32_t>, FailAction>
        fail_schedule_;

    // Live sweep state (valid during run()).
    const std::vector<ExperimentPoint> *points_ = nullptr;
    SupervisorReport *report_ = nullptr;
    const ProgressFn *progress_ = nullptr;
    std::vector<Slot> slots_;
    std::vector<Pending> pending_;
    std::vector<std::uint32_t> strikes_;
    std::size_t unresolved_ = 0;
};

} // namespace mopac::serve

#endif // MOPAC_SERVE_SUPERVISOR_HH
