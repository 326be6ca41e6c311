/**
 * @file
 * Parallel experiment runner.
 *
 * Every figure/table of the paper sweeps many independent
 * (workload x config) points; the Runner executes them on a
 * std::thread pool while keeping each point bit-for-bit deterministic:
 *
 *  - Each ExperimentPoint carries its own counter-mode RNG stream
 *    (Rng::streamSeed over (master_seed, stream id), assigned at sweep
 *    expansion), so results do not depend on thread count or
 *    scheduling order.
 *  - Workers claim points in sweep order from one shared atomic
 *    cursor: an idle worker always takes the next unclaimed point, so
 *    a few slow points cannot serialize the tail of the sweep.
 *  - A crashing point (exception, panic(), fatal()) is quarantined:
 *    it reports PointStatus::kFailed with its seed for single-threaded
 *    replay instead of killing the sweep.  A point that hits its cycle
 *    guard reports kTimedOut the same way.
 *  - Per-point StatSnapshots are merged in point-id order after the
 *    workers join, so the final stats table is also schedule
 *    independent and free of data races.
 */

#ifndef MOPAC_SIM_RUNNER_HH
#define MOPAC_SIM_RUNNER_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "sim/experiment.hh"
#include "sim/sharding.hh"

namespace mopac
{

/** Runner tuning knobs. */
struct RunnerOptions
{
    /** Worker threads; 0 selects std::thread::hardware_concurrency. */
    unsigned jobs = 0;
    /**
     * Bounded retry-with-reseed for fault-plan points: when a point
     * whose config carries an active FaultPlan classifies VIOLATED or
     * HUNG, re-run it up to this many extra times with a reseeded
     * fault stream (Rng::streamSeed over the plan seed and the attempt
     * number -- still fully deterministic).  A transiently-unlucky
     * schedule recovers; a systematic failure exhausts its retries and
     * is quarantined as kFaulted.  0 = no retries.
     */
    unsigned fault_retries = 0;
    /**
     * Journaled sweeps only: once a graceful stop has been requested,
     * give in-flight points this many seconds to finish before
     * escalating to a hard abort (which abandons them with the
     * watchdog-style command-tail diagnostic).  0 = wait forever.
     */
    double drain_deadline_sec = 0.0;
};

/** Terminal state of one executed point. */
enum class PointStatus
{
    kOk,
    kFailed,
    kTimedOut,
    /**
     * The point ran under an active FaultPlan and classified VIOLATED
     * or HUNG (after exhausting any fault_retries).  Quarantined like
     * kFailed: excluded from merged stats, replayable by id.
     */
    kFaulted,
    /**
     * The point was not executed: a journaled sweep was interrupted
     * before reaching it, or a hard abort abandoned its in-flight
     * execution.  Resuming a journaled sweep runs it.
     */
    kNotRun,
};

/** Printable name of a point status. */
const char *toString(PointStatus status);

/** Everything the sweep keeps about one executed point. */
struct PointResult
{
    std::uint64_t point_id = 0;
    PointStatus status = PointStatus::kFailed;
    /** The exact seed the point ran with (replay handle). */
    std::uint64_t seed = 0;
    /** Wall-clock execution time of the point, seconds. */
    double wall_seconds = 0.0;
    /** Failure / timeout description (empty when kOk). */
    std::string error;
    /** Fault-aware severity of the (last) attempt. */
    OutcomeClass outcome = OutcomeClass::kOk;
    /** Executions of this point (1 unless fault_retries kicked in). */
    unsigned attempts = 1;
    /**
     * Simulation result (valid when status == kOk, and for kFaulted
     * points whose last attempt completed -- e.g. a VIOLATED run).
     */
    RunResult run;
    /** Component statistics snapshot (valid like @c run). */
    StatSnapshot stats;
};

/**
 * Exit code summarizing a finished sweep per the shared code map in
 * sim/stop.hh: kViolatedExit when any point's outcome classified
 * VIOLATED, else kHungExit when any classified HUNG, else
 * kQuarantinedExit when any point was quarantined for another reason
 * (crash, timeout, retry exhaustion), else kResumableExit when points
 * are left kNotRun (interrupted sweep), else 0.
 */
int sweepExitCode(const std::vector<PointResult> &results);

class SweepJournal;

/** Outcome of one journaled (resumable) sweep invocation. */
struct JournaledSweepResult
{
    /** Per-point results, indexed like the input point list. */
    std::vector<PointResult> results;
    /** Points loaded finished from the journal (skipped). */
    std::size_t reused = 0;
    /** Points executed by this invocation. */
    std::size_t executed = 0;
    /** Points left kNotRun (stop / abort cut the sweep short). */
    std::size_t pending = 0;

    /** Every point finished OK-or-quarantined; nothing left to run. */
    bool complete() const { return pending == 0; }
};

/** Executes sweeps; see the file comment for the guarantees. */
class Runner
{
  public:
    /** Called after each point completes (from the worker thread). */
    using ProgressFn =
        std::function<void(const ExperimentPoint &, const PointResult &)>;

    explicit Runner(RunnerOptions opts = {});

    /**
     * Execute every point and return results indexed like @p points.
     * @p progress (optional) is invoked once per finished point; it
     * must be thread-safe, as workers call it concurrently.  A hard
     * abort (sweepstop) leaves the abandoned and unstarted points
     * kNotRun.
     */
    std::vector<PointResult> run(
        const std::vector<ExperimentPoint> &points,
        const ProgressFn &progress = nullptr) const;

    /**
     * Execute the sweep against an on-disk journal at @p journal_dir:
     * points already finished in the journal are loaded and skipped,
     * each newly finished point is recorded atomically, and a
     * graceful-stop request (sweepstop) pauses the sweep at the next
     * point boundary -- in-flight points get drain_deadline_sec to
     * finish before a hard abort abandons them.  Interrupt at any
     * instant (including SIGKILL), re-invoke with the same journal
     * directory, and the merged results are bit-identical to an
     * uninterrupted run at any jobs count.  A failed record write
     * (full disk) is a brownout at any jobs count: it is warned
     * about, the result is kept in memory and the sweep finishes;
     * only that point re-runs on resume.
     */
    JournaledSweepResult runJournaled(
        const std::vector<ExperimentPoint> &points,
        const std::string &journal_dir,
        const ProgressFn &progress = nullptr) const;

    /**
     * Run one point on the calling thread with stats captured -- the
     * `--replay point_id` debugging path and the per-point body of
     * every sweep.  Runs to completion through System::run(), so a
     * graceful stop request lets it finish; only a hard abort cuts it
     * short, by throwing AbortError.
     */
    static PointResult replay(const ExperimentPoint &point,
                              const RunnerOptions &opts = {});

    /**
     * Merge the stat snapshots of all kOk points, in point-id order,
     * into one table.
     */
    static StatSnapshot mergeStats(
        const std::vector<PointResult> &results);

    /** Resolved worker count. */
    unsigned jobs() const;

  private:
    /**
     * The sweep loop behind run() and runJournaled(): workers claim
     * every kNotRun entry of @p results from a shared cursor and run
     * it through replay().  With a @p journal, each finished point is
     * recorded and a graceful stop ends the sweep at the next point
     * boundary.  Returns the number of points executed.
     */
    std::size_t sweep(const std::vector<ExperimentPoint> &points,
                      std::vector<PointResult> &results,
                      SweepJournal *journal,
                      const ProgressFn &progress) const;

    RunnerOptions opts_;
};

} // namespace mopac

#endif // MOPAC_SIM_RUNNER_HH
