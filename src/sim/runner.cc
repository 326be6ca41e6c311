/**
 * @file
 * Runner implementation.
 *
 * Concurrency notes (the TSan preset runs the determinism test against
 * exactly this code):
 *  - Workers claim points with one fetch_add on a shared cursor, so
 *    each index is handed to exactly one worker and no lock is needed.
 *  - results[] is pre-sized and each slot is written by exactly one
 *    worker before the join; readers only touch it after join(), so
 *    the join is the only synchronization the results need.
 */

#include "runner.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "common/log.hh"
#include "common/rng.hh"
#include "common/serialize.hh"
#include "common/wallclock.hh"
#include "sim/journal.hh"
#include "sim/stop.hh"

namespace mopac
{

namespace
{

std::size_t
countNotRun(const std::vector<PointResult> &results)
{
    return static_cast<std::size_t>(std::count_if(
        results.begin(), results.end(), [](const PointResult &r) {
            return r.status == PointStatus::kNotRun;
        }));
}

} // namespace

const char *
toString(PointStatus status)
{
    switch (status) {
      case PointStatus::kOk: return "OK";
      case PointStatus::kFailed: return "FAILED";
      case PointStatus::kTimedOut: return "TIMEOUT";
      case PointStatus::kFaulted: return "FAULTED";
      case PointStatus::kNotRun: return "NOT-RUN";
    }
    return "?";
}

int
sweepExitCode(const std::vector<PointResult> &results)
{
    bool violated = false;
    bool hung = false;
    bool quarantined = false;
    bool pending = false;
    for (const PointResult &r : results) {
        if (r.status == PointStatus::kNotRun) {
            pending = true;
            continue;
        }
        if (r.status == PointStatus::kOk) {
            continue;
        }
        quarantined = true;
        if (r.outcome == OutcomeClass::kViolated) {
            violated = true;
        } else if (r.outcome == OutcomeClass::kHung) {
            hung = true;
        }
    }
    if (violated) {
        return sweepstop::kViolatedExit;
    }
    if (hung) {
        return sweepstop::kHungExit;
    }
    if (quarantined) {
        return sweepstop::kQuarantinedExit;
    }
    if (pending) {
        return sweepstop::kResumableExit;
    }
    return 0;
}

Runner::Runner(RunnerOptions opts) : opts_(opts) {}

unsigned
Runner::jobs() const
{
    if (opts_.jobs > 0) {
        return opts_.jobs;
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

std::size_t
Runner::sweep(const std::vector<ExperimentPoint> &points,
              std::vector<PointResult> &results, SweepJournal *journal,
              const ProgressFn &progress) const
{
    std::vector<std::size_t> todo;
    for (std::size_t i = 0; i < results.size(); ++i) {
        if (results[i].status == PointStatus::kNotRun) {
            todo.push_back(i);
        }
    }
    if (todo.empty()) {
        return 0;
    }

    std::atomic<std::size_t> cursor{0};
    std::atomic<std::size_t> executed{0};
    auto worker = [&] {
        // Stop boundary (journaled sweeps): take no new work after a
        // graceful stop -- unfinished points stay kNotRun and re-run
        // on resume.
        while (journal == nullptr || !sweepstop::stopRequested()) {
            const std::size_t next = cursor.fetch_add(1);
            if (next >= todo.size()) {
                return;
            }
            const std::size_t idx = todo[next];
            try {
                results[idx] = replay(points[idx], opts_);
            } catch (const AbortError &e) {
                // Abandoned mid-run by the operator / drain watchdog:
                // leave the point kNotRun and un-journaled so resume
                // re-runs it cleanly.
                results[idx].error = e.what();
                warn("sweep: point {} abandoned: {}",
                     points[idx].point_id, e.what());
                return;
            }
            if (journal != nullptr) {
                // Brownout: a failed record write (full disk) costs
                // only this point's durability -- it re-runs on
                // resume -- never the result or the sweep.
                try {
                    journal->record(results[idx]);
                } catch (const std::exception &e) {
                    warn("sweep: journal write for point {} failed "
                         "({}); keeping the in-memory result",
                         points[idx].point_id, e.what());
                }
            }
            executed.fetch_add(1);
            if (progress) {
                progress(points[idx], results[idx]);
            }
        }
    };

    // Drain watchdog (journaled sweeps): once a graceful stop is
    // requested, give in-flight points a bounded window, then escalate
    // to a hard abort -- the run loops notice at their next poll and
    // unwind with a command-tail diagnostic instead of wedging the
    // exit.
    std::atomic<bool> workers_done{false};
    std::thread drain_monitor;
    if (journal != nullptr && opts_.drain_deadline_sec > 0.0) {
        drain_monitor = std::thread([this, &workers_done] {
            const auto tick = std::chrono::milliseconds(20);
            while (!workers_done.load() && !sweepstop::stopRequested()) {
                std::this_thread::sleep_for(tick);
            }
            const auto deadline =
                wallclock::deadlineAfter(opts_.drain_deadline_sec);
            while (!workers_done.load() &&
                   wallclock::now() < deadline) {
                std::this_thread::sleep_for(tick);
            }
            if (!workers_done.load()) {
                warn("sweep: drain deadline ({:.1f}s) expired, "
                     "aborting in-flight points",
                     opts_.drain_deadline_sec);
                sweepstop::requestAbort();
            }
        });
    }

    const unsigned num_workers = static_cast<unsigned>(
        std::min<std::size_t>(jobs(), todo.size()));
    if (num_workers == 1) {
        // --jobs 1: run inline, no worker thread at all (simplest
        // replay / debugging environment, and the determinism
        // reference).
        worker();
    } else {
        std::vector<std::thread> threads;
        threads.reserve(num_workers);
        for (unsigned w = 0; w < num_workers; ++w) {
            threads.emplace_back(worker);
        }
        for (std::thread &t : threads) {
            t.join();
        }
    }

    workers_done.store(true);
    if (drain_monitor.joinable()) {
        drain_monitor.join();
    }
    return executed.load();
}

std::vector<PointResult>
Runner::run(const std::vector<ExperimentPoint> &points,
            const ProgressFn &progress) const
{
    std::vector<PointResult> results =
        SweepJournal::adopt(nullptr, points);
    sweep(points, results, nullptr, progress);
    return results;
}

JournaledSweepResult
Runner::runJournaled(const std::vector<ExperimentPoint> &points,
                     const std::string &journal_dir,
                     const ProgressFn &progress) const
{
    JournaledSweepResult out;
    if (points.empty()) {
        return out;
    }
    // Throws SerializeError if the journal belongs to a different
    // sweep or its manifest is corrupt.
    SweepJournal journal(journal_dir, points);
    out.results = SweepJournal::adopt(&journal, points);
    out.reused = points.size() - countNotRun(out.results);
    out.executed = sweep(points, out.results, &journal, progress);
    out.pending = countNotRun(out.results);
    return out;
}

PointResult
Runner::replay(const ExperimentPoint &point, const RunnerOptions &opts)
{
    const auto start = wallclock::now();

    SystemConfig cfg = point.cfg;
    PointResult result;
    result.point_id = point.point_id;
    result.seed = cfg.seed;

    // Re-run a fault-plan point whose attempt classified VIOLATED or
    // HUNG with a reseeded fault stream (deterministic: attempt n
    // always draws streamSeed(base, n)).  Fault-free points never loop.
    const bool faulted_cfg = cfg.faults.enabled();
    const std::uint64_t base_fault_seed =
        cfg.faults.seed != 0 ? cfg.faults.seed : cfg.seed;

    RunOutcome outcome;
    unsigned n = 0;
    for (;;) {
        ++n;
        outcome = tryRunWorkload(cfg, point.workload,
                                 /*capture_stats=*/true);
        const bool bad = outcome.outcome == OutcomeClass::kViolated ||
                         outcome.outcome == OutcomeClass::kHung;
        if (!faulted_cfg || !bad || n > opts.fault_retries) {
            break;
        }
        cfg.faults.seed = Rng::streamSeed(base_fault_seed, n);
    }
    result.attempts = n;
    result.outcome = outcome.outcome;
    result.wall_seconds = wallclock::secondsSince(start);

    if (!outcome.ok) {
        result.status =
            faulted_cfg ? PointStatus::kFaulted : PointStatus::kFailed;
        result.error = outcome.error;
        return result;
    }
    result.run = std::move(outcome.result);
    result.stats = std::move(outcome.stats);
    if (result.run.timed_out) {
        result.status =
            faulted_cfg ? PointStatus::kFaulted : PointStatus::kTimedOut;
        result.error = "hit the max_cycles guard";
    } else if (faulted_cfg &&
               outcome.outcome == OutcomeClass::kViolated) {
        result.status = PointStatus::kFaulted;
        result.error = format(
            "security violated under fault plan ({} violations, max "
            "unmitigated {})",
            result.run.violations, result.run.max_unmitigated);
    } else {
        result.status = PointStatus::kOk;
    }
    return result;
}

StatSnapshot
Runner::mergeStats(const std::vector<PointResult> &results)
{
    StatSnapshot merged;
    for (const PointResult &result : results) {
        if (result.status == PointStatus::kOk) {
            merged.merge(result.stats);
        }
    }
    return merged;
}

} // namespace mopac
