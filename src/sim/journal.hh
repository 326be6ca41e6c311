/**
 * @file
 * On-disk sweep journal: crash-safe record of finished points.
 *
 * A journal is a directory:
 *
 *   <dir>/manifest.bin        identity of the sweep (point count +
 *                             a hash over every point's configuration
 *                             signature and workload)
 *   <dir>/points/<id>.rec     one record per point that finished OK
 *   <dir>/quarantine/<id>.rec replay artifact for each point that
 *                             failed / timed out / faulted
 *
 * Every file is written atomically (temp + rename + directory fsync),
 * so a SIGKILL at any instant leaves either the old state or the new
 * state, never a torn record.  On resume the manifest is verified
 * against the live sweep (a journal from a different sweep is a
 * structured fatal error, not silent garbage), finished points are
 * loaded and skipped, and only missing or quarantined points re-run.
 * A point record that fails to parse -- torn tail, bit flip, foreign
 * file -- is healed instead: quarantined out of the way as *.corrupt
 * and its point re-runs, so no record-level damage can brick a
 * journal (only manifest damage is fatal, by design).  Loaded records
 * round-trip StatSnapshots bit-exactly, so the merged statistics of
 * an interrupted-and-resumed sweep equal those of an uninterrupted
 * run at any --jobs count.
 */

#ifndef MOPAC_SIM_JOURNAL_HH
#define MOPAC_SIM_JOURNAL_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "sim/runner.hh"
#include "sim/sharding.hh"

namespace mopac
{

/** Serialize a PointResult payload (journal record body). */
void savePointResult(Serializer &ser, const PointResult &result);

/** Restore a PointResult saved by savePointResult(). */
PointResult loadPointResult(Deserializer &des);

/** Crash-safe journal for one sweep. */
class SweepJournal
{
  public:
    /**
     * Identity hash of a sweep: folds every point's id, configuration
     * signature, and workload.  Two sweeps with equal hashes replay
     * identical point lists.
     */
    static std::uint64_t sweepHash(
        const std::vector<ExperimentPoint> &points);

    /**
     * Open @p dir for @p points: create the directory layout and
     * manifest when absent, otherwise verify the existing manifest
     * against the live sweep and load every finished point record.
     * Throws SerializeError on a sweep mismatch or a corrupt
     * manifest; a corrupt point record heals (renamed *.corrupt, the
     * point re-runs) instead of throwing.
     */
    SweepJournal(std::string dir,
                 const std::vector<ExperimentPoint> &points);

    /** Journal directory path. */
    const std::string &dir() const { return dir_; }

    /** The sweep identity hash. */
    std::uint64_t hash() const { return hash_; }

    /** Finished (kOk) points loaded on open, keyed by point id. */
    const std::map<std::uint64_t, PointResult> &
    completed() const
    {
        return completed_;
    }

    /**
     * Starting results of a sweep over @p points, indexed like them:
     * each point finished in @p journal is adopted as recorded; every
     * other point is a kNotRun placeholder carrying its point_id,
     * seed = cfg.seed and attempts = 0.  @p journal may be null, and
     * then every point starts kNotRun.
     */
    static std::vector<PointResult> adopt(
        const SweepJournal *journal,
        const std::vector<ExperimentPoint> &points);

    /**
     * Record a finished point.  kOk results land in points/ (and are
     * skipped on resume); anything else becomes a quarantine replay
     * artifact (and re-runs on resume).  Atomic and thread-safe.
     */
    void record(const PointResult &result);

    /** Records healed (renamed *.corrupt) while loading. */
    std::uint64_t healed() const { return healed_; }

  private:
    std::string pointPath(std::uint64_t point_id) const;
    std::string quarantinePath(std::uint64_t point_id) const;
    void writeManifest(std::size_t num_points) const;
    void verifyManifest(const std::vector<std::uint8_t> &image,
                        std::size_t num_points) const;
    void loadCompleted(std::size_t num_points);

    std::string dir_;
    std::uint64_t hash_;
    std::map<std::uint64_t, PointResult> completed_;
    std::uint64_t healed_ = 0;
    std::mutex write_mutex_;
};

} // namespace mopac

#endif // MOPAC_SIM_JOURNAL_HH
