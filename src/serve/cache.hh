/**
 * @file
 * Content-addressed, CRC-checked on-disk cache of finished points.
 *
 * An entry is keyed by the serialize layer's config hash --
 * snapshotConfigHash(cfg, workload) = FNV-1a over the full
 * configSignature() plus the workload name -- so two sweeps that
 * contain an identical (config, workload) cell resolve to the same
 * entry regardless of sweep or point id.  A repeated sweep is then
 * answered from disk in microseconds per point instead of
 * re-simulating.
 *
 * Robustness properties:
 *  - Entries are serialize-layer containers (FileKind::kCacheEntry)
 *    with the key in the envelope and a CRC trailer; they are written
 *    via atomicWriteFile, so a crash mid-store leaves the old entry
 *    or none -- never a torn one.
 *  - The 64-bit key is verified twice on load: against the envelope
 *    hash AND against the full signature string stored inside the
 *    payload, so even an FNV collision cannot serve a wrong result.
 *  - A corrupt / truncated / foreign entry is a MISS, not an error:
 *    the file is quarantined out of the way (renamed *.corrupt) and
 *    the point re-simulates -- the cache self-heals instead of
 *    poisoning jobs.
 *  - Only kOk results are stored; quarantined results must re-run on
 *    the next sweep, never be replayed from cache.
 *  - The footprint can be bounded (setBudget): each entry persists a
 *    monotonic insertion sequence number, and when the directory
 *    exceeds the budget the lowest-sequence entries are evicted --
 *    deterministic LRU by insertion order, never by access time, so
 *    two caches replaying the same store history evict identically.
 */

#ifndef MOPAC_SERVE_CACHE_HH
#define MOPAC_SERVE_CACHE_HH

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>

#include "sim/runner.hh"
#include "sim/sharding.hh"

namespace mopac::serve
{

/** On-disk result cache rooted at one directory. */
class ResultCache
{
  public:
    /** Open (and create if needed) the cache at @p dir. */
    explicit ResultCache(std::string dir);

    /** Cache directory path. */
    const std::string &dir() const { return dir_; }

    /** The entry key for a point: serialize-layer config hash. */
    static std::uint64_t keyFor(const ExperimentPoint &point);

    /**
     * Look up @p point.  Returns the stored result (with its stored
     * wall_seconds -- byte-identical replay of the original) or
     * nullopt on miss.  Corrupt entries are healed to misses.
     */
    std::optional<PointResult> lookup(const ExperimentPoint &point);

    /**
     * Store a finished point.  Only kOk results are stored; anything
     * else is ignored.  Atomic; concurrent stores of the same key
     * are idempotent (last writer wins with identical content).
     */
    void store(const ExperimentPoint &point,
               const PointResult &result);

    /**
     * Bound the on-disk footprint (0 = unbounded, the default).
     * Applies immediately and to every later store: entries are
     * evicted oldest-insertion-first until the total fits, including
     * -- when the budget is smaller than one entry -- the entry just
     * stored.  Eviction order is a pure function of the store
     * history, so it is identical across runs and worker counts.
     */
    void setBudget(std::uint64_t bytes);

    /** Current on-disk footprint of live entries, bytes. */
    std::uint64_t totalBytes() const { return total_bytes_; }

    /** Entries evicted to stay within budget since construction. */
    std::uint64_t evictions() const { return evictions_; }

    /** Cache hits served since construction. */
    std::uint64_t hits() const { return hits_; }

    /** Misses since construction. */
    std::uint64_t misses() const { return misses_; }

    /** Entries healed (quarantined as *.corrupt) since construction. */
    std::uint64_t healed() const { return healed_; }

  private:
    std::string entryPath(std::uint64_t key) const;
    void forget(std::uint64_t key);
    void scan();
    void evictToBudget();

    std::string dir_;
    std::uint64_t budget_ = 0;
    std::uint64_t total_bytes_ = 0;
    std::uint64_t evictions_ = 0;
    std::uint64_t next_seq_ = 1;
    /** Insertion order -> (key, entry bytes): the eviction queue. */
    std::map<std::uint64_t, std::pair<std::uint64_t, std::uint64_t>>
        by_seq_;
    /** Live key -> its sequence number in by_seq_. */
    std::map<std::uint64_t, std::uint64_t> seq_of_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t healed_ = 0;
};

} // namespace mopac::serve

#endif // MOPAC_SERVE_CACHE_HH
