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
 *  - Opening a cache reads nothing: an entry is parsed only when a
 *    lookup asks for it, and an entry written in an older layout
 *    fails that parse and heals like any other corrupt entry.
 */

#ifndef MOPAC_SERVE_CACHE_HH
#define MOPAC_SERVE_CACHE_HH

#include <cstdint>
#include <optional>
#include <string>

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

    /** Cache hits served since construction. */
    std::uint64_t hits() const { return hits_; }

    /** Misses since construction. */
    std::uint64_t misses() const { return misses_; }

    /** Entries healed (quarantined as *.corrupt) since construction. */
    std::uint64_t healed() const { return healed_; }

  private:
    std::string entryPath(std::uint64_t key) const;

    std::string dir_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t healed_ = 0;
};

} // namespace mopac::serve

#endif // MOPAC_SERVE_CACHE_HH
