/**
 * @file
 * Content-addressed result cache implementation.
 */

#include "cache.hh"

#include <cstdio>

#include "common/log.hh"
#include "common/serialize.hh"
#include "sim/experiment.hh"
#include "sim/journal.hh"

namespace mopac::serve
{

namespace
{

/** Section tag of the identity block inside a cache entry. */
constexpr std::uint32_t kTagCacheId = 0x53434944; // 'SCID'

std::string
hex16(std::uint64_t value)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(value));
    return std::string(buf);
}

} // namespace

ResultCache::ResultCache(std::string dir) : dir_(std::move(dir))
{
    ensureDir(dir_);
}

std::uint64_t
ResultCache::keyFor(const ExperimentPoint &point)
{
    return snapshotConfigHash(point.cfg, point.workload);
}

std::string
ResultCache::entryPath(std::uint64_t key) const
{
    return dir_ + "/" + hex16(key) + ".rec";
}

std::optional<PointResult>
ResultCache::lookup(const ExperimentPoint &point)
{
    const std::uint64_t key = keyFor(point);
    const std::string path = entryPath(key);
    if (!fileExists(path)) {
        ++misses_;
        return std::nullopt;
    }
    try {
        Deserializer des(readFileBytes(path), FileKind::kCacheEntry,
                         key);
        des.begin(kTagCacheId);
        const std::string signature = des.getStr();
        const std::string workload = des.getStr();
        des.end();
        if (signature != configSignature(point.cfg) ||
            workload != point.workload) {
            throw SerializeError(
                "cache key collision: stored identity differs");
        }
        PointResult result = loadPointResult(des);
        des.finish();
        if (result.status != PointStatus::kOk) {
            throw SerializeError(
                "cache entry holds a non-OK result");
        }
        // The entry may have been produced for a different job; only
        // the identity-invariant fields are shared.
        result.point_id = point.point_id;
        ++hits_;
        return result;
    } catch (const SerializeError &err) {
        // Corrupt / foreign entry: heal it out of the way and treat
        // the lookup as a miss so the point simply re-simulates.
        warn("result cache: healing corrupt entry {}: {}", path,
             err.what());
        if (::rename(path.c_str(), (path + ".corrupt").c_str()) != 0) {
            ::remove(path.c_str());
        }
        ++healed_;
        ++misses_;
        return std::nullopt;
    }
}

void
ResultCache::store(const ExperimentPoint &point,
                   const PointResult &result)
{
    if (result.status != PointStatus::kOk) {
        return;
    }
    const std::uint64_t key = keyFor(point);
    Serializer ser;
    ser.begin(kTagCacheId);
    ser.putStr(configSignature(point.cfg));
    ser.putStr(point.workload);
    ser.end();
    savePointResult(ser, result);
    atomicWriteFile(entryPath(key),
                    ser.finish(FileKind::kCacheEntry, key));
}

} // namespace mopac::serve
