/**
 * @file
 * Sweep journal implementation.
 */

#include "journal.hh"

#include <cstdio>

#include "common/log.hh"
#include "common/serialize.hh"

namespace mopac
{

namespace
{

/** Section tags inside journal files. */
constexpr std::uint32_t kTagManifest = 0x4D414E49; // 'MANI'
constexpr std::uint32_t kTagPoint = 0x504F494E;    // 'POIN'
constexpr std::uint32_t kTagRun = 0x52554E52;      // 'RUNR'

void
saveRunResult(Serializer &ser, const RunResult &run)
{
    ser.begin(kTagRun);
    ser.putU32(static_cast<std::uint32_t>(run.ipcs.size()));
    for (double ipc : run.ipcs) {
        ser.putF64(ipc);
    }
    ser.putU64(run.cycles);
    ser.putU8(run.timed_out ? 1 : 0);
    ser.putU64(run.acts);
    ser.putU64(run.reads);
    ser.putU64(run.writes);
    ser.putU64(run.refs);
    ser.putU64(run.rfms);
    ser.putU64(run.alerts);
    ser.putF64(run.rbhr);
    ser.putF64(run.apri);
    ser.putF64(run.avg_read_latency_ns);
    ser.putU32(run.max_unmitigated);
    ser.putU64(run.violations);
    ser.putU64(run.faults_injected);
    ser.putU64(run.counter_updates);
    ser.putU64(run.srq_insertions);
    ser.putU64(run.mitigations);
    ser.putU64(run.ref_drains);
    ser.putF64(run.act64);
    ser.putF64(run.act200);
    ser.putU64(run.epochs);
    ser.end();
}

RunResult
loadRunResult(Deserializer &des)
{
    RunResult run;
    des.begin(kTagRun);
    const std::uint32_t cores = des.getU32();
    if (cores > (1u << 16)) {
        throw SerializeError(
            format("implausible core count {}", cores));
    }
    run.ipcs.reserve(cores);
    for (std::uint32_t i = 0; i < cores; ++i) {
        run.ipcs.push_back(des.getF64());
    }
    run.cycles = des.getU64();
    run.timed_out = des.getU8() != 0;
    run.acts = des.getU64();
    run.reads = des.getU64();
    run.writes = des.getU64();
    run.refs = des.getU64();
    run.rfms = des.getU64();
    run.alerts = des.getU64();
    run.rbhr = des.getF64();
    run.apri = des.getF64();
    run.avg_read_latency_ns = des.getF64();
    run.max_unmitigated = des.getU32();
    run.violations = des.getU64();
    run.faults_injected = des.getU64();
    run.counter_updates = des.getU64();
    run.srq_insertions = des.getU64();
    run.mitigations = des.getU64();
    run.ref_drains = des.getU64();
    run.act64 = des.getF64();
    run.act200 = des.getF64();
    run.epochs = des.getU64();
    des.end();
    return run;
}

} // namespace

void
savePointResult(Serializer &ser, const PointResult &result)
{
    ser.begin(kTagPoint);
    ser.putU64(result.point_id);
    ser.putU8(static_cast<std::uint8_t>(result.status));
    ser.putU64(result.seed);
    ser.putF64(result.wall_seconds);
    ser.putStr(result.error);
    ser.putU8(static_cast<std::uint8_t>(result.outcome));
    ser.putU32(result.attempts);
    saveRunResult(ser, result.run);
    result.stats.saveState(ser);
    ser.end();
}

PointResult
loadPointResult(Deserializer &des)
{
    PointResult result;
    des.begin(kTagPoint);
    result.point_id = des.getU64();
    const std::uint8_t status = des.getU8();
    if (status > static_cast<std::uint8_t>(PointStatus::kNotRun)) {
        throw SerializeError(
            format("invalid point status {}", status));
    }
    result.status = static_cast<PointStatus>(status);
    result.seed = des.getU64();
    result.wall_seconds = des.getF64();
    result.error = des.getStr();
    const std::uint8_t outcome = des.getU8();
    if (outcome > static_cast<std::uint8_t>(OutcomeClass::kHung)) {
        throw SerializeError(
            format("invalid outcome class {}", outcome));
    }
    result.outcome = static_cast<OutcomeClass>(outcome);
    result.attempts = des.getU32();
    result.run = loadRunResult(des);
    result.stats.loadState(des);
    des.end();
    return result;
}

std::uint64_t
SweepJournal::sweepHash(const std::vector<ExperimentPoint> &points)
{
    std::string identity;
    for (const ExperimentPoint &point : points) {
        identity += std::to_string(point.point_id);
        identity += ':';
        identity += configSignature(point.cfg);
        identity += '#';
        identity += point.workload;
        identity += '\n';
    }
    return fnv1a64(identity);
}

std::string
SweepJournal::pointPath(std::uint64_t point_id) const
{
    return dir_ + "/points/" + std::to_string(point_id) + ".rec";
}

std::string
SweepJournal::quarantinePath(std::uint64_t point_id) const
{
    return dir_ + "/quarantine/" + std::to_string(point_id) + ".rec";
}

void
SweepJournal::writeManifest(std::size_t num_points) const
{
    Serializer ser;
    ser.begin(kTagManifest);
    ser.putU64(num_points);
    ser.end();
    atomicWriteFile(dir_ + "/manifest.bin",
                    ser.finish(FileKind::kSweepManifest, hash_));
}

void
SweepJournal::verifyManifest(const std::vector<std::uint8_t> &image,
                             std::size_t num_points) const
{
    // The envelope check rejects a manifest whose sweep hash differs:
    // resuming a journal that belongs to a different sweep is a
    // structured error, never a silent partial merge.
    Deserializer des(image, FileKind::kSweepManifest, hash_);
    des.begin(kTagManifest);
    const std::uint64_t saved_points = des.getU64();
    des.end();
    des.finish();
    if (saved_points != num_points) {
        throw SerializeError(format(
            "journal manifest lists {} points, sweep has {}",
            saved_points, num_points));
    }
}

void
SweepJournal::loadCompleted(std::size_t num_points)
{
    for (std::uint64_t id = 0; id < num_points; ++id) {
        const std::string path = pointPath(id);
        if (!fileExists(path)) {
            continue;
        }
        // A record that fails any check -- torn tail from a partial
        // write, bit flip, foreign file, wrong id or status -- heals
        // to "re-run this point" rather than bricking the journal:
        // only the manifest is load-bearing for resume safety.
        try {
            const std::vector<std::uint8_t> image =
                readFileBytes(path);
            Deserializer des(image, FileKind::kPointRecord, hash_);
            PointResult result = loadPointResult(des);
            des.finish();
            if (result.point_id != id) {
                throw SerializeError(format(
                    "journal record {} carries point id {}", path,
                    result.point_id));
            }
            if (result.status != PointStatus::kOk) {
                throw SerializeError(format(
                    "journal record {} has status {} (only OK points "
                    "belong in points/)", path,
                    toString(result.status)));
            }
            completed_.emplace(id, std::move(result));
        } catch (const SerializeError &err) {
            warn("journal: healing corrupt record {}: {}", path,
                 err.what());
            if (::rename(path.c_str(),
                         (path + ".corrupt").c_str()) != 0) {
                std::remove(path.c_str());
            }
            ++healed_;
        }
    }
}

SweepJournal::SweepJournal(std::string dir,
                           const std::vector<ExperimentPoint> &points)
    : dir_(std::move(dir)), hash_(sweepHash(points))
{
    ensureDir(dir_);
    ensureDir(dir_ + "/points");
    ensureDir(dir_ + "/quarantine");

    const std::string manifest = dir_ + "/manifest.bin";
    if (fileExists(manifest)) {
        verifyManifest(readFileBytes(manifest), points.size());
        loadCompleted(points.size());
    } else {
        writeManifest(points.size());
    }
}

std::vector<PointResult>
SweepJournal::adopt(const SweepJournal *journal,
                    const std::vector<ExperimentPoint> &points)
{
    std::vector<PointResult> results(points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        const ExperimentPoint &point = points[i];
        if (journal != nullptr) {
            const auto it = journal->completed_.find(point.point_id);
            if (it != journal->completed_.end()) {
                results[i] = it->second;
                continue;
            }
        }
        results[i].point_id = point.point_id;
        results[i].status = PointStatus::kNotRun;
        results[i].seed = point.cfg.seed;
        results[i].attempts = 0;
    }
    return results;
}

void
SweepJournal::record(const PointResult &result)
{
    Serializer ser;
    savePointResult(ser, result);
    const std::vector<std::uint8_t> image =
        ser.finish(FileKind::kPointRecord, hash_);
    std::lock_guard<std::mutex> lock(write_mutex_);
    atomicWriteFile(result.status == PointStatus::kOk
                        ? pointPath(result.point_id)
                        : quarantinePath(result.point_id),
                    image);
}

} // namespace mopac
