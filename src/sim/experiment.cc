/**
 * @file
 * Experiment helper implementation.
 */

#include "experiment.hh"

#include <charconv>
#include <cstdlib>
#include <cstring>

#include "common/log.hh"
#include "common/serialize.hh"
#include "sim/sharding.hh"
#include "sim/stop.hh"
#include "workload/synth.hh"

namespace mopac
{

std::uint64_t
defaultInstsPerCore(std::uint64_t base)
{
    if (const char *abs = std::getenv("MOPAC_SIM_INSTS")) {
        // Plain digits only: from_chars into an unsigned type takes
        // no sign, and the whole string must parse (strtoull would
        // negate "-5" and stop quietly at the 'a' of "12abc").
        const char *last = abs + std::strlen(abs);
        std::uint64_t v = 0;
        const auto [ptr, ec] = std::from_chars(abs, last, v);
        if (ec == std::errc() && ptr == last && v > 0) {
            return v;
        }
        warn("ignoring invalid MOPAC_SIM_INSTS='{}'", abs);
    }
    if (const char *scale = std::getenv("MOPAC_SIM_SCALE")) {
        char *end = nullptr;
        const double f = std::strtod(scale, &end);
        const double n = static_cast<double>(base) * f;
        // The product must fit in uint64_t: casting inf, NaN or
        // anything >= 2^64 is undefined behaviour.
        if (end != scale && *end == '\0' && f > 0.0 && n < 0x1p64) {
            return static_cast<std::uint64_t>(n);
        }
        warn("ignoring invalid MOPAC_SIM_SCALE='{}'", scale);
    }
    return base;
}

RunResult
runWorkload(const SystemConfig &cfg, const std::string &name,
            StatSnapshot *stats_out)
{
    const AddressMap map(cfg.geometry);
    auto owned =
        makeWorkloadTraces(name, map, cfg.num_cores, cfg.seed);
    std::vector<TraceSource *> traces;
    traces.reserve(owned.size());
    for (auto &t : owned) {
        traces.push_back(t.get());
    }
    System system(cfg, traces);
    RunResult result = system.run();
    if (stats_out != nullptr) {
        StatRegistry registry;
        system.registerStats(registry);
        *stats_out = StatSnapshot(registry);
    }
    return result;
}

OutcomeClass
classifyRun(const RunResult &result)
{
    if (result.violations > 0) {
        return OutcomeClass::kViolated;
    }
    if (result.timed_out) {
        return OutcomeClass::kHung;
    }
    if (result.faults_injected > 0) {
        return OutcomeClass::kDegraded;
    }
    return OutcomeClass::kOk;
}

RunOutcome
tryRunWorkload(const SystemConfig &cfg, const std::string &name,
               bool capture_stats)
{
    RunOutcome outcome;
    const ErrorTrap trap;
    try {
        outcome.result = runWorkload(
            cfg, name, capture_stats ? &outcome.stats : nullptr);
        outcome.ok = true;
        outcome.outcome = classifyRun(outcome.result);
    } catch (const AbortError &) {
        // Operator abort is not a point failure: the point must be
        // left un-journaled and re-run on resume, so let the sweep
        // machinery see it.
        throw;
    } catch (const std::exception &e) {
        outcome.error = e.what();
        outcome.outcome =
            outcome.error.find(kWatchdogMarker) != std::string::npos
                ? OutcomeClass::kHung
                : OutcomeClass::kViolated;
    } catch (...) {
        outcome.error = "unknown exception";
        outcome.outcome = OutcomeClass::kViolated;
    }
    return outcome;
}

namespace
{

/** Snapshot section holding the workload trace cursors. */
constexpr std::uint32_t kTagTraces = 0x54524143; // 'TRAC'

void
writeSnapshot(const std::string &path, std::uint64_t hash,
              const System &system,
              const std::vector<TraceSource *> &traces)
{
    Serializer ser;
    system.saveState(ser);
    ser.begin(kTagTraces);
    ser.putU32(static_cast<std::uint32_t>(traces.size()));
    for (const TraceSource *trace : traces) {
        trace->saveState(ser);
    }
    ser.end();
    atomicWriteFile(path, ser.finish(FileKind::kSnapshot, hash));
}

void
readSnapshot(const std::string &path, std::uint64_t hash,
             System &system, const std::vector<TraceSource *> &traces)
{
    Deserializer des(readFileBytes(path), FileKind::kSnapshot, hash);
    system.loadState(des);
    des.begin(kTagTraces);
    const std::uint32_t count = des.getU32();
    if (count != traces.size()) {
        throw SerializeError(format(
            "snapshot holds {} trace cursors, workload has {}", count,
            traces.size()));
    }
    for (TraceSource *trace : traces) {
        trace->loadState(des);
    }
    des.end();
    des.finish();
}

} // namespace

std::uint64_t
snapshotConfigHash(const SystemConfig &cfg, const std::string &workload)
{
    return fnv1a64(configSignature(cfg) + "#" + workload);
}

CheckpointedRun
runWorkloadCheckpointed(const SystemConfig &cfg, const std::string &name,
                        const CheckpointOptions &ckpt)
{
    const AddressMap map(cfg.geometry);
    auto owned =
        makeWorkloadTraces(name, map, cfg.num_cores, cfg.seed);
    std::vector<TraceSource *> traces;
    traces.reserve(owned.size());
    for (auto &t : owned) {
        traces.push_back(t.get());
    }
    System system(cfg, traces);

    const std::uint64_t hash = snapshotConfigHash(cfg, name);
    if (!ckpt.restore_path.empty()) {
        readSnapshot(ckpt.restore_path, hash, system, traces);
    }

    // Execute in bounded chunks so the stop flag is observed at
    // quiesced (snapshot-safe) cycle boundaries even when no periodic
    // checkpoint interval was requested.
    const Cycle step =
        ckpt.checkpoint_every > 0 ? ckpt.checkpoint_every : (1u << 20);

    CheckpointedRun out;
    Cycle target = system.runCycle();
    for (;;) {
        target += step;
        if (system.runTo(target)) {
            break;
        }
        if (sweepstop::stopRequested()) {
            if (!ckpt.save_path.empty()) {
                writeSnapshot(ckpt.save_path, hash, system, traces);
            }
            out.finished = false;
            out.stopped_at = system.runCycle();
            return out;
        }
        if (!ckpt.save_path.empty() && ckpt.checkpoint_every > 0) {
            writeSnapshot(ckpt.save_path, hash, system, traces);
        }
    }

    out.finished = true;
    out.result = system.finishRun();
    return out;
}

double
workloadSlowdown(const SystemConfig &base_cfg,
                 const SystemConfig &test_cfg, const std::string &name)
{
    const RunResult base = runWorkload(base_cfg, name);
    const RunResult test = runWorkload(test_cfg, name);
    return weightedSlowdown(base, test);
}

} // namespace mopac
