/**
 * @file
 * The repository benchmark's workloads, checks and metrics.
 *
 * Every workload is a closed loop over a fixed batch of points: the
 * next point starts only when a worker is free, and the batch repeats
 * until the time budget is spent.  End-to-end metrics are medians over
 * the untraced batches; a traced run interleaves traced batches and
 * reports per-layer numbers from those.
 */

#include "workloads.hh"

#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "common/serialize.hh"
#include "metrics.hh"
#include "serve/cache.hh"
#include "serve/supervisor.hh"
#include "sim/attack.hh"
#include "sim/journal.hh"
#include "sim/runner.hh"
#include "sim/sharding.hh"
#include "trace.hh"
#include "workload/attack.hh"
#include "workload/spec.hh"
#include "workload/synth.hh"

namespace perfbench
{

using mopac::AttackPattern;
using mopac::AttackRunner;
using mopac::ExperimentPoint;
using mopac::MitigationKind;
using mopac::PointResult;
using mopac::PointStatus;
using mopac::RunResult;
using mopac::StatSnapshot;
using mopac::SystemConfig;

namespace
{

// Horizons are fixed here rather than taken from defaultInstsPerCore(),
// so no environment variable can rescale the measured work.
constexpr std::uint64_t kInstsPerCore = 50000;
constexpr std::uint64_t kWarmupInsts = kInstsPerCore / 10;
/** Cycles each attack point hammers for. */
constexpr mopac::Cycle kAttackCycles = 6000000;
/** runTo chunk of a traced busy point (queue-depth sampling period). */
constexpr mopac::Cycle kChunkCycles = 8192;
/** Worker threads / processes: one per core, at most four. */
constexpr unsigned kMaxJobs = 4;
/**
 * Seconds calibrationSeconds() takes at reference host speed: about
 * its median on the 4-core Xeon host the benchmark was tuned on.
 */
constexpr double kCalibrationRefSeconds = 0.06;
/** Serial points timed between two calibration probes. */
constexpr std::size_t kSegmentPoints = 10;
/** Serial points run in order k * kVisitStride mod n (see runBatch). */
constexpr std::size_t kVisitStride = 7;

/** Environment knobs that change what the simulator runs. */
constexpr std::array<const char *, 4> kRefusedEnv = {
    "MOPAC_SIM_ENGINE", "MOPAC_SIM_SCALE", "MOPAC_SIM_INSTS", "MOPAC_JOBS"};

/** Paper averages the exhibit grid is compared with, percent. */
struct PaperRef
{
    const char *label;
    double percent;
};
constexpr std::array<PaperRef, 7> kPaperRefs = {{
    {"prac@500", 10.0},
    {"mopac-c@1000", 0.8},
    {"mopac-c@500", 1.8},
    {"mopac-c@250", 3.0},
    {"mopac-d@1000", 0.1},
    {"mopac-d@500", 0.8},
    {"mopac-d@250", 3.5},
}};

unsigned
jobCount()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return std::clamp(hw, 1u, kMaxJobs);
}

std::string
configLabel(const SystemConfig &cfg)
{
    return mopac::toString(cfg.mitigation) + "@" + std::to_string(cfg.trh);
}

SystemConfig
pointConfig(MitigationKind kind, std::uint32_t trh)
{
    SystemConfig cfg;
    cfg.mitigation = kind;
    cfg.trh = trh;
    cfg.insts_per_core = kInstsPerCore;
    cfg.warmup_insts = kWarmupInsts;
    return cfg;
}

/** Engines whose oracle must never see a violation. */
bool
secureEngine(MitigationKind kind)
{
    return kind == MitigationKind::kPracMoat ||
           kind == MitigationKind::kMopacC ||
           kind == MitigationKind::kMopacD;
}

std::uint64_t
configHash(const SystemConfig &cfg, const std::string &workload)
{
    return mopac::fnv1a64(mopac::configSignature(cfg) + "#" + workload);
}

std::string
hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** CPU seconds (user + sys) of @p who. */
double
cpuSeconds(int who)
{
    rusage ru{};
    getrusage(who, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                      ru.ru_stime.tv_usec);
}

/**
 * Time a fixed host-speed probe that stresses what the simulator's
 * host time depends on: fault in a fresh 64 MB mapping (page zeroing,
 * which dominates System construction and first-touch during a run),
 * then run 10M rounds of an xorshift chain (core speed).  The probe is
 * benchmark code, so no change to the simulator can move it; only the
 * host's current speed does.
 */
double
calibrationSeconds()
{
    constexpr std::size_t kBytes = std::size_t{64} << 20;
    constexpr int kRounds = 10000000;
    const std::int64_t t0 = nowNs();
    void *mem = ::mmap(nullptr, kBytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (mem == MAP_FAILED) {
        throw std::runtime_error("calibration probe: mmap failed");
    }
    volatile unsigned char *bytes = static_cast<unsigned char *>(mem);
    for (std::size_t i = 0; i < kBytes; i += 4096) {
        bytes[i] = 1;
    }
    ::munmap(mem, kBytes);
    volatile std::uint64_t sink = 0x9E3779B97F4A7C15ull;
    std::uint64_t x = sink;
    for (int i = 0; i < kRounds; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    sink = x;
    return static_cast<double>(nowNs() - t0) * 1e-9;
}

/**
 * Scales host time to reference host speed one segment at a time: the
 * work between two calibration probes is multiplied by
 * kCalibrationRefSeconds over the mean of the two probes.  Slowdowns of
 * the shared host then cancel out instead of reading as regressions.
 */
class SpeedTracker
{
  public:
    SpeedTracker() : last_(calibrationSeconds()) {}

    /** Probe again; return the factor for the work since the last probe. */
    double
    next()
    {
        const double probe = calibrationSeconds();
        const double factor = kCalibrationRefSeconds / (0.5 * (last_ + probe));
        last_ = probe;
        return factor;
    }

  private:
    double last_;
};

std::uint64_t
threadMinorFaults()
{
    rusage ru{};
    getrusage(RUSAGE_THREAD, &ru);
    return static_cast<std::uint64_t>(ru.ru_minflt);
}

double
maxRssMb(int who)
{
    rusage ru{};
    getrusage(who, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double
nsToMs(double ns)
{
    return ns * 1e-6;
}

/** Sum of a per-sub-channel scalar ("subchN.<suffix>") in @p stats. */
std::uint64_t
sumScalar(const StatSnapshot &stats, const std::string &suffix)
{
    std::uint64_t total = 0;
    for (unsigned i = 0;; ++i) {
        const std::string name = "subch" + std::to_string(i) + "." + suffix;
        if (!stats.has(name)) {
            return total;
        }
        total += stats.scalar(name);
    }
}

StatSnapshot
snapshotOf(const mopac::System &system)
{
    mopac::StatRegistry registry;
    system.registerStats(registry);
    return StatSnapshot(registry);
}

/** One executed point. */
struct PointRun
{
    std::string label;
    std::uint64_t config_hash = 0;
    std::uint64_t digest = 0;
    /** Host seconds, construction plus run; < 0 = not a timed sample. */
    double seconds = -1.0;
    bool ok = true;
    std::string error;
    bool secure = false;
    RunResult run;
};

/** Per-layer accumulators of one batch. */
struct Layers
{
    // setup
    double traces_ns = 0.0;
    double ctor_ns = 0.0;
    std::uint64_t constructions = 0;
    std::uint64_t minflt = 0;
    // workload
    HookTime next;
    // sim
    double run_ns = 0.0;
    std::uint64_t cycles = 0;
    std::uint64_t insts = 0;
    // mc
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t row_hits = 0;
    std::uint64_t cas = 0;
    std::uint64_t alert_stall = 0;
    double latency_weighted = 0.0;
    std::uint64_t latency_reads = 0;
    std::uint64_t qdepth_sum = 0;
    std::uint64_t qdepth_samples = 0;
    // dram
    std::uint64_t acts = 0;
    std::uint64_t refs = 0;
    std::uint64_t rfms = 0;
    std::uint64_t alerts = 0;
    std::uint64_t victim_refreshes = 0;
    std::uint64_t max_unmitigated = 0;
    std::uint64_t violations = 0;
    // mitigation
    std::array<HookTime, kNumHooks> hooks{};
    std::uint64_t counter_updates = 0;
    std::uint64_t srq_selections = 0;
    std::uint64_t srq_coalesced = 0;
    // sim.runner
    double runner_span_s = 0.0;
    double runner_busy_s = 0.0;
    double runner_tail_s = 0.0;
    std::uint64_t repeat_points = 0;
    // serve
    double parent_cpu_s = 0.0;
    double lookup_ns = 0.0;
    double store_ns = 0.0;
    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;
    std::uint64_t workers_forked = 0;

    /** Fold the simulated statistics of one finished point. */
    void
    absorb(const RunResult &run, const StatSnapshot &stats)
    {
        cycles += run.cycles;
        acts += run.acts;
        refs += run.refs;
        rfms += run.rfms;
        alerts += run.alerts;
        violations += run.violations;
        max_unmitigated = std::max<std::uint64_t>(max_unmitigated,
                                                  run.max_unmitigated);
        latency_weighted +=
            run.avg_read_latency_ns * static_cast<double>(run.reads);
        latency_reads += run.reads;
        reads += sumScalar(stats, "mc.reads_enqueued");
        writes += sumScalar(stats, "mc.writes_enqueued");
        row_hits += sumScalar(stats, "mc.row_hits");
        cas += sumScalar(stats, "mc.cas_reads") +
               sumScalar(stats, "mc.cas_writes");
        alert_stall += sumScalar(stats, "mc.alert_stall_cycles");
        victim_refreshes += sumScalar(stats, "dram.victim_refreshes");
        counter_updates += sumScalar(stats, "engine.counter_updates");
    }
};

/** One execution of a workload's fixed point set. */
struct Batch
{
    bool traced = false;
    // Host seconds at reference host speed (SpeedTracker); per-point
    // seconds in @c points are scaled the same way.
    double wall_s = 0.0;
    double cpu_s = 0.0;
    double setup_s = 0.0;
    /** Wall seconds as measured, for the result record. */
    double raw_wall_s = 0.0;
    std::vector<PointRun> points;
    Layers layers;
};

/** Timing decorators installed around a System's engines. */
using TimedEngines = std::vector<std::unique_ptr<TimedMitigator>>;

/** Wrap every engine of @p system and route its sub-channel through it. */
TimedEngines
decorateEngines(mopac::System &system)
{
    TimedEngines engines;
    for (unsigned i = 0; i < system.numSubchannels(); ++i) {
        engines.push_back(std::make_unique<TimedMitigator>(system.engine(i)));
        system.subchannel(i).setMitigator(engines.back().get());
    }
    return engines;
}

/** Time summed over every hook of @p engines, ns. */
std::int64_t
mitigationNs(const TimedEngines &engines)
{
    std::int64_t total = 0;
    for (const auto &e : engines) {
        total += e->totalNs();
    }
    return total;
}

void
absorbHooks(const TimedEngines &engines, Layers &layers)
{
    for (const auto &e : engines) {
        for (std::size_t h = 0; h < kNumHooks; ++h) {
            layers.hooks[h].calls += e->times()[h].calls;
            layers.hooks[h].ns += e->times()[h].ns;
        }
    }
}

/**
 * Construction of one System and its trace sources.  Members are
 * declared so that everything the System points at outlives it.
 */
struct Built
{
    /** Trace sources keep a reference to the map. */
    std::unique_ptr<mopac::AddressMap> map;
    std::vector<std::unique_ptr<mopac::TraceSource>> owned;
    std::vector<std::unique_ptr<TimedTraceSource>> timed;
    TimedEngines engines;
    std::unique_ptr<mopac::System> system;
};

/** Per-run context shared by every batch. */
struct Context
{
    explicit Context(const RunOptions &options) : opts(options) {}

    const RunOptions &opts;
    SpanLog spans;
    unsigned jobs = 1;
    /** Points of a batch, in execution order (sweeps concatenated). */
    std::vector<ExperimentPoint> points;
    /** The sweeps of exhibit / served, each with dense point ids. */
    std::vector<std::vector<ExperimentPoint>> sweeps;
    /** Points that repeat an earlier (config, workload, seed) cell. */
    std::uint64_t repeat_points = 0;
    /** Sweep boundaries into @c points (exhibit / served). */
    std::vector<std::size_t> sweep_begin;
    /** Attack pattern factories, one per attack point. */
    std::vector<std::function<AttackPattern(const mopac::AddressMap &)>>
        patterns;
    /** Points whose construction the sweep workloads time themselves. */
    std::vector<std::size_t> setup_probe;
    /** Points re-run as cross-checks. */
    std::vector<std::size_t> check_sample;
    std::uint64_t batch_counter = 0;
};

/**
 * Build traces and System for @p point, timing each step into
 * @p layers and, when @p spans is set, into spans under @p parent.
 * With @p decorate, every trace source and engine is wrapped in its
 * timing decorator.
 */
Built
construct(const ExperimentPoint &point, SpanLog *spans, bool decorate,
          std::int64_t parent, Layers &layers)
{
    Built built;
    const SystemConfig &cfg = point.cfg;
    const std::uint64_t flt0 = threadMinorFaults();
    const std::int64_t t0 = nowNs();
    built.map = std::make_unique<mopac::AddressMap>(cfg.geometry);
    built.owned = mopac::makeWorkloadTraces(point.workload, *built.map,
                                            cfg.num_cores, cfg.seed);
    std::vector<mopac::TraceSource *> traces;
    for (auto &t : built.owned) {
        if (decorate) {
            built.timed.push_back(std::make_unique<TimedTraceSource>(*t));
            traces.push_back(built.timed.back().get());
        } else {
            traces.push_back(t.get());
        }
    }
    const std::int64_t t1 = nowNs();
    built.system = std::make_unique<mopac::System>(cfg, traces);
    const std::int64_t t2 = nowNs();
    layers.minflt += threadMinorFaults() - flt0;
    layers.traces_ns += static_cast<double>(t1 - t0);
    layers.ctor_ns += static_cast<double>(t2 - t1);
    ++layers.constructions;
    if (spans != nullptr) {
        spans->add("setup.traces", t0, t1, parent, point.point_id);
        spans->add("setup.system", t1, t2, parent, point.point_id);
    }
    if (decorate) {
        built.engines = decorateEngines(*built.system);
    }
    return built;
}

/** Fold the decorators' call counts and times into @p layers. */
void
absorbDecorators(const Built &built, Layers &layers)
{
    for (const auto &t : built.timed) {
        layers.next.calls += t->time().calls;
        layers.next.ns += t->time().ns;
    }
    absorbHooks(built.engines, layers);
}

void
absorbSrq(mopac::System &system, Layers &layers)
{
    for (unsigned i = 0; i < system.numSubchannels(); ++i) {
        const mopac::EngineStats &es = system.engine(i).engineStats();
        layers.srq_selections += es.srq_insertions + es.srq_coalesced;
        layers.srq_coalesced += es.srq_coalesced;
    }
}

/** Time summed over every decorated trace source of @p built, ns. */
std::int64_t
workloadNs(const Built &built)
{
    std::int64_t total = 0;
    for (const auto &t : built.timed) {
        total += t->time().ns;
    }
    return total;
}

PointRun
pointRunOf(const ExperimentPoint &point)
{
    PointRun pr;
    pr.label = point.workload + "/" + point.config_label;
    pr.config_hash = configHash(point.cfg, point.workload);
    pr.secure = secureEngine(point.cfg.mitigation);
    return pr;
}

/** busy_point: construct and run one point on this thread. */
PointRun
runBusyPoint(Context &ctx, const ExperimentPoint &point, bool traced,
             std::int64_t batch_span, Layers &layers)
{
    PointRun pr = pointRunOf(point);
    const std::int64_t start = nowNs();
    const std::int64_t span =
        traced ? ctx.spans.open("point", batch_span, point.point_id) : -1;
    Built built = construct(point, traced ? &ctx.spans : nullptr, traced,
                            span, layers);
    mopac::System &system = *built.system;
    const std::int64_t r0 = nowNs();
    if (!traced) {
        pr.run = system.run();
    } else {
        const std::int64_t run_span =
            ctx.spans.open("sim.run", span, point.point_id);
        std::int64_t wl_prev = 0;
        std::int64_t mit_prev = 0;
        for (mopac::Cycle stop = kChunkCycles;; stop += kChunkCycles) {
            const std::int64_t c0 = nowNs();
            const bool done = system.runTo(stop);
            const std::int64_t c1 = nowNs();
            const std::int64_t chunk = ctx.spans.add(
                "sim.run.chunk", c0, c1, run_span, point.point_id);
            const std::int64_t wl = workloadNs(built);
            const std::int64_t mit = mitigationNs(built.engines);
            // Summed hook time laid end to end inside the chunk.
            const std::int64_t wl_ns = wl - wl_prev;
            const std::int64_t mit_ns = mit - mit_prev;
            ctx.spans.add("workload", c0, c0 + wl_ns, chunk,
                          point.point_id);
            ctx.spans.add("mitigation", c0 + wl_ns, c0 + wl_ns + mit_ns,
                          chunk, point.point_id);
            wl_prev = wl;
            mit_prev = mit;
            for (unsigned i = 0; i < system.numSubchannels(); ++i) {
                layers.qdepth_sum += system.controller(i).readQueueDepth();
                ++layers.qdepth_samples;
            }
            if (done) {
                break;
            }
        }
        pr.run = system.finishRun();
        ctx.spans.close(run_span);
    }
    const std::int64_t r1 = nowNs();
    pr.seconds = static_cast<double>(r1 - start) * 1e-9;
    layers.run_ns += static_cast<double>(r1 - r0);
    layers.insts += static_cast<std::uint64_t>(point.cfg.num_cores) *
                    (point.cfg.insts_per_core + point.cfg.warmup_insts);
    layers.absorb(pr.run, snapshotOf(system));
    absorbSrq(system, layers);
    absorbDecorators(built, layers);
    pr.digest = digestOf(pr.run);
    if (traced) {
        ctx.spans.close(span);
    }
    return pr;
}

/** attack_storm: one memory-only AttackRunner point. */
PointRun
runAttackPoint(Context &ctx, std::size_t index, bool traced,
               std::int64_t batch_span, Layers &layers)
{
    const ExperimentPoint &point = ctx.points[index];
    PointRun pr = pointRunOf(point);
    const std::int64_t start = nowNs();
    const std::int64_t span =
        traced ? ctx.spans.open("point", batch_span, point.point_id) : -1;
    const std::uint64_t flt0 = threadMinorFaults();
    TimedEngines engines; // Declared first: outlives the runner's System.
    AttackRunner runner(point.cfg);
    AttackPattern pattern = ctx.patterns[index](runner.system().addressMap());
    const std::int64_t t1 = nowNs();
    layers.minflt += threadMinorFaults() - flt0;
    layers.ctor_ns += static_cast<double>(t1 - start);
    ++layers.constructions;
    mopac::System &system = runner.system();
    if (traced) {
        ctx.spans.add("setup.system", start, t1, span, point.point_id);
        engines = decorateEngines(system);
    }
    const std::int64_t r0 = nowNs();
    runner.run(pattern, kAttackCycles);
    const std::int64_t r1 = nowNs();
    pr.run = system.collectStats(kAttackCycles);
    pr.seconds = static_cast<double>(r1 - start) * 1e-9;
    layers.run_ns += static_cast<double>(r1 - r0);
    layers.absorb(pr.run, snapshotOf(system));
    absorbSrq(system, layers);
    absorbHooks(engines, layers);
    if (traced) {
        const std::int64_t run_span =
            ctx.spans.add("sim.run", r0, r1, span, point.point_id);
        ctx.spans.add("mitigation", r0, r0 + mitigationNs(engines),
                      run_span, point.point_id);
        ctx.spans.close(span);
    }
    pr.digest = digestOf(pr.run);
    return pr;
}

/**
 * Serial construction of the sweep workloads' probe points: their
 * executor builds Systems internally, so set-up time is measured on
 * the side, outside the timed sweep.
 */
double
setupProbe(Context &ctx, bool traced, std::int64_t batch_span,
           Layers &layers)
{
    double total_ns = 0.0;
    for (std::size_t index : ctx.setup_probe) {
        const ExperimentPoint &point = ctx.points[index];
        const double before = layers.traces_ns + layers.ctor_ns;
        const std::int64_t span =
            traced ? ctx.spans.open("setup.probe", batch_span,
                                    point.point_id)
                   : -1;
        const Built built = construct(point, traced ? &ctx.spans : nullptr,
                                      false, span, layers);
        if (traced) {
            ctx.spans.close(span);
        }
        total_ns += layers.traces_ns + layers.ctor_ns - before;
    }
    return total_ns * 1e-9;
}


/**
 * Record the spans of points an executor ran: each ends when its
 * progress callback fires and started wall_seconds earlier.  Every
 * point reports once, into its own slot, so workers never share one.
 */
struct PointSpans
{
    Context &ctx;
    std::int64_t parent = -1;
    std::size_t first = 0;
    std::vector<std::pair<std::int64_t, std::int64_t>> ivals;

    void
    record(const ExperimentPoint &point, const PointResult &result)
    {
        const std::int64_t end = nowNs();
        const std::int64_t start =
            end - static_cast<std::int64_t>(result.wall_seconds * 1e9);
        ctx.spans.add("point", start, end, parent, first + point.point_id);
        ivals.at(point.point_id) = {start, end};
    }

    /** Seconds between the last point start and @p end_ns. */
    double
    tailSeconds(std::int64_t end_ns) const
    {
        std::int64_t last = 0;
        for (const auto &[start, end] : ivals) {
            last = std::max(last, start);
        }
        return last > 0 ? static_cast<double>(end_ns - last) * 1e-9 : 0.0;
    }
};

PointRun
pointRunOf(const ExperimentPoint &point, const PointResult &result)
{
    PointRun pr = pointRunOf(point);
    pr.ok = result.status == PointStatus::kOk;
    pr.error = result.error;
    pr.run = result.run;
    pr.digest = digestOf(result.run);
    pr.seconds = result.wall_seconds;
    return pr;
}

/** Fold an executor's finished point into @p layers. */
void
absorbPoint(Layers &layers, const ExperimentPoint &point,
            const PointResult &result)
{
    layers.absorb(result.run, result.stats);
    layers.insts += static_cast<std::uint64_t>(point.cfg.num_cores) *
                    (point.cfg.insts_per_core + point.cfg.warmup_insts);
}

/** Add one timed segment's host times to @p b, scaled by @p factor. */
void
addSegment(Batch &b, double wall, double cpu, double factor)
{
    b.raw_wall_s += wall;
    b.wall_s += wall * factor;
    b.cpu_s += cpu * factor;
}

/** Scale the per-point seconds of @p p by @p factor (timed samples only). */
void
scaleSeconds(PointRun &p, double factor)
{
    if (p.seconds >= 0.0) {
        p.seconds *= factor;
    }
}

/** exhibit_suite: the three exhibit sweeps on the threaded Runner. */
Batch
runExhibitBatch(Context &ctx, bool traced, std::int64_t batch_span)
{
    Batch b;
    SpeedTracker speed;
    b.setup_s = setupProbe(ctx, traced, batch_span, b.layers) * speed.next();
    mopac::RunnerOptions ropts;
    ropts.jobs = ctx.jobs;
    const mopac::Runner runner(ropts);
    for (std::size_t s = 0; s < ctx.sweeps.size(); ++s) {
        const std::vector<ExperimentPoint> &sweep = ctx.sweeps[s];
        const std::size_t first = ctx.sweep_begin[s];
        const double cpu0 = cpuSeconds(RUSAGE_SELF);
        const std::int64_t w0 = nowNs();
        std::vector<PointResult> results;
        if (!traced) {
            results = runner.run(sweep);
        } else {
            PointSpans spans{ctx, ctx.spans.open("sim.runner", batch_span),
                             first, {}};
            spans.ivals.resize(sweep.size());
            results = runner.run(sweep, [&spans](const ExperimentPoint &p,
                                                 const PointResult &r) {
                spans.record(p, r);
            });
            ctx.spans.close(spans.parent);
            const std::int64_t end = nowNs();
            b.layers.runner_span_s += static_cast<double>(end - w0) * 1e-9;
            b.layers.runner_tail_s += spans.tailSeconds(end);
        }
        const double wall = static_cast<double>(nowNs() - w0) * 1e-9;
        const double cpu = cpuSeconds(RUSAGE_SELF) - cpu0;
        for (std::size_t k = 0; k < sweep.size(); ++k) {
            b.layers.runner_busy_s += results[k].wall_seconds;
            b.points.push_back(pointRunOf(sweep[k], results[k]));
            absorbPoint(b.layers, sweep[k], results[k]);
        }
        const double factor = speed.next();
        addSegment(b, wall, cpu, factor);
        for (std::size_t i = first; i < b.points.size(); ++i) {
            scaleSeconds(b.points[i], factor);
        }
    }
    b.layers.repeat_points = ctx.repeat_points;
    return b;
}

/**
 * served_sweep: the same sweeps through a forked-worker Supervisor,
 * with a fresh ResultCache consulted before and filled after each
 * sweep and a SweepJournal per sweep, all under a scratch directory.
 */
Batch
runServedBatch(Context &ctx, bool traced, std::int64_t batch_span)
{
    namespace fs = std::filesystem;
    Batch b;
    SpeedTracker speed;
    b.setup_s = setupProbe(ctx, traced, batch_span, b.layers) * speed.next();
    const std::string dir = ctx.opts.out_dir + "/tmp/served-" +
                            std::to_string(::getpid()) + "-" +
                            std::to_string(ctx.batch_counter);
    fs::remove_all(dir);
    fs::create_directories(dir);
    mopac::serve::ResultCache cache(dir + "/cache");
    for (std::size_t s = 0; s < ctx.sweeps.size(); ++s) {
        const std::vector<ExperimentPoint> &sweep = ctx.sweeps[s];
        const std::size_t first = ctx.sweep_begin[s];
        const double self0 = cpuSeconds(RUSAGE_SELF);
        const double child0 = cpuSeconds(RUSAGE_CHILDREN);
        const std::int64_t w0 = nowNs();
        std::vector<PointResult> results(sweep.size());
        std::vector<bool> fresh(sweep.size(), false);
        std::vector<ExperimentPoint> misses;
        for (std::size_t k = 0; k < sweep.size(); ++k) {
            const std::int64_t l0 = nowNs();
            std::optional<PointResult> hit = cache.lookup(sweep[k]);
            const std::int64_t l1 = nowNs();
            b.layers.lookup_ns += static_cast<double>(l1 - l0);
            ++b.layers.lookups;
            if (traced) {
                ctx.spans.add("serve.cache.lookup", l0, l1, batch_span,
                              first + k);
            }
            if (hit) {
                ++b.layers.hits;
                results[k] = std::move(*hit);
            } else {
                misses.push_back(sweep[k]);
            }
        }
        mopac::SweepJournal journal(dir + "/journal-" + std::to_string(s),
                                    misses);
        mopac::serve::SupervisorOptions sopts;
        sopts.workers = ctx.jobs;
        mopac::serve::Supervisor supervisor(sopts);
        supervisor.setJournal(&journal);
        mopac::serve::SupervisorReport report;
        if (traced) {
            PointSpans spans{ctx, ctx.spans.open("serve.supervisor", batch_span),
                             first, {}};
            spans.ivals.resize(sweep.size());
            report = supervisor.run(misses, [&spans](const ExperimentPoint &p,
                                                     const PointResult &r) {
                spans.record(p, r);
            });
            ctx.spans.close(spans.parent);
        } else {
            report = supervisor.run(misses);
        }
        b.layers.workers_forked += report.workers_forked;
        for (std::size_t k = 0; k < misses.size(); ++k) {
            const std::size_t local = misses[k].point_id;
            const std::int64_t s0 = nowNs();
            cache.store(misses[k], report.results[k]);
            const std::int64_t s1 = nowNs();
            b.layers.store_ns += static_cast<double>(s1 - s0);
            if (traced) {
                ctx.spans.add("serve.cache.store", s0, s1, batch_span,
                              first + local);
            }
            results[local] = report.results[k];
            fresh[local] = true;
        }
        const double wall = static_cast<double>(nowNs() - w0) * 1e-9;
        const double self_cpu = cpuSeconds(RUSAGE_SELF) - self0;
        const double cpu =
            self_cpu + cpuSeconds(RUSAGE_CHILDREN) - child0;
        b.layers.parent_cpu_s += self_cpu;
        for (std::size_t k = 0; k < sweep.size(); ++k) {
            b.points.push_back(pointRunOf(sweep[k], results[k]));
            if (!fresh[k]) {
                // A cache hit is not a simulated point: no time sample
                // and no simulated work.
                b.points.back().seconds = -1.0;
                continue;
            }
            absorbPoint(b.layers, sweep[k], results[k]);
        }
        const double factor = speed.next();
        addSegment(b, wall, cpu, factor);
        for (std::size_t i = first; i < b.points.size(); ++i) {
            scaleSeconds(b.points[i], factor);
        }
    }
    fs::remove_all(dir);
    return b;
}

Batch
runBatch(Context &ctx, bool traced)
{
    ++ctx.batch_counter;
    const std::int64_t batch_span =
        traced ? ctx.spans.open("batch", -1, ctx.batch_counter) : -1;
    Batch b;
    const std::string &w = ctx.opts.workload;
    if (w == "exhibit_suite") {
        b = runExhibitBatch(ctx, traced, batch_span);
    } else if (w == "served_sweep") {
        b = runServedBatch(ctx, traced, batch_span);
    } else {
        // Points run in a fixed stride order, so each calibration
        // segment mixes workloads (patterns) and no single probe pair
        // scales a whole class of points, such as the slowest ones.
        const std::size_t n = ctx.points.size();
        if (std::gcd(kVisitStride, n) != 1) {
            throw std::logic_error("visit stride must be coprime to the "
                                   "point count");
        }
        b.points.resize(n);
        SpeedTracker speed;
        for (std::size_t lo = 0; lo < n; lo += kSegmentPoints) {
            const std::size_t hi = std::min(n, lo + kSegmentPoints);
            const double setup0 = b.layers.traces_ns + b.layers.ctor_ns;
            const double cpu0 = cpuSeconds(RUSAGE_SELF);
            const std::int64_t w0 = nowNs();
            for (std::size_t k = lo; k < hi; ++k) {
                const std::size_t i = k * kVisitStride % n;
                b.points[i] = w == "busy_point"
                                  ? runBusyPoint(ctx, ctx.points[i], traced,
                                                 batch_span, b.layers)
                                  : runAttackPoint(ctx, i, traced,
                                                   batch_span, b.layers);
            }
            const double wall = static_cast<double>(nowNs() - w0) * 1e-9;
            const double cpu = cpuSeconds(RUSAGE_SELF) - cpu0;
            const double setup =
                (b.layers.traces_ns + b.layers.ctor_ns - setup0) * 1e-9;
            const double factor = speed.next();
            b.setup_s += setup * factor;
            addSegment(b, wall, cpu, factor);
            for (std::size_t k = lo; k < hi; ++k) {
                scaleSeconds(b.points[k * kVisitStride % n], factor);
            }
        }
    }
    if (traced) {
        ctx.spans.close(batch_span);
    }
    b.traced = traced;
    return b;
}

/** The three exhibit sweeps (Figures 2, 9, 11), each with its baselines. */
std::vector<std::vector<ExperimentPoint>>
exhibitSweeps(std::uint64_t seed)
{
    using K = MitigationKind;
    const std::vector<std::vector<SystemConfig>> grids = {
        {pointConfig(K::kNone, 500), pointConfig(K::kPracMoat, 500)},
        {pointConfig(K::kNone, 500), pointConfig(K::kMopacC, 1000),
         pointConfig(K::kMopacC, 500), pointConfig(K::kMopacC, 250)},
        {pointConfig(K::kNone, 500), pointConfig(K::kMopacD, 1000),
         pointConfig(K::kMopacD, 500), pointConfig(K::kMopacD, 250)},
    };
    std::vector<std::vector<ExperimentPoint>> sweeps;
    for (const auto &grid : grids) {
        mopac::SweepSpec spec;
        spec.master_seed = seed;
        for (const SystemConfig &cfg : grid) {
            spec.configs.push_back({configLabel(cfg), cfg});
        }
        spec.workloads = mopac::allWorkloadNames();
        sweeps.push_back(spec.expand());
    }
    return sweeps;
}

/** busy_point: five contrasting workloads under every mitigation. */
std::vector<ExperimentPoint>
busyPoints(std::uint64_t seed)
{
    mopac::SweepSpec spec;
    spec.master_seed = seed;
    for (unsigned k = 0; k <= static_cast<unsigned>(MitigationKind::kQprac);
         ++k) {
        const SystemConfig cfg =
            pointConfig(static_cast<MitigationKind>(k), 500);
        spec.configs.push_back({configLabel(cfg), cfg});
    }
    spec.workloads = {"mcf", "lbm", "omnetpp", "copy", "mix1"};
    return spec.expand();
}

/**
 * attack_storm: four patterns x three secure engines x two
 * thresholds x two targets.  Target sub-channel, bank and rows come
 * from the seed; the engines' own random streams come from per-point
 * stream seeds.
 */
void
attackPoints(Context &ctx, std::uint64_t seed)
{
    using K = MitigationKind;
    const std::array<const char *, 4> names = {"double-sided", "many-sided",
                                               "multi-bank", "trr-evasion"};
    std::uint64_t id = 0;
    for (std::size_t p = 0; p < names.size(); ++p) {
        for (K kind : {K::kPracMoat, K::kMopacC, K::kMopacD}) {
            for (unsigned target = 0; target < 2; ++target) {
                for (std::uint32_t trh : {500u, 250u}) {
                    ExperimentPoint point;
                    point.point_id = id;
                    point.workload = names[p];
                    point.cfg = pointConfig(kind, trh);
                    point.cfg.seed = mopac::Rng::streamSeed(seed, id);
                    point.config_label = configLabel(point.cfg);
                    mopac::Rng rng = mopac::Rng::forStream(seed, 1000 + id);
                    const auto bank = static_cast<unsigned>(
                        rng.below(point.cfg.geometry.banks_per_subchannel));
                    const auto row = static_cast<std::uint32_t>(rng.inRange(
                        64, point.cfg.geometry.rows_per_bank - 512));
                    const auto sub = static_cast<unsigned>(
                        rng.below(point.cfg.geometry.num_subchannels));
                    ctx.patterns.push_back(
                        [p, bank, row, sub](const mopac::AddressMap &map) {
                            switch (p) {
                              case 0:
                                return mopac::makeDoubleSidedAttack(map, sub, bank,
                                                                    row);
                              case 1:
                                return mopac::makeManySidedAttack(map, sub, bank,
                                                                  16, row);
                              case 2:
                                return mopac::makeMultiBankAttack(map, 8, row);
                              default:
                                return mopac::makeTrrEvasionAttack(map, sub, bank,
                                                                   row);
                            }
                        });
                    ctx.points.push_back(std::move(point));
                    ++id;
                }
            }
        }
    }
}

void
buildContext(Context &ctx)
{
    const std::string &w = ctx.opts.workload;
    const std::uint64_t seed = ctx.opts.seed;
    if (w == "exhibit_suite" || w == "served_sweep") {
        ctx.sweeps = exhibitSweeps(seed);
        std::set<std::uint64_t> seen;
        for (const auto &sweep : ctx.sweeps) {
            ctx.sweep_begin.push_back(ctx.points.size());
            for (const ExperimentPoint &p : sweep) {
                if (!seen.insert(configHash(p.cfg, p.workload) ^
                                 p.cfg.seed)
                         .second) {
                    ++ctx.repeat_points;
                }
                ctx.points.push_back(p);
            }
        }
        // Probe: every configuration of the three sweeps on the
        // first workload (each sweep's leading points).
        for (std::size_t s = 0; s < ctx.sweeps.size(); ++s) {
            const std::size_t configs =
                ctx.sweeps[s].size() / mopac::allWorkloadNames().size();
            for (std::size_t c = 0; c < configs; ++c) {
                ctx.setup_probe.push_back(ctx.sweep_begin[s] + c);
            }
        }
        // bwaves/prac, mcf/none, omnetpp/mopac-c@250,
        // xalancbmk/mopac-d@1000, scale/mopac-d@250.
        ctx.check_sample = {1, 4, 69, 175, 229};
    } else if (w == "busy_point") {
        ctx.points = busyPoints(seed);
        // One point per workload, each under a different engine.
        ctx.check_sample = {1, 13, 22, 39, 47};
    } else {
        attackPoints(ctx, seed);
        ctx.check_sample = {1, 14, 31, 44};
    }
}

/**
 * Digest of a sample point re-run outside the timed batches: on the
 * tick engine (the event engine's test oracle) for core workloads, and
 * repeated as-is on attack_storm, whose AttackRunner has one loop.
 */
std::uint64_t
crossCheckDigest(Context &ctx, std::size_t index)
{
    ExperimentPoint point = ctx.points[index];
    point.cfg.engine = mopac::SimEngine::kTick;
    Layers scratch;
    if (ctx.opts.workload == "attack_storm") {
        return runAttackPoint(ctx, index, false, -1, scratch).digest;
    }
    if (ctx.opts.workload == "busy_point") {
        return runBusyPoint(ctx, point, false, -1, scratch).digest;
    }
    const PointResult r = mopac::Runner::replay(point);
    return r.status == PointStatus::kOk ? digestOf(r.run) : 0;
}

/** Reference digests for one seed, keyed by workload. */
struct Reference
{
    bool loaded = false;
    std::uint64_t seed = 0;
    /** workload -> (config hash, digest) per point index. */
    std::map<std::string, std::vector<std::pair<std::uint64_t,
                                                std::uint64_t>>>
        points;
};

Reference
loadReference(const std::string &path)
{
    Reference ref;
    std::ifstream in(path);
    if (!in) {
        throw std::runtime_error("cannot read reference digests " + path);
    }
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#') {
            continue;
        }
        std::istringstream fields(line);
        std::string key;
        fields >> key;
        if (key == "seed") {
            fields >> ref.seed;
            ref.loaded = true;
            continue;
        }
        std::size_t index = 0;
        std::string label, hash, digest;
        if (!(fields >> index >> label >> hash >> digest)) {
            throw std::runtime_error("malformed reference line: " + line);
        }
        auto &list = ref.points[key];
        if (index != list.size()) {
            throw std::runtime_error("reference out of order: " + line);
        }
        list.emplace_back(std::stoull(hash, nullptr, 16),
                          std::stoull(digest, nullptr, 16));
    }
    if (!ref.loaded) {
        throw std::runtime_error("reference " + path + " names no seed");
    }
    return ref;
}

/** Workload whose reference digests a workload's points must match. */
std::string
referenceKey(const std::string &workload)
{
    // served_sweep runs exhibit_suite's points and must agree with it.
    return workload == "served_sweep" ? "exhibit_suite" : workload;
}

/** Attempted/failed tally with the first few failure descriptions. */
struct Checks
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> notes;
    std::string reference = "skipped";

    void
    fail(const std::string &what)
    {
        ++failed;
        if (notes.size() < 20) {
            notes.push_back(what);
        }
    }
};

Checks
runChecks(Context &ctx, const std::vector<Batch> &batches)
{
    Checks checks;
    const std::vector<PointRun> &first = batches.front().points;
    const std::vector<std::pair<std::uint64_t, std::uint64_t>> *ref =
        nullptr;
    Reference reference;
    if (!ctx.opts.reference_path.empty()) {
        reference = loadReference(ctx.opts.reference_path);
        if (reference.seed == ctx.opts.seed) {
            const auto it =
                reference.points.find(referenceKey(ctx.opts.workload));
            if (it == reference.points.end() ||
                it->second.size() != first.size()) {
                checks.reference = "missing";
                checks.fail("no reference digests for this workload");
            } else {
                ref = &it->second;
                checks.reference = "checked";
            }
        }
    }
    for (std::size_t b = 0; b < batches.size(); ++b) {
        for (std::size_t i = 0; i < batches[b].points.size(); ++i) {
            const PointRun &p = batches[b].points[i];
            ++checks.attempted;
            const char *why = nullptr;
            if (!p.ok) {
                why = "point failed";
            } else if (p.secure && p.run.violations > 0) {
                why = "secure engine shows violations";
            } else if (p.digest != first[i].digest) {
                why = batches[b].traced ? "traced digest differs"
                                        : "digest differs between batches";
            } else if (ref != nullptr &&
                       ((*ref)[i].first != p.config_hash ||
                        (*ref)[i].second != p.digest)) {
                why = "reference digest differs";
            }
            if (why != nullptr) {
                checks.fail("batch " + std::to_string(b) + " " + p.label +
                            ": " + why + (p.error.empty() ? "" : " (") +
                            p.error + (p.error.empty() ? "" : ")"));
            }
        }
    }
    for (std::size_t index : ctx.check_sample) {
        ++checks.attempted;
        if (crossCheckDigest(ctx, index) != first.at(index).digest) {
            checks.fail("cross-check " + first[index].label +
                        ": tick-engine / repeat run differs");
        }
    }
    return checks;
}

/** Simulated grid average vs the paper's, per exhibit configuration. */
struct ModelRow
{
    std::string label;
    double simulated_pct = 0.0;
    double paper_pct = 0.0;
};

std::vector<ModelRow>
modelRows(const Context &ctx, const Batch &batch)
{
    std::vector<ModelRow> rows;
    for (const PointRun &p : batch.points) {
        if (!p.ok || p.run.ipcs.empty()) {
            return rows; // No slowdowns without every baseline.
        }
    }
    const std::size_t nw = mopac::allWorkloadNames().size();
    for (std::size_t s = 0; s < ctx.sweeps.size(); ++s) {
        const std::size_t nc = ctx.sweeps[s].size() / nw;
        const std::size_t first = ctx.sweep_begin[s];
        for (std::size_t c = 1; c < nc; ++c) {
            double sum = 0.0;
            for (std::size_t w = 0; w < nw; ++w) {
                sum += mopac::weightedSlowdown(
                    batch.points[first + w * nc].run,
                    batch.points[first + w * nc + c].run);
            }
            ModelRow row;
            row.label = ctx.sweeps[s][c].config_label;
            row.simulated_pct = 100.0 * sum / static_cast<double>(nw);
            for (const PaperRef &r : kPaperRefs) {
                if (row.label == r.label) {
                    row.paper_pct = r.percent;
                }
            }
            rows.push_back(row);
        }
    }
    return rows;
}

double
modelErrorPp(const std::vector<ModelRow> &rows)
{
    double sum = 0.0;
    for (const ModelRow &r : rows) {
        sum += std::abs(r.simulated_pct - r.paper_pct);
    }
    return rows.empty() ? 0.0 : sum / static_cast<double>(rows.size());
}

template <typename Fn>
double
medianOver(const std::vector<const Batch *> &batches, Fn fn)
{
    std::vector<double> xs;
    for (const Batch *b : batches) {
        xs.push_back(fn(*b));
    }
    return median(xs);
}

std::vector<double>
pointSeconds(const Batch &b)
{
    std::vector<double> xs;
    for (const PointRun &p : b.points) {
        if (p.seconds >= 0.0) {
            xs.push_back(p.seconds);
        }
    }
    return xs;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** End-to-end values from the untraced batches (reference speed). */
std::map<std::string, double>
endToEndValues(const std::vector<const Batch *> &untraced, Tail &tail)
{
    std::map<std::string, double> v;
    v["wall_s"] = medianOver(untraced, [](const Batch &b) { return b.wall_s; });
    v["setup_s"] =
        medianOver(untraced, [](const Batch &b) { return b.setup_s; });
    v["cpu_s"] = medianOver(untraced, [](const Batch &b) { return b.cpu_s; });
    v["peak_rss_mb"] =
        std::max(maxRssMb(RUSAGE_SELF), maxRssMb(RUSAGE_CHILDREN));
    // Per-point samples pooled over the batches; the tail percentile is
    // the one a single batch supports, so its value has ten samples
    // beyond it per batch.
    std::vector<double> pooled;
    for (const Batch *b : untraced) {
        const std::vector<double> xs = pointSeconds(*b);
        pooled.insert(pooled.end(), xs.begin(), xs.end());
        if (const auto t = tailPercentile(xs)) {
            tail = *t;
        }
    }
    v["point_s_p50"] = median(pooled);
    tail.value = valueAtPercentile(pooled, tail.percentile);
    v["point_s_tail"] = tail.value;
    v["sim_macts_per_s"] = medianOver(untraced, [](const Batch &b) {
        return ratio(static_cast<double>(b.layers.acts), b.wall_s) * 1e-6;
    });
    return v;
}

/** Per-layer values from the traced batches (per-batch medians). */
std::map<std::string, double>
perLayerValues(const Context &ctx, const std::vector<const Batch *> &traced,
               const std::vector<const Batch *> &untraced)
{
    std::map<std::string, double> v;
    const auto per = [&](const char *name, auto fn) {
        v[name] = medianOver(traced, [&](const Batch &b) {
            return static_cast<double>(fn(b.layers));
        });
    };
    const double page_mb =
        static_cast<double>(::sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
    per("setup.system_ctor_ms", [](const Layers &l) {
        return nsToMs(ratio(l.ctor_ns, static_cast<double>(l.constructions)));
    });
    per("setup.traces_ms", [](const Layers &l) {
        return nsToMs(
            ratio(l.traces_ns, static_cast<double>(l.constructions)));
    });
    per("setup.minflt_per_point", [](const Layers &l) {
        return ratio(static_cast<double>(l.minflt),
                     static_cast<double>(l.constructions));
    });
    per("setup.rss_mb_per_system", [page_mb](const Layers &l) {
        return page_mb * ratio(static_cast<double>(l.minflt),
                               static_cast<double>(l.constructions));
    });
    per("workload.next_calls", [](const Layers &l) { return l.next.calls; });
    per("workload.next_ns", [](const Layers &l) {
        return ratio(static_cast<double>(l.next.ns),
                     static_cast<double>(l.next.calls));
    });
    per("sim.run_ms", [](const Layers &l) { return nsToMs(l.run_ns); });
    per("sim.host_ns_per_cycle", [](const Layers &l) {
        return ratio(l.run_ns, static_cast<double>(l.cycles));
    });
    per("sim.host_ns_per_act", [](const Layers &l) {
        return ratio(l.run_ns, static_cast<double>(l.acts));
    });
    v["sim.minsts_per_s"] = medianOver(untraced, [](const Batch &b) {
        return ratio(static_cast<double>(b.layers.insts), b.wall_s) * 1e-6;
    });
    per("mc.reads", [](const Layers &l) { return l.reads; });
    per("mc.writes", [](const Layers &l) { return l.writes; });
    per("mc.row_hit_rate", [](const Layers &l) {
        return ratio(static_cast<double>(l.row_hits),
                     static_cast<double>(l.cas));
    });
    per("mc.read_latency_ns", [](const Layers &l) {
        return ratio(l.latency_weighted, static_cast<double>(l.latency_reads));
    });
    per("mc.alert_stall_cycles", [](const Layers &l) { return l.alert_stall; });
    per("mc.read_q_depth_mean", [](const Layers &l) {
        return ratio(static_cast<double>(l.qdepth_sum),
                     static_cast<double>(l.qdepth_samples));
    });
    per("dram.acts", [](const Layers &l) { return l.acts; });
    per("dram.refs", [](const Layers &l) { return l.refs; });
    per("dram.rfms", [](const Layers &l) { return l.rfms; });
    per("dram.alerts", [](const Layers &l) { return l.alerts; });
    per("dram.victim_refreshes",
        [](const Layers &l) { return l.victim_refreshes; });
    per("dram.max_unmitigated",
        [](const Layers &l) { return l.max_unmitigated; });
    per("dram.violations", [](const Layers &l) { return l.violations; });
    for (std::size_t h = 0; h < kNumHooks; ++h) {
        const std::string base = std::string("mitigation.") + hookName(h);
        v[base + "_calls"] = medianOver(traced, [h](const Batch &b) {
            return static_cast<double>(b.layers.hooks[h].calls);
        });
        v[base + "_ns"] = medianOver(traced, [h](const Batch &b) {
            return ratio(static_cast<double>(b.layers.hooks[h].ns),
                         static_cast<double>(b.layers.hooks[h].calls));
        });
    }
    per("mitigation.updates_per_act", [](const Layers &l) {
        return ratio(static_cast<double>(l.counter_updates),
                     static_cast<double>(l.acts));
    });
    per("mitigation.srq_coalesced_frac", [](const Layers &l) {
        return ratio(static_cast<double>(l.srq_coalesced),
                     static_cast<double>(l.srq_selections));
    });
    per("mitigation.srq_selections",
        [](const Layers &l) { return l.srq_selections; });
    const double jobs = static_cast<double>(ctx.jobs);
    per("sim.runner.busy_frac", [jobs](const Layers &l) {
        return ratio(l.runner_busy_s, l.runner_span_s * jobs);
    });
    per("sim.runner.tail_s", [](const Layers &l) { return l.runner_tail_s; });
    per("sim.runner.repeat_points",
        [](const Layers &l) { return l.repeat_points; });
    per("serve.parent_cpu_s", [](const Layers &l) { return l.parent_cpu_s; });
    per("serve.workers_forked",
        [](const Layers &l) { return l.workers_forked; });
    per("serve.cache_hit_frac", [](const Layers &l) {
        return ratio(static_cast<double>(l.hits),
                     static_cast<double>(l.lookups));
    });
    per("serve.cache_lookup_ms",
        [](const Layers &l) { return nsToMs(l.lookup_ns); });
    per("serve.cache_store_ms",
        [](const Layers &l) { return nsToMs(l.store_ns); });

    // Self time per layer, per traced batch.
    std::map<std::string, double> self = selfTimeNs(ctx.spans.spans());
    const double nt = static_cast<double>(traced.size());
    const auto selfMs = [&](std::initializer_list<const char *> names) {
        double ns = 0.0;
        for (const char *n : names) {
            ns += self[n];
        }
        return nsToMs(ns) / nt;
    };
    v["setup.self_ms"] = selfMs({"setup.traces", "setup.system"});
    v["workload.self_ms"] = selfMs({"workload"});
    v["mitigation.self_ms"] = selfMs({"mitigation"});
    v["sim.run.self_ms"] = selfMs({"sim.run", "sim.run.chunk"});
    v["sim.runner.self_ms"] = selfMs({"sim.runner"});
    v["serve.self_ms"] = selfMs(
        {"serve.supervisor", "serve.cache.lookup", "serve.cache.store"});
    v["workload.share"] = ratio(v["workload.self_ms"], v["sim.run_ms"]);
    v["mitigation.share"] = ratio(v["mitigation.self_ms"], v["sim.run_ms"]);

    const double traced_wall =
        medianOver(traced, [](const Batch &b) { return b.wall_s; });
    const double untraced_wall =
        medianOver(untraced, [](const Batch &b) { return b.wall_s; });
    v["trace.overhead_s"] = traced_wall - untraced_wall;
    v["trace.overhead_frac"] = ratio(traced_wall - untraced_wall,
                                     untraced_wall);
    v["trace.clock_pair_ns"] = clockPairNs();
    return v;
}

std::string
cpuBrand()
{
#if defined(__x86_64__) || defined(__i386__)
    std::array<unsigned, 12> regs{};
    if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u) {
        return "unknown";
    }
    for (unsigned i = 0; i < 3; ++i) {
        __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                    &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    std::string brand(sizeof(regs), '\0');
    std::memcpy(brand.data(), regs.data(), sizeof(regs));
    brand.erase(brand.find('\0') == std::string::npos ? brand.size()
                                                      : brand.find('\0'));
    const auto first = brand.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : brand.substr(first);
#else
    return "unknown";
#endif
}

/** Host fingerprint recorded with every result, as a JSON object. */
std::string
hostFingerprint(unsigned jobs)
{
    utsname u{};
    ::uname(&u);
    return std::string("{\"cpu\": ") + jsonString(cpuBrand()) +
           ", \"hardware_threads\": " +
           std::to_string(std::thread::hardware_concurrency()) +
           ", \"jobs\": " + std::to_string(jobs) +
           ", \"kernel\": " + jsonString(std::string(u.sysname) + " " +
                                         u.release + " " + u.machine) +
           ", \"compiler\": " + jsonString(__VERSION__) + "}";
}

void
writeRecord(const Context &ctx, const std::vector<Batch> &batches,
            const Checks &checks, const std::vector<ModelRow> &model,
            const MetricSet &metrics, const std::string &path)
{
    std::ofstream out(path);
    out << "{\n  \"schema\": \"mopac-perfbench-v1\",\n"
        << "  \"workload\": " << jsonString(ctx.opts.workload) << ",\n"
        << "  \"seed\": " << ctx.opts.seed << ",\n"
        << "  \"trace\": " << (ctx.opts.trace ? 1 : 0) << ",\n"
        << "  \"host\": " << hostFingerprint(ctx.jobs) << ",\n"
        << "  \"insts_per_core\": " << kInstsPerCore
        << ", \"warmup_insts\": " << kWarmupInsts
        << ", \"attack_cycles\": " << kAttackCycles << ",\n"
        << "  \"batches\": [";
    for (std::size_t b = 0; b < batches.size(); ++b) {
        out << (b ? ", " : "") << "{\"traced\": "
            << (batches[b].traced ? "true" : "false")
            << ", \"wall_s\": " << jsonNumber(batches[b].wall_s)
            << ", \"cpu_s\": " << jsonNumber(batches[b].cpu_s)
            << ", \"setup_s\": " << jsonNumber(batches[b].setup_s)
            << ", \"raw_wall_s\": " << jsonNumber(batches[b].raw_wall_s)
            << "}";
    }
    out << "],\n  \"checks\": {\"attempted\": " << checks.attempted
        << ", \"failed\": " << checks.failed
        << ", \"reference\": " << jsonString(checks.reference) << "},\n"
        << "  \"model\": [";
    for (std::size_t i = 0; i < model.size(); ++i) {
        out << (i ? ", " : "") << "{\"config\": "
            << jsonString(model[i].label)
            << ", \"simulated_pct\": " << jsonNumber(model[i].simulated_pct)
            << ", \"paper_pct\": " << jsonNumber(model[i].paper_pct) << "}";
    }
    out << "],\n  \"model_err_pp\": " << jsonNumber(modelErrorPp(model))
        << ",\n  \"metrics\": " << metrics.toJson() << ",\n"
        << "  \"points\": [\n";
    const std::vector<PointRun> &pts = batches.front().points;
    for (std::size_t i = 0; i < pts.size(); ++i) {
        out << "    {\"label\": " << jsonString(pts[i].label)
            << ", \"config_hash\": \"" << hex(pts[i].config_hash)
            << "\", \"digest\": \"" << hex(pts[i].digest) << "\"}"
            << (i + 1 < pts.size() ? ",\n" : "\n");
    }
    out << "  ]\n}\n";
    if (!out) {
        throw std::runtime_error("cannot write result record " + path);
    }
}

MetricSet
collect(const std::vector<MetricInfo> &catalog,
        const std::map<std::string, double> &values, std::size_t cap)
{
    MetricSet set(cap);
    for (const MetricInfo &m : catalog) {
        const auto it = values.find(m.name);
        if (it == values.end()) {
            throw std::logic_error("metric " + m.name + " not measured");
        }
        set.add(m.name, m.unit, it->second);
    }
    return set;
}

MetricInfo
layer(const std::string &name, const std::string &unit,
      const std::string &better)
{
    return {name, unit, better, 0.0};
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "exhibit_suite", "busy_point", "attack_storm", "served_sweep"};
    return names;
}

const std::vector<MetricInfo> &
endToEndCatalog()
{
    static const std::vector<MetricInfo> catalog = {
        {"wall_s", "s", "lower", 0.20},
        {"setup_s", "s", "lower", 0.25},
        {"cpu_s", "s", "lower", 0.25},
        {"peak_rss_mb", "MB", "lower", 0.20},
        {"point_s_p50", "s", "lower", 0.25},
        {"point_s_tail", "s", "lower", 0.25},
        {"sim_macts_per_s", "Macts/s", "higher", 0.20},
    };
    return catalog;
}

const std::vector<MetricInfo> &
perLayerCatalog()
{
    static const std::vector<MetricInfo> catalog = [] {
        std::vector<MetricInfo> c = {
            layer("setup.self_ms", "ms", "lower"),
            layer("setup.system_ctor_ms", "ms", "lower"),
            layer("setup.traces_ms", "ms", "lower"),
            layer("setup.minflt_per_point", "count", "lower"),
            layer("setup.rss_mb_per_system", "MB", "lower"),
            layer("workload.self_ms", "ms", "lower"),
            layer("workload.next_calls", "count", "lower"),
            layer("workload.next_ns", "ns", "lower"),
            layer("workload.share", "ratio", "lower"),
            layer("sim.run_ms", "ms", "lower"),
            layer("sim.run.self_ms", "ms", "lower"),
            layer("sim.host_ns_per_cycle", "ns", "lower"),
            layer("sim.host_ns_per_act", "ns", "lower"),
            layer("sim.minsts_per_s", "Minsts/s", "higher"),
            layer("mc.reads", "count", "higher"),
            layer("mc.writes", "count", "higher"),
            layer("mc.row_hit_rate", "ratio", "higher"),
            layer("mc.read_latency_ns", "ns", "lower"),
            layer("mc.alert_stall_cycles", "cycles", "lower"),
            layer("mc.read_q_depth_mean", "count", "lower"),
            layer("dram.acts", "count", "lower"),
            layer("dram.refs", "count", "lower"),
            layer("dram.rfms", "count", "lower"),
            layer("dram.alerts", "count", "lower"),
            layer("dram.victim_refreshes", "count", "lower"),
            layer("dram.max_unmitigated", "count", "lower"),
            layer("dram.violations", "count", "lower"),
        };
        for (std::size_t h = 0; h < kNumHooks; ++h) {
            const std::string base = std::string("mitigation.") + hookName(h);
            c.push_back(layer(base + "_calls", "count", "lower"));
            c.push_back(layer(base + "_ns", "ns", "lower"));
        }
        for (MetricInfo m : {
                 layer("mitigation.self_ms", "ms", "lower"),
                 layer("mitigation.share", "ratio", "lower"),
                 layer("mitigation.updates_per_act", "ratio", "lower"),
                 layer("mitigation.srq_coalesced_frac", "ratio", "higher"),
                 layer("mitigation.srq_selections", "count", "lower"),
                 layer("sim.runner.self_ms", "ms", "lower"),
                 layer("sim.runner.busy_frac", "ratio", "higher"),
                 layer("sim.runner.tail_s", "s", "lower"),
                 layer("sim.runner.repeat_points", "count", "lower"),
                 layer("serve.self_ms", "ms", "lower"),
                 layer("serve.parent_cpu_s", "s", "lower"),
                 layer("serve.workers_forked", "count", "lower"),
                 layer("serve.cache_hit_frac", "ratio", "higher"),
                 layer("serve.cache_lookup_ms", "ms", "lower"),
                 layer("serve.cache_store_ms", "ms", "lower"),
                 layer("trace.overhead_s", "s", "lower"),
                 layer("trace.overhead_frac", "ratio", "lower"),
                 layer("trace.clock_pair_ns", "ns", "lower"),
             }) {
            c.push_back(m);
        }
        return c;
    }();
    return catalog;
}

std::uint64_t
digestOf(const RunResult &run)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    const auto mix = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xffu;
            h *= 0x100000001b3ull;
        }
    };
    mix(run.cycles);
    mix(run.ipcs.size());
    for (double ipc : run.ipcs) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &ipc, sizeof(bits));
        mix(bits);
    }
    mix(run.acts);
    mix(run.alerts);
    mix(run.rfms);
    mix(run.max_unmitigated);
    mix(run.violations);
    return h;
}

std::uint64_t
shortPointDigest(MitigationKind kind, bool decorated)
{
    ExperimentPoint point;
    point.workload = "mcf";
    point.cfg = pointConfig(kind, 500);
    point.cfg.insts_per_core = 3000;
    point.cfg.warmup_insts = 300;
    Layers layers;
    const Built built = construct(point, nullptr, decorated, -1, layers);
    return digestOf(built.system->run());
}

int
runBenchmark(const RunOptions &opts)
{
    for (const char *name : kRefusedEnv) {
        if (std::getenv(name) != nullptr) {
            std::cerr << "perfbench: refusing to run with " << name
                      << " set: it rescales or redirects the measured "
                         "work\n";
            return 2;
        }
    }
    const auto &names = workloadNames();
    if (std::find(names.begin(), names.end(), opts.workload) == names.end()) {
        std::cerr << "perfbench: unknown workload '" << opts.workload << "'\n";
        return 2;
    }
    Context ctx(opts);
    ctx.jobs = jobCount();
    buildContext(ctx);

    // Batches repeat while another one fits in the budget; a traced
    // run alternates untraced and traced batches, at least one each.
    std::vector<Batch> batches;
    const std::int64_t start = nowNs();
    for (;;) {
        const bool traced = opts.trace && batches.size() % 2 == 1;
        batches.push_back(runBatch(ctx, traced));
        if (opts.emit_reference) {
            break;
        }
        const double elapsed = static_cast<double>(nowNs() - start) * 1e-9;
        const double per_batch = elapsed / static_cast<double>(batches.size());
        const bool need_traced = opts.trace && batches.size() < 2;
        if (!need_traced && elapsed + per_batch > opts.seconds) {
            break;
        }
    }
    if (opts.emit_reference) {
        const std::vector<PointRun> &pts = batches.front().points;
        for (std::size_t i = 0; i < pts.size(); ++i) {
            std::cout << opts.workload << " " << i << " " << pts[i].label
                      << " " << hex(pts[i].config_hash) << " "
                      << hex(pts[i].digest) << "\n";
        }
        return 0;
    }

    std::vector<const Batch *> traced, untraced;
    for (const Batch &b : batches) {
        (b.traced ? traced : untraced).push_back(&b);
    }
    // Before the cross-checks, whose re-runs would raise peak RSS.
    Tail tail;
    const std::map<std::string, double> e2e = endToEndValues(untraced, tail);
    const Checks checks = runChecks(ctx, batches);
    const MetricSet metrics =
        opts.trace ? collect(perLayerCatalog(),
                             perLayerValues(ctx, traced, untraced),
                             kMaxPerLayer)
                   : collect(endToEndCatalog(), e2e, kMaxEndToEnd);
    std::vector<ModelRow> model;
    if (!ctx.sweeps.empty()) {
        model = modelRows(ctx, batches.front());
    }

    std::printf("perfbench %s: seed %llu, %zu batches (%zu traced), "
                "%u jobs, %zu points per batch\n",
                opts.workload.c_str(),
                static_cast<unsigned long long>(opts.seed), batches.size(),
                traced.size(), ctx.jobs, ctx.points.size());
    std::printf("  host: %s\n", hostFingerprint(ctx.jobs).c_str());
    std::printf("  point_s_tail is p%.1f of %zu points per batch, pooled "
                "over %zu untraced batches\n",
                tail.percentile, tail.samples, untraced.size());
    if (!model.empty()) {
        std::printf("  model (simulated, unvalidated against hardware): "
                    "grid-average slowdown vs paper\n");
        for (const ModelRow &r : model) {
            std::printf("    %-14s simulated %6.2f%%  paper %5.1f%%\n",
                        r.label.c_str(), r.simulated_pct, r.paper_pct);
        }
        std::printf("  model_err_pp %.4f (mean |simulated - paper| over "
                    "%zu averages)\n",
                    modelErrorPp(model), model.size());
    }
    std::printf("  checks: %llu attempted, %llu failed, reference %s\n",
                static_cast<unsigned long long>(checks.attempted),
                static_cast<unsigned long long>(checks.failed),
                checks.reference.c_str());
    for (const std::string &note : checks.notes) {
        std::printf("    FAIL %s\n", note.c_str());
    }
    for (const Metric &m : metrics.metrics()) {
        std::printf("  %-34s %.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    }

    namespace fs = std::filesystem;
    const std::string stem = opts.out_dir + "/results/" + opts.workload +
                             "-seed" + std::to_string(opts.seed) + "-trace" +
                             (opts.trace ? "1" : "0");
    fs::create_directories(opts.out_dir + "/results");
    writeRecord(ctx, batches, checks, model, metrics, stem + ".json");
    if (opts.trace) {
        ctx.spans.write(stem + ".spans.json");
    }

    std::cout << "{\"correct\": " << (checks.failed == 0 ? "true" : "false")
              << ", \"attempted\": " << checks.attempted
              << ", \"failed\": " << checks.failed
              << ", \"metrics\": " << metrics.toJson() << "}" << std::endl;
    return 0;
}

} // namespace perfbench
