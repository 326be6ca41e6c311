/**
 * @file
 * Differential harness for the run-loop engines: the skip-to-next-event
 * engine must reproduce the legacy one-iteration-per-cycle loop
 * bit-for-bit.  Every run is executed under both engines and compared
 * on two levels:
 *
 *  - the full RunResult (per-core IPCs, command counts, mitigation
 *    counters, security ground truth, epoch stats), and
 *  - the complete serialized System state after the run, byte by byte
 *    (bank timing machines, queues, RNG streams, watchdog bookkeeping,
 *    command ring -- if any component diverges, the snapshots differ).
 *
 * Coverage spans every MitigationKind, each workload generator class
 * of Table 4 (bursty, hot-row skewed, streaming, and a mix), an
 * idle-heavy dependent pointer chase, and a many-sided Rowhammer
 * attack stream driving ALERT/ABO storms.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/serialize.hh"
#include "sim/system.hh"
#include "workload/attack.hh"
#include "workload/synth.hh"

namespace mopac
{
namespace
{

/** Result plus the post-run serialized System image. */
struct EngineRun
{
    RunResult result;
    std::vector<std::uint8_t> state;
};

SystemConfig
quickConfig(MitigationKind kind)
{
    SystemConfig cfg = makeConfig(kind, 500);
    cfg.insts_per_core = 12000;
    cfg.warmup_insts = 1000;
    cfg.num_cores = 2;
    // Smaller bank: keeps PRAC's per-row serialized state (and thus
    // each byte-level comparison) small without changing coverage.
    cfg.geometry.rows_per_bank = 4096;
    return cfg;
}

/** Run @p cfg on traces built by @p build, under the given engine. */
template <typename BuildTraces>
EngineRun
runEngine(SystemConfig cfg, SimEngine engine, BuildTraces &&build)
{
    cfg.engine = engine;
    const AddressMap map(cfg.geometry);
    auto owned = build(cfg, map);
    std::vector<TraceSource *> traces;
    traces.reserve(owned.size());
    for (auto &t : owned) {
        traces.push_back(t.get());
    }
    System system(cfg, traces);
    EngineRun run;
    run.result = system.run();
    Serializer ser;
    system.saveState(ser);
    run.state = ser.finish(FileKind::kSnapshot, 0);
    return run;
}

/** Every RunResult field must match bit-for-bit (doubles included). */
void
expectSameRun(const RunResult &a, const RunResult &b)
{
    ASSERT_EQ(a.ipcs.size(), b.ipcs.size());
    for (std::size_t i = 0; i < a.ipcs.size(); ++i) {
        EXPECT_EQ(a.ipcs[i], b.ipcs[i]) << "core " << i;
    }
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.timed_out, b.timed_out);
    EXPECT_EQ(a.acts, b.acts);
    EXPECT_EQ(a.reads, b.reads);
    EXPECT_EQ(a.writes, b.writes);
    EXPECT_EQ(a.refs, b.refs);
    EXPECT_EQ(a.rfms, b.rfms);
    EXPECT_EQ(a.alerts, b.alerts);
    EXPECT_EQ(a.rbhr, b.rbhr);
    EXPECT_EQ(a.apri, b.apri);
    EXPECT_EQ(a.avg_read_latency_ns, b.avg_read_latency_ns);
    EXPECT_EQ(a.max_unmitigated, b.max_unmitigated);
    EXPECT_EQ(a.violations, b.violations);
    EXPECT_EQ(a.faults_injected, b.faults_injected);
    EXPECT_EQ(a.counter_updates, b.counter_updates);
    EXPECT_EQ(a.srq_insertions, b.srq_insertions);
    EXPECT_EQ(a.mitigations, b.mitigations);
    EXPECT_EQ(a.ref_drains, b.ref_drains);
    EXPECT_EQ(a.act64, b.act64);
    EXPECT_EQ(a.act200, b.act200);
    EXPECT_EQ(a.epochs, b.epochs);
}

/** Run both engines and require identical results and state bytes. */
template <typename BuildTraces>
void
expectEnginesAgree(const SystemConfig &cfg, BuildTraces &&build,
                   const std::string &tag)
{
    const EngineRun tick = runEngine(cfg, SimEngine::kTick, build);
    const EngineRun event = runEngine(cfg, SimEngine::kEvent, build);
    {
        SCOPED_TRACE(tag);
        expectSameRun(tick.result, event.result);
    }
    EXPECT_EQ(tick.state, event.state)
        << tag << ": serialized System state diverged";
    // Guard against vacuous success: the runs must have done work.
    EXPECT_GT(tick.result.cycles, 0u) << tag;
    EXPECT_GT(tick.result.acts, 0u) << tag;
}

/** makeWorkloadTraces adapter for runEngine's build callback. */
auto
workloadBuilder(const std::string &name)
{
    return [name](const SystemConfig &cfg, const AddressMap &map) {
        return makeWorkloadTraces(name, map, cfg.num_cores, cfg.seed);
    };
}

TEST(EngineDiff, EveryMitigationKindMatchesOnMcf)
{
    for (MitigationKind kind :
         {MitigationKind::kNone, MitigationKind::kPracMoat,
          MitigationKind::kMopacC, MitigationKind::kMopacD,
          MitigationKind::kMint, MitigationKind::kPride,
          MitigationKind::kTrr, MitigationKind::kPara,
          MitigationKind::kGraphene, MitigationKind::kQprac}) {
        expectEnginesAgree(quickConfig(kind), workloadBuilder("mcf"),
                           std::string("mcf/") + toString(kind));
    }
}

TEST(EngineDiff, EveryWorkloadGeneratorClassMatches)
{
    // One representative per generator shape: hot-row bursty
    // (parest), latency-bound pointer chaser (mcf, covered above),
    // streaming (bwaves), high-MPKI writer (lbm), and a heterogeneous
    // mix.  A different engine picks up different idle structure from
    // each, which is exactly what the skip logic must not disturb.
    for (const char *name : {"parest", "bwaves", "lbm", "mix1"}) {
        SystemConfig cfg = quickConfig(MitigationKind::kMopacC);
        expectEnginesAgree(cfg, workloadBuilder(name), name);
    }
}

TEST(EngineDiff, IdleHeavyPointerChaseMatches)
{
    // One core, every read depends on the previous one and opens a
    // new row: the core stalls on nearly every cycle, so this is the
    // point where the event engine skips the most cycles.
    SystemConfig cfg = quickConfig(MitigationKind::kNone);
    cfg.num_cores = 1;
    auto build = [](const SystemConfig &cfg_, const AddressMap &map) {
        WorkloadSpec spec;
        spec.name = "idle_pchase";
        spec.mpki = 1000.0;
        spec.write_frac = 0.0;
        spec.dep_frac = 1.0;
        spec.burst_len = 1.0;
        spec.cluster = 1.0;
        spec.footprint_rows = 512;
        std::vector<std::unique_ptr<TraceSource>> out;
        out.push_back(makeTraceSource(spec, map, 0, 1, cfg_.seed));
        return out;
    };
    expectEnginesAgree(cfg, build, "idle_pchase/none");
}

/**
 * Endless read stream replaying an AttackPattern's address cycle
 * (zero instruction gap, no dependencies: maximum ACT pressure).
 */
class AttackTraceSource : public TraceSource
{
  public:
    explicit AttackTraceSource(AttackPattern pattern)
        : pattern_(std::move(pattern))
    {
    }

    TraceRecord
    next() override
    {
        TraceRecord rec;
        rec.inst_gap = 0;
        rec.line_addr = pattern_.next().line_addr;
        return rec;
    }

  private:
    AttackPattern pattern_;
};

TEST(EngineDiff, AttackPatternAlertStormsMatch)
{
    // Many-sided hammer on one bank from every core: drives the
    // per-bank counters over ATH quickly, so the run is dense with
    // ALERT windows, drains, and RFMs -- the trickiest maintenance
    // states for the skip logic (stall_at_ can sit in the future,
    // drains pace one PRE per cycle).
    for (MitigationKind kind :
         {MitigationKind::kMopacC, MitigationKind::kMopacD,
          MitigationKind::kPracMoat}) {
        SystemConfig cfg = quickConfig(kind);
        cfg.insts_per_core = 6000;
        cfg.warmup_insts = 500;
        auto build = [](const SystemConfig &cfg_,
                        const AddressMap &map) {
            std::vector<std::unique_ptr<TraceSource>> out;
            for (unsigned c = 0; c < cfg_.num_cores; ++c) {
                out.push_back(std::make_unique<AttackTraceSource>(
                    makeManySidedAttack(map, /*subchannel=*/0,
                                        /*bank=*/c % 4,
                                        /*num_rows=*/8,
                                        /*start_row=*/100 + 64 * c)));
            }
            return out;
        };
        expectEnginesAgree(cfg, build,
                           std::string("attack/") + toString(kind));
    }
}

} // namespace
} // namespace mopac
