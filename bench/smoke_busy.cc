/**
 * @file
 * Smoke-test sweep: one busy workload (mcf, 28.8 MPKI) across every
 * mitigation kind at T_RH 500.  Not a paper exhibit -- this is the
 * sweep the crash-safety smoke test (kill_resume_smoke) runs so
 * journal resume is exercised on saturated-scheduler state (indexed
 * FR-FCFS queues, per-bank ready lists, SoA trackers), not only on
 * idle-heavy points.
 */

#include <iostream>

#include "bench_util.hh"

int
main(int argc, char **argv)
{
    using namespace mopac;
    using namespace mopac::bench;

    SlowdownLab lab(benchConfig(MitigationKind::kNone, 500),
                    parseBenchArgs(argc, argv));
    const std::vector<std::string> names = {"mcf"};

    const std::vector<MitigationKind> kinds = {
        MitigationKind::kPracMoat, MitigationKind::kMopacC,
        MitigationKind::kMopacD,   MitigationKind::kMint,
        MitigationKind::kPride,    MitigationKind::kTrr,
        MitigationKind::kPara,     MitigationKind::kGraphene,
        MitigationKind::kQprac,
    };
    std::vector<SystemConfig> sweep;
    for (MitigationKind kind : kinds) {
        sweep.push_back(benchConfig(kind, 500));
    }
    lab.precompute(sweep, names);

    TextTable table("Smoke sweep: mcf slowdown per mitigation, "
                    "T_RH 500");
    table.header({"mitigation", "slowdown"});
    for (MitigationKind kind : kinds) {
        const double s =
            lab.slowdown(benchConfig(kind, 500), names.front());
        table.row({toString(kind), TextTable::pct(s, 2)});
    }
    table.note("Busy-point coverage for the smoke tests; no paper "
               "counterpart.");
    table.print(std::cout);
    return mopac::bench::finalExitCode();
}
