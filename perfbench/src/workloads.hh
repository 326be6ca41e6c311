/**
 * @file
 * The repository benchmark: four closed-loop workloads over the
 * simulator's public API, their output checks, and the metric
 * catalogs they report.  README.md in this directory describes every
 * metric and why each workload exists.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/system.hh"

namespace perfbench
{

/** One command-line invocation. */
struct RunOptions
{
    std::string workload;
    std::uint64_t seed = 1;
    /** Measured time budget; at least one batch always runs. */
    double seconds = 10.0;
    /** Traced run: per-layer metrics instead of end-to-end ones. */
    bool trace = false;
    /** Directory for result records, span logs and scratch files. */
    std::string out_dir = ".";
    /** Reference digest file ("" = skip the reference comparison). */
    std::string reference_path;
    /** Print reference digest lines instead of checking them. */
    bool emit_reference = false;
};

/** Name, unit, direction and regression bound of one metric. */
struct MetricInfo
{
    std::string name;
    std::string unit;
    /** "lower" or "higher". */
    std::string better;
    /** Allowed worsening as a share of the median (end-to-end only). */
    double bound = 0.0;
};

/** The four workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** End-to-end metrics: what a --trace 0 run prints. */
const std::vector<MetricInfo> &endToEndCatalog();

/** Per-layer metrics: what a --trace 1 run prints. */
const std::vector<MetricInfo> &perLayerCatalog();

/**
 * Output digest of one run: FNV-1a over cycles, every per-core IPC
 * (bit pattern), ACTs, ALERTs, RFMs, max_unmitigated and violations.
 */
std::uint64_t digestOf(const mopac::RunResult &run);

/**
 * Run one short busy point (mcf under @p kind) to completion and
 * return its digest; with @p decorated, through the timing
 * decorators on every trace source and mitigation engine.
 */
std::uint64_t shortPointDigest(mopac::MitigationKind kind, bool decorated);

/**
 * Execute a workload per @p opts, print the report and the final
 * JSON line to stdout, and return the process exit code.
 */
int runBenchmark(const RunOptions &opts);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
