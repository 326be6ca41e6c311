/**
 * @file
 * Command line of the repository benchmark.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--reference FILE] [--out DIR] [--emit-reference]
 *
 * Prints a report and, as its last line, one JSON object with the
 * keys correct, attempted, failed and metrics.  perfbench/run.py
 * builds this binary and supplies --reference and --out.
 */

#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>

#include "workloads.hh"

namespace
{

int
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--reference FILE] [--out DIR] "
                 "[--emit-reference]\n";
    return 2;
}

/** Parse a whole decimal number, or throw. */
std::uint64_t
number(const std::string &flag, const std::string &text)
{
    std::size_t used = 0;
    const unsigned long long v = std::stoull(text, &used, 10);
    if (text.empty() || text[0] == '-' || used != text.size()) {
        throw std::invalid_argument(flag + " expects a whole number");
    }
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::RunOptions opts;
    bool have_workload = false, have_seed = false, have_seconds = false,
         have_trace = false;
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg == "--emit-reference") {
                opts.emit_reference = true;
                continue;
            }
            if (i + 1 >= argc) {
                return usage(arg + " needs a value");
            }
            const std::string value = argv[++i];
            if (arg == "--workload") {
                opts.workload = value;
                have_workload = true;
            } else if (arg == "--seed") {
                opts.seed = number(arg, value);
                have_seed = true;
            } else if (arg == "--seconds") {
                opts.seconds = static_cast<double>(number(arg, value));
                have_seconds = opts.seconds >= 1.0;
            } else if (arg == "--trace") {
                const std::uint64_t t = number(arg, value);
                if (t > 1) {
                    return usage("--trace takes 0 or 1");
                }
                opts.trace = t == 1;
                have_trace = true;
            } else if (arg == "--reference") {
                opts.reference_path = value;
            } else if (arg == "--out") {
                opts.out_dir = value;
            } else {
                return usage("unknown argument " + arg);
            }
        }
    } catch (const std::exception &e) {
        return usage(e.what());
    }
    if (!have_workload || !have_seed || !have_seconds || !have_trace) {
        return usage("--workload, --seed, --seconds (>= 1) and --trace "
                     "are required");
    }
    try {
        return perfbench::runBenchmark(opts);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
}
