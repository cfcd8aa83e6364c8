/**
 * @file
 * Table 4: measured kernel execution times on their captured datasets
 * (the paper's Machine B wall-clock numbers, here on scaled-down
 * synthetic inputs — absolute values differ, the ranking is the
 * reproducible signal: GWFA-cr >> TC > PGSGD > GBV > GSSW > GBWT).
 */

#include "align/dispatch.hpp"
#include "bench_common.hpp"
#include "kernel_runners.hpp"

int
main()
{
    using namespace pgb;
    using namespace pgb::bench;

    banner("Table 4: kernel execution time (uninstrumented)");
    std::printf("simd dispatch: %s\n",
                align::simdLevelName(align::activeSimdLevel()));
    const auto workload = makeStandardWorkload();
    const auto inputs = captureKernelInputs(workload);
    core::NullProbe null_probe;

    struct Row
    {
        const char *name;
        std::function<uint64_t()> run;
        double paperSeconds;
        size_t inputs; ///< traces, queries, matches or layout nodes
    };
    const Row rows[] = {
        {"GBV", [&] { return runGbv(inputs, null_probe); }, 192,
         inputs.gbv.size()},
        {"GSSW", [&] { return runGssw(inputs, null_probe); }, 35,
         inputs.gssw.size()},
        {"GBWT", [&] { return runGbwt(inputs, null_probe); }, 23,
         inputs.gbwtQueries.size()},
        {"GWFA-cr", [&] { return runGwfa(inputs.gwfaCr, null_probe); },
         16657, inputs.gwfaCr.size()},
        {"GWFA-lr", [&] { return runGwfa(inputs.gwfaLr, null_probe); },
         720, inputs.gwfaLr.size()},
        {"PGSGD", [&] { return runPgsgd(inputs, null_probe); }, 285,
         inputs.nodeCount},
        {"TC", [&] { return runTc(inputs, null_probe); }, 755,
         inputs.tcMatches.size()},
    };

    std::printf("%-8s %12s %12s %14s\n", "kernel", "measured(ms)",
                "paper(s)", "inputs");
    uint64_t sink = 0;
    for (const Row &row : rows) {
        core::WallTimer timer;
        sink += row.run();
        std::printf("%-8s %12.1f %12.0f %14zu\n", row.name,
                    timer.milliseconds(), row.paperSeconds, row.inputs);
    }
    std::printf("\n(checksum %llu; paper Table 4 measured GBV 192s, "
                "GSSW 35s, GBWT 23s, GWFA-cr 16657s, GWFA-lr 720s, "
                "PGSGD 285s, TC 755s on full chr20 data)\n",
                static_cast<unsigned long long>(sink));
    writeBenchMetrics("table4");
    return 0;
}
