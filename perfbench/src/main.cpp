/**
 * @file
 * `perfbench`: one phase of one benchmark workload per process.
 *
 *   perfbench prepare --workload W --seed N [--smoke]
 *   perfbench map     --workload W --seconds S --trace 0|1 [--smoke]
 *   perfbench loadgen --workload W --seed N --seconds S
 *                     --socket PATH [--smoke]
 *   perfbench build   --workload W --seconds S --trace 0|1 [--smoke]
 *   perfbench simd
 *
 * Phases read and write their files in the current directory and
 * print one JSON object of numbers as their last line; run.py (the
 * benchmark's entry point) sequences them and assembles the result.
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "align/dispatch.hpp"
#include "core/logging.hpp"
#include "workload.hpp"

namespace {

struct Args
{
    std::string phase;
    std::string workload;
    std::string socket;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool smoke = false;
};

Args
parseArgs(int argc, char **argv)
{
    Args args;
    if (argc < 2)
        pgb::core::fatal("perfbench: missing phase");
    args.phase = argv[1];
    for (int i = 2; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--smoke") {
            args.smoke = true;
            continue;
        }
        if (i + 1 >= argc)
            pgb::core::fatal("perfbench: ", flag, " needs a value");
        const std::string value = argv[++i];
        if (flag == "--workload")
            args.workload = value;
        else if (flag == "--socket")
            args.socket = value;
        else if (flag == "--seed")
            args.seed = std::strtoull(value.c_str(), nullptr, 10);
        else if (flag == "--seconds")
            args.seconds = std::strtod(value.c_str(), nullptr);
        else if (flag == "--trace")
            args.trace = value == "1";
        else
            pgb::core::fatal("perfbench: unknown flag ", flag);
    }
    if (!(args.seconds > 0.0))
        pgb::core::fatal("perfbench: --seconds must be positive");
    return args;
}

void
printReport(const perfbench::Report &report)
{
    std::string line = "{";
    for (const auto &[key, value] : report) {
        if (line.size() > 1)
            line += ", ";
        char number[64];
        std::snprintf(number, sizeof(number), "%.17g", value);
        line += "\"" + key + "\": " + number;
    }
    std::printf("%s}\n", line.c_str());
}

int
run(const Args &args)
{
    if (args.phase == "simd") {
        std::printf("%s\n", pgb::align::simdLevelName(
                                pgb::align::activeSimdLevel()));
        return 0;
    }
    const auto spec = perfbench::findWorkload(args.workload, args.smoke);
    perfbench::Report report;
    if (args.phase == "prepare")
        report = perfbench::runPrepare(spec, args.seed);
    else if (args.phase == "map")
        report = perfbench::runMap(spec, args.seconds, args.trace);
    else if (args.phase == "loadgen")
        report = perfbench::runLoadgen(spec, args.socket, args.seed,
                                       args.seconds);
    else if (args.phase == "build")
        report = perfbench::runBuild(spec, args.seconds, args.trace);
    else
        pgb::core::fatal("perfbench: unknown phase '", args.phase, "'");
    printReport(report);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(parseArgs(argc, argv));
    } catch (const pgb::core::FatalError &error) {
        std::fprintf(stderr, "%s\n", error.what());
        return 1;
    }
}
