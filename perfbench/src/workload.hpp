/**
 * @file
 * The benchmark's three workloads and the phases that run them.
 *
 * Each phase runs in its own process, started by run.py, so that
 * peak RSS belongs to the program's work alone:
 *
 *   prepare  generate the inputs from the seed (untimed), then set up
 *            as the program does before its first timed call (index
 *            build, artifact write, artifact open), several times;
 *   map      the mapping phase of `pgb map --dump`, timed;
 *   loadgen  an open-loop client of a running `pgb serve` (traced
 *            short-giraffe runs only);
 *   build    `pipeline::buildPggb`, timed.
 *
 * Every phase checks the program's outputs before it reports, and
 * with `trace` set it adds the per-layer measurements of the layers
 * the workload runs (layers.hpp) and `trace.layers_s`, the wall time
 * of those extra calls.
 */

#ifndef PERFBENCH_WORKLOAD_HPP
#define PERFBENCH_WORKLOAD_HPP

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "graph/pangraph.hpp"
#include "pipeline/context.hpp"
#include "pipeline/mapper.hpp"

namespace perfbench {

enum class WorkloadKind { kMap, kBuild };

/** Everything that defines one workload at one scale. */
struct WorkloadSpec
{
    WorkloadKind kind = WorkloadKind::kMap;
    size_t baseLength = 0;  ///< reference bases of the pangenome
    size_t haplotypes = 14;
    bool longReads = false;
    size_t readLength = 150;
    size_t reads = 0;       ///< reads in the FASTQ (mapping workloads)
    pgb::pipeline::ToolProfile profile =
        pgb::pipeline::ToolProfile::kVgMap;
    unsigned threads = 4;   ///< mapping / build threads
    size_t chromosomes = 1; ///< build: independent pangenomes per pass
    size_t setupReps = 3;   ///< set-ups per run (build: per pass); the
                            ///< median is reported
    double minCorrectFrac = 0.0; ///< accuracy floor of the output check
    /// Open-loop arrivals per second of the traced run's serving run
    /// (short-giraffe only).
    double rate = 0.0;
    // Read sets of the traced mapping run.
    size_t poolReads = 0;   ///< reads mapped alone (pool.*)
    size_t layerReads = 0;  ///< reads replayed layer by layer
    size_t probeReads = 0;  ///< order-dependence probe (long-vgmap only)
};

/** The workload @p name at full or smoke scale; fatal if unknown. */
WorkloadSpec findWorkload(const std::string &name, bool smoke);

/** A phase's report: named numbers, printed as one JSON object. */
using Report = std::map<std::string, double>;

/** Inputs in the current directory, then `setupReps` set-ups. */
Report runPrepare(const WorkloadSpec &spec, uint64_t seed);

/** The mapping phase of `pgb map --dump` for at least @p seconds. */
Report runMap(const WorkloadSpec &spec, double seconds, bool trace);

/**
 * Drive the daemon at @p socket with open-loop arrivals for
 * @p seconds, check every answer, and read the daemon's STATUS.
 */
Report runLoadgen(const WorkloadSpec &spec, const std::string &socket,
                  uint64_t seed, double seconds);

/** The order-dependence probe's fixed reads and what they map to. */
struct ProbeSet
{
    /** The context references the graph, so the set owns both. */
    std::shared_ptr<const pgb::graph::PanGraph> graph;
    std::shared_ptr<const pgb::pipeline::MappingContext> context;
    pgb::pipeline::MapperConfig config;
    std::vector<pgb::seq::Sequence> reads;
};

/**
 * The fixed probe set of @p spec: the first `probeReads` long reads
 * that `pgb simulate chr 100000 14` writes (seed 42), with the
 * workload's profile, against that pangenome. It does not depend on
 * the run's seed.
 */
ProbeSet fixedProbeSet(const WorkloadSpec &spec);

/** Build the graph from the assemblies in whole passes, for at least
 *  @p seconds and at least three passes. */
Report runBuild(const WorkloadSpec &spec, double seconds, bool trace);

} // namespace perfbench

#endif // PERFBENCH_WORKLOAD_HPP
