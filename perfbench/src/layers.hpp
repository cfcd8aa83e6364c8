/**
 * @file
 * Per-layer measurements for the traced run.
 *
 * Every number here comes from timing or counting a call into a
 * module's public functions from the benchmark's own code; nothing is
 * read from timers inside src/. The traced run repeats work the
 * untraced run already timed, one layer at a time, so it is never
 * used for the end-to-end metrics.
 */

#ifndef PERFBENCH_LAYERS_HPP
#define PERFBENCH_LAYERS_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "pipeline/context.hpp"
#include "pipeline/mapper.hpp"

namespace perfbench {

/** Seed, plan, subgraph and GSSW work of a read sample, one read at a
 *  time on the calling thread. */
struct LayerSample
{
    uint64_t reads = 0;
    uint64_t anchors = 0;        ///< Seeder::collect output
    uint64_t tasks = 0;          ///< captured alignment traces
    uint64_t subgraphBases = 0;  ///< bases of the captured LocalGraphs
    uint64_t cells = 0;          ///< GsswResult::cellsComputed
    uint64_t matrixBytes = 0;    ///< retained GSSW H matrices
    double seedSeconds = 0.0;    ///< context.seeder().collect
    double captureSeconds = 0.0; ///< captureAlignTraces (re-seeds)
    double gsswSeconds = 0.0;    ///< align::gsswAlign replays

    double planSeconds() const;
};

/**
 * Time seeding, planning (captureAlignTraces minus seeding) and a GSSW
 * replay of every captured trace, with keepMatrices as the profile's
 * mapper sets it.
 */
LayerSample sampleLayers(const pgb::pipeline::MappingContext &context,
                         const pgb::pipeline::MapperConfig &config,
                         std::span<const pgb::seq::Sequence> reads);

/**
 * Map every read alone through mapBatch at one thread, one after
 * another on the calling thread; wall seconds per read.
 */
std::vector<double>
timeEachAlone(const pgb::pipeline::MappingContext &context,
              pgb::pipeline::MapperConfig config,
              std::span<const pgb::seq::Sequence> reads);

/**
 * The order-dependence probe: map each read alone, and all of them as
 * one batch, at one thread, each on a fresh thread so that no mapping
 * sees thread-local scratch left behind by an earlier read. Counts the
 * reads whose row differs between the two. A mapper whose result
 * depends only on the read itself gives 0.
 */
uint64_t orderDependentReads(
    const pgb::pipeline::MappingContext &context,
    pgb::pipeline::MapperConfig config,
    std::span<const pgb::seq::Sequence> reads);

/** Map @p reads in one mapBatch at config.threads; wall seconds. */
double timeBatch(const pgb::pipeline::MappingContext &context,
                 const pgb::pipeline::MapperConfig &config,
                 std::span<const pgb::seq::Sequence> reads);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HPP
