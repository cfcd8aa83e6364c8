#include "layers.hpp"

#include <algorithm>
#include <exception>
#include <thread>

#include "align/gssw.hpp"
#include "core/timer.hpp"

namespace perfbench {

using pgb::core::WallTimer;
using pgb::pipeline::MapperConfig;
using pgb::pipeline::MappingContext;
using pgb::pipeline::ReadMapping;
using pgb::seq::Sequence;

double
LayerSample::planSeconds() const
{
    return std::max(0.0, captureSeconds - seedSeconds);
}

LayerSample
sampleLayers(const MappingContext &context, const MapperConfig &config,
             std::span<const Sequence> reads)
{
    LayerSample sample;
    sample.reads = reads.size();
    const pgb::pipeline::Seq2GraphMapper mapper(context, config);
    pgb::align::GsswOptions options;
    // The mapper keeps GSSW matrices for vg map only.
    options.keepMatrices =
        config.profile == pgb::pipeline::ToolProfile::kVgMap;
    const auto score = pgb::align::ScoreParams::mappingDefaults();
    std::vector<pgb::pipeline::Anchor> anchors;
    for (size_t i = 0; i < reads.size(); ++i) {
        WallTimer seed_timer;
        context.seeder().collect(reads[i], anchors);
        sample.seedSeconds += seed_timer.seconds();
        sample.anchors += anchors.size();

        WallTimer capture_timer;
        const auto traces = mapper.captureAlignTraces(
            reads.subspan(i, 1), SIZE_MAX);
        sample.captureSeconds += capture_timer.seconds();
        sample.tasks += traces.size();

        for (const auto &trace : traces) {
            sample.subgraphBases += trace.subgraph.totalBases();
            WallTimer gssw_timer;
            const auto result = pgb::align::gsswAlign(
                trace.subgraph, trace.query, score, options);
            sample.gsswSeconds += gssw_timer.seconds();
            sample.cells += result.cellsComputed;
            for (const auto &matrix : result.matrices)
                sample.matrixBytes += matrix.size() * sizeof(matrix[0]);
        }
    }
    return sample;
}

namespace {

/** Run @p body on a new thread and rethrow what it threw. */
template <typename Body>
void
onFreshThread(Body body)
{
    std::exception_ptr error;
    std::thread thread([&] {
        try {
            body();
        } catch (...) {
            error = std::current_exception();
        }
    });
    thread.join();
    if (error)
        std::rethrow_exception(error);
}

bool
sameRow(const ReadMapping &a, const ReadMapping &b)
{
    return a.mapped == b.mapped && a.node == b.node &&
           a.score == b.score && a.reverse == b.reverse;
}

} // namespace

std::vector<double>
timeEachAlone(const MappingContext &context, MapperConfig config,
              std::span<const Sequence> reads)
{
    config.threads = 1;
    std::vector<double> seconds(reads.size());
    for (size_t i = 0; i < reads.size(); ++i) {
        WallTimer timer;
        pgb::pipeline::mapBatch(context, config, reads.subspan(i, 1));
        seconds[i] = timer.seconds();
    }
    return seconds;
}

uint64_t
orderDependentReads(const MappingContext &context, MapperConfig config,
                    std::span<const Sequence> reads)
{
    config.threads = 1;
    std::vector<ReadMapping> alone(reads.size()), batch, one;
    for (size_t i = 0; i < reads.size(); ++i) {
        onFreshThread([&] {
            pgb::pipeline::mapBatch(context, config, reads.subspan(i, 1),
                                    one);
            alone[i] = one.at(0);
        });
    }
    onFreshThread([&] {
        pgb::pipeline::mapBatch(context, config, reads, batch);
    });
    uint64_t differing = 0;
    for (size_t i = 0; i < reads.size(); ++i)
        differing += sameRow(batch[i], alone[i]) ? 0 : 1;
    return differing;
}

double
timeBatch(const MappingContext &context, const MapperConfig &config,
          std::span<const Sequence> reads)
{
    WallTimer timer;
    pgb::pipeline::mapBatch(context, config, reads);
    return timer.seconds();
}

} // namespace perfbench
