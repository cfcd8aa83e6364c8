#include "workload.hpp"

#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <fstream>
#include <numeric>
#include <sstream>
#include <thread>

#include "build/transclosure.hpp"
#include "core/io.hpp"
#include "core/logging.hpp"
#include "core/rng.hpp"
#include "core/timer.hpp"
#include "index/gbwt.hpp"
#include "index/minimizer.hpp"
#include "layers.hpp"
#include "pipeline/context.hpp"
#include "pipeline/graph_build.hpp"
#include "pipeline/wfmash.hpp"
#include "seq/fasta.hpp"
#include "seq/read_sim.hpp"
#include "serve/loadgen.hpp"
#include "serve/protocol.hpp"
#include "store/store.hpp"
#include "synth/pangenome_sim.hpp"
#include "truth.hpp"

namespace perfbench {

using pgb::core::WallTimer;
using pgb::pipeline::MapperConfig;
using pgb::pipeline::MappingContext;
using pgb::pipeline::ReadMapping;
using pgb::pipeline::ToolProfile;
using pgb::seq::Sequence;

namespace {

constexpr const char *kArtifact = "graph.pgbi";
constexpr const char *kReads = "reads.fq";
constexpr const char *kTruth = "truth.tsv";
constexpr const char *kMapOut = "map.tsv";
constexpr const char *kMapExtra = "map.extra.tsv";
/** `pgb map`'s default FASTQ batch. */
constexpr size_t kFastqBatch = 4096;
/** The serving run's load: connections, and the limit within which
 *  an answer counts towards serve.slo_frac. */
constexpr unsigned kConnections = 2;
constexpr double kLatencyLimitMs = 10.0;
/** Timed build passes per run, at least; build_s is their median. */
constexpr size_t kMinBuildPasses = 3;

/** Assemblies of build chromosome @p c. */
std::string
assembliesFile(size_t c)
{
    return "chr" + std::to_string(c) + ".fa";
}

/** Threads any workload may use: min(nproc, 4). */
unsigned
loadThreads()
{
    return std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
}

/** Nearest-rank quantile of @p values, q in [0, 1] (0 when empty). */
double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = std::ceil(q * static_cast<double>(values.size()));
    const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
    return values[std::min(index, values.size() - 1)];
}

/** Middle value, or the mean of the middle two (0 when empty). */
double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    const size_t half = values.size() / 2;
    std::nth_element(values.begin(), values.begin() + half, values.end());
    const double upper = values[half];
    if (values.size() % 2 == 1)
        return upper;
    return (*std::max_element(values.begin(), values.begin() + half) +
            upper) / 2.0;
}

/** Peak resident set of this process so far, MiB. */
double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/** The paper-shaped pangenome of @p spec, from @p seed. */
pgb::synth::Pangenome
simulate(const WorkloadSpec &spec, uint64_t seed)
{
    auto config = pgb::synth::mGraphLikeConfig(spec.baseLength, seed);
    config.haplotypeCount = spec.haplotypes;
    // Structural variants swing build time and memory 2-3x from seed
    // to seed at this size (see README.md), so the build workload's
    // chromosomes carry SNPs and small indels only.
    if (spec.kind == WorkloadKind::kBuild)
        config.variants.svRate = 0.0;
    return pgb::synth::simulatePangenome(config);
}

/** @p count reads cycling over the donors, named r0, r1, ... */
void
simulateReads(const WorkloadSpec &spec, uint64_t seed,
              const std::vector<Sequence> &donors,
              const std::vector<pgb::graph::PathId> &donor_paths,
              size_t count, std::vector<Sequence> &reads,
              std::vector<ReadTruth> &truths)
{
    auto profile = spec.longReads ? pgb::seq::ReadProfile::longRead()
                                  : pgb::seq::ReadProfile::shortRead();
    profile.readLength = spec.readLength;
    pgb::seq::ReadSimulator simulator(profile, seed ^ 0x5eedf00dull);
    reads.clear();
    truths.clear();
    for (size_t r = 0; r < count; ++r) {
        const size_t donor = r % donors.size();
        auto read = simulator.sample(donors[donor]);
        ReadTruth truth;
        truth.name = "r";
        truth.name += std::to_string(r);
        truth.donor = donor_paths[donor];
        truth.start = read.donorStart;
        truth.span = read.donorSpan;
        truth.reverse = read.reverse;
        read.read.setName(truth.name);
        reads.push_back(std::move(read.read));
        truths.push_back(std::move(truth));
    }
}

uint64_t
chromosomeSeed(uint64_t seed, size_t chromosome)
{
    return seed * 1000003ull + chromosome;
}

std::vector<pgb::graph::PathId>
allPaths(const pgb::graph::PanGraph &graph)
{
    std::vector<pgb::graph::PathId> paths(graph.pathCount());
    for (size_t p = 0; p < paths.size(); ++p)
        paths[p] = static_cast<pgb::graph::PathId>(p);
    return paths;
}

std::string
slurp(const std::string &path)
{
    std::ifstream input(path, std::ios::binary);
    if (!input)
        pgb::core::fatal("perfbench: cannot read '", path, "'");
    std::ostringstream text;
    text << input.rdbuf();
    return text.str();
}

struct SetupTimes
{
    double indexSeconds = 0.0; ///< index build + artifact write
    double openSeconds = 0.0;  ///< MappingContext over the artifact
};

/** What `pgb index` then `pgb map --index` do before mapping. */
SetupTimes
setUp(const pgb::graph::PanGraph &graph, unsigned threads,
      const std::string &artifact)
{
    SetupTimes times;
    WallTimer index_timer;
    {
        const pgb::index::MinimizerIndex minimizers(graph, 15, 10,
                                                    threads);
        const pgb::index::GbwtIndex gbwt(graph, true, threads);
        pgb::store::writeArtifact(artifact, graph, minimizers, &gbwt);
    }
    times.indexSeconds = index_timer.seconds();
    WallTimer open_timer;
    const auto context = MappingContext::Builder()
                             .fromArtifact(artifact)
                             .build();
    times.openSeconds = open_timer.seconds();
    return times;
}

MapperConfig
mapperConfig(const WorkloadSpec &spec, const MappingContext &context)
{
    auto config = MapperConfig::forTool(spec.profile);
    config.k = context.k();
    config.w = context.w();
    config.threads = spec.threads;
    return config;
}

/** Check outcome as report fields (see run.py for their use). */
void
addTally(Report &report, const MappingTally &tally,
         double min_correct_frac)
{
    const auto attempted = static_cast<double>(tally.attempted);
    report["attempted"] = attempted;
    report["failed"] = static_cast<double>(tally.failed());
    report["structure_errors"] =
        static_cast<double>(tally.structureErrors);
    report["wrong_strand"] = static_cast<double>(tally.wrongStrand);
    report["wrong_locus"] = static_cast<double>(tally.wrongLocus);
    report["mapped_frac"] =
        attempted > 0 ? static_cast<double>(tally.mapped) / attempted
                      : 0.0;
    report["correct_frac"] =
        attempted > 0 ? static_cast<double>(tally.correct) / attempted
                      : 0.0;
    report["correct_floor"] = min_correct_frac;
    const bool ok = tally.attempted > 0 && tally.structureErrors == 0 &&
                    report["correct_frac"] >= min_correct_frac;
    report["outputs_ok"] = ok ? 1.0 : 0.0;
    if (!tally.firstError.empty())
        pgb::core::warn("perfbench: ", tally.firstError);
}

/** The per-layer numbers of the mapping workloads. */
void
addMappingLayers(Report &report, const WorkloadSpec &spec,
                 const MappingContext &context,
                 const MapperConfig &config,
                 const std::vector<Sequence> &reads,
                 double full_set_wall)
{
    const size_t pool_n = std::min(spec.poolReads, reads.size());
    const size_t layer_n = std::min(spec.layerReads, pool_n);
    const std::span<const Sequence> all(reads);

    const std::vector<double> alone =
        timeEachAlone(context, config, all.first(pool_n));
    const double serial = std::accumulate(alone.begin(), alone.end(), 0.0);
    const double slowest =
        alone.empty() ? 0.0 : *std::max_element(alone.begin(), alone.end());
    // The pool set's wall at full width: the median timed pass when the
    // pool set is every read, otherwise one extra batch.
    const double wall = pool_n == reads.size() && full_set_wall > 0.0
        ? full_set_wall
        : timeBatch(context, config, all.first(pool_n));
    const double threads = config.threads;
    report["pool.serial_s"] = serial;
    report["pool.tail_frac"] =
        serial > 0.0 ? slowest / (serial / threads) : 0.0;
    report["pool.parallel_eff"] =
        wall > 0.0 ? serial / (threads * wall) : 0.0;

    const LayerSample sample =
        sampleLayers(context, config, all.first(layer_n));
    const double n = std::max<double>(1.0, sample.reads);
    const double tasks = std::max<double>(1.0, sample.tasks);
    report["seed.ns_per_read"] = sample.seedSeconds * 1e9 / n;
    report["seed.anchors_per_read"] = sample.anchors / n;
    report["plan.ns_per_read"] = sample.planSeconds() * 1e9 / n;
    report["plan.tasks_per_read"] = sample.tasks / n;
    report["graph.subgraph_bases_per_task"] =
        sample.subgraphBases / tasks;
    report["align.gssw_ns_per_task"] = sample.gsswSeconds * 1e9 / tasks;
    report["align.gssw_gcups"] = sample.gsswSeconds > 0.0
        ? sample.cells / sample.gsswSeconds / 1e9 : 0.0;
    report["align.gssw_matrix_mb_per_task"] =
        sample.matrixBytes / tasks / (1024.0 * 1024.0);
}

/**
 * wfmash and transclosure timed on their own over @p chromosomes; the
 * rest of @p build_s, the wall of buildPggb over the same chromosomes,
 * is polishing and layout.
 */
void
addBuildLayers(Report &report,
               const std::vector<std::vector<Sequence>> &chromosomes,
               const pgb::pipeline::PggbParams &params, double build_s,
               uint64_t poa_cells)
{
    double align_s = 0.0, tc_s = 0.0;
    uint64_t matches = 0, classes = 0;
    for (const auto &chromosome : chromosomes) {
        const pgb::build::SequenceCatalog catalog(chromosome);
        auto wfmash = params.wfmash;
        wfmash.threads = params.threads;
        WallTimer align_timer;
        const auto aligned = pgb::pipeline::allToAllAlign(catalog, wfmash);
        align_s += align_timer.seconds();
        pgb::build::TcOptions tc_options;
        tc_options.threads = params.threads;
        WallTimer tc_timer;
        const auto tc =
            pgb::build::transclose(catalog, aligned.matches, tc_options);
        tc_s += tc_timer.seconds();
        matches += aligned.matches.size();
        classes += tc.closureClasses;
    }
    report["wfmash.align_s"] = align_s;
    report["wfmash.matches"] = static_cast<double>(matches);
    report["build.tc_s"] = tc_s;
    report["build.closure_classes"] = static_cast<double>(classes);
    report["build.polish_layout_s"] = std::max(0.0, build_s - align_s - tc_s);
    report["build.poa_cells"] = static_cast<double>(poa_cells);
}

/** Parse-only pass over a FASTQ file: ns per record. */
double
fastqNsPerRead(const std::string &path)
{
    pgb::seq::FastqStreamReader reader(path);
    std::vector<Sequence> batch;
    uint64_t records = 0;
    WallTimer timer;
    while (reader.nextBatch(batch, kFastqBatch))
        records += batch.size();
    return records > 0 ? timer.seconds() * 1e9 / records : 0.0;
}

} // namespace

WorkloadSpec
findWorkload(const std::string &name, bool smoke)
{
    WorkloadSpec spec;
    if (name == "long-vgmap") {
        spec.baseLength = smoke ? 20000 : 100000;
        spec.haplotypes = smoke ? 4 : 14;
        spec.longReads = true;
        spec.readLength = smoke ? 4000 : 15000;
        // `pgb simulate`'s long-read count: bases/30000*haplotypes+10.
        spec.reads = smoke ? 6 : 52;
        spec.profile = ToolProfile::kVgMap;
        spec.setupReps = 9;
        spec.minCorrectFrac = 0.80;
        spec.poolReads = spec.reads;
        spec.layerReads = smoke ? 2 : 12;
        // The smoke set is the first half of the full one: lr_0..lr_3,
        // which holds the documented case (README.md). Smaller sets
        // tried showed no order-dependent read.
        spec.probeReads = smoke ? 4 : 8;
    } else if (name == "short-giraffe") {
        spec.baseLength = smoke ? 50000 : 2000000;
        spec.haplotypes = smoke ? 4 : 14;
        spec.reads = smoke ? 2000 : 330000;
        spec.profile = ToolProfile::kVgGiraffe;
        spec.minCorrectFrac = 0.98;
        // Two thirds of the highest rate served without shedding.
        spec.rate = smoke ? 500.0 : 8000.0;
        spec.poolReads = smoke ? 200 : 4000;
        spec.layerReads = smoke ? 200 : 4000;
    } else if (name == "build-pggb") {
        spec.kind = WorkloadKind::kBuild;
        spec.baseLength = smoke ? 4000 : 6000;
        spec.haplotypes = smoke ? 3 : 14;
        spec.chromosomes = smoke ? 2 : 10;
        spec.setupReps = 7; // before each pass
    } else {
        pgb::core::fatal("perfbench: unknown workload '", name,
                         "' (expected one of long-vgmap, short-giraffe, "
                         "build-pggb)");
    }
    spec.threads = std::min(spec.threads, loadThreads());
    return spec;
}

Report
runPrepare(const WorkloadSpec &spec, uint64_t seed)
{
    Report report;
    if (spec.kind == WorkloadKind::kBuild) {
        // Independent chromosomes, each a reference plus its
        // assemblies, as PGGB is run per chromosome.
        for (size_t c = 0; c < spec.chromosomes; ++c) {
            const auto pangenome = simulate(spec, chromosomeSeed(seed, c));
            std::vector<Sequence> assemblies{pangenome.reference};
            assemblies.insert(assemblies.end(),
                              pangenome.haplotypes.begin(),
                              pangenome.haplotypes.end());
            pgb::seq::writeFastaFile(assembliesFile(c), assemblies);
        }
        return report; // set-up is timed by the build phase
    }
    const auto pangenome = simulate(spec, seed);

    std::vector<Sequence> reads;
    std::vector<ReadTruth> truths;
    simulateReads(spec, seed, pangenome.haplotypes,
                  pangenome.haplotypePaths, spec.reads, reads, truths);
    pgb::seq::writeFastqFile(kReads, reads);
    writeTruth(kTruth, truths);
    report["reads"] = static_cast<double>(reads.size());

    std::vector<double> setup, index, open;
    for (size_t rep = 0; rep < spec.setupReps; ++rep) {
        const SetupTimes times =
            setUp(pangenome.graph, loadThreads(), kArtifact);
        setup.push_back(times.indexSeconds + times.openSeconds);
        index.push_back(times.indexSeconds);
        open.push_back(times.openSeconds);
    }
    report["setup_s"] = median(setup);
    report["index.build_s"] = median(index);
    report["store.open_ms"] = median(open) * 1e3;
    return report;
}

Report
runMap(const WorkloadSpec &spec, double seconds, bool trace)
{
    Report report;
    const auto context =
        MappingContext::Builder().fromArtifact(kArtifact).build();
    const MapperConfig config = mapperConfig(spec, *context);

    // The timed phase: `pgb map --index graph.pgbi reads.fq --dump`,
    // in whole passes over the reads. The first pass is checked and
    // warms the heap: it faults in the memory the later passes reuse
    // and ran 10-15% slower than they did on long-vgmap. As many
    // passes as fit `seconds` at its speed (at least one) follow it;
    // build_s is the median of those.
    std::vector<Sequence> batch;
    std::vector<ReadMapping> mappings;
    uint64_t reads = 0; // per pass
    std::vector<double> pass_s;
    size_t passes = 1;
    for (size_t pass = 0; pass < passes; ++pass) {
        WallTimer timer;
        reads = 0;
        pgb::seq::FastqStreamReader reader(kReads);
        pgb::core::CheckedWriter out(pass == 0 ? kMapOut : kMapExtra);
        while (reader.nextBatch(batch, kFastqBatch)) {
            pgb::pipeline::mapBatch(*context, config, batch, mappings);
            out.stream() << pgb::serve::formatMappings(batch, mappings);
            reads += batch.size();
        }
        out.finish();
        pass_s.push_back(timer.seconds());
        if (pass == 0) {
            passes = 1 + std::max<size_t>(
                1, static_cast<size_t>(std::lround(seconds / pass_s[0])));
        }
    }
    const double build_s =
        median(std::vector<double>(pass_s.begin() + 1, pass_s.end()));
    report["threads"] = spec.threads;
    report["peak_rss_mb"] = peakRssMb();
    report["build_s"] = build_s;
    report["reads_per_s"] = static_cast<double>(reads) / build_s;

    const auto truths = readTruth(kTruth);
    const TruthChecker checker(context->graph(),
                               allPaths(context->graph()));
    const MappingTally tally = checkRows(slurp(kMapOut), truths, checker);
    addTally(report, tally, spec.minCorrectFrac);

    if (trace) {
        WallTimer layers_timer;
        report["seq.fastq_ns_per_read"] = fastqNsPerRead(kReads);
        std::vector<Sequence> head;
        pgb::seq::FastqStreamReader reader(kReads);
        reader.nextBatch(head, std::max(spec.poolReads, size_t{1}));
        addMappingLayers(report, spec, *context, config, head,
                         head.size() == truths.size() ? build_s : 0.0);
        if (spec.probeReads > 0) {
            const ProbeSet probe = fixedProbeSet(spec);
            report["map.order_dependent_reads"] =
                static_cast<double>(orderDependentReads(
                    *probe.context, probe.config, probe.reads));
        }
        report["trace.layers_s"] = layers_timer.seconds();
    }
    return report;
}

ProbeSet
fixedProbeSet(const WorkloadSpec &spec)
{
    constexpr uint64_t kSimulateSeed = 42; // `pgb simulate`'s default
    constexpr size_t kHaplotypes = 14;
    constexpr size_t kBaseLength = 100000;
    constexpr size_t kReadLength = 15000;
    auto config =
        pgb::synth::mGraphLikeConfig(kBaseLength, kSimulateSeed);
    config.haplotypeCount = kHaplotypes;
    const auto pangenome = pgb::synth::simulatePangenome(config);
    ProbeSet probe;
    probe.graph =
        std::make_shared<const pgb::graph::PanGraph>(pangenome.graph);
    probe.context =
        MappingContext::Builder().fromGraph(*probe.graph).build();
    probe.config = MapperConfig::forTool(spec.profile);
    // `pgb simulate`'s long-read stream, which no other stream touches.
    auto profile = pgb::seq::ReadProfile::longRead();
    profile.readLength = kReadLength;
    pgb::seq::ReadSimulator simulator(profile, kSimulateSeed ^ 0x52);
    for (size_t r = 0; r < spec.probeReads; ++r) {
        probe.reads.push_back(
            simulator.sample(pangenome.haplotypes[r % kHaplotypes]).read);
    }
    return probe;
}

namespace {

/** One Unix-socket connection of the load generator. */
class Connection
{
  public:
    explicit Connection(const std::string &path)
    {
        sockaddr_un address{};
        address.sun_family = AF_UNIX;
        if (path.size() >= sizeof(address.sun_path))
            pgb::core::fatal("perfbench: socket path too long: ", path);
        fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
        if (fd_ < 0)
            pgb::core::fatal("perfbench: socket: ", std::strerror(errno));
        std::memcpy(address.sun_path, path.c_str(), path.size() + 1);
        if (::connect(fd_, reinterpret_cast<sockaddr *>(&address),
                      sizeof(address)) != 0) {
            const int error = errno;
            ::close(fd_);
            pgb::core::fatal("perfbench: connect ", path, ": ",
                             std::strerror(error));
        }
    }
    ~Connection() { ::close(fd_); }
    Connection(const Connection &) = delete;
    Connection &operator=(const Connection &) = delete;

    /** Write all of @p frame; false once the peer is gone. */
    bool
    send(const std::string &frame)
    {
        size_t sent = 0;
        while (sent < frame.size()) {
            const ssize_t n = ::send(fd_, frame.data() + sent,
                                     frame.size() - sent, MSG_NOSIGNAL);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                return false;
            sent += static_cast<size_t>(n);
        }
        return true;
    }

    /** Read what is there: bytes read, 0 if none, -1 once closed. */
    ssize_t
    receive(char *buffer, size_t size)
    {
        const ssize_t n = ::recv(fd_, buffer, size, MSG_DONTWAIT);
        if (n < 0 && (errno == EINTR || errno == EAGAIN))
            return 0;
        return n <= 0 ? -1 : n;
    }

    int fd() const { return fd_; }

  private:
    int fd_ = -1;
};

/** Per request: when it was due, sent and answered, and the answer. */
struct Outcome
{
    uint64_t dueNs = 0;
    uint64_t sentNs = 0;
    uint64_t answeredNs = 0; ///< 0 = no answer
    pgb::serve::Status status = pgb::serve::Status::kOk;
    std::string body;
};

/** The number after `"key":` in a STATUS body, or 0 when absent. */
double
statusValue(const std::string &body, const std::string &key)
{
    const std::string quoted = "\"" + key + "\"";
    const size_t at = body.find(quoted);
    if (at == std::string::npos)
        return 0.0;
    const size_t colon = body.find(':', at + quoted.size());
    if (colon == std::string::npos)
        return 0.0;
    return std::strtod(body.c_str() + colon + 1, nullptr);
}

} // namespace

Report
runLoadgen(const WorkloadSpec &spec, const std::string &socket,
           uint64_t seed, double seconds)
{
    Report report;
    const auto reads = pgb::seq::readFastqFile(kReads);
    const auto truths = readTruth(kTruth);

    // Open-loop Poisson schedule over `seconds`, one read per request.
    pgb::core::Rng rng(seed ^ 0xa551e7ull);
    std::vector<uint64_t> due;
    for (double t = 0.0;;) {
        t += -std::log(1.0 - rng.uniform()) / spec.rate;
        if (t >= seconds)
            break;
        due.push_back(static_cast<uint64_t>(t * 1e9));
    }
    if (reads.empty() || reads.size() != truths.size())
        pgb::core::fatal("perfbench: ", kReads, " and ", kTruth,
                         " disagree");
    // Request i carries read i, cycling when the schedule is longer.
    std::vector<std::string> frames(due.size());
    for (size_t i = 0; i < due.size(); ++i) {
        std::ostringstream fastq;
        pgb::seq::writeFastq(fastq, {reads[i % reads.size()]});
        pgb::serve::Request request;
        request.id = i;
        request.fastq = fastq.str();
        frames[i] = pgb::serve::encodeRequest(request);
    }

    std::vector<Outcome> outcomes(due.size());
    std::vector<std::unique_ptr<Connection>> connections;
    std::vector<pollfd> polled;
    std::vector<pgb::serve::FrameDecoder> decoders(kConnections);
    for (unsigned c = 0; c < kConnections; ++c) {
        connections.push_back(std::make_unique<Connection>(socket));
        polled.push_back({connections.back()->fd(), POLLIN, 0});
    }

    // One thread sends each request when it is due (round robin over
    // the connections) and reads answers in between, so the generator
    // adds as few runnable threads to the machine as it can.
    const uint64_t start = pgb::core::monotonicNanos() + 20'000'000;
    // Stop waiting for answers 10 s after the last arrival was due.
    const uint64_t give_up =
        start + static_cast<uint64_t>(seconds * 1e9) + 10'000'000'000ull;
    size_t next = 0, answered = 0;
    std::string payload, error;
    char buffer[1 << 16];
    bool broken = false;
    while (!broken && answered < outcomes.size()) {
        uint64_t now = pgb::core::monotonicNanos();
        if (now >= give_up)
            break;
        while (!broken && next < due.size() && start + due[next] <= now) {
            outcomes[next].dueNs = start + due[next];
            outcomes[next].sentNs = now;
            broken = !connections[next % connections.size()]->send(
                frames[next]);
            ++next;
            now = pgb::core::monotonicNanos();
        }
        const uint64_t wake =
            next < due.size() ? start + due[next] : give_up;
        const uint64_t wait = wake > now ? wake - now : 0;
        const timespec timeout{static_cast<time_t>(wait / 1'000'000'000),
                               static_cast<long>(wait % 1'000'000'000)};
        if (::ppoll(polled.data(), polled.size(), &timeout, nullptr) <= 0)
            continue;
        for (size_t c = 0; c < polled.size(); ++c) {
            if (polled[c].revents == 0)
                continue;
            const ssize_t n = connections[c]->receive(buffer,
                                                      sizeof(buffer));
            if (n <= 0) {
                broken = broken || n < 0;
                continue;
            }
            const uint64_t received = pgb::core::monotonicNanos();
            decoders[c].feed(buffer, static_cast<size_t>(n));
            while (decoders[c].next(payload)) {
                pgb::serve::Response response;
                if (!pgb::serve::decodeResponse(payload, response,
                                                error) ||
                    response.id >= next ||
                    outcomes[response.id].answeredNs != 0) {
                    broken = true;
                    break;
                }
                Outcome &outcome = outcomes[response.id];
                outcome.answeredNs = received;
                outcome.status = response.status;
                outcome.body = std::move(response.body);
                ++answered;
            }
            broken = broken || decoders[c].error();
        }
    }
    if (broken)
        pgb::core::warn("perfbench: the daemon broke a connection");
    const double elapsed =
        (pgb::core::monotonicNanos() - start) / 1e9;

    // Latency from the scheduled send; failures miss every limit.
    const auto context =
        MappingContext::Builder().fromArtifact(kArtifact).build();
    const TruthChecker checker(context->graph(),
                               allPaths(context->graph()));
    std::vector<double> latency_ms, lag_ms;
    std::string ok_rows;
    std::vector<ReadTruth> ok_truths;
    uint64_t within = 0, shed = 0, errors = 0, expired = 0, silent = 0;
    for (size_t i = 0; i < outcomes.size(); ++i) {
        const Outcome &outcome = outcomes[i];
        if (outcome.sentNs != 0)
            lag_ms.push_back((outcome.sentNs - outcome.dueNs) / 1e6);
        if (outcome.answeredNs == 0) {
            ++silent;
            continue;
        }
        switch (outcome.status) {
          case pgb::serve::Status::kOk:
            break;
          case pgb::serve::Status::kOverloaded:
            ++shed;
            continue;
          case pgb::serve::Status::kDeadlineExceeded:
            ++expired;
            continue;
          default:
            ++errors;
            continue;
        }
        const double ms = (outcome.answeredNs - outcome.dueNs) / 1e6;
        latency_ms.push_back(ms);
        within += ms <= kLatencyLimitMs ? 1 : 0;
        ok_rows += outcome.body;
        ok_truths.push_back(truths[i % truths.size()]);
    }
    MappingTally tally = checkRows(ok_rows, ok_truths, checker);
    // Requests that got no OK answer are failed operations.
    tally.attempted = outcomes.size();
    addTally(report, tally, spec.minCorrectFrac);
    const double sent = static_cast<double>(outcomes.size());
    report["serve.reads_per_s"] = static_cast<double>(tally.rows) / elapsed;
    report["serve.p50_ms"] = median(latency_ms);
    report["serve.p99_ms"] = quantile(latency_ms, 0.99);
    report["serve.slo_frac"] = within / sent;
    report["requests_shed"] = static_cast<double>(shed);
    report["requests_error"] = static_cast<double>(errors);
    report["requests_expired"] = static_cast<double>(expired);
    report["requests_unanswered"] = static_cast<double>(silent);
    report["serve.gen_lag_ms"] = quantile(lag_ms, 0.99);

    const auto status =
        pgb::serve::runControl(socket, pgb::serve::MsgType::kStatus);
    const double batches = statusValue(status.body, "serve.batches");
    const double requests = statusValue(status.body, "serve.requests");
    report["serve.batch_reads_mean"] = batches > 0.0
        ? statusValue(status.body, "serve.batched_reads") / batches
        : 0.0;
    report["serve.server_p50_ms"] =
        statusValue(status.body, "serve.request_nanos.p50") / 1e6;
    report["serve.server_p99_ms"] =
        statusValue(status.body, "serve.request_nanos.p99") / 1e6;
    report["serve.shed_frac"] = requests > 0.0
        ? statusValue(status.body, "serve.shed") / requests : 0.0;
    return report;
}

Report
runBuild(const WorkloadSpec &spec, double seconds, bool trace)
{
    Report report;
    // Set-up: what `pgb build` does before it calls buildPggb, a few
    // times before every pass so that the repeats span the run.
    std::vector<std::vector<Sequence>> chromosomes(spec.chromosomes);
    std::vector<double> setup;
    const auto set_up = [&] {
        for (size_t rep = 0; rep < spec.setupReps; ++rep) {
            WallTimer timer;
            for (size_t c = 0; c < chromosomes.size(); ++c) {
                chromosomes[c] =
                    pgb::seq::readFastaFile(assembliesFile(c));
            }
            setup.push_back(timer.seconds());
        }
    };

    // The timed phase: whole passes over the chromosomes, at least
    // kMinBuildPasses and as many as fit `seconds` at the first pass's
    // speed. A pass's time is its buildPggb calls; build_s is the
    // median pass. Every build is checked.
    pgb::pipeline::PggbParams params;
    params.threads = spec.threads;
    uint64_t spelled = 0, checked = 0, embedded = 0, assemblies = 0;
    uint64_t poa_cells = 0; // first pass
    std::string first_error;
    std::vector<double> pass_s;
    size_t passes = kMinBuildPasses;
    // Warm-up: one untimed build, so that no timed pass runs on a cold
    // heap.
    set_up();
    pgb::pipeline::buildPggb(chromosomes[0], params);
    for (size_t pass = 0; pass < passes; ++pass) {
        set_up();
        double built_s = 0.0;
        for (size_t c = 0; c < chromosomes.size(); ++c) {
            WallTimer timer;
            const auto built =
                pgb::pipeline::buildPggb(chromosomes[c], params);
            built_s += timer.seconds();
            const SpellTally tally =
                checkPathsSpell(built.graph, chromosomes[c]);
            spelled += tally.spelled;
            checked += tally.checked;
            embedded += std::min(built.graph.pathCount(),
                                 chromosomes[c].size());
            assemblies += chromosomes[c].size();
            if (first_error.empty())
                first_error = tally.firstError;
            if (pass == 0)
                poa_cells += built.poaCells;
        }
        pass_s.push_back(built_s);
        if (pass == 0) {
            passes = std::max(kMinBuildPasses,
                              static_cast<size_t>(
                                  std::lround(seconds / built_s)));
        }
    }
    const double build_s = median(pass_s);
    report["setup_s"] = median(setup);
    report["threads"] = spec.threads;
    report["build_s"] = build_s;
    report["reads_per_s"] =
        static_cast<double>(assemblies / passes) / build_s;
    report["attempted"] = static_cast<double>(checked);
    report["failed"] = static_cast<double>(checked - spelled);
    report["mapped_frac"] = static_cast<double>(embedded) / assemblies;
    report["correct_frac"] = static_cast<double>(spelled) / checked;
    report["outputs_ok"] = spelled == checked ? 1.0 : 0.0;
    if (!first_error.empty())
        pgb::core::warn("perfbench: ", first_error);

    if (trace) {
        WallTimer layers_timer;
        addBuildLayers(report, chromosomes, params, build_s, poa_cells);
        report["trace.layers_s"] = layers_timer.seconds();
    }
    return report;
}

} // namespace perfbench
