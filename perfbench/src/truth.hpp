/**
 * @file
 * Output checks of the benchmark: mapping truth, row structure, and
 * lossless graph construction.
 *
 * Every simulated read keeps its origin (donor haplotype, offset,
 * span, strand). A mapping is correct when it is reported mapped, on
 * the simulated strand, at a node that lies on the donor haplotype's
 * path within the origin interval widened by a small slack. A node can
 * occur more than once on a path; any occurrence inside the window
 * counts.
 */

#ifndef PERFBENCH_TRUTH_HPP
#define PERFBENCH_TRUTH_HPP

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "graph/pangraph.hpp"
#include "pipeline/mapper.hpp"
#include "seq/sequence.hpp"

namespace perfbench {

/** Where a simulated read came from. */
struct ReadTruth
{
    std::string name;
    uint32_t donor = 0;  ///< index into the donor path list
    uint64_t start = 0;  ///< origin offset on the donor path
    uint64_t span = 0;   ///< donor bases the read consumed
    bool reverse = false;
};

enum class Verdict
{
    kCorrect,
    kUnmapped,
    kWrongStrand,
    kWrongLocus,
};

/** Judges mappings against simulated origins on donor paths. */
class TruthChecker
{
  public:
    /** Bases the origin window is widened by on each side. */
    static constexpr uint64_t kDefaultSlack = 64;

    TruthChecker(const pgb::graph::PanGraph &graph,
                 const std::vector<pgb::graph::PathId> &donor_paths,
                 uint64_t slack = kDefaultSlack);

    Verdict judge(const ReadTruth &truth,
                  const pgb::pipeline::ReadMapping &mapping) const;

  private:
    struct Occurrence
    {
        uint64_t start = 0, end = 0; ///< path offsets of the node
    };
    /** Per donor path: node id -> every place the path visits it. */
    std::vector<std::unordered_map<uint32_t, std::vector<Occurrence>>>
        occurrences_;
    uint64_t slack_;
};

/** Tally of one checked output. */
struct MappingTally
{
    uint64_t attempted = 0;  ///< reads that should have a row
    uint64_t rows = 0;       ///< rows present and matched to a read
    uint64_t mapped = 0;
    uint64_t correct = 0;
    uint64_t wrongStrand = 0;
    uint64_t wrongLocus = 0;
    uint64_t structureErrors = 0; ///< missing, extra, misnamed rows
    std::string firstError;

    uint64_t failed() const { return attempted - rows; }
};

/**
 * Parse one `name\tmapped\tnode\tscore\treverse` row (the `pgb map
 * --dump` schema, without the newline). @return false when malformed.
 */
bool parseRow(std::string_view line, std::string &name,
              pgb::pipeline::ReadMapping &mapping);

/**
 * Check TSV @p text that must hold exactly one row per read of
 * @p truths, in that order, each with its read's name; judge each
 * row. Structure violations are counted, never thrown.
 */
MappingTally checkRows(std::string_view text,
                       const std::vector<ReadTruth> &truths,
                       const TruthChecker &checker);

/** Outcome of the lossless-construction check. */
struct SpellTally
{
    uint64_t checked = 0; ///< assemblies looked for
    uint64_t spelled = 0; ///< assemblies their path spells exactly
    std::string firstError;
};

/**
 * Check that path i of @p graph is named after @p assemblies[i],
 * walks only existing edges, and spells its sequence exactly.
 */
SpellTally checkPathsSpell(const pgb::graph::PanGraph &graph,
                           const std::vector<pgb::seq::Sequence>
                               &assemblies);

/** Read/write the `name\tdonor\tstart\tspan\treverse` truth file. */
void writeTruth(const std::string &path,
                const std::vector<ReadTruth> &truths);
std::vector<ReadTruth> readTruth(const std::string &path);

} // namespace perfbench

#endif // PERFBENCH_TRUTH_HPP
