/**
 * @file
 * POA: partial order alignment (abPOA stand-in).
 *
 * Used by the graph-building pipelines: smoothxg's polishing stage is
 * dominated by POA (paper §2.2, ~80% of smoothing time) and Cactus's
 * graph induction is constrained by abPOA. This implementation aligns
 * sequences to a growing base-level DAG (semi-global, linear gaps,
 * optional band) and threads each sequence into the graph, then
 * extracts a weighted consensus path.
 *
 * POA appears in the paper only through pipeline stage timings
 * (Figure 3), not in the kernel characterization, so it is not
 * probe-instrumented.
 */

#ifndef PGB_ALIGN_POA_HPP
#define PGB_ALIGN_POA_HPP

#include <cstdint>
#include <span>
#include <vector>

namespace pgb::align {

/** POA scoring (linear gaps). */
struct PoaParams
{
    int32_t match = 2;
    int32_t mismatch = 4; ///< penalty (subtracted)
    int32_t gap = 4;      ///< penalty per gap base (subtracted)
    /**
     * Band half-width around the best-scoring row per topological
     * rank; 0 disables banding (exact DP). Mirrors abPOA's adaptive
     * banding performance lever.
     */
    int32_t band = 0;
};

/** Base-level partial order graph accumulating aligned sequences. */
class PoaGraph
{
  public:
    explicit PoaGraph(PoaParams params = {}) : params_(params) {}

    /** Number of base nodes. */
    size_t nodeCount() const { return bases_.size(); }

    /** Number of sequences threaded into the graph. */
    size_t sequenceCount() const { return sequenceCount_; }

    /**
     * Align @p bases to the graph and thread it in (first call just
     * seeds the backbone). The DP stores only each node's band, in
     * per-thread buffers reused across calls: O(nodes x band) memory,
     * O(nodes x (m+1)) with band 0.
     * @return the alignment score (0 for the seeding call).
     */
    int32_t addSequence(std::span<const uint8_t> bases);

    /** Heaviest-path consensus sequence. */
    std::vector<uint8_t> consensus() const;

    /** Total DP cells computed across all addSequence calls. */
    uint64_t cellsComputed() const { return cellsComputed_; }

  private:
    struct Edge
    {
        uint32_t to;
        uint32_t weight;
    };

    uint32_t addNode(uint8_t base);
    void addEdgeWeighted(uint32_t from, uint32_t to);
    /** Fill @p order with a topological order (@p indegree is
     *  scratch). */
    void topoOrder(std::vector<uint32_t> &order,
                   std::vector<uint32_t> &indegree) const;

    PoaParams params_;
    std::vector<uint8_t> bases_;
    std::vector<uint32_t> weights_;           ///< per-node support count
    std::vector<std::vector<Edge>> out_;      ///< weighted adjacency
    std::vector<std::vector<uint32_t>> in_;   ///< predecessor lists
    size_t sequenceCount_ = 0;
    uint64_t cellsComputed_ = 0;
};

} // namespace pgb::align

#endif // PGB_ALIGN_POA_HPP
