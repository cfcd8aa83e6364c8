/**
 * @file
 * Tests for the POA (partial order alignment) substrate used by the
 * graph-building pipelines' induction/polishing stages.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <span>
#include <string>
#include <vector>

#include "align/poa.hpp"
#include "core/logging.hpp"
#include "core/rng.hpp"
#include "seq/sequence.hpp"

namespace pgb::align {
namespace {

using core::Rng;

std::vector<uint8_t>
mutate(Rng &rng, const std::vector<uint8_t> &donor, double rate)
{
    std::vector<uint8_t> out;
    for (uint8_t base : donor) {
        if (rng.chance(rate / 3))
            continue;
        if (rng.chance(rate / 3))
            out.push_back(static_cast<uint8_t>(rng.below(4)));
        if (rng.chance(rate)) {
            out.push_back(
                static_cast<uint8_t>((base + 1 + rng.below(3)) % 4));
        } else {
            out.push_back(base);
        }
    }
    if (out.empty())
        out.push_back(0);
    return out;
}

/**
 * The full-matrix POA that banded storage replaced, kept as an oracle:
 * an n x (m+1) score and backpointer matrix per call, band centred by
 * scanning every predecessor row. The banded PoaGraph must reproduce
 * its scores, graphs, cell counts and consensus exactly.
 */
class FullMatrixPoa
{
  public:
    explicit FullMatrixPoa(PoaParams params) : params_(params) {}

    size_t nodeCount() const { return bases_.size(); }
    uint64_t cellsComputed() const { return cellsComputed_; }

    int32_t
    addSequence(std::span<const uint8_t> bases)
    {
        if (bases_.empty()) {
            uint32_t prev = addNode(bases[0]);
            for (size_t i = 1; i < bases.size(); ++i) {
                const uint32_t node = addNode(bases[i]);
                addEdgeWeighted(prev, node);
                prev = node;
            }
            return 0;
        }

        const auto m = static_cast<int32_t>(bases.size());
        const auto order = topoOrder();
        const auto n = static_cast<uint32_t>(bases_.size());
        constexpr int32_t kNegInf = INT_MIN / 2;
        enum Move : uint8_t { kNone, kDiag, kDelete, kInsert };
        struct Back
        {
            Move move = kNone;
            uint32_t parent = UINT32_MAX;
        };
        std::vector<std::vector<int32_t>> score(
            n, std::vector<int32_t>(m + 1, kNegInf));
        std::vector<std::vector<Back>> back(n, std::vector<Back>(m + 1));
        const int32_t band = params_.band;

        for (uint32_t u : order) {
            auto &row = score[u];
            auto &brow = back[u];
            const uint8_t base = bases_[u];
            int32_t lo = 0, hi = m;
            if (band > 0) {
                int32_t center = 0;
                int32_t center_best = kNegInf;
                for (uint32_t p : in_[u]) {
                    for (int32_t i = 0; i <= m; ++i) {
                        if (score[p][i] > center_best) {
                            center_best = score[p][i];
                            center = i;
                        }
                    }
                }
                lo = std::max(0, center - band);
                hi = std::min(m, center + band + 1);
            }
            for (int32_t i = lo; i <= hi; ++i) {
                ++cellsComputed_;
                int32_t best = kNegInf;
                Back bp;
                if (i >= 1) {
                    const int32_t sub = bases[i - 1] == base
                        ? params_.match : -params_.mismatch;
                    if (i == 1 && sub > best) {
                        best = sub;
                        bp = {kDiag, UINT32_MAX};
                    }
                    for (uint32_t p : in_[u]) {
                        if (score[p][i - 1] != kNegInf &&
                            score[p][i - 1] + sub > best) {
                            best = score[p][i - 1] + sub;
                            bp = {kDiag, p};
                        }
                    }
                }
                for (uint32_t p : in_[u]) {
                    if (score[p][i] != kNegInf &&
                        score[p][i] - params_.gap > best) {
                        best = score[p][i] - params_.gap;
                        bp = {kDelete, p};
                    }
                }
                if (i >= 1 && row[i - 1] != kNegInf &&
                    row[i - 1] - params_.gap > best) {
                    best = row[i - 1] - params_.gap;
                    bp = {kInsert, UINT32_MAX};
                }
                if (best > row[i]) {
                    row[i] = best;
                    brow[i] = bp;
                }
            }
        }

        int32_t best_score = kNegInf;
        uint32_t best_node = UINT32_MAX;
        for (uint32_t u = 0; u < n; ++u) {
            if (score[u][m] > best_score) {
                best_score = score[u][m];
                best_node = u;
            }
        }
        if (best_node == UINT32_MAX) {
            uint32_t prev = addNode(bases[0]);
            for (int32_t i = 1; i < m; ++i) {
                const uint32_t node =
                    addNode(bases[static_cast<size_t>(i)]);
                addEdgeWeighted(prev, node);
                prev = node;
            }
            return 0;
        }

        std::vector<uint32_t> threaded(bases.size(), UINT32_MAX);
        uint32_t u = best_node;
        int32_t i = m;
        while (i > 0 && u != UINT32_MAX) {
            const Back bp = back[u][static_cast<size_t>(i)];
            if (bp.move == kDiag) {
                if (bases[static_cast<size_t>(i - 1)] == bases_[u]) {
                    threaded[static_cast<size_t>(i - 1)] = u;
                    ++weights_[u];
                }
                u = bp.parent;
                --i;
            } else if (bp.move == kDelete) {
                u = bp.parent;
            } else if (bp.move == kInsert) {
                --i;
            } else {
                break;
            }
        }
        uint32_t prev = UINT32_MAX;
        for (size_t k = 0; k < bases.size(); ++k) {
            uint32_t node = threaded[k];
            if (node == UINT32_MAX)
                node = addNode(bases[k]);
            if (prev != UINT32_MAX && prev != node)
                addEdgeWeighted(prev, node);
            prev = node;
        }
        return best_score;
    }

    std::vector<uint8_t>
    consensus() const
    {
        const auto order = topoOrder();
        const auto n = static_cast<uint32_t>(bases_.size());
        constexpr int64_t kNegInf = INT64_MIN / 2;
        std::vector<int64_t> best(n, kNegInf);
        std::vector<uint32_t> from(n, UINT32_MAX);
        int64_t global_best = kNegInf;
        uint32_t global_node = 0;
        for (uint32_t u : order) {
            if (best[u] == kNegInf)
                best[u] = weights_[u];
            for (const Edge &edge : out_[u]) {
                const int64_t cand =
                    best[u] + edge.weight + weights_[edge.to];
                if (cand > best[edge.to]) {
                    best[edge.to] = cand;
                    from[edge.to] = u;
                }
            }
            if (best[u] > global_best) {
                global_best = best[u];
                global_node = u;
            }
        }
        std::vector<uint8_t> out;
        for (uint32_t u = global_node; u != UINT32_MAX; u = from[u])
            out.push_back(bases_[u]);
        std::reverse(out.begin(), out.end());
        return out;
    }

  private:
    struct Edge
    {
        uint32_t to;
        uint32_t weight;
    };

    uint32_t
    addNode(uint8_t base)
    {
        bases_.push_back(base);
        weights_.push_back(1);
        out_.emplace_back();
        in_.emplace_back();
        return static_cast<uint32_t>(bases_.size() - 1);
    }

    void
    addEdgeWeighted(uint32_t from, uint32_t to)
    {
        for (Edge &edge : out_[from]) {
            if (edge.to == to) {
                ++edge.weight;
                return;
            }
        }
        out_[from].push_back({to, 1});
        in_[to].push_back(from);
    }

    std::vector<uint32_t>
    topoOrder() const
    {
        const auto n = static_cast<uint32_t>(bases_.size());
        std::vector<uint32_t> indegree(n, 0);
        for (uint32_t u = 0; u < n; ++u) {
            for (const Edge &edge : out_[u])
                ++indegree[edge.to];
        }
        std::vector<uint32_t> order;
        std::vector<uint32_t> frontier;
        for (uint32_t u = 0; u < n; ++u) {
            if (indegree[u] == 0)
                frontier.push_back(u);
        }
        size_t head = 0;
        while (head < frontier.size()) {
            const uint32_t u = frontier[head++];
            order.push_back(u);
            for (const Edge &edge : out_[u]) {
                if (--indegree[edge.to] == 0)
                    frontier.push_back(edge.to);
            }
        }
        return order;
    }

    PoaParams params_;
    std::vector<uint8_t> bases_;
    std::vector<uint32_t> weights_;
    std::vector<std::vector<Edge>> out_;
    std::vector<std::vector<uint32_t>> in_;
    uint64_t cellsComputed_ = 0;
};

/** Feed @p window to both implementations, comparing every call. */
void
expectMatchesOracle(const PoaParams &params,
                    const std::vector<std::vector<uint8_t>> &window,
                    const std::string &label)
{
    PoaGraph banded(params);
    FullMatrixPoa oracle(params);
    for (size_t s = 0; s < window.size(); ++s) {
        ASSERT_EQ(banded.addSequence(window[s]),
                  oracle.addSequence(window[s]))
            << label << " sequence " << s;
        ASSERT_EQ(banded.nodeCount(), oracle.nodeCount())
            << label << " sequence " << s;
        ASSERT_EQ(banded.cellsComputed(), oracle.cellsComputed())
            << label << " sequence " << s;
    }
    EXPECT_EQ(banded.consensus(), oracle.consensus()) << label;
}

TEST(Poa, SeedingCreatesBackbone)
{
    PoaGraph poa;
    const auto seq = seq::encodeString("ACGTACGT");
    EXPECT_EQ(poa.addSequence(seq), 0);
    EXPECT_EQ(poa.nodeCount(), 8u);
    EXPECT_EQ(poa.sequenceCount(), 1u);
    EXPECT_EQ(seq::decodeString(poa.consensus()), "ACGTACGT");
}

TEST(Poa, IdenticalSequencesFuseCompletely)
{
    PoaGraph poa;
    const auto seq = seq::encodeString("ACGTACGTAC");
    poa.addSequence(seq);
    const int32_t score = poa.addSequence(seq);
    // Full fusion: no new nodes, maximal score.
    EXPECT_EQ(poa.nodeCount(), 10u);
    EXPECT_EQ(score, 10 * 2); // match bonus 2 per base
    EXPECT_EQ(seq::decodeString(poa.consensus()), "ACGTACGTAC");
}

TEST(Poa, MismatchCreatesBubble)
{
    PoaGraph poa;
    poa.addSequence(seq::encodeString("ACGTA"));
    poa.addSequence(seq::encodeString("ACCTA"));
    // One branching base: 5 + 1 nodes.
    EXPECT_EQ(poa.nodeCount(), 6u);
}

TEST(Poa, ConsensusRecoversCenterFromNoisyCopies)
{
    Rng rng(90);
    std::vector<uint8_t> center;
    for (int i = 0; i < 200; ++i)
        center.push_back(static_cast<uint8_t>(rng.below(4)));
    PoaGraph poa;
    poa.addSequence(center);
    for (int copy = 0; copy < 7; ++copy)
        poa.addSequence(mutate(rng, center, 0.03));
    const auto consensus = poa.consensus();
    EXPECT_NEAR(static_cast<double>(consensus.size()),
                static_cast<double>(center.size()), 15.0);
    // Edit distance between consensus and center must be small
    // relative to the ~3% per-copy noise.
    std::vector<int32_t> row(center.size() + 1);
    for (size_t i = 0; i <= center.size(); ++i)
        row[i] = static_cast<int32_t>(i);
    for (size_t j = 1; j <= consensus.size(); ++j) {
        int32_t diag = row[0];
        row[0] = static_cast<int32_t>(j);
        for (size_t i = 1; i <= center.size(); ++i) {
            const int32_t sub =
                center[i - 1] == consensus[j - 1] ? 0 : 1;
            const int32_t value =
                std::min({diag + sub, row[i] + 1, row[i - 1] + 1});
            diag = row[i];
            row[i] = value;
        }
    }
    EXPECT_LT(row[center.size()],
              static_cast<int32_t>(center.size()) / 5);
}

TEST(Poa, CellsComputedGrowsWithSequences)
{
    PoaGraph poa;
    const auto seq = seq::encodeString("ACGTACGTACGTACGT");
    poa.addSequence(seq);
    EXPECT_EQ(poa.cellsComputed(), 0u);
    poa.addSequence(seq);
    const uint64_t after_one = poa.cellsComputed();
    EXPECT_GT(after_one, 0u);
    poa.addSequence(seq);
    EXPECT_GT(poa.cellsComputed(), after_one);
}

TEST(Poa, BandingReducesWork)
{
    Rng rng(91);
    std::vector<uint8_t> center;
    for (int i = 0; i < 300; ++i)
        center.push_back(static_cast<uint8_t>(rng.below(4)));

    PoaParams exact;
    PoaGraph full(exact);
    full.addSequence(center);
    full.addSequence(mutate(rng, center, 0.02));

    PoaParams banded;
    banded.band = 32;
    PoaGraph narrow(banded);
    narrow.addSequence(center);
    narrow.addSequence(mutate(rng, center, 0.02));

    EXPECT_LT(narrow.cellsComputed(), full.cellsComputed());
}

TEST(Poa, BandedMatchesFullMatrixOracle)
{
    // Seeded random windows: a random centre plus noisy copies with
    // substitutions and indels, at every band the pipelines use.
    Rng rng(93);
    for (int32_t band : {0, 3, 8, 64}) {
        for (int trial = 0; trial < 30; ++trial) {
            PoaParams params;
            params.band = band;
            const size_t length = 20 + rng.below(380);
            std::vector<uint8_t> center;
            for (size_t i = 0; i < length; ++i)
                center.push_back(static_cast<uint8_t>(rng.below(4)));
            const double rate = 0.02 + 0.03 * static_cast<double>(
                                               rng.below(5));
            std::vector<std::vector<uint8_t>> window{center};
            const int copies = 1 + static_cast<int>(rng.below(8));
            for (int copy = 0; copy < copies; ++copy)
                window.push_back(mutate(rng, center, rate));
            expectMatchesOracle(params, window,
                                "band " + std::to_string(band) +
                                    " trial " + std::to_string(trial));
        }
    }
}

TEST(Poa, BandedMatchesOracleWhenTheBandMisses)
{
    // A second sequence shifted far past the band leaves row m outside
    // every band, so both take the degenerate new-path branch; later
    // copies then align to a graph with two disjoint paths.
    Rng rng(94);
    for (int32_t band : {3, 8, 64}) {
        std::vector<uint8_t> center;
        for (int i = 0; i < 400; ++i)
            center.push_back(static_cast<uint8_t>(rng.below(4)));
        std::vector<uint8_t> shifted(center.begin() + 250, center.end());
        shifted.insert(shifted.end(), center.begin(), center.begin() + 250);
        std::vector<uint8_t> tail(center.begin() + 300, center.end());
        const std::vector<std::vector<uint8_t>> window{
            center, shifted, mutate(rng, center, 0.05), tail,
            mutate(rng, shifted, 0.05)};
        expectMatchesOracle({2, 4, 4, band}, window,
                            "band " + std::to_string(band));
        // The shift really misses: the graph gained a whole new path.
        PoaGraph poa({2, 4, 4, band});
        poa.addSequence(center);
        EXPECT_EQ(poa.addSequence(shifted), 0) << "band " << band;
        EXPECT_EQ(poa.nodeCount(), center.size() + shifted.size())
            << "band " << band;
    }
}

TEST(Poa, RejectsEmptySequence)
{
    PoaGraph poa;
    EXPECT_THROW(poa.addSequence(std::vector<uint8_t>{}),
                 core::FatalError);
}

TEST(Poa, GraphStaysDagUnderManyInsertions)
{
    Rng rng(92);
    std::vector<uint8_t> center;
    for (int i = 0; i < 100; ++i)
        center.push_back(static_cast<uint8_t>(rng.below(4)));
    PoaGraph poa;
    poa.addSequence(center);
    for (int copy = 0; copy < 10; ++copy)
        poa.addSequence(mutate(rng, center, 0.1));
    // consensus() topo-sorts internally and panics on cycles.
    EXPECT_NO_THROW(poa.consensus());
    EXPECT_GE(poa.nodeCount(), center.size());
}

} // namespace
} // namespace pgb::align
