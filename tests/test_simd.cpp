/**
 * @file
 * Tests for the width-templated SIMD layer and its runtime dispatch:
 * lane-exact property tests of every compiled backend against the
 * VScalar ground truth (via the simdOpsTables() function-pointer
 * view), bit-identical kernel results across PGB_SIMD levels, the
 * inter-sequence batch kernel against per-job sswAlign, GSSW's
 * recycled node states against the per-cell scalar reference on DAG
 * shapes that stress them, and the int16 saturation clamp with its
 * align.score_saturated counter.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "align/dispatch.hpp"
#include "align/gssw.hpp"
#include "align/simd.hpp"
#include "align/simd_table.hpp"
#include "align/ssw.hpp"
#include "align/ssw_batch.hpp"
#include "core/rng.hpp"
#include "graph/local_graph.hpp"
#include "obs/metrics.hpp"
#include "seq/sequence.hpp"

namespace pgb::align {
namespace {

using core::Rng;
using graph::LocalGraph;

// ------------------------------------------------- lane properties

/** Saturating int16 arithmetic, the scalar ground truth. */
int16_t
satAdd(int16_t a, int16_t b)
{
    const int32_t sum = static_cast<int32_t>(a) + b;
    return static_cast<int16_t>(
        std::min<int32_t>(INT16_MAX, std::max<int32_t>(INT16_MIN, sum)));
}

int16_t
satSub(int16_t a, int16_t b)
{
    const int32_t diff = static_cast<int32_t>(a) - b;
    return static_cast<int16_t>(
        std::min<int32_t>(INT16_MAX, std::max<int32_t>(INT16_MIN, diff)));
}

/**
 * Lane inputs stressing the saturation and comparison edges plus
 * deterministic pseudo-random fill.
 */
std::vector<int16_t>
laneInputs(uint64_t seed, size_t count)
{
    static constexpr int16_t kEdges[] = {
        INT16_MIN, INT16_MIN + 1, -30000, -1, 0, 1,
        30000,     INT16_MAX - 1, INT16_MAX,
    };
    std::vector<int16_t> values;
    values.reserve(count);
    Rng rng(seed);
    for (size_t i = 0; i < count; ++i) {
        if (rng.chance(0.3)) {
            values.push_back(
                kEdges[rng.below(sizeof(kEdges) / sizeof(kEdges[0]))]);
        } else {
            values.push_back(static_cast<int16_t>(
                static_cast<int32_t>(rng.below(65536)) - 32768));
        }
    }
    return values;
}

TEST(SimdOps, EveryBackendMatchesScalarGroundTruth)
{
    const auto tables = simdOpsTables();
    ASSERT_GE(tables.size(), 2u); // at least VScalar<8> and VScalar<16>
    constexpr int kRounds = 200;
    for (const SimdOpsTable &table : tables) {
        SCOPED_TRACE(table.name);
        const int w = table.width;
        ASSERT_TRUE(w == 8 || w == 16);
        for (int round = 0; round < kRounds; ++round) {
            const auto a = laneInputs(round * 2 + 1, w);
            const auto b = laneInputs(round * 2 + 2, w);
            std::vector<int16_t> out(w, 0);

            table.adds(a.data(), b.data(), out.data());
            for (int i = 0; i < w; ++i)
                ASSERT_EQ(out[i], satAdd(a[i], b[i])) << "lane " << i;
            table.subs(a.data(), b.data(), out.data());
            for (int i = 0; i < w; ++i)
                ASSERT_EQ(out[i], satSub(a[i], b[i])) << "lane " << i;
            table.vmax(a.data(), b.data(), out.data());
            for (int i = 0; i < w; ++i)
                ASSERT_EQ(out[i], std::max(a[i], b[i])) << "lane " << i;
            table.cmpEq(a.data(), b.data(), out.data());
            for (int i = 0; i < w; ++i)
                ASSERT_EQ(out[i], a[i] == b[i] ? -1 : 0) << "lane " << i;
            table.cmpGt(a.data(), b.data(), out.data());
            for (int i = 0; i < w; ++i)
                ASSERT_EQ(out[i], a[i] > b[i] ? -1 : 0) << "lane " << i;
            table.vand(a.data(), b.data(), out.data());
            for (int i = 0; i < w; ++i) {
                ASSERT_EQ(out[i], static_cast<int16_t>(a[i] & b[i]))
                    << "lane " << i;
            }

            // blend: mask lanes are all-ones or all-zero in kernel use.
            std::vector<int16_t> mask(w);
            for (int i = 0; i < w; ++i)
                mask[i] = (a[i] > b[i]) ? -1 : 0;
            table.blend(mask.data(), a.data(), b.data(), out.data());
            for (int i = 0; i < w; ++i)
                ASSERT_EQ(out[i], mask[i] != 0 ? a[i] : b[i])
                    << "lane " << i;

            const int16_t fill = b[0];
            table.shiftLanesUp(a.data(), fill, out.data());
            ASSERT_EQ(out[0], fill);
            for (int i = 1; i < w; ++i)
                ASSERT_EQ(out[i], a[i - 1]) << "lane " << i;

            bool any = false;
            for (int i = 0; i < w; ++i)
                any = any || a[i] > b[i];
            ASSERT_EQ(table.anyGt(a.data(), b.data()), any);

            int16_t hmax = a[0];
            for (int i = 1; i < w; ++i)
                hmax = std::max(hmax, a[i]);
            ASSERT_EQ(table.horizontalMax(a.data()), hmax);
            for (int i = 0; i < w; ++i)
                ASSERT_EQ(table.lane(a.data(), i), a[i]) << "lane " << i;
        }
    }
}

TEST(SimdOps, TablesCoverTheDispatchableLevels)
{
    const auto tables = simdOpsTables();
    bool scalar8 = false, scalar16 = false;
    for (const SimdOpsTable &table : tables) {
        if (std::string(table.name) == "scalar8")
            scalar8 = true;
        if (std::string(table.name) == "scalar16")
            scalar16 = true;
    }
    EXPECT_TRUE(scalar8);
    EXPECT_TRUE(scalar16);
}

// ------------------------------------------- cross-level dispatch

/** RAII PGB_SIMD override; restores the prior value and dispatch. */
class SimdLevelOverride
{
  public:
    explicit SimdLevelOverride(const char *level)
    {
        const char *prev = std::getenv("PGB_SIMD");
        had_ = prev != nullptr;
        if (had_)
            prev_ = prev;
        ::setenv("PGB_SIMD", level, 1);
        refreshSimdLevel();
    }

    ~SimdLevelOverride()
    {
        if (had_)
            ::setenv("PGB_SIMD", prev_.c_str(), 1);
        else
            ::unsetenv("PGB_SIMD");
        refreshSimdLevel();
    }

  private:
    bool had_ = false;
    std::string prev_;
};

std::vector<uint8_t>
randomBases(Rng &rng, size_t length)
{
    std::vector<uint8_t> bases;
    bases.reserve(length);
    for (size_t i = 0; i < length; ++i)
        bases.push_back(static_cast<uint8_t>(rng.below(4)));
    return bases;
}

TEST(SimdDispatch, SswBitIdenticalAcrossLevels)
{
    const auto params = ScoreParams::mappingDefaults();
    Rng rng(42);
    for (int round = 0; round < 20; ++round) {
        const auto query = randomBases(rng, 30 + rng.below(200));
        const auto reference = randomBases(rng, 50 + rng.below(400));

        std::vector<LocalHit> hits;
        for (const char *level : {"scalar", "sse2", "avx2"}) {
            SimdLevelOverride guard(level);
            hits.push_back(sswAlign(query, reference, params));
        }
        for (size_t i = 1; i < hits.size(); ++i) {
            EXPECT_EQ(hits[i].score, hits[0].score) << "round " << round;
            EXPECT_EQ(hits[i].queryEnd, hits[0].queryEnd);
            EXPECT_EQ(hits[i].refEnd, hits[0].refEnd);
        }
    }
}

TEST(SimdDispatch, GsswBitIdenticalAcrossLevels)
{
    const auto params = ScoreParams::mappingDefaults();
    Rng rng(43);
    for (int round = 0; round < 10; ++round) {
        const auto reference = randomBases(rng, 120 + rng.below(200));
        const auto query = randomBases(rng, 40 + rng.below(80));
        LocalGraph g;
        uint32_t prev = UINT32_MAX;
        for (size_t i = 0; i < reference.size(); i += 17) {
            const size_t end = std::min(i + 17, reference.size());
            const uint32_t node = g.addNode(std::vector<uint8_t>(
                reference.begin() + i, reference.begin() + end));
            if (prev != UINT32_MAX)
                g.addEdge(prev, node);
            prev = node;
        }
        g.finalize();

        std::vector<GraphLocalHit> hits;
        for (const char *level : {"scalar", "sse2", "avx2"}) {
            SimdLevelOverride guard(level);
            hits.push_back(gsswAlign(g, query, params).best);
        }
        for (size_t i = 1; i < hits.size(); ++i) {
            EXPECT_EQ(hits[i].score, hits[0].score) << "round " << round;
            EXPECT_EQ(hits[i].queryEnd, hits[0].queryEnd);
            EXPECT_EQ(hits[i].node, hits[0].node);
            EXPECT_EQ(hits[i].nodeOffset, hits[0].nodeOffset);
        }
    }
}

// ------------------------------------ GSSW with recycled node states

/** Edges of a DAG whose ids already run in a topological order. */
using EdgeList = std::vector<std::pair<uint32_t, uint32_t>>;

/** Random DAG over @p n_nodes nodes of 1..@p max_len bases. */
LocalGraph
buildDag(Rng &rng, size_t n_nodes, const EdgeList &edges, size_t max_len)
{
    LocalGraph g;
    for (size_t v = 0; v < n_nodes; ++v)
        g.addNode(randomBases(rng, 1 + rng.below(max_len)));
    for (const auto &[from, to] : edges)
        g.addEdge(from, to);
    g.finalize();
    return g;
}

/**
 * A query that really aligns: the spelling of a random walk from a
 * source, with ~5% substitutions and random flanks.
 */
std::vector<uint8_t>
walkQuery(Rng &rng, const LocalGraph &g, size_t max_len)
{
    std::vector<uint32_t> sources;
    for (uint32_t v = 0; v < g.nodeCount(); ++v) {
        if (g.predecessors(v).empty())
            sources.push_back(v);
    }
    uint32_t node = sources[rng.below(sources.size())];
    std::vector<uint8_t> query = randomBases(rng, rng.below(12));
    while (query.size() < max_len) {
        for (uint8_t base : g.nodeSeq(node)) {
            query.push_back(rng.chance(0.05)
                                ? static_cast<uint8_t>(rng.below(4))
                                : base);
        }
        const auto next = g.successors(node);
        if (next.empty())
            break;
        node = next[rng.below(next.size())];
    }
    if (query.size() > max_len)
        query.resize(max_len);
    const auto tail = randomBases(rng, rng.below(12));
    query.insert(query.end(), tail.begin(), tail.end());
    return query;
}

/** Source -> @p k parallel nodes -> joint -> @p k nodes -> sink. */
EdgeList
fanEdges(uint32_t k)
{
    EdgeList edges;
    const uint32_t joint = k + 1;
    for (uint32_t i = 1; i <= k; ++i) {
        edges.emplace_back(0, i);
        edges.emplace_back(i, joint);
        edges.emplace_back(joint, joint + i);
        edges.emplace_back(joint + i, 2 * k + 2);
    }
    return edges;
}

/**
 * Complete bipartite layers: every node has every node of the layer
 * before as a parent, so all but the last child of a layer find each
 * parent still owed to other children.
 */
EdgeList
layeredEdges(uint32_t layers, uint32_t width)
{
    EdgeList edges;
    for (uint32_t l = 0; l + 1 < layers; ++l) {
        for (uint32_t a = 0; a < width; ++a) {
            for (uint32_t b = 0; b < width; ++b)
                edges.emplace_back(l * width + a, (l + 1) * width + b);
        }
    }
    return edges;
}

/** Random forward edges; about a quarter of the nodes are sources. */
EdgeList
randomEdges(Rng &rng, uint32_t n_nodes)
{
    EdgeList edges;
    for (uint32_t v = 1; v < n_nodes; ++v) {
        if (rng.chance(0.25))
            continue;
        const uint32_t parents = 1 + static_cast<uint32_t>(rng.below(3));
        for (uint32_t p = 0; p < parents; ++p)
            edges.emplace_back(static_cast<uint32_t>(rng.below(v)), v);
    }
    return edges;
}

/**
 * gsswAlign at every SIMD level, with and without kept matrices, must
 * agree with the per-cell scalar reference on @p g; the kept matrices
 * must still trace back to an alignment of the best score.
 */
void
expectMatchesScalar(const LocalGraph &g, std::span<const uint8_t> query,
                    const std::string &what)
{
    SCOPED_TRACE(what);
    const auto params = ScoreParams::mappingDefaults();
    const GraphLocalHit truth = gsswAlignScalar(g, query, params);
    for (const char *level : {"scalar", "sse2", "avx2"}) {
        SCOPED_TRACE(level);
        SimdLevelOverride guard(level);
        GsswOptions keep;
        keep.keepMatrices = true;
        const GsswResult lean = gsswAlign(g, query, params);
        const GsswResult kept = gsswAlign(g, query, params, keep);
        for (const GsswResult *result : {&lean, &kept}) {
            EXPECT_EQ(result->best.score, truth.score);
            EXPECT_EQ(result->best.node, truth.node);
            EXPECT_EQ(result->best.nodeOffset, truth.nodeOffset);
            EXPECT_EQ(result->best.queryEnd, truth.queryEnd);
        }
        EXPECT_TRUE(lean.matrices.empty());
        EXPECT_EQ(lean.cellsComputed, kept.cellsComputed);
        if (kept.best.score == 0)
            continue;
        const GsswAlignment alignment =
            gsswTraceback(g, query, params, kept);
        EXPECT_EQ(alignment.score, truth.score);
        EXPECT_EQ(alignment.queryEnd, truth.queryEnd);
        EXPECT_EQ(alignment.nodeWalk.back(), truth.node);
        for (size_t w = 0; w + 1 < alignment.nodeWalk.size(); ++w) {
            const auto succ = g.successors(alignment.nodeWalk[w]);
            EXPECT_NE(std::find(succ.begin(), succ.end(),
                                alignment.nodeWalk[w + 1]),
                      succ.end());
        }
    }
}

TEST(GsswRecycling, WideFanOutAndFanInMatchScalar)
{
    Rng rng(47);
    for (int round = 0; round < 6; ++round) {
        const auto k = static_cast<uint32_t>(8 + rng.below(9));
        const LocalGraph g = buildDag(rng, 2 * k + 3, fanEdges(k), 20);
        const auto query = walkQuery(rng, g, 40 + rng.below(80));
        expectMatchesScalar(g, query, "fan k=" + std::to_string(k));
    }
}

TEST(GsswRecycling, ParentsOwedToOtherChildrenMatchScalar)
{
    Rng rng(48);
    for (int round = 0; round < 6; ++round) {
        const auto layers = static_cast<uint32_t>(3 + rng.below(5));
        const auto width = static_cast<uint32_t>(2 + rng.below(8));
        const LocalGraph g = buildDag(
            rng, layers * width, layeredEdges(layers, width), 15);
        const auto query = walkQuery(rng, g, 30 + rng.below(90));
        expectMatchesScalar(g, query,
                            "layers " + std::to_string(layers) + "x" +
                                std::to_string(width));
    }
}

TEST(GsswRecycling, SeveralSourcesAndSinksMatchScalar)
{
    Rng rng(49);
    for (int round = 0; round < 10; ++round) {
        const auto n = static_cast<uint32_t>(5 + rng.below(60));
        const LocalGraph g = buildDag(rng, n, randomEdges(rng, n), 25);
        const auto query = walkQuery(rng, g, 20 + rng.below(150));
        expectMatchesScalar(g, query, "random n=" + std::to_string(n));
    }
}

TEST(GsswRecycling, BigSmallBigOnOneThreadMatchScalar)
{
    // The workspace keeps its pool between calls: a small alignment
    // between two big ones must reuse, not trip over, larger states.
    Rng rng(50);
    const LocalGraph big1 =
        buildDag(rng, 400, layeredEdges(40, 10), 12);
    const LocalGraph small = buildDag(rng, 3, {{0, 1}, {0, 2}}, 6);
    const LocalGraph big2 = buildDag(rng, 300, randomEdges(rng, 300), 20);
    expectMatchesScalar(big1, walkQuery(rng, big1, 500), "big");
    expectMatchesScalar(small, walkQuery(rng, small, 8), "small");
    expectMatchesScalar(big2, walkQuery(rng, big2, 700), "big again");
}

TEST(GsswRecycling, LiveStatesFollowGraphWidthNotNodeCount)
{
    // On a fresh thread the pool starts empty: a 600-node chain needs
    // one state, and complete layers of width w at most 2w - 1 (a
    // layer's w states plus w - 1 copies made for the next layer
    // before its last child takes a parent's buffer over).
    Rng rng(51);
    EdgeList chain;
    for (uint32_t v = 0; v + 1 < 600; ++v)
        chain.emplace_back(v, v + 1);
    const LocalGraph line = buildDag(rng, 600, chain, 10);
    constexpr uint32_t kWidth = 6;
    const LocalGraph layers =
        buildDag(rng, 60 * kWidth, layeredEdges(60, kWidth), 10);
    const auto query = randomBases(rng, 200);
    size_t line_states = 0, layer_states = 0;
    std::thread([&] {
        gsswAlign(line, query, ScoreParams::mappingDefaults());
        line_states = detail::gsswWorkspace().states.size();
        gsswAlign(layers, query, ScoreParams::mappingDefaults());
        layer_states = detail::gsswWorkspace().states.size();
    }).join();
    EXPECT_EQ(line_states, 1u);
    EXPECT_EQ(layer_states, 2 * kWidth - 1);
}

// ------------------------------------------------- batched kernel

TEST(SswBatch, MatchesPerJobSswAlignAtEveryLevel)
{
    const auto params = ScoreParams::mappingDefaults();
    Rng rng(44);
    // Mixed lengths so packs span buckets and leave partial lanes.
    std::vector<std::vector<uint8_t>> queries, references;
    for (int i = 0; i < 37; ++i) {
        queries.push_back(randomBases(rng, 20 + rng.below(300)));
        references.push_back(randomBases(rng, 40 + rng.below(600)));
    }
    std::vector<BatchJob> jobs(queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
        jobs[i].query = queries[i];
        jobs[i].reference = references[i];
    }

    for (const char *level : {"scalar", "sse2", "avx2"}) {
        SCOPED_TRACE(level);
        SimdLevelOverride guard(level);
        std::vector<LocalHit> batched(jobs.size());
        sswAlignBatch(jobs, params, batched, /* threads */ 3);
        for (size_t i = 0; i < jobs.size(); ++i) {
            const LocalHit solo =
                sswAlign(jobs[i].query, jobs[i].reference, params);
            EXPECT_EQ(batched[i].score, solo.score) << "job " << i;
            EXPECT_EQ(batched[i].queryEnd, solo.queryEnd) << "job " << i;
            EXPECT_EQ(batched[i].refEnd, solo.refEnd) << "job " << i;
        }
    }
}

// ----------------------------------------------------- saturation

TEST(SswSaturation, ClampsAndCountsInt16Overflow)
{
    // match=8 over ~5000 identical bases drives the running score
    // past INT16_MAX: the kernel must clamp at the saturation
    // sentinel (not wrap) and bump align.score_saturated.
    ScoreParams params;
    params.match = 8;
    Rng rng(45);
    const auto bases = randomBases(rng, 5000);

    const uint64_t before =
        obs::snapshot().counter("align.score_saturated");
    const LocalHit hit = sswAlign(bases, bases, params);
    const uint64_t after =
        obs::snapshot().counter("align.score_saturated");

    EXPECT_EQ(hit.score, kScoreSaturated);
    EXPECT_GT(after, before);
}

TEST(SswSaturation, NormalScoresDoNotTripTheCounter)
{
    Rng rng(46);
    const auto query = randomBases(rng, 100);
    const uint64_t before =
        obs::snapshot().counter("align.score_saturated");
    const LocalHit hit =
        sswAlign(query, query, ScoreParams::mappingDefaults());
    const uint64_t after =
        obs::snapshot().counter("align.score_saturated");
    EXPECT_EQ(hit.score, 100);
    EXPECT_EQ(after, before);
}

} // namespace
} // namespace pgb::align
