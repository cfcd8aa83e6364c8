/**
 * @file
 * Differential test battery for the FM-index (index/fm_index.hpp).
 *
 * A wrong seeder degrades mapping accuracy silently, so every FM
 * operation is proven against a brute-force oracle that shares no
 * code with the index: find/count/locate against a naive per-path
 * scan, and SMEM enumeration against an O(n*m) dynamic-programming
 * enumerator, over randomized texts/queries (>= 1000 cases) and
 * adversarial shapes (tandem repeats, homopolymers, all-N), at
 * multiple (min_length, sample_rate) settings. The ctest lanes run
 * this file under PGB_THREADS=1 and 8; identical results prove the
 * index is thread-count independent.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/logging.hpp"
#include "core/rng.hpp"
#include "graph/pangraph.hpp"
#include "index/fm_index.hpp"
#include "seq/sequence.hpp"

namespace {

using namespace pgb;
using index::FmIndex;

/** One single-node path per string: FM text layout without graph
 *  topology in the way (projection is covered by test_seeder). */
graph::PanGraph
pathGraph(const std::vector<std::string> &texts)
{
    graph::PanGraph graph;
    for (size_t p = 0; p < texts.size(); ++p) {
        const graph::NodeId node =
            graph.addNode(seq::Sequence("", texts[p]));
        std::string name = "p";
        name += std::to_string(p);
        graph.addPath(std::move(name), {graph::Handle(node, false)});
    }
    return graph;
}

std::vector<uint8_t>
codesOf(const std::string &text)
{
    return seq::encodeString(text);
}

/** Every (path, offset) where @p pattern occurs, by naive scan. */
std::vector<std::pair<uint32_t, uint64_t>>
naiveOccurrences(const std::vector<std::string> &texts,
                 const std::string &pattern)
{
    std::vector<std::pair<uint32_t, uint64_t>> hits;
    if (pattern.empty())
        return hits;
    for (uint32_t p = 0; p < texts.size(); ++p) {
        const std::string &text = texts[p];
        for (size_t at = 0;
             pattern.size() <= text.size() &&
             at + pattern.size() <= text.size();
             ++at) {
            if (text.compare(at, pattern.size(), pattern) == 0)
                hits.emplace_back(p, at);
        }
    }
    return hits;
}

/** FM occurrences of @p pattern as sorted (path, offset) pairs. */
std::vector<std::pair<uint32_t, uint64_t>>
fmOccurrences(const FmIndex &fm, const std::string &pattern)
{
    std::vector<std::pair<uint32_t, uint64_t>> hits;
    const auto range = fm.find(codesOf(pattern));
    for (uint64_t r = range.lo; r < range.hi; ++r) {
        const auto pos = fm.resolve(fm.locate(r));
        hits.emplace_back(pos.path, pos.offset);
    }
    std::sort(hits.begin(), hits.end());
    return hits;
}

/** An SMEM as plain data, for set comparison against the oracle. */
struct OracleMem
{
    uint32_t begin = 0;
    uint32_t end = 0;
    uint64_t occurrences = 0;

    bool
    operator==(const OracleMem &other) const
    {
        return begin == other.begin && end == other.end &&
               occurrences == other.occurrences;
    }
};

/**
 * Brute-force SMEM enumeration sharing no machinery with the index.
 * longest[b] = length of the longest match of query starting at b
 * anywhere in any text, via the classic backward extension DP
 * (match[b][t] = query[b]==text[t] ? 1 + match[b+1][t+1] : 0).
 * [b, b+longest[b]) is an SMEM iff it is long enough and not
 * contained in the (always longer-or-equal reaching) match starting
 * one position earlier.
 */
std::vector<OracleMem>
oracleMems(const std::vector<std::string> &texts,
           const std::string &query, uint32_t min_length)
{
    const size_t m = query.size();
    std::vector<size_t> longest(m + 1, 0);
    for (const std::string &text : texts) {
        const size_t n = text.size();
        std::vector<size_t> next(n + 1, 0), cur(n + 1, 0);
        for (size_t b = m; b-- > 0;) {
            for (size_t t = 0; t < n; ++t) {
                cur[t] = query[b] == text[t] ? 1 + next[t + 1] : 0;
                longest[b] = std::max(longest[b], cur[t]);
            }
            cur[n] = 0;
            std::swap(next, cur);
        }
    }
    std::vector<OracleMem> mems;
    for (size_t b = 0; b < m; ++b) {
        const size_t len = longest[b];
        if (len < min_length)
            continue;
        if (b > 0 && longest[b - 1] > len)
            continue; // contained in the match starting at b-1
        const std::string sub = query.substr(b, len);
        mems.push_back({static_cast<uint32_t>(b),
                        static_cast<uint32_t>(b + len),
                        naiveOccurrences(texts, sub).size()});
    }
    return mems;
}

std::vector<OracleMem>
fmMems(const FmIndex &fm, const std::string &query, uint32_t min_length)
{
    std::vector<FmIndex::Mem> raw;
    fm.collectMems(codesOf(query), min_length, raw);
    std::vector<OracleMem> mems;
    for (const auto &mem : raw)
        mems.push_back({mem.queryBegin, mem.queryEnd,
                        mem.range.size()});
    return mems;
}

/** Random DNA string; @p n_rate mixes in 'N's when nonzero. */
std::string
randomText(core::Xoshiro256StarStar &rng, size_t length,
           double n_rate = 0.0)
{
    static const char bases[] = "ACGT";
    std::string text(length, 'A');
    for (char &c : text) {
        c = n_rate > 0 && rng.chance(n_rate)
                ? 'N'
                : bases[rng.below(4)];
    }
    return text;
}

/** A query related to the texts: a (possibly mutated) substring, or
 *  pure noise, so matches of interesting lengths actually occur. */
std::string
relatedQuery(core::Xoshiro256StarStar &rng,
             const std::vector<std::string> &texts, size_t length)
{
    const std::string &text = texts[rng.below(texts.size())];
    std::string query;
    if (text.size() >= length && rng.chance(0.7)) {
        const size_t at = rng.below(text.size() - length + 1);
        query = text.substr(at, length);
        const size_t mutations = rng.below(1 + length / 8);
        for (size_t i = 0; i < mutations; ++i)
            query[rng.below(query.size())] = "ACGTN"[rng.below(5)];
    } else {
        query = randomText(rng, length, 0.02);
    }
    return query;
}

// ---------------------------------------------------------------------
// find / count / locate vs naive scan
// ---------------------------------------------------------------------

TEST(FmIndex, FindCountLocateMatchNaiveScanRandomized)
{
    core::Xoshiro256StarStar rng(0xf1bd);
    size_t nonzero_hits = 0;
    for (int round = 0; round < 60; ++round) {
        std::vector<std::string> texts;
        const size_t path_count = 1 + rng.below(4);
        for (size_t p = 0; p < path_count; ++p)
            texts.push_back(
                randomText(rng, 30 + rng.below(300), 0.01));
        const graph::PanGraph graph = pathGraph(texts);
        const auto sample_rate =
            static_cast<uint32_t>(1 + rng.below(16));
        const FmIndex fm(graph, sample_rate);

        for (int q = 0; q < 12; ++q) {
            const std::string pattern =
                relatedQuery(rng, texts, 1 + rng.below(24));
            const auto expected = naiveOccurrences(texts, pattern);
            ASSERT_EQ(fm.count(codesOf(pattern)), expected.size())
                << "pattern " << pattern;
            ASSERT_EQ(fmOccurrences(fm, pattern), expected)
                << "pattern " << pattern;
            nonzero_hits += expected.empty() ? 0 : 1;
        }
    }
    // The generator must actually exercise the hit paths.
    EXPECT_GT(nonzero_hits, 200u);
}

TEST(FmIndex, SampleRateDoesNotChangeAnyAnswer)
{
    core::Xoshiro256StarStar rng(0x5a3e);
    const std::vector<std::string> texts = {
        randomText(rng, 400, 0.01), randomText(rng, 150)};
    const graph::PanGraph graph = pathGraph(texts);
    const FmIndex dense(graph, 1);
    for (const uint32_t rate : {2u, 7u, 64u, 1000u}) {
        const FmIndex sparse(graph, rate);
        for (int q = 0; q < 40; ++q) {
            const std::string pattern =
                relatedQuery(rng, texts, 3 + rng.below(20));
            EXPECT_EQ(fmOccurrences(dense, pattern),
                      fmOccurrences(sparse, pattern))
                << "rate " << rate << " pattern " << pattern;
        }
    }
}

TEST(FmIndex, PatternsNeverMatchAcrossPathBoundaries)
{
    // "ACGT" exists only as the junction of the two paths; the
    // sentinel between them must keep it unfindable.
    const graph::PanGraph graph = pathGraph({"GGGAC", "GTCCC"});
    const FmIndex fm(graph, 1);
    EXPECT_EQ(fm.count(codesOf("ACGT")), 0u);
    EXPECT_EQ(fm.count(codesOf("CG")), 0u);
    EXPECT_EQ(fm.count(codesOf("GGGAC")), 1u);
    EXPECT_EQ(fm.count(codesOf("GTCCC")), 1u);
    EXPECT_EQ(fm.count(codesOf("C")), 4u);
}

TEST(FmIndex, EmptyAndImpossiblePatterns)
{
    const graph::PanGraph graph = pathGraph({"ACACAC"});
    const FmIndex fm(graph, 4);
    // The empty pattern matches every suffix (the full range).
    EXPECT_EQ(fm.find({}).size(), fm.textLength());
    EXPECT_EQ(fm.count(codesOf("G")), 0u);
    EXPECT_EQ(fm.count(codesOf("ACACACA")), 0u);
    EXPECT_EQ(fm.count(codesOf("N")), 0u);
    EXPECT_EQ(fm.count(codesOf("ACAC")), 2u);
}

TEST(FmIndex, NMatchesOnlyN)
{
    const graph::PanGraph graph = pathGraph({"ANAC", "NNAC"});
    const FmIndex fm(graph, 1);
    EXPECT_EQ(fm.count(codesOf("N")), 3u);
    EXPECT_EQ(fm.count(codesOf("NN")), 1u);
    EXPECT_EQ(fm.count(codesOf("NA")), 2u);
    EXPECT_EQ(fm.count(codesOf("AC")), 2u);
    const auto expected = naiveOccurrences({"ANAC", "NNAC"}, "NAC");
    EXPECT_EQ(fmOccurrences(fm, "NAC"), expected);
}

// ---------------------------------------------------------------------
// SMEM enumeration vs the brute-force oracle
// ---------------------------------------------------------------------

/** Run one differential SMEM case; returns the SMEM count. */
size_t
checkMems(const std::vector<std::string> &texts,
          const std::string &query, uint32_t min_length,
          uint32_t sample_rate)
{
    const graph::PanGraph graph = pathGraph(texts);
    const FmIndex fm(graph, sample_rate);
    const auto expected = oracleMems(texts, query, min_length);
    const auto got = fmMems(fm, query, min_length);
    EXPECT_EQ(got, expected)
        << "query " << query << " min_length " << min_length
        << " sample_rate " << sample_rate;
    return expected.size();
}

TEST(FmIndex, SmemsMatchBruteForceRandomized)
{
    // >= 1000 randomized differential cases across text shapes,
    // query lengths, minimum lengths, and sampling rates.
    core::Xoshiro256StarStar rng(0x53e3);
    size_t cases = 0, nonempty = 0;
    for (int round = 0; round < 120; ++round) {
        std::vector<std::string> texts;
        const size_t path_count = 1 + rng.below(3);
        for (size_t p = 0; p < path_count; ++p)
            texts.push_back(
                randomText(rng, 20 + rng.below(250), 0.01));
        const auto sample_rate =
            static_cast<uint32_t>(1 + rng.below(12));
        for (const uint32_t min_length : {1u, 5u, 12u}) {
            for (int q = 0; q < 3; ++q) {
                const std::string query =
                    relatedQuery(rng, texts, 4 + rng.below(56));
                nonempty +=
                    checkMems(texts, query, min_length, sample_rate)
                        ? 1
                        : 0;
                ++cases;
            }
        }
    }
    EXPECT_GE(cases, 1000u);
    EXPECT_GT(nonempty, cases / 3);
}

TEST(FmIndex, SmemsOnTandemRepeats)
{
    std::string acgt, acg;
    for (int i = 0; i < 30; ++i)
        acgt += "ACGT";
    for (int i = 0; i < 40; ++i)
        acg += "ACG";
    const std::vector<std::string> texts = {acgt, acg + "T" + acg};
    core::Xoshiro256StarStar rng(0x7e9e);
    for (const uint32_t min_length : {1u, 8u, 15u}) {
        checkMems(texts, "ACGTACGTACGT", min_length, 4);
        checkMems(texts, "ACGACGACGACGACG", min_length, 4);
        checkMems(texts, "CGTACGACGT", min_length, 4);
        for (int q = 0; q < 20; ++q)
            checkMems(texts, relatedQuery(rng, texts, 6 + rng.below(40)),
                      min_length, 1 + rng.below(8));
    }
}

TEST(FmIndex, SmemsOnHomopolymers)
{
    const std::vector<std::string> texts = {
        std::string(120, 'A'), std::string(60, 'A') + "C" +
                                   std::string(30, 'A')};
    for (const uint32_t min_length : {1u, 10u}) {
        checkMems(texts, std::string(40, 'A'), min_length, 3);
        checkMems(texts, std::string(20, 'A') + "C" +
                             std::string(10, 'A'),
                  min_length, 3);
        checkMems(texts, "AACAA", min_length, 1);
        checkMems(texts, "G", min_length, 1);
    }
}

TEST(FmIndex, SmemsOnAllN)
{
    const std::vector<std::string> texts = {std::string(50, 'N'),
                                            "ACGTNNACGT"};
    checkMems(texts, std::string(12, 'N'), 1, 2);
    checkMems(texts, std::string(12, 'N'), 5, 2);
    checkMems(texts, "TNNA", 2, 2);
    checkMems(texts, "ACGTNNACGT", 4, 2);
}

TEST(FmIndex, SmemOccurrenceRangesLocateExactly)
{
    // Every SMEM's SA range must locate to exactly the positions the
    // naive scan finds for that substring.
    core::Xoshiro256StarStar rng(0x10ca7e);
    const std::vector<std::string> texts = {randomText(rng, 300),
                                            randomText(rng, 120)};
    const graph::PanGraph graph = pathGraph(texts);
    const FmIndex fm(graph, 5);
    for (int q = 0; q < 50; ++q) {
        const std::string query =
            relatedQuery(rng, texts, 10 + rng.below(40));
        std::vector<FmIndex::Mem> mems;
        fm.collectMems(codesOf(query), 5, mems);
        for (const auto &mem : mems) {
            const std::string sub = query.substr(
                mem.queryBegin, mem.queryEnd - mem.queryBegin);
            std::vector<std::pair<uint32_t, uint64_t>> located;
            for (uint64_t r = mem.range.lo; r < mem.range.hi; ++r) {
                const auto pos = fm.resolve(fm.locate(r));
                located.emplace_back(pos.path, pos.offset);
            }
            std::sort(located.begin(), located.end());
            EXPECT_EQ(located, naiveOccurrences(texts, sub))
                << "query " << query << " smem " << sub;
        }
    }
}

// ---------------------------------------------------------------------
// Construction edge cases
// ---------------------------------------------------------------------

TEST(FmIndex, GraphWithoutPathsIsFatal)
{
    graph::PanGraph graph;
    graph.addNode(seq::Sequence("", "ACGT"));
    EXPECT_THROW(FmIndex(graph, 4), core::FatalError);
}

TEST(FmIndex, SampleRateZeroIsClampedToOne)
{
    const graph::PanGraph graph = pathGraph({"ACGTACGT"});
    const FmIndex fm(graph, 0);
    EXPECT_EQ(fm.sampleRate(), 1u);
    EXPECT_EQ(fmOccurrences(fm, "CGT"),
              naiveOccurrences({"ACGTACGT"}, "CGT"));
}

TEST(FmIndex, MultiNodePathsSpellTheSameText)
{
    // The same haplotype spelled through a 3-node chain (with one
    // reversed step) must index identically to the single-node form.
    const std::string spelled = "ACCGTTGAAC";
    graph::PanGraph chain;
    const auto a = chain.addNode(seq::Sequence("", "ACCG"));
    // "TTGA" spelled via the reverse orientation of its complement.
    const auto b = chain.addNode(seq::Sequence("", "TCAA"));
    const auto c = chain.addNode(seq::Sequence("", "AC"));
    chain.addEdge(graph::Handle(a, false), graph::Handle(b, true));
    chain.addEdge(graph::Handle(b, true), graph::Handle(c, false));
    chain.addPath("h", {graph::Handle(a, false),
                        graph::Handle(b, true),
                        graph::Handle(c, false)});
    ASSERT_EQ(chain.pathSequence(0).toString(), spelled);

    const FmIndex split(chain, 3);
    const FmIndex flat(pathGraph({spelled}), 3);
    core::Xoshiro256StarStar rng(0xc4a1);
    for (int q = 0; q < 30; ++q) {
        const std::string pattern =
            relatedQuery(rng, {spelled}, 1 + rng.below(10));
        EXPECT_EQ(fmOccurrences(split, pattern),
                  fmOccurrences(flat, pattern))
            << pattern;
    }
}

} // namespace
