/**
 * @file
 * The benchmark's output checks on hand-built graphs with known
 * answers: mapping truth, row structure, and lossless construction.
 */

#include <gtest/gtest.h>

#include "serve/protocol.hpp"
#include "truth.hpp"

namespace {

using perfbench::checkPathsSpell;
using perfbench::checkRows;
using perfbench::ReadTruth;
using perfbench::TruthChecker;
using perfbench::Verdict;
using pgb::graph::Handle;
using pgb::graph::PanGraph;
using pgb::pipeline::ReadMapping;
using pgb::seq::Sequence;

/**
 * n0 ACGTACGTAC (10) -> n1 GGGG (4) -> n3 CCCCCCCCCC (10) -> n1 again,
 * so hap0 visits n1 at [10,14) and [24,28). hap1 is n0 -> n2 -> n3.
 */
struct Fixture
{
    PanGraph graph;
    uint32_t n0 = 0, n1 = 0, n2 = 0, n3 = 0;
    pgb::graph::PathId hap0 = 0, hap1 = 0;

    Fixture()
    {
        n0 = graph.addNode(Sequence("n0", "ACGTACGTAC"));
        n1 = graph.addNode(Sequence("n1", "GGGG"));
        n2 = graph.addNode(Sequence("n2", "TTTT"));
        n3 = graph.addNode(Sequence("n3", "CCCCCCCCCC"));
        graph.addEdge(fwd(n0), fwd(n1));
        graph.addEdge(fwd(n1), fwd(n3));
        graph.addEdge(fwd(n3), fwd(n1));
        graph.addEdge(fwd(n0), fwd(n2));
        graph.addEdge(fwd(n2), fwd(n3));
        hap0 = graph.addPath("hap0",
                             {fwd(n0), fwd(n1), fwd(n3), fwd(n1)});
        hap1 = graph.addPath("hap1", {fwd(n0), fwd(n2), fwd(n3)});
    }

    static Handle fwd(uint32_t node) { return Handle(node, false); }
};

ReadTruth
truthOn(pgb::graph::PathId donor, uint64_t start, uint64_t span,
        bool reverse = false)
{
    ReadTruth truth;
    truth.name = "read";
    truth.donor = donor;
    truth.start = start;
    truth.span = span;
    truth.reverse = reverse;
    return truth;
}

ReadMapping
at(uint32_t node, bool reverse = false)
{
    ReadMapping mapping;
    mapping.mapped = true;
    mapping.node = node;
    mapping.score = 100;
    mapping.reverse = reverse;
    return mapping;
}

TEST(TruthChecker, NodeOnOriginIntervalIsCorrect)
{
    Fixture f;
    const TruthChecker checker(f.graph, {f.hap0, f.hap1}, 0);
    EXPECT_EQ(checker.judge(truthOn(f.hap0, 0, 12), at(f.n0)),
              Verdict::kCorrect);
    EXPECT_EQ(checker.judge(truthOn(f.hap0, 0, 12), at(f.n1)),
              Verdict::kCorrect);
    EXPECT_EQ(checker.judge(truthOn(f.hap1, 10, 4), at(f.n2)),
              Verdict::kCorrect);
}

TEST(TruthChecker, NodeOffTheDonorPathIsWrongLocus)
{
    Fixture f;
    const TruthChecker checker(f.graph, {f.hap0, f.hap1}, 0);
    // n2 lies only on hap1.
    EXPECT_EQ(checker.judge(truthOn(f.hap0, 0, 28), at(f.n2)),
              Verdict::kWrongLocus);
}

TEST(TruthChecker, NodeOnThePathOutsideTheIntervalIsWrongLocus)
{
    Fixture f;
    const TruthChecker checker(f.graph, {f.hap0, f.hap1}, 0);
    EXPECT_EQ(checker.judge(truthOn(f.hap0, 0, 10), at(f.n3)),
              Verdict::kWrongLocus);
    // The slack widens the window on both sides.
    const TruthChecker slack(f.graph, {f.hap0, f.hap1}, 5);
    EXPECT_EQ(slack.judge(truthOn(f.hap0, 0, 10), at(f.n3)),
              Verdict::kCorrect);
    EXPECT_EQ(slack.judge(truthOn(f.hap0, 0, 5), at(f.n3)),
              Verdict::kWrongLocus);
}

TEST(TruthChecker, WrongStrandIsReportedAsSuch)
{
    Fixture f;
    const TruthChecker checker(f.graph, {f.hap0, f.hap1}, 0);
    EXPECT_EQ(checker.judge(truthOn(f.hap0, 0, 12), at(f.n0, true)),
              Verdict::kWrongStrand);
    EXPECT_EQ(checker.judge(truthOn(f.hap0, 0, 12, true), at(f.n0)),
              Verdict::kWrongStrand);
}

TEST(TruthChecker, NodeVisitedTwiceMatchesEitherVisit)
{
    Fixture f;
    const TruthChecker checker(f.graph, {f.hap0, f.hap1}, 0);
    EXPECT_EQ(checker.judge(truthOn(f.hap0, 10, 4), at(f.n1)),
              Verdict::kCorrect);
    EXPECT_EQ(checker.judge(truthOn(f.hap0, 24, 4), at(f.n1)),
              Verdict::kCorrect);
    // Between the two visits there is no n1.
    EXPECT_EQ(checker.judge(truthOn(f.hap0, 15, 8), at(f.n1)),
              Verdict::kWrongLocus);
}

TEST(TruthChecker, ReverseStrandReadMappedReverseIsCorrect)
{
    Fixture f;
    const TruthChecker checker(f.graph, {f.hap0, f.hap1}, 0);
    EXPECT_EQ(checker.judge(truthOn(f.hap1, 14, 10, true),
                            at(f.n3, true)),
              Verdict::kCorrect);
}

TEST(TruthChecker, UnmappedAndUnknownDonor)
{
    Fixture f;
    const TruthChecker checker(f.graph, {f.hap0}, 0);
    ReadMapping unmapped = at(f.n0);
    unmapped.mapped = false;
    EXPECT_EQ(checker.judge(truthOn(f.hap0, 0, 12), unmapped),
              Verdict::kUnmapped);
    EXPECT_EQ(checker.judge(truthOn(7, 0, 12), at(f.n0)),
              Verdict::kWrongLocus);
}

std::vector<ReadTruth>
threeReads(pgb::graph::PathId donor)
{
    std::vector<ReadTruth> truths;
    for (const char *name : {"a", "b", "c"}) {
        ReadTruth truth = truthOn(donor, 0, 12);
        truth.name = name;
        truths.push_back(truth);
    }
    return truths;
}

std::string
rows(const std::vector<std::string> &names, const ReadMapping &mapping)
{
    std::vector<Sequence> reads;
    for (const auto &name : names)
        reads.emplace_back(name, "ACGT");
    const std::vector<ReadMapping> mappings(reads.size(), mapping);
    return pgb::serve::formatMappings(reads, mappings);
}

TEST(CheckRows, OneRowPerReadInOrderPasses)
{
    Fixture f;
    const TruthChecker checker(f.graph, {f.hap0}, 0);
    ReadMapping wrong = at(f.n2);
    std::string text = rows({"a", "b"}, at(f.n0)) + rows({"c"}, wrong);
    const auto tally = checkRows(text, threeReads(f.hap0), checker);
    EXPECT_EQ(tally.structureErrors, 0u) << tally.firstError;
    EXPECT_EQ(tally.rows, 3u);
    EXPECT_EQ(tally.failed(), 0u);
    EXPECT_EQ(tally.mapped, 3u);
    EXPECT_EQ(tally.correct, 2u);
    EXPECT_EQ(tally.wrongLocus, 1u);
}

TEST(CheckRows, MissingExtraMisnamedAndMalformedRowsAreCounted)
{
    Fixture f;
    const TruthChecker checker(f.graph, {f.hap0}, 0);
    const auto truths = threeReads(f.hap0);

    auto missing = checkRows(rows({"a", "c"}, at(f.n0)), truths, checker);
    EXPECT_GT(missing.structureErrors, 0u);
    EXPECT_EQ(missing.failed(), 1u);

    auto extra =
        checkRows(rows({"a", "b", "c", "d"}, at(f.n0)), truths, checker);
    EXPECT_EQ(extra.structureErrors, 1u);
    EXPECT_EQ(extra.failed(), 0u);

    auto swapped =
        checkRows(rows({"b", "a", "c"}, at(f.n0)), truths, checker);
    EXPECT_GT(swapped.structureErrors, 0u);

    auto malformed = checkRows("a\t1\tx\t1\t0\n", truths, checker);
    EXPECT_GT(malformed.structureErrors, 0u);
    EXPECT_EQ(malformed.failed(), 3u);

    auto unterminated = checkRows("a\t1\t0\t1\t0", truths, checker);
    EXPECT_GT(unterminated.structureErrors, 0u);
}

TEST(CheckRows, ParsesTheDumpSchema)
{
    std::string name;
    ReadMapping mapping;
    ASSERT_TRUE(perfbench::parseRow("r7\t1\t4524\t10256\t1", name,
                                    mapping));
    EXPECT_EQ(name, "r7");
    EXPECT_TRUE(mapping.mapped);
    EXPECT_EQ(mapping.node, 4524u);
    EXPECT_EQ(mapping.score, 10256);
    EXPECT_TRUE(mapping.reverse);
    EXPECT_FALSE(perfbench::parseRow("r7\t1\t4524\t10256", name, mapping));
    EXPECT_FALSE(
        perfbench::parseRow("r7\t2\t4524\t10256\t1", name, mapping));
    EXPECT_FALSE(
        perfbench::parseRow("r7\t1\t4524\t10256\t1\t0", name, mapping));
}

std::vector<Sequence>
assembliesOf(const PanGraph &graph)
{
    std::vector<Sequence> assemblies;
    for (pgb::graph::PathId p = 0; p < graph.pathCount(); ++p) {
        Sequence spelled = graph.pathSequence(p);
        spelled.setName(graph.pathName(p));
        assemblies.push_back(std::move(spelled));
    }
    return assemblies;
}

TEST(CheckPathsSpell, IntactGraphSpellsEveryAssembly)
{
    Fixture f;
    const auto tally = checkPathsSpell(f.graph, assembliesOf(f.graph));
    EXPECT_EQ(tally.checked, 2u);
    EXPECT_EQ(tally.spelled, 2u) << tally.firstError;
}

TEST(CheckPathsSpell, CorruptedEdgeIsCaught)
{
    Fixture f;
    const auto assemblies = assembliesOf(f.graph);
    // The same graph, except that the edge hap1 takes out of n0 now
    // enters n2 on its reverse strand, and hap1 follows it.
    PanGraph corrupted;
    for (uint32_t node = 0; node < f.graph.nodeCount(); ++node)
        corrupted.addNode(f.graph.nodeSequence(node));
    const Handle n0(f.n0, false), n1(f.n1, false), n2(f.n2, false),
        n3(f.n3, false);
    corrupted.addEdge(n0, n1);
    corrupted.addEdge(n1, n3);
    corrupted.addEdge(n3, n1);
    corrupted.addEdge(n0, n2.flipped());
    corrupted.addEdge(n2.flipped(), n3);
    corrupted.addPath("hap0", {n0, n1, n3, n1});
    corrupted.addPath("hap1", {n0, n2.flipped(), n3});

    const auto tally = checkPathsSpell(corrupted, assemblies);
    EXPECT_EQ(tally.checked, 2u);
    EXPECT_EQ(tally.spelled, 1u);
    EXPECT_NE(tally.firstError.find("hap1"), std::string::npos);
}

TEST(CheckPathsSpell, MissingOrRenamedPathsAreCaught)
{
    Fixture f;
    auto assemblies = assembliesOf(f.graph);
    assemblies.push_back(assemblies.front());
    assemblies.back().setName("hap2");
    EXPECT_EQ(checkPathsSpell(f.graph, assemblies).spelled, 2u);
    EXPECT_FALSE(checkPathsSpell(f.graph, assemblies).firstError.empty());

    assemblies.pop_back();
    assemblies[0].setName("other");
    EXPECT_EQ(checkPathsSpell(f.graph, assemblies).spelled, 1u);
}

} // namespace
