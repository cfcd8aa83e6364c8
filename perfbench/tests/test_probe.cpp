/**
 * @file
 * The order-dependence probe must itself be deterministic: the same
 * reads give the same count on every run, whatever ran before it.
 */

#include <gtest/gtest.h>

#include "layers.hpp"
#include "workload.hpp"

namespace {

TEST(OrderDependenceProbe, SameCountOnEveryRun)
{
    // The benchmark's own fixed probe set (smoke scale).
    const auto probe =
        perfbench::fixedProbeSet(perfbench::findWorkload("long-vgmap", true));
    const uint64_t first = perfbench::orderDependentReads(
        *probe.context, probe.config, probe.reads);
    // The set shows the defect (README.md), so a probe that let earlier
    // reads on the calling thread leak into its mappings would be
    // caught below. Once clusterAnchorsInto sorts by a total order this
    // becomes 0.
    EXPECT_GT(first, 0u);
    EXPECT_LE(first, probe.reads.size());
    // Map other reads on this thread in between: the probe must not
    // see them.
    pgb::pipeline::mapBatch(*probe.context, probe.config,
                            std::span(probe.reads).last(2));
    EXPECT_EQ(perfbench::orderDependentReads(*probe.context, probe.config,
                                             probe.reads),
              first);
}

TEST(PoolProbe, TimesEveryReadMappedAlone)
{
    const auto probe =
        perfbench::fixedProbeSet(perfbench::findWorkload("long-vgmap", true));
    const auto seconds = perfbench::timeEachAlone(
        *probe.context, probe.config, probe.reads);
    ASSERT_EQ(seconds.size(), probe.reads.size());
    for (double s : seconds)
        EXPECT_GT(s, 0.0);
}

} // namespace
