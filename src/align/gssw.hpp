/**
 * @file
 * GSSW: Graph SIMD Smith-Waterman (paper §3, extracted from vg map).
 *
 * Aligns a read fragment to an acyclic local subgraph. Node bodies are
 * computed with the striped SIMD column engine (align/ssw.hpp); the
 * first column of each node is seeded from an element-wise max over its
 * parents' final columns — the "node initialization" step that makes
 * the kernel alternate between dense SIMD regions and indirect graph
 * accesses (paper Figure 4a).
 *
 * Per-node DP matrices are kept only when the caller asks for them
 * (GsswOptions::keepMatrices, off by default): gsswTraceback and the
 * §6.1 characterization read them, a score-only caller such as the
 * mapper does not. Kept on instrumented runs, the matrix is row-major,
 * written through the strided "swizzle" stores that the paper's §6.1
 * case study attributes GSSW's extra memory stalls to. Timed runs keep
 * the kernel's native striped columns instead, copied out with plain
 * vector stores — the swizzle leaves the hot loop and moves into
 * gsswTraceback's index math (see GsswMatrixLayout). The matrices skip
 * their zero-fill (every cell is written back).
 *
 * A node's final (H, E) column is live only until its last child has
 * read it. The per-thread workspace keeps these states in a small pool:
 * a node takes over the buffer of a parent it is the last consumer of,
 * and hands its own back once its last child is done, so the pool grows
 * with the width of the graph, not its node count, and repeated
 * alignments do not touch malloc.
 *
 * Like sswAlign, the uninstrumented (NullProbe) entry dispatches to
 * the 16-lane AVX2 kernel when the runtime level allows; instrumented
 * probes keep the 8-lane layout the paper characterizes. Results are
 * bit-identical across levels.
 */

#ifndef PGB_ALIGN_GSSW_HPP
#define PGB_ALIGN_GSSW_HPP

#include <algorithm>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "align/dispatch.hpp"
#include "align/score.hpp"
#include "align/ssw.hpp"
#include "core/logging.hpp"
#include "core/probe.hpp"
#include "core/scratch.hpp"
#include "graph/local_graph.hpp"

namespace pgb::align {

/** GSSW configuration. */
struct GsswOptions
{
    /**
     * Retain full per-node DP matrices, as gssw does for traceback
     * (§6.1). Set it when the matrices are read: gsswTraceback and the
     * characterization runs do, score-only callers do not.
     */
    bool keepMatrices = false;
};

/**
 * H matrix of one node. Default-initialized on resize: the writeback
 * stores every cell, so zero-filling was pure cost.
 */
using GsswMatrix =
    std::vector<int16_t, core::DefaultInitAlloc<int16_t>>;

/** Memory layout of the retained per-node DP matrices. */
enum class GsswMatrixLayout : uint8_t
{
    /**
     * H(i, j) at i * nodeLength + j, gssw's own layout, kept on
     * instrumented runs: writing it un-stripes every column through
     * the strided "swizzle" stores the paper's §6.1 characterizes.
     */
    kRowMajor,
    /**
     * The SIMD kernel's native striped layout, kept on timed runs:
     * column j occupies segLen*lanes contiguous int16 starting at
     * j * segLen * lanes, with H(i, j) in vector (i % segLen), lane
     * (i / segLen) — so the writeback is a straight streaming copy of
     * the live column, and the swizzle cost moves to the (rare)
     * traceback index math. Columns include the padded rows i >= m.
     */
    kStriped,
};

/** GSSW result: best local hit plus work/footprint accounting. */
struct GsswResult
{
    GraphLocalHit best;
    uint64_t cellsComputed = 0; ///< DP cells evaluated (padded rows excl.)
    /**
     * H matrix per node (empty when keepMatrices is off), in
     * `matrixLayout` order. gsswTraceback handles both layouts.
     */
    std::vector<GsswMatrix> matrices;
    /** Layout of `matrices` (see GsswMatrixLayout). */
    GsswMatrixLayout matrixLayout = GsswMatrixLayout::kRowMajor;
    int matrixSegLen = 0; ///< striped-layout segment length
    int matrixLanes = 0;  ///< striped-layout lane count
};

namespace detail {

/** Thread-local buffers reused across gsswAlign calls. */
struct GsswWorkspace
{
    StripedProfile profile;
    /**
     * Pool of final (H, E) striped states. A node's state holds one
     * slot from the node's processing until its last child has read
     * it; `freeSlots` lists the slots no live node holds (most recently
     * released last, so the next node reuses a warm buffer).
     */
    std::vector<StripedState> states;
    std::vector<uint32_t> freeSlots;
    /** Pool slot of each processed node's final state. */
    std::vector<uint32_t> slotOf;
    /** Per node: successors not yet processed. */
    std::vector<uint32_t> pendingChildren;
    /** Striped H of the best column so far (query-end recovery). */
    std::vector<int16_t> bestH;

    /** Free every slot and load @p graph's successor counts. */
    void beginGraph(const graph::LocalGraph &graph);
    /** A free slot, growing the pool when none is left. */
    uint32_t acquire();
    /** Return @p slot to the pool. */
    void release(uint32_t slot);
};

/** The calling thread's GSSW workspace. */
GsswWorkspace &gsswWorkspace();

/** Graph striped alignment with an explicit vector backend. */
template <typename Vec, typename Probe>
GsswResult
gsswAlignT(const graph::LocalGraph &graph, std::span<const uint8_t> query,
           const ScoreParams &params, const GsswOptions &options,
           Probe &probe)
{
    if (!graph.isDag())
        core::fatal("gsswAlign: graph must be acyclic");
    if (query.empty())
        core::fatal("gsswAlign: empty query");

    GsswWorkspace &ws = gsswWorkspace();
    ws.profile.reset(query, params, Vec::kWidth);
    const StripedProfile &profile = ws.profile;
    const size_t m = profile.queryLength();
    const auto n_nodes = static_cast<uint32_t>(graph.nodeCount());

    GsswResult result;
    result.matrixLayout = Probe::enabled ? GsswMatrixLayout::kRowMajor
                                         : GsswMatrixLayout::kStriped;
    result.matrixSegLen = profile.segLen();
    result.matrixLanes = profile.lanes();
    if (options.keepMatrices)
        result.matrices.resize(n_nodes);

    ws.beginGraph(graph);
    for (uint32_t node : graph.topoOrder()) {
        const auto preds = graph.predecessors(node);
        uint32_t slot = 0;
        if (preds.empty()) {
            slot = ws.acquire();
            ws.states[slot].reset(profile.segLen(), profile.lanes());
        } else {
            // Node initialization: element-wise max over parents' final
            // columns. These are the indirect graph accesses. The node
            // takes over the buffer of a parent it is the last consumer
            // of (mergeMax is exact, so which one does not matter);
            // only when every parent still has other children is the
            // first parent's column copied into a fresh slot.
            auto owner = std::find_if(
                preds.begin(), preds.end(),
                [&](uint32_t p) { return ws.pendingChildren[p] == 1; });
            if (owner != preds.end()) {
                probe.load(&*owner, 4);
                slot = ws.slotOf[*owner];
            } else {
                owner = preds.begin();
                probe.load(&*owner, 4);
                slot = ws.acquire();
                ws.states[slot].assignFrom(ws.states[ws.slotOf[*owner]]);
                probe.op(core::OpKind::kMemory,
                         static_cast<uint64_t>(ws.states[slot].h.size() /
                                               kLanes));
            }
            StripedState &state = ws.states[slot];
            for (auto p = preds.begin(); p != preds.end(); ++p) {
                if (p != owner) {
                    probe.load(&*p, 4);
                    state.mergeMax(ws.states[ws.slotOf[*p]]);
                    probe.op(core::OpKind::kVector,
                             static_cast<uint64_t>(state.h.size() /
                                                   kLanes));
                }
                if (--ws.pendingChildren[*p] == 0 &&
                    ws.slotOf[*p] != slot)
                    ws.release(ws.slotOf[*p]);
            }
        }
        ws.slotOf[node] = slot;
        StripedState &state = ws.states[slot];

        const auto &bases = graph.nodeSeq(node);
        const size_t len = bases.size();

        // Instrumented runs keep gssw's row-major matrices — the
        // strided swizzle stores the paper's §6.1 blames — written
        // in-kernel through the probe. Timed runs keep the kernel's
        // native striped columns instead, copied out with straight
        // vector stores (see GsswMatrixLayout::kStriped).
        constexpr bool striped_keep = !Probe::enabled;
        const size_t sw =
            static_cast<size_t>(profile.segLen()) * profile.lanes();
        int16_t *matrix = nullptr;
        if (options.keepMatrices) {
            result.matrices[node].resize((striped_keep ? sw : m) * len);
            matrix = result.matrices[node].data();
        }

        for (size_t j = 0; j < len; ++j) {
            probe.load(bases.data() + j, 1);
            int16_t *column_out = nullptr;
            if (matrix != nullptr && !striped_keep)
                column_out = matrix + j;
            const int16_t col_max = stripedColumnT<Vec>(
                profile, params, state, bases[j], probe, column_out,
                len);
            if (striped_keep && matrix != nullptr) {
                storeStripedColumn<Vec>(state.h.data(),
                                        profile.segLen(),
                                        matrix + j * sw);
            }
            result.cellsComputed += m;
            probe.branch(/* site */ 10, col_max > result.best.score);
            if (col_max > result.best.score) {
                result.best.score = col_max;
                result.best.node = node;
                result.best.nodeOffset = static_cast<int32_t>(j);
                // The winning column is needed once at the end for
                // query-end recovery; when the striped matrices are
                // kept it is already retained there, otherwise
                // snapshot it (one vector copy per improvement).
                if (!(striped_keep && options.keepMatrices))
                    ws.bestH.assign(state.h.begin(), state.h.end());
            }
        }
        // A sink's column has no reader.
        if (ws.pendingChildren[node] == 0)
            ws.release(slot);
    }
    if (result.best.score > 0) {
        const size_t sw =
            static_cast<size_t>(profile.segLen()) * profile.lanes();
        const int16_t *best_col =
            (!Probe::enabled && options.keepMatrices)
                ? result.matrices[result.best.node].data() +
                      static_cast<size_t>(result.best.nodeOffset) * sw
                : ws.bestH.data();
        result.best.queryEnd = stripedQueryEnd(
            profile.segLen(), profile.lanes(), m, best_col,
            static_cast<int16_t>(result.best.score));
    }
    if (result.best.score >= kScoreSaturated)
        noteScoreSaturation();
    return result;
}

#if defined(PGB_HAVE_AVX2_BUILD)
/** 16-lane kernel, compiled with -mavx2 (align/ssw_avx2.cpp). */
GsswResult gsswAlignAvx2(const graph::LocalGraph &graph,
                         std::span<const uint8_t> query,
                         const ScoreParams &params,
                         const GsswOptions &options);
#endif

} // namespace detail

/**
 * Align @p query to the DAG @p graph with local (Smith-Waterman)
 * semantics. Dispatches on the runtime SIMD level; instrumented
 * probes stay on the 8-lane layout.
 *
 * @param graph finalized acyclic LocalGraph (fatal otherwise)
 */
template <typename Probe = core::NullProbe>
GsswResult
gsswAlign(const graph::LocalGraph &graph, std::span<const uint8_t> query,
          const ScoreParams &params, const GsswOptions &options,
          Probe &probe)
{
#if defined(PGB_HAVE_AVX2_BUILD)
    if constexpr (std::is_same_v<Probe, core::NullProbe>) {
        if (activeSimdLevel() == SimdLevel::kAvx2)
            return detail::gsswAlignAvx2(graph, query, params, options);
    }
#endif
    if (activeSimdLevel() == SimdLevel::kScalar) {
        return detail::gsswAlignT<VScalar<8>>(graph, query, params,
                                              options, probe);
    }
    return detail::gsswAlignT<V8i16>(graph, query, params, options,
                                     probe);
}

/** Convenience overload without instrumentation. */
GsswResult gsswAlign(const graph::LocalGraph &graph,
                     std::span<const uint8_t> query,
                     const ScoreParams &params,
                     const GsswOptions &options = {});

/**
 * Reference implementation: textbook affine-gap local alignment over a
 * DAG, computed cell by cell without SIMD. Used by the unit tests to
 * validate gsswAlign and as the scalar ablation backend.
 */
GraphLocalHit gsswAlignScalar(const graph::LocalGraph &graph,
                              std::span<const uint8_t> query,
                              const ScoreParams &params);

/** One CIGAR run of a graph alignment. */
struct CigarEntry
{
    char op = '=';       ///< '=', 'X', 'I' (query gap... see below), 'D'
    uint32_t length = 0;
};

/**
 * A base-level graph alignment recovered by traceback:
 * '=' match, 'X' mismatch, 'I' query base consumed without a graph
 * base (insertion in the read), 'D' graph base consumed without a
 * query base (deletion from the read).
 */
struct GsswAlignment
{
    int32_t score = 0;
    int32_t queryStart = 0;     ///< first aligned query index
    int32_t queryEnd = -1;      ///< last aligned query index (incl.)
    std::vector<CigarEntry> cigar;      ///< alignment order
    std::vector<uint32_t> nodeWalk;     ///< nodes visited, in order
    std::vector<uint8_t> referenceBases;///< graph bases consumed
};

/**
 * Trace the optimal local alignment back through the DP matrices that
 * gsswAlign retained (GsswOptions::keepMatrices must have been set —
 * this is exactly why gssw keeps them, the §6.1 memory footprint).
 * fatal() if the matrices are missing.
 */
GsswAlignment gsswTraceback(const graph::LocalGraph &graph,
                            std::span<const uint8_t> query,
                            const ScoreParams &params,
                            const GsswResult &result);

} // namespace pgb::align

#endif // PGB_ALIGN_GSSW_HPP
