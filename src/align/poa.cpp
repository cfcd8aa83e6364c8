#include "align/poa.hpp"

#include <algorithm>
#include <climits>

#include "core/logging.hpp"
#include "core/scratch.hpp"

namespace pgb::align {

uint32_t
PoaGraph::addNode(uint8_t base)
{
    bases_.push_back(base);
    weights_.push_back(1);
    out_.emplace_back();
    in_.emplace_back();
    return static_cast<uint32_t>(bases_.size() - 1);
}

void
PoaGraph::addEdgeWeighted(uint32_t from, uint32_t to)
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

void
PoaGraph::topoOrder(std::vector<uint32_t> &order,
                    std::vector<uint32_t> &indegree) const
{
    const auto n = static_cast<uint32_t>(bases_.size());
    indegree.assign(n, 0);
    for (uint32_t u = 0; u < n; ++u) {
        for (const Edge &edge : out_[u])
            ++indegree[edge.to];
    }
    // Kahn's algorithm; the output doubles as the frontier queue.
    order.clear();
    order.reserve(n);
    for (uint32_t u = 0; u < n; ++u) {
        if (indegree[u] == 0)
            order.push_back(u);
    }
    for (size_t head = 0; head < order.size(); ++head) {
        for (const Edge &edge : out_[order[head]]) {
            if (--indegree[edge.to] == 0)
                order.push_back(edge.to);
        }
    }
    if (order.size() != n)
        core::panic("PoaGraph: graph is not a DAG");
}

namespace {

constexpr int32_t kNegInf = INT_MIN / 2;

enum Move : uint8_t { kNone, kDiag, kDelete, kInsert };

/**
 * Backpointer of one DP cell, packed into 32 bits so the move passes
 * vectorize: the move in the low two bits and, above them, the graph
 * predecessor of a kDiag/kDelete move (kNoParent for a fresh start or
 * an insertion).
 */
using Back = uint32_t;
constexpr uint32_t kNoParent = UINT32_MAX >> 2;

constexpr Back
packBack(Move move, uint32_t parent)
{
    return parent << 2 | move;
}

/**
 * One node's band: rows [lo, hi] live at cells [offset, offset + hi -
 * lo] of the flat arrays. bestRow/bestScore are the band's first
 * maximum, which centres the successors' bands.
 */
struct NodeBand
{
    size_t offset;
    int32_t lo;
    int32_t hi;
    int32_t bestRow;
    int32_t bestScore;
};

/**
 * Per-thread DP buffers (core::threadScratch), reused across calls so
 * the steady state neither allocates nor faults pages in. Every cell
 * of a band is written before it is read, so growth skips the fill.
 */
struct PoaScratch
{
    std::vector<uint32_t> order;
    std::vector<uint32_t> indegree;
    std::vector<NodeBand> bands;
    std::vector<int32_t, core::DefaultInitAlloc<int32_t>> score;
    std::vector<Back, core::DefaultInitAlloc<Back>> back;
    std::vector<uint32_t> threaded;
};

/**
 * One move from a predecessor over @p count rows: cur[k] takes
 * prev[k] + bonus(k), and back[k] takes @p move, when that is strictly
 * better; a kNegInf predecessor cell offers nothing. Written as
 * selects, not branches, so the loop vectorizes.
 */
template <typename Bonus>
void
relax(const int32_t *prev, int32_t *cur, Back *back, int32_t count,
      Back move, Bonus bonus)
{
    for (int32_t k = 0; k < count; ++k) {
        const int32_t add = bonus(k);
        const int32_t cand = prev[k] != kNegInf ? prev[k] + add : kNegInf;
        const int32_t old = cur[k];
        const Back old_back = back[k];
        back[k] = cand > old ? move : old_back;
        cur[k] = cand > old ? cand : old;
    }
}

} // namespace

int32_t
PoaGraph::addSequence(std::span<const uint8_t> bases)
{
    if (bases.empty())
        core::fatal("PoaGraph::addSequence: empty sequence");
    ++sequenceCount_;

    if (bases_.empty()) {
        // Seed the backbone.
        uint32_t prev = addNode(bases[0]);
        for (size_t i = 1; i < bases.size(); ++i) {
            const uint32_t node = addNode(bases[i]);
            addEdgeWeighted(prev, node);
            prev = node;
        }
        return 0;
    }

    PoaScratch &ws = core::threadScratch<PoaScratch>();
    const auto m = static_cast<int32_t>(bases.size());
    topoOrder(ws.order, ws.indegree);
    const auto n = static_cast<uint32_t>(bases_.size());
    if (n > kNoParent)
        core::fatal("PoaGraph::addSequence: more than ", kNoParent,
                    " nodes");

    // Semi-global DP: free graph start/end, query global.
    // score(u, i): best score of query[0..i) ending at node u (node
    // u's base consumed last); cells outside u's band read kNegInf.
    //
    // Banding: per node keep only rows within `band` of the first best
    // row of its best predecessor (approximation of abPOA's adaptive
    // band); band 0 keeps full rows [0, m] (exact DP). A band spans at
    // most `width` rows, which bounds the flat arrays.
    const int32_t band = params_.band;
    const size_t width = band > 0
        ? static_cast<size_t>(std::min(m + 1, 2 * band + 2))
        : static_cast<size_t>(m) + 1;
    if (ws.score.size() < n * width) {
        ws.score.resize(n * width);
        ws.back.resize(n * width);
    }
    ws.bands.resize(n);
    int32_t *const score = ws.score.data();
    Back *const back = ws.back.data();
    NodeBand *const bands = ws.bands.data();
    const int32_t match = params_.match;
    const int32_t mismatch = params_.mismatch;
    const int32_t gap = params_.gap;

    size_t used = 0;
    for (uint32_t u : ws.order) {
        const uint8_t base = bases_[u];

        int32_t lo = 0, hi = m;
        if (band > 0) {
            // Center the band on the first best row among predecessors
            // (predecessor order, then row order; row 0 for sources).
            int32_t center = 0;
            int32_t center_best = kNegInf;
            for (uint32_t p : in_[u]) {
                if (bands[p].bestScore > center_best) {
                    center_best = bands[p].bestScore;
                    center = bands[p].bestRow;
                }
            }
            lo = std::max(0, center - band);
            hi = std::min(m, center + band + 1);
        }
        NodeBand &own = bands[u];
        own.offset = used;
        own.lo = lo;
        own.hi = hi;
        const int32_t rows = hi - lo + 1;
        used += static_cast<size_t>(rows);
        cellsComputed_ += static_cast<uint64_t>(rows);
        // row[k] / brow[k] hold query row lo + k.
        int32_t *const row = score + own.offset;
        Back *const brow = back + own.offset;

        // Each cell takes the first best of, in order: a fresh start
        // (row 1), the diagonals and then the deletions of each
        // predecessor in predecessor order, and the insertion from the
        // row above. Running the moves as passes over the band in that
        // order, each replacing a cell only when strictly better,
        // resolves ties exactly as cell-by-cell evaluation does.
        std::fill_n(row, rows, kNegInf);
        std::fill_n(brow, rows, packBack(kNone, kNoParent));
        if (lo <= 1 && 1 <= hi) {
            row[1 - lo] = bases[0] == base ? match : -mismatch;
            brow[1 - lo] = packBack(kDiag, kNoParent);
        }
        for (uint32_t p : in_[u]) {
            // Rows [first, last] read p's rows [first - 1, last - 1].
            const NodeBand &pb = bands[p];
            const int32_t first = std::max({lo, 1, pb.lo + 1});
            const int32_t last = std::min(hi, pb.hi + 1);
            if (first > last)
                continue; // the bands do not overlap
            const uint8_t *const query = bases.data() + (first - 1);
            relax(score + pb.offset + (first - 1 - pb.lo),
                  row + (first - lo), brow + (first - lo),
                  last - first + 1, packBack(kDiag, p),
                  [=](int32_t k) {
                      return query[k] == base ? match : -mismatch;
                  });
        }
        for (uint32_t p : in_[u]) {
            const NodeBand &pb = bands[p];
            const int32_t first = std::max(lo, pb.lo);
            const int32_t last = std::min(hi, pb.hi);
            if (first > last)
                continue;
            relax(score + pb.offset + (first - pb.lo), row + (first - lo),
                  brow + (first - lo), last - first + 1,
                  packBack(kDelete, p), [=](int32_t) { return -gap; });
        }
        // Insertions run down the band, so they stay sequential; the
        // same sweep records the band's first maximum.
        int32_t above = row[0];
        int32_t best_row = lo;
        int32_t best = above;
        for (int32_t k = 1; k < rows; ++k) {
            const int32_t cand = above != kNegInf ? above - gap : kNegInf;
            const int32_t old = row[k];
            const Back old_back = brow[k];
            brow[k] = cand > old ? packBack(kInsert, kNoParent) : old_back;
            above = cand > old ? cand : old;
            row[k] = above;
            best_row = above > best ? lo + k : best_row;
            best = above > best ? above : best;
        }
        own.bestRow = best_row;
        own.bestScore = best;
    }

    // Pick the best end: full query consumed, any node.
    int32_t best_score = kNegInf;
    uint32_t best_node = UINT32_MAX;
    for (uint32_t u = 0; u < n; ++u) {
        const NodeBand &nb = bands[u];
        if (nb.hi != m)
            continue; // row m lies outside u's band
        const int32_t end = score[nb.offset + static_cast<size_t>(m - nb.lo)];
        if (end > best_score) {
            best_score = end;
            best_node = u;
        }
    }
    if (best_node == UINT32_MAX) {
        // Degenerate (band missed everything): thread as a new path.
        uint32_t prev = addNode(bases[0]);
        for (int32_t i = 1; i < m; ++i) {
            const uint32_t node = addNode(bases[static_cast<size_t>(i)]);
            addEdgeWeighted(prev, node);
            prev = node;
        }
        return 0;
    }

    // Traceback, collecting (query index -> fused-or-new node). Every
    // cell on the path scored above kNegInf, so it lies in its band.
    std::vector<uint32_t> &threaded = ws.threaded;
    threaded.assign(bases.size(), UINT32_MAX);
    {
        uint32_t u = best_node;
        int32_t i = m;
        while (i > 0 && u != UINT32_MAX) {
            const NodeBand &nb = bands[u];
            const Back bp = back[nb.offset + static_cast<size_t>(i - nb.lo)];
            const auto move = static_cast<Move>(bp & 3);
            const uint32_t parent =
                (bp >> 2) == kNoParent ? UINT32_MAX : bp >> 2;
            if (move == kDiag) {
                if (bases[static_cast<size_t>(i - 1)] == bases_[u]) {
                    threaded[static_cast<size_t>(i - 1)] = u; // fuse
                    ++weights_[u];
                }
                u = parent;
                --i;
            } else if (move == kDelete) {
                u = parent;
            } else if (move == kInsert) {
                --i;
            } else {
                break; // fresh start boundary
            }
        }
    }

    // Materialize unfused query bases as new nodes and wire the path.
    uint32_t prev = UINT32_MAX;
    for (size_t i = 0; i < bases.size(); ++i) {
        uint32_t node = threaded[i];
        if (node == UINT32_MAX)
            node = addNode(bases[i]);
        if (prev != UINT32_MAX && prev != node)
            addEdgeWeighted(prev, node);
        prev = node;
    }
    return best_score;
}

std::vector<uint8_t>
PoaGraph::consensus() const
{
    if (bases_.empty())
        return {};
    std::vector<uint32_t> order, indegree;
    topoOrder(order, indegree);
    const auto n = static_cast<uint32_t>(bases_.size());
    constexpr int64_t kNegInf = INT64_MIN / 2;

    // Heaviest path by node weight + incoming edge weight.
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

} // namespace pgb::align
