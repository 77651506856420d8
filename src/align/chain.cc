#include "align/chain.hh"

#include <algorithm>
#include <cmath>

namespace gpx {
namespace align {

u64
chainAnchors(const std::vector<Anchor> &anchors, const ChainParams &params,
             ChainScratch &scratch, std::vector<Chain> &out, u32 lookback)
{
    if (anchors.empty())
        return 0;

    // Sort anchors by reference, then query position.
    std::vector<u32> &order = scratch.order;
    order.resize(anchors.size());
    for (u32 i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(), [&](u32 a, u32 b) {
        if (anchors[a].refPos != anchors[b].refPos)
            return anchors[a].refPos < anchors[b].refPos;
        return anchors[a].queryPos < anchors[b].queryPos;
    });

    const std::size_t n = order.size();
    std::vector<double> &f = scratch.f;
    std::vector<i32> &pred = scratch.pred;
    f.resize(n);
    pred.assign(n, -1);
    u64 cells = 0;

    for (std::size_t i = 0; i < n; ++i) {
        const Anchor &ai = anchors[order[i]];
        f[i] = ai.length;
        std::size_t lo = i > lookback ? i - lookback : 0;
        for (std::size_t j = lo; j < i; ++j) {
            ++cells;
            const Anchor &aj = anchors[order[j]];
            if (aj.refPos + aj.length > ai.refPos)
                continue; // overlapping on the reference
            if (aj.queryPos + aj.length > ai.queryPos)
                continue; // overlapping / out of order on the query
            u64 dr = ai.refPos - (aj.refPos + aj.length);
            u64 dq = ai.queryPos - (aj.queryPos + aj.length);
            if (dr > params.maxGap || dq > params.maxGap)
                continue;
            u64 skew = dr > dq ? dr - dq : dq - dr;
            if (skew > params.maxSkew)
                continue;
            double gain = ai.length - params.gapScale * skew -
                          params.distScale * static_cast<double>(dq + dr) / 2;
            if (f[j] + gain > f[i]) {
                f[i] = f[j] + gain;
                pred[i] = static_cast<i32>(j);
            }
        }
    }

    // Extract chains greedily from the best unused tail anchors.
    std::vector<u8> &used = scratch.used;
    std::vector<u32> &tails = scratch.tails;
    used.assign(n, 0);
    tails.resize(n);
    for (u32 i = 0; i < n; ++i)
        tails[i] = i;
    std::sort(tails.begin(), tails.end(),
              [&](u32 a, u32 b) { return f[a] > f[b]; });

    u32 kept = 0;
    for (u32 t : tails) {
        if (kept >= params.maxChains)
            break;
        if (used[t] || f[t] < params.minScore)
            continue;
        // A chain that runs into a member of an earlier kept chain is
        // dropped whole; members are marked only for kept chains.
        u32 head = t;
        u32 members = 0;
        bool overlap = false;
        for (i32 cur = static_cast<i32>(t); cur >= 0; cur = pred[cur]) {
            if (used[cur]) {
                overlap = true;
                break;
            }
            head = static_cast<u32>(cur);
            ++members;
        }
        if (overlap)
            continue;
        for (i32 cur = static_cast<i32>(t); cur >= 0; cur = pred[cur])
            used[cur] = 1;
        const Anchor &first = anchors[order[head]];
        const Anchor &last = anchors[order[t]];
        Chain chain;
        chain.score = f[t];
        chain.refStart = first.refPos;
        chain.refEnd = last.refPos + last.length;
        chain.queryStart = first.queryPos;
        chain.queryEnd = last.queryPos + last.length;
        chain.numAnchors = members;
        chain.reverse = first.reverse;
        out.push_back(chain);
        ++kept;
    }
    return cells;
}

} // namespace align
} // namespace gpx
