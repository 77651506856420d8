#include "baseline/minimizer_index.hh"

#include <algorithm>
#include <bit>
#include <deque>

#include "util/logging.hh"
#include "util/xxhash.hh"

namespace gpx {
namespace baseline {

namespace {

/** Directory cap: 2^20 buckets, 2^20 + 1 u32 offsets (4 MiB). */
constexpr u32 kMaxDirectoryBits = 20;

/** Invertible 64-bit mix (Minimap2's hash64) applied to packed k-mers. */
u64
mixHash(u64 key, u64 mask)
{
    key = (~key + (key << 21)) & mask;
    key = key ^ (key >> 24);
    key = ((key + (key << 3)) + (key << 8)) & mask;
    key = key ^ (key >> 14);
    key = ((key + (key << 2)) + (key << 4)) & mask;
    key = key ^ (key >> 28);
    key = (key + (key << 31)) & mask;
    return key;
}

} // namespace

void
extractMinimizers(const genomics::DnaView &seq,
                  const MinimizerParams &params, std::vector<Minimizer> &out)
{
    out.clear();
    const u32 k = params.k;
    const u32 w = params.w;
    if (seq.size() < k)
        return;
    gpx_assert(k >= 4 && k <= 31, "k must be in [4,31]");
    gpx_assert(w >= 1, "w must be positive");

    const u64 mask = (u64{1} << (2 * k)) - 1;
    u64 fwd = 0, rev = 0;
    // Expected density: roughly 2/(w+1) positions win a window.
    out.reserve(2 * seq.size() / (w + 1) + 16);

    struct Cand
    {
        u64 hash;
        u64 pos;
        bool reverse;
    };
    // Monotonic queue over the sliding window as a fixed-capacity power-
    // of-two ring: positions in the queue span at most w+1 values before
    // the front eviction runs, so no allocation ever happens mid-stream
    // (and none at all for w < 64, whose ring fits on the stack).
    const u32 cap = std::bit_ceil(w + 1u);
    const u32 rmask = cap - 1;
    Cand stackRing[64] = {};
    std::vector<Cand> heapRing;
    Cand *ring = stackRing;
    if (cap > 64) {
        heapRing.resize(cap);
        ring = heapRing.data();
    }
    u32 head = 0;
    u32 count = 0;
    u64 lastEmittedPos = ~u64{0};

    // Roll the k-mer hashes directly over the packed words: one 64-bit
    // load yields 32 bases, decoded by shifting a register instead of a
    // per-base packed-byte extraction.
    const std::size_t len = seq.size();
    const std::size_t nw = seq.numWords();
    std::size_t i = 0;
    for (std::size_t wi = 0; wi < nw; ++wi) {
        u64 word = seq.word(wi);
        const std::size_t cnt = std::min<std::size_t>(32, len - 32 * wi);
        for (std::size_t t = 0; t < cnt; ++t, ++i) {
            const u8 b = static_cast<u8>(word & 0x3u);
            word >>= 2;
            fwd = ((fwd << 2) | b) & mask;
            rev = (rev >> 2) |
                  (static_cast<u64>(genomics::complementBase(b))
                   << (2 * (k - 1)));
            if (i + 1 < k)
                continue;
            u64 pos = i + 1 - k;
            // Canonical k-mer; skip palindromic ties to stay
            // strand-neutral.
            if (fwd == rev)
                continue;
            bool reverse = rev < fwd;
            u64 canon = reverse ? rev : fwd;
            Cand c{ mixHash(canon, mask), pos, reverse };

            while (count > 0 &&
                   ring[(head + count - 1) & rmask].hash >= c.hash)
                --count;
            ring[(head + count) & rmask] = c;
            ++count;
            while (ring[head].pos + w <= pos) {
                head = (head + 1) & rmask;
                --count;
            }

            if (pos + 1 >= w || i + 1 == len) {
                const Cand &m = ring[head];
                if (m.pos != lastEmittedPos) {
                    out.push_back({ m.hash, m.pos, m.reverse });
                    lastEmittedPos = m.pos;
                }
            }
        }
    }
}

std::vector<Minimizer>
extractMinimizers(const genomics::DnaView &seq,
                  const MinimizerParams &params)
{
    std::vector<Minimizer> out;
    extractMinimizers(seq, params, out);
    return out;
}

std::vector<Minimizer>
extractMinimizersScalar(const genomics::DnaView &seq,
                        const MinimizerParams &params)
{
    std::vector<Minimizer> out;
    const u32 k = params.k;
    const u32 w = params.w;
    if (seq.size() < k)
        return out;
    gpx_assert(k >= 4 && k <= 31, "k must be in [4,31]");

    const u64 mask = (u64{1} << (2 * k)) - 1;
    u64 fwd = 0, rev = 0;

    struct Cand
    {
        u64 hash;
        u64 pos;
        bool reverse;
    };
    std::deque<Cand> window;
    u64 lastEmittedPos = ~u64{0};

    for (std::size_t i = 0; i < seq.size(); ++i) {
        u8 b = seq.at(i);
        fwd = ((fwd << 2) | b) & mask;
        rev = (rev >> 2) | (static_cast<u64>(genomics::complementBase(b))
                            << (2 * (k - 1)));
        if (i + 1 < k)
            continue;
        u64 pos = i + 1 - k;
        // Canonical k-mer; skip palindromic ties to stay strand-neutral.
        if (fwd == rev)
            continue;
        bool reverse = rev < fwd;
        u64 canon = reverse ? rev : fwd;
        Cand c{ mixHash(canon, mask), pos, reverse };

        while (!window.empty() && window.back().hash >= c.hash)
            window.pop_back();
        window.push_back(c);
        while (window.front().pos + w <= pos)
            window.pop_front();

        if (pos + 1 >= w || i + 1 == seq.size()) {
            const Cand &m = window.front();
            if (m.pos != lastEmittedPos) {
                out.push_back({ m.hash, m.pos, m.reverse });
                lastEmittedPos = m.pos;
            }
        }
    }
    return out;
}

MinimizerIndex::MinimizerIndex(const genomics::Reference &ref,
                               const MinimizerParams &params)
    : params_(params)
{
    struct Rec
    {
        u64 hash;
        GlobalPos pos;
        bool reverse;
    };
    std::vector<Rec> recs;
    for (u32 c = 0; c < ref.numChromosomes(); ++c) {
        auto mins = extractMinimizers(ref.chromosome(c), params_);
        GlobalPos base = ref.chromosomeStart(c);
        for (const auto &m : mins)
            recs.push_back({ m.hash, base + m.pos, m.reverse });
    }
    std::sort(recs.begin(), recs.end(), [](const Rec &a, const Rec &b) {
        if (a.hash != b.hash)
            return a.hash < b.hash;
        return a.pos < b.pos;
    });

    std::size_t i = 0;
    while (i < recs.size()) {
        std::size_t j = i;
        while (j < recs.size() && recs[j].hash == recs[i].hash)
            ++j;
        if (j - i <= params_.maxOccurrences) {
            hashes_.push_back(recs[i].hash);
            offsets_.push_back(entries_.size());
            for (std::size_t t = i; t < j; ++t)
                entries_.push_back({ recs[t].pos, recs[t].reverse });
        }
        i = j;
    }
    offsets_.push_back(entries_.size());

    // Bucket directory over the top bits of the 2k-bit hashes, sized to
    // the table (one bucket per distinct hash or more), in one pass.
    gpx_assert(hashes_.size() < (u64{ 1 } << 32),
               "minimizer table exceeds the u32 directory");
    const u32 bits = std::min<u32>(
        { kMaxDirectoryBits, 2 * params_.k,
          static_cast<u32>(std::bit_width(hashes_.size())) });
    dirShift_ = 2 * params_.k - bits;
    dir_.resize((std::size_t{ 1 } << bits) + 1);
    std::size_t h = 0;
    for (std::size_t b = 0; b < dir_.size(); ++b) {
        while (h < hashes_.size() && (hashes_[h] >> dirShift_) < b)
            ++h;
        dir_[b] = static_cast<u32>(h);
    }
}

std::span<const MinimizerIndex::Entry>
MinimizerIndex::lookup(u64 hash) const
{
    const u64 bucket = hash >> dirShift_;
    if (bucket >= dir_.size() - 1)
        return {}; // wider than any 2k-bit minimizer hash
    for (u32 i = dir_[bucket], end = dir_[bucket + 1]; i < end; ++i) {
        if (hashes_[i] == hash)
            return { entries_.data() + offsets_[i],
                     entries_.data() + offsets_[i + 1] };
    }
    return {};
}

} // namespace baseline
} // namespace gpx
