#include "genpair/seedmap.hh"

#include <algorithm>
#include <atomic>
#include <bit>
#include <thread>

#include "util/logging.hh"
#include "util/xxhash.hh"

namespace gpx {
namespace genpair {

using genomics::DnaSequence;

u32
hashSeedValue(const DnaSequence &seed, u32 seed_len)
{
    gpx_assert(seed.size() == seed_len, "seed length mismatch");
    return util::xxh32(seed.packed().data(), seed.packed().size());
}

u32
hashSeedValueAt(const genomics::DnaView &read, u64 offset, u32 seed_len)
{
    // Repack the (generally byte-misaligned) seed slice into a stack
    // buffer word-by-word: same bytes hashSeedValue() sees for an
    // owning copy, without the per-seed heap allocation.
    genomics::DnaView seed = read.sub(offset, seed_len);
    u8 buf[(kMaxSeedLen + 3) / 4];
    static_assert(sizeof(buf) * 4 >= kMaxSeedLen);
    seed.packTo(buf);
    return util::xxh32(buf, seed.packedBytes());
}

// ---------------------------------------------------------------------
// SeedMapView
// ---------------------------------------------------------------------

SeedMapView::SeedMapView(const SeedMapParams &params, u32 table_bits,
                         std::span<const u32> seed_table,
                         std::span<const u32> locations)
    : params_(params), tableBits_(table_bits), shardShift_(table_bits),
      single_{ seed_table, locations }
{
    gpx_assert(seed_table.size() == (u64{1} << table_bits) + 1,
               "seed table size does not match table bits");
}

SeedMapView::SeedMapView(const SeedMapParams &params, u32 table_bits,
                         std::span<const SeedMapShardView> shards)
    : params_(params), tableBits_(table_bits), shards_(shards)
{
    gpx_assert(!shards.empty() && std::has_single_bit(shards.size()),
               "shard count must be a power of two");
    gpx_assert(shards.size() <= (u64{1} << table_bits),
               "more shards than seed table entries");
    u32 shardBits = static_cast<u32>(std::bit_width(shards.size()) - 1);
    shardShift_ = table_bits - shardBits;
    if (shards.size() == 1) {
        // Collapse to the inline representation: one fewer indirection
        // on lookup and no external-array lifetime to manage.
        single_ = shards[0];
        shards_ = {};
    }
}

u32
SeedMapView::hashSeed(const DnaSequence &seed) const
{
    return hashSeedValue(seed, params_.seedLen);
}

u32
SeedMapView::hashSeedAt(const genomics::DnaView &read, u64 offset) const
{
    return hashSeedValueAt(read, offset, params_.seedLen);
}

u64
SeedMapView::seedTableBytes() const
{
    if (shards_.empty())
        return single_.seedTable.size() * sizeof(u32);
    u64 bytes = 0;
    for (const auto &sh : shards_)
        bytes += sh.seedTable.size() * sizeof(u32);
    return bytes;
}

u64
SeedMapView::locationTableBytes() const
{
    if (shards_.empty())
        return single_.locations.size() * sizeof(u32);
    u64 bytes = 0;
    for (const auto &sh : shards_)
        bytes += sh.locations.size() * sizeof(u32);
    return bytes;
}

// ---------------------------------------------------------------------
// SeedMap construction
// ---------------------------------------------------------------------

namespace {

/** Auto-size the Seed Table: ~2 entries per genome base, clamped. */
u32
resolveTableBits(const genomics::Reference &ref, const SeedMapParams &p)
{
    if (p.tableBits != 0)
        return p.tableBits;
    u64 want = ref.totalLength() * 2;
    u32 bits = static_cast<u32>(std::bit_width(want));
    return std::clamp<u32>(bits, 16, 30);
}

} // namespace

SeedMap::SeedMap(const genomics::Reference &ref, const SeedMapParams &params)
    : params_(params)
{
    gpx_assert(ref.totalLength() < (u64{1} << 32),
               "SeedMap stores 32-bit locations; genome too large");
    gpx_assert(params_.seedLen >= 8 && params_.seedLen <= kMaxSeedLen,
               "unsupported seed length");

    tableBits_ = resolveTableBits(ref, params_);

    // Pass 1: temporary Seed Locations Table of (masked hash, location).
    struct Rec
    {
        u32 hash;
        u32 loc;
    };
    std::vector<Rec> recs;
    u64 totalPositions = 0;
    for (u32 c = 0; c < ref.numChromosomes(); ++c) {
        u64 len = ref.chromosomeLength(c);
        if (len >= params_.seedLen)
            totalPositions += len - params_.seedLen + 1;
    }
    recs.reserve(totalPositions);
    for (u32 c = 0; c < ref.numChromosomes(); ++c) {
        const DnaSequence &chrom = ref.chromosome(c);
        if (chrom.size() < params_.seedLen)
            continue;
        GlobalPos base = ref.chromosomeStart(c);
        for (u64 p = 0; p + params_.seedLen <= chrom.size(); ++p) {
            u32 h = maskHash(hashSeedValueAt(chrom, p, params_.seedLen));
            recs.push_back({ h, static_cast<u32>(base + p) });
            ++stats_.totalSeeds;
        }
    }

    // Pass 2: sort by (hash, location) so each seed's locations land
    // contiguously and pre-sorted in the Location Table.
    std::sort(recs.begin(), recs.end(), [](const Rec &a, const Rec &b) {
        if (a.hash != b.hash)
            return a.hash < b.hash;
        return a.loc < b.loc;
    });

    // Pass 3: build the Location Table and CSR Seed Table, applying the
    // index filtering threshold.
    seedTable_.assign((u64{1} << tableBits_) + 1, 0);
    std::vector<u32> counts(u64{1} << tableBits_, 0);

    std::size_t i = 0;
    while (i < recs.size()) {
        std::size_t j = i;
        while (j < recs.size() && recs[j].hash == recs[i].hash)
            ++j;
        u64 n = j - i;
        ++stats_.distinctHashes;
        if (params_.filterThreshold > 0 && n > params_.filterThreshold) {
            ++stats_.filteredSeeds;
            stats_.filteredLocations += n;
        } else {
            counts[recs[i].hash] = static_cast<u32>(n);
            stats_.storedLocations += n;
        }
        i = j;
    }

    locationTable_.reserve(stats_.storedLocations);
    u32 offset = 0;
    for (u64 h = 0; h < counts.size(); ++h) {
        seedTable_[h] = offset;
        offset += counts[h];
    }
    seedTable_.back() = offset;

    // Fill the Location Table using the CSR offsets.
    locationTable_.resize(stats_.storedLocations);
    i = 0;
    while (i < recs.size()) {
        std::size_t j = i;
        while (j < recs.size() && recs[j].hash == recs[i].hash)
            ++j;
        u32 h = recs[i].hash;
        if (counts[h] > 0) {
            for (std::size_t t = i; t < j; ++t)
                locationTable_[seedTable_[h] + (t - i)] = recs[t].loc;
        }
        i = j;
    }

    u64 kept = stats_.distinctHashes - stats_.filteredSeeds;
    stats_.avgLocationsPerSeed =
        kept ? static_cast<double>(stats_.storedLocations) /
                   static_cast<double>(kept)
             : 0.0;
    // Query-weighted mean: sum(n^2) / sum(n) over kept buckets.
    double sumSq = 0;
    for (u64 h = 0; h < counts.size(); ++h)
        sumSq += static_cast<double>(counts[h]) * counts[h];
    stats_.queryWeightedLocations =
        stats_.storedLocations
            ? sumSq / static_cast<double>(stats_.storedLocations)
            : 0.0;
}

SeedMap
SeedMap::build(const genomics::Reference &ref, const SeedMapParams &params,
               u32 threads)
{
    if (threads == 0)
        threads = std::max(1u, std::thread::hardware_concurrency());
    if (threads <= 1)
        return SeedMap(ref, params);

    gpx_assert(ref.totalLength() < (u64{1} << 32),
               "SeedMap stores 32-bit locations; genome too large");
    gpx_assert(params.seedLen >= 8 && params.seedLen <= kMaxSeedLen,
               "unsupported seed length");

    SeedMap map;
    map.params_ = params;
    map.tableBits_ = resolveTableBits(ref, params);
    const u32 tableBits = map.tableBits_;

    struct Rec
    {
        u32 hash;
        u32 loc;
    };

    // Hash-space shards sorted independently; one per worker is enough
    // parallelism without fragmenting the merge.
    const u32 shardCount = std::min<u32>(
        std::bit_ceil(threads), u32{ 1 } << std::min<u32>(tableBits, 8));
    const u32 shardShift =
        tableBits - static_cast<u32>(std::bit_width(shardCount) - 1);

    // Scan partitions: fixed spans of seed start positions within a
    // chromosome, so workers stay balanced on skewed chromosome sizes.
    struct Span
    {
        u32 chrom;
        u64 begin; ///< first seed start position
        u64 end;   ///< one past the last seed start position
    };
    std::vector<Span> spans;
    constexpr u64 kSpanPositions = 1u << 18;
    u64 totalPositions = 0;
    for (u32 c = 0; c < ref.numChromosomes(); ++c) {
        u64 len = ref.chromosomeLength(c);
        if (len < params.seedLen)
            continue;
        u64 positions = len - params.seedLen + 1;
        totalPositions += positions;
        for (u64 b = 0; b < positions; b += kSpanPositions)
            spans.push_back(
                { c, b, std::min(positions, b + kSpanPositions) });
    }

    // Pass 1 (parallel): scan spans, binning records by hash shard.
    // Bin order across workers is irrelevant: every shard is fully
    // sorted below, so the result is bit-identical to the serial build.
    std::vector<std::vector<std::vector<Rec>>> bins(
        threads, std::vector<std::vector<Rec>>(shardCount));
    {
        std::atomic<std::size_t> cursor{ 0 };
        auto scan = [&](u32 slot) {
            for (;;) {
                std::size_t s =
                    cursor.fetch_add(1, std::memory_order_relaxed);
                if (s >= spans.size())
                    return;
                const Span &span = spans[s];
                const DnaSequence &chrom = ref.chromosome(span.chrom);
                GlobalPos base = ref.chromosomeStart(span.chrom);
                for (u64 p = span.begin; p < span.end; ++p) {
                    u32 h = hashSeedValueAt(chrom, p, params.seedLen) &
                            ((1u << tableBits) - 1);
                    bins[slot][h >> shardShift].push_back(
                        { h, static_cast<u32>(base + p) });
                }
            }
        };
        std::vector<std::thread> workers;
        workers.reserve(threads);
        for (u32 t = 0; t < threads; ++t)
            workers.emplace_back(scan, t);
        for (auto &w : workers)
            w.join();
    }
    map.stats_.totalSeeds = totalPositions;

    // Pass 2 (parallel): per shard, gather + sort + count with the
    // index filtering threshold applied.
    struct ShardBuild
    {
        std::vector<Rec> recs;   ///< sorted (hash, loc)
        std::vector<u32> counts; ///< kept locations per masked hash
        u64 stored = 0;
        u64 distinct = 0;
        u64 filteredSeeds = 0;
        u64 filteredLocations = 0;
        double sumSq = 0;
    };
    std::vector<ShardBuild> shards(shardCount);
    {
        std::atomic<u32> cursor{ 0 };
        auto sortShard = [&]() {
            for (;;) {
                u32 s = cursor.fetch_add(1, std::memory_order_relaxed);
                if (s >= shardCount)
                    return;
                ShardBuild &sh = shards[s];
                std::size_t total = 0;
                for (u32 t = 0; t < threads; ++t)
                    total += bins[t][s].size();
                sh.recs.reserve(total);
                for (u32 t = 0; t < threads; ++t) {
                    sh.recs.insert(sh.recs.end(), bins[t][s].begin(),
                                   bins[t][s].end());
                    bins[t][s].clear();
                    bins[t][s].shrink_to_fit();
                }
                std::sort(sh.recs.begin(), sh.recs.end(),
                          [](const Rec &a, const Rec &b) {
                              if (a.hash != b.hash)
                                  return a.hash < b.hash;
                              return a.loc < b.loc;
                          });

                sh.counts.assign(u64{ 1 } << shardShift, 0);
                const u32 hashBase = s << shardShift;
                std::size_t i = 0;
                while (i < sh.recs.size()) {
                    std::size_t j = i;
                    while (j < sh.recs.size() &&
                           sh.recs[j].hash == sh.recs[i].hash)
                        ++j;
                    u64 n = j - i;
                    ++sh.distinct;
                    if (params.filterThreshold > 0 &&
                        n > params.filterThreshold) {
                        ++sh.filteredSeeds;
                        sh.filteredLocations += n;
                    } else {
                        sh.counts[sh.recs[i].hash - hashBase] =
                            static_cast<u32>(n);
                        sh.stored += n;
                        sh.sumSq += static_cast<double>(n) * n;
                    }
                    i = j;
                }
            }
        };
        std::vector<std::thread> workers;
        workers.reserve(std::min(threads, shardCount));
        for (u32 t = 0; t < std::min(threads, shardCount); ++t)
            workers.emplace_back(sortShard);
        for (auto &w : workers)
            w.join();
    }

    // Pass 3: global CSR assembly. Shard s's locations start at the sum
    // of all earlier shards' stored counts; within the shard, offsets
    // accumulate exactly as in the serial pass.
    u64 storedTotal = 0;
    double sumSq = 0;
    for (const ShardBuild &sh : shards) {
        map.stats_.distinctHashes += sh.distinct;
        map.stats_.filteredSeeds += sh.filteredSeeds;
        map.stats_.filteredLocations += sh.filteredLocations;
        storedTotal += sh.stored;
        sumSq += sh.sumSq;
    }
    map.stats_.storedLocations = storedTotal;
    map.seedTable_.assign((u64{ 1 } << tableBits) + 1, 0);
    map.locationTable_.resize(storedTotal);

    std::vector<u64> shardBase(shardCount);
    u64 base = 0;
    for (u32 s = 0; s < shardCount; ++s) {
        shardBase[s] = base;
        base += shards[s].stored;
    }
    map.seedTable_.back() = static_cast<u32>(storedTotal);

    {
        std::atomic<u32> cursor{ 0 };
        auto fillShard = [&]() {
            for (;;) {
                u32 s = cursor.fetch_add(1, std::memory_order_relaxed);
                if (s >= shardCount)
                    return;
                const ShardBuild &sh = shards[s];
                const u32 hashBase = s << shardShift;
                u64 offset = shardBase[s];
                for (u64 h = 0; h < sh.counts.size(); ++h) {
                    map.seedTable_[hashBase + h] =
                        static_cast<u32>(offset);
                    offset += sh.counts[h];
                }
                // Fill this shard's location slice from its sorted recs.
                u64 out = shardBase[s];
                std::size_t i = 0;
                while (i < sh.recs.size()) {
                    std::size_t j = i;
                    while (j < sh.recs.size() &&
                           sh.recs[j].hash == sh.recs[i].hash)
                        ++j;
                    if (sh.counts[sh.recs[i].hash - hashBase] > 0) {
                        for (std::size_t t = i; t < j; ++t)
                            map.locationTable_[out++] = sh.recs[t].loc;
                    }
                    i = j;
                }
            }
        };
        std::vector<std::thread> workers;
        workers.reserve(std::min(threads, shardCount));
        for (u32 t = 0; t < std::min(threads, shardCount); ++t)
            workers.emplace_back(fillShard);
        for (auto &w : workers)
            w.join();
    }

    u64 kept = map.stats_.distinctHashes - map.stats_.filteredSeeds;
    map.stats_.avgLocationsPerSeed =
        kept ? static_cast<double>(storedTotal) / static_cast<double>(kept)
             : 0.0;
    map.stats_.queryWeightedLocations =
        storedTotal ? sumSq / static_cast<double>(storedTotal) : 0.0;
    return map;
}

} // namespace genpair
} // namespace gpx
