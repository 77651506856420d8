/**
 * @file
 * SeedMap: the offline hash-table index of the reference genome
 * (paper §4.2, Fig. 4).
 *
 * Two tables, exactly as in the paper:
 *  - the Location Table linearly concatenates, per seed, the sorted
 *    reference-genome locations of that seed;
 *  - the Seed Table is a direct-indexed array over (masked) seed hash
 *    values whose entry i holds the Location Table offset of the first
 *    location of seed-hash i; the half-open range
 *    [seedTable[i], seedTable[i+1]) is seed i's location list.
 *
 * Locations are stored as 32-bit flat positions (4-byte entries, the
 * granularity the NMSL memory-traffic model assumes). Seeds occurring
 * more than the index-filtering threshold are dropped at construction
 * time (§5.2), bounding the hardware FIFO depth.
 */

#ifndef GPX_GENPAIR_SEEDMAP_HH
#define GPX_GENPAIR_SEEDMAP_HH

#include <span>
#include <vector>

#include "genomics/reference.hh"
#include "genomics/sequence.hh"
#include "util/types.hh"

namespace gpx {
namespace genpair {

/** Upper bound on seedLen (sizes hashSeedAt's stack repack buffer). */
inline constexpr u32 kMaxSeedLen = 256;

/** SeedMap construction parameters. */
struct SeedMapParams
{
    u32 seedLen = 50;         ///< paper's 50 bp partitioned seeds
    u32 tableBits = 0;        ///< log2(Seed Table entries); 0 = auto-size
    u32 filterThreshold = 500;///< index filtering threshold (0 = disabled)
};

/** Construction/occupancy statistics (drive the hardware model). */
struct SeedMapStats
{
    u64 totalSeeds = 0;          ///< seed positions scanned
    u64 storedLocations = 0;     ///< locations kept in the Location Table
    u64 filteredSeeds = 0;       ///< distinct seeds dropped by the filter
    u64 filteredLocations = 0;   ///< locations dropped with them
    u64 distinctHashes = 0;      ///< occupied Seed Table entries
    double avgLocationsPerSeed = 0.0; ///< mean list length per kept hash
    /**
     * Query-weighted mean locations per seed: the expected list length
     * when the queried seed comes from a random genome position (the
     * paper's Obs. 2 metric, ~9.5 on GRCh38 — repeat seeds are queried
     * proportionally to their multiplicity).
     */
    double queryWeightedLocations = 0.0;
};

class SeedMap;

/** Hash a seed sequence of length @p seed_len (unmasked 32-bit xxHash). */
u32 hashSeedValue(const genomics::DnaSequence &seed, u32 seed_len);

/**
 * Hash of the @p seed_len seed starting at @p offset in @p read:
 * identical to hashSeedValue() on an owning copy, but repacks through a
 * stack buffer so the per-seed heap allocation disappears from the hot
 * path.
 */
u32 hashSeedValueAt(const genomics::DnaView &read, u64 offset,
                    u32 seed_len);

/**
 * One shard of a SeedMap: a local CSR Seed Table slice plus the
 * Location Table slice it indexes. A shard covers a contiguous,
 * power-of-two-sized range of masked seed-hash values; seedTable holds
 * hashCount+1 offsets that are *local* to this shard's locations span.
 *
 * The spans are non-owning: in the mmap-backed v2 image path they point
 * straight into kernel-shared file pages.
 */
struct SeedMapShardView
{
    std::span<const u32> seedTable; ///< local CSR, hashCount+1 entries
    std::span<const u32> locations; ///< this shard's location slice
};

/**
 * Non-owning SeedMap view: everything the online query path needs —
 * seed hashing plus the two-table lookup — over storage it does not
 * own. The whole query path (PartitionedSeeder, queryCandidates,
 * GenPairPipeline, the serial/pool/streaming drivers, LongReadMapper,
 * the NMSL workload builder) consumes this type, so an owning SeedMap,
 * a memory-mapped v2 image and any future remote/tiered backend are
 * interchangeable at every call site.
 *
 * Cheap to copy (a few words plus a span of shard descriptors). The
 * underlying storage — the owning SeedMap's vectors, or a
 * SeedMapImage's mapping and shard array — must outlive every copy.
 */
class SeedMapView
{
  public:
    SeedMapView() = default;

    /** Single-shard view over whole-table storage. */
    SeedMapView(const SeedMapParams &params, u32 table_bits,
                std::span<const u32> seed_table,
                std::span<const u32> locations);

    /**
     * Multi-shard view: @p shards must hold a power-of-two count of
     * equal-hash-range shards in ascending hash order and stay alive
     * for the view's lifetime (the view keeps only the span).
     */
    SeedMapView(const SeedMapParams &params, u32 table_bits,
                std::span<const SeedMapShardView> shards);

    /** Every owning SeedMap converts implicitly (the common call). */
    SeedMapView(const SeedMap &map); // NOLINT(google-explicit-constructor)

    const SeedMapParams &params() const { return params_; }
    u32 tableBits() const { return tableBits_; }
    u32 shardCount() const
    {
        return shards_.empty() ? 1u
                               : static_cast<u32>(shards_.size());
    }

    /** Hash a seed sequence to its (unmasked) 32-bit xxHash value. */
    u32 hashSeed(const genomics::DnaSequence &seed) const;

    /**
     * Hash of the seed starting at @p offset in @p read: identical to
     * hashSeed() on an owning copy, but repacks through a stack buffer
     * so the per-seed heap allocation disappears from the hot path.
     */
    u32 hashSeedAt(const genomics::DnaView &read, u64 offset) const;

    /**
     * Query: the sorted location list of a seed hash (the online
     * SeedMap Query of Fig. 4b). Two memory accesses in hardware: one
     * Seed Table entry pair, then a contiguous Location Table burst —
     * the shard indirection is a shift, not an access.
     */
    std::span<const u32>
    lookup(u32 hash) const
    {
        u32 m = maskHash(hash);
        const SeedMapShardView &sh =
            shards_.empty() ? single_ : shards_[m >> shardShift_];
        u32 local = m & ((u32{1} << shardShift_) - 1);
        u32 lo = sh.seedTable[local];
        u32 hi = sh.seedTable[local + 1];
        return { sh.locations.data() + lo, sh.locations.data() + hi };
    }

    /** Seed Table bytes summed over shards (4-byte offsets). */
    u64 seedTableBytes() const;
    /** Location Table bytes summed over shards (4-byte locations). */
    u64 locationTableBytes() const;

  private:
    u32 maskHash(u32 hash) const { return hash & ((1u << tableBits_) - 1); }

    SeedMapParams params_;
    u32 tableBits_ = 0;
    /** Masked-hash bits resolved inside a shard (= tableBits for 1). */
    u32 shardShift_ = 0;
    /** Inline storage for the single-shard case, so a view over an
        owning SeedMap needs no external shard array. */
    SeedMapShardView single_;
    /** Multi-shard descriptors; empty means use single_. */
    std::span<const SeedMapShardView> shards_;
};

/** The SeedMap index (owning). */
class SeedMap
{
  public:
    /** Build the index over @p ref (the offline stage). */
    SeedMap(const genomics::Reference &ref, const SeedMapParams &params);

    /**
     * Parallel offline build: partitions the reference scan into
     * fixed-span slices, bins seed records by hash shard and sorts the
     * shards concurrently. Bit-identical tables to the serial
     * constructor for any thread count (0 = hardware concurrency).
     */
    static SeedMap build(const genomics::Reference &ref,
                         const SeedMapParams &params, u32 threads);

    const SeedMapParams &params() const { return params_; }
    const SeedMapStats &stats() const { return stats_; }

    /** Non-owning view over this map (valid while the map lives). */
    SeedMapView
    view() const
    {
        return { params_, tableBits_, seedTable_, locationTable_ };
    }

    /** Hash a seed sequence to its (unmasked) 32-bit xxHash value. */
    u32
    hashSeed(const genomics::DnaSequence &seed) const
    {
        return hashSeedValue(seed, params_.seedLen);
    }

    /** See hashSeedValueAt. */
    u32
    hashSeedAt(const genomics::DnaView &read, u64 offset) const
    {
        return hashSeedValueAt(read, offset, params_.seedLen);
    }

    /**
     * Query the sorted location list of a seed hash. Delegates to the
     * view so there is exactly one lookup implementation to keep
     * correct (product hot paths hold a SeedMapView directly).
     */
    std::span<const u32>
    lookup(u32 hash) const
    {
        return view().lookup(hash);
    }

    /** Seed Table size in bytes (4-byte offsets). */
    u64 seedTableBytes() const { return seedTable_.size() * sizeof(u32); }
    /** Location Table size in bytes (4-byte locations). */
    u64
    locationTableBytes() const
    {
        return locationTable_.size() * sizeof(u32);
    }

    u32 tableBits() const { return tableBits_; }

    /** Raw CSR Seed Table (serialization / NMSL address layout). */
    const std::vector<u32> &rawSeedTable() const { return seedTable_; }
    /** Raw Location Table. */
    const std::vector<u32> &rawLocationTable() const
    {
        return locationTable_;
    }

  private:
    SeedMap() = default;

    u32 maskHash(u32 hash) const { return hash & ((1u << tableBits_) - 1); }

    SeedMapParams params_;
    SeedMapStats stats_;
    u32 tableBits_ = 0;
    /** CSR offsets, size 2^tableBits + 1. */
    std::vector<u32> seedTable_;
    /** Flat sorted locations per seed hash. */
    std::vector<u32> locationTable_;
};

inline SeedMapView::SeedMapView(const SeedMap &map)
{
    *this = map.view();
}

} // namespace genpair
} // namespace gpx

#endif // GPX_GENPAIR_SEEDMAP_HH
