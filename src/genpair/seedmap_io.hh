/**
 * @file
 * SeedMap serialization: the memory-mappable sharded v2 image.
 *
 * The paper's offline stage builds SeedMap "only once for a given
 * reference genome" and reuses it across read sets (§4.2). The image
 * is designed to be used *in place*:
 *
 *   [header, 64 B]
 *   [shard directory, shardCount x 64 B]
 *   [shard 0 Seed Table]   (64-byte aligned, zero-padded)
 *   [shard 0 Location Table]
 *   [shard 1 Seed Table] ...
 *
 * Every section starts on a 64-byte boundary (cache-line- and
 * direct-I/O-friendly) and carries an xxh64 checksum recorded in the
 * header/directory. A shard covers a contiguous power-of-two range of
 * masked seed-hash values; its Seed Table is a local CSR over its own
 * Location Table slice, so a SeedMapImage can serve queries straight
 * from kernel-shared mapped pages with zero deserialization, and a
 * future multi-reference deployment can mount shards from several
 * images under one directory.
 */

#ifndef GPX_GENPAIR_SEEDMAP_IO_HH
#define GPX_GENPAIR_SEEDMAP_IO_HH

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "genpair/seedmap.hh"
#include "util/mapped_file.hh"

namespace gpx {
namespace genpair {

/** Section alignment of the v2 image (cache line / DMA burst). */
inline constexpr u64 kSeedMapSectionAlign = 64;

/** v2 image header: exactly one 64-byte aligned section. */
struct SeedMapImageHeaderV2
{
    static constexpr u32 kMagic = 0x53504758; // "GPXS"
    static constexpr u32 kVersion = 2;

    u32 magic = kMagic;
    u32 version = kVersion;
    u32 seedLen = 0;
    u32 tableBits = 0;
    u32 filterThreshold = 0;
    u32 shardCount = 0; ///< power of two, <= 2^tableBits
    u64 fileBytes = 0;  ///< total image size, for truncation detection
    u64 directoryOffset = 0; ///< byte offset of the shard directory
    u64 directoryChecksum = 0; ///< xxh64 of the directory section
    u64 reserved = 0;
    /** xxh64 of the preceding 56 header bytes. */
    u64 headerChecksum = 0;
};
static_assert(sizeof(SeedMapImageHeaderV2) == kSeedMapSectionAlign);

/** One v2 shard directory entry (one 64-byte aligned slot each). */
struct SeedMapShardDirEntry
{
    u64 hashCount = 0;        ///< masked-hash values this shard covers
    u64 seedTableOffset = 0;  ///< byte offset, 64-byte aligned
    u64 seedTableEntries = 0; ///< hashCount + 1 local CSR offsets
    u64 seedTableChecksum = 0;
    u64 locationOffset = 0; ///< byte offset, 64-byte aligned
    u64 locationEntries = 0;
    u64 locationChecksum = 0;
    u64 reserved = 0;
};
static_assert(sizeof(SeedMapShardDirEntry) == kSeedMapSectionAlign);

/**
 * Serialize a SeedMap as a v2 image with @p shards hash-range shards
 * (rounded up to a power of two and clamped to the Seed Table size;
 * pass 1 for a single-shard image).
 */
void saveSeedMapV2(std::ostream &os, const SeedMap &map, u32 shards = 1);

/** Options for SeedMapImage::open. */
struct SeedMapOpenOptions
{
    /**
     * Verify the per-shard Seed/Location Table checksums at open time.
     * Costs one sequential read of the image's pages; disable for
     * latency-critical restarts of already-trusted images (the header
     * and directory are always verified).
     */
    bool verifyPayload = true;
};

/**
 * An opened SeedMap image. The tables are served straight from a
 * read-only memory mapping — zero-copy, demand-paged and kernel-shared
 * across every process mapping the same file.
 */
class SeedMapImage
{
  public:
    /**
     * Open @p path, validating the header, directory and (by default)
     * payload checksums. Returns std::nullopt with a diagnostic in
     * @p error on any validation failure, including an image version
     * other than SeedMapImageHeaderV2::kVersion.
     */
    static std::optional<SeedMapImage>
    open(const std::string &path, const SeedMapOpenOptions &options = {},
         std::string *error = nullptr);

    /**
     * Query view over the image. Valid as long as this SeedMapImage is
     * alive and unmoved-from; hand it to the drivers by value.
     */
    SeedMapView view() const { return { params_, tableBits_, shards_ }; }

    u32 shardCount() const { return static_cast<u32>(shards_.size()); }
    u32 tableBits() const { return tableBits_; }
    const SeedMapParams &params() const { return params_; }
    /** On-disk image size in bytes. */
    u64 imageBytes() const { return file_.size(); }

  private:
    SeedMapImage() = default;

    util::MappedFile file_;
    std::vector<SeedMapShardView> shards_; ///< spans into file_
    SeedMapParams params_;
    u32 tableBits_ = 0;
};

} // namespace genpair
} // namespace gpx

#endif // GPX_GENPAIR_SEEDMAP_IO_HH
