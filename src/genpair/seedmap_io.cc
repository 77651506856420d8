#include "genpair/seedmap_io.hh"

#include <algorithm>
#include <bit>
#include <cstring>
#include <ostream>

#include "util/fault.hh"
#include "util/logging.hh"
#include "util/sigbus_guard.hh"
#include "util/xxhash.hh"

namespace gpx {
namespace genpair {

namespace {

void
setError(std::string *error, const std::string &msg)
{
    if (error != nullptr)
        *error = "seedmap image: " + msg;
}

u64
alignUp(u64 value)
{
    return (value + kSeedMapSectionAlign - 1) &
           ~(kSeedMapSectionAlign - 1);
}

void
writePadding(std::ostream &os, u64 written)
{
    static const char zeros[kSeedMapSectionAlign] = {};
    u64 pad = alignUp(written) - written;
    if (pad > 0)
        os.write(zeros, static_cast<std::streamsize>(pad));
}

/** Parsed v2 image: shard views into caller-owned bytes. */
struct ParsedV2
{
    SeedMapParams params;
    u32 tableBits = 0;
    std::vector<SeedMapShardView> shards;
};

/**
 * Validate a v2 image held in memory and carve the shard views out of
 * it. @p data must stay alive as long as the returned views. Rejects —
 * with a diagnostic — any header/directory/bounds/checksum violation;
 * the fuzz suite drives every branch here.
 */
std::optional<ParsedV2>
parseV2Image(const u8 *data, u64 size, const SeedMapOpenOptions &options,
             std::string *error)
{
    SeedMapImageHeaderV2 hdr;
    if (size < sizeof(hdr)) {
        setError(error, "truncated before the v2 header (" +
                            std::to_string(size) + " bytes)");
        return std::nullopt;
    }
    std::memcpy(&hdr, data, sizeof(hdr));
    u64 wantHeaderSum = util::xxh64(data, sizeof(hdr) - sizeof(u64));
    if (hdr.headerChecksum != wantHeaderSum) {
        setError(error, "header checksum mismatch");
        return std::nullopt;
    }
    if (hdr.fileBytes != size) {
        setError(error, "file size " + std::to_string(size) +
                            " does not match header fileBytes " +
                            std::to_string(hdr.fileBytes));
        return std::nullopt;
    }
    if (hdr.seedLen < 8 || hdr.seedLen > kMaxSeedLen) {
        setError(error,
                 "unsupported seed length " + std::to_string(hdr.seedLen));
        return std::nullopt;
    }
    if (hdr.tableBits == 0 || hdr.tableBits > 30) {
        setError(error,
                 "table bits out of range: " + std::to_string(hdr.tableBits));
        return std::nullopt;
    }
    const u64 tableEntries = u64{ 1 } << hdr.tableBits;
    if (hdr.shardCount == 0 || !std::has_single_bit(hdr.shardCount) ||
        hdr.shardCount > tableEntries) {
        setError(error, "shard count must be a power of two in [1, 2^" +
                            std::to_string(hdr.tableBits) + "], got " +
                            std::to_string(hdr.shardCount));
        return std::nullopt;
    }
    const u64 dirBytes = u64{ hdr.shardCount } * sizeof(SeedMapShardDirEntry);
    if (hdr.directoryOffset % kSeedMapSectionAlign != 0 ||
        hdr.directoryOffset < sizeof(hdr) ||
        hdr.directoryOffset > size || dirBytes > size - hdr.directoryOffset) {
        setError(error, "shard directory out of bounds");
        return std::nullopt;
    }
    u64 wantDirSum = util::xxh64(data + hdr.directoryOffset, dirBytes);
    if (hdr.directoryChecksum != wantDirSum) {
        setError(error, "shard directory checksum mismatch");
        return std::nullopt;
    }

    ParsedV2 out;
    out.params.seedLen = hdr.seedLen;
    out.params.tableBits = hdr.tableBits;
    out.params.filterThreshold = hdr.filterThreshold;
    out.tableBits = hdr.tableBits;
    out.shards.reserve(hdr.shardCount);

    const u64 hashPerShard = tableEntries / hdr.shardCount;
    for (u32 s = 0; s < hdr.shardCount; ++s) {
        SeedMapShardDirEntry ent;
        std::memcpy(&ent,
                    data + hdr.directoryOffset +
                        u64{ s } * sizeof(SeedMapShardDirEntry),
                    sizeof(ent));
        const std::string where = "shard " + std::to_string(s) + ": ";
        if (ent.hashCount != hashPerShard) {
            setError(error, where + "hash range " +
                                std::to_string(ent.hashCount) +
                                " does not partition the seed table (want " +
                                std::to_string(hashPerShard) + ")");
            return std::nullopt;
        }
        if (ent.seedTableEntries != ent.hashCount + 1) {
            setError(error, where + "seed table entry count " +
                                std::to_string(ent.seedTableEntries) +
                                " is not hashCount+1");
            return std::nullopt;
        }
        if (ent.locationEntries > (u64{ 1 } << 32)) {
            setError(error, where + "location entry count overflows the "
                                    "32-bit location space");
            return std::nullopt;
        }
        const u64 seedBytes = ent.seedTableEntries * sizeof(u32);
        const u64 locBytes = ent.locationEntries * sizeof(u32);
        if (ent.seedTableOffset % kSeedMapSectionAlign != 0 ||
            ent.seedTableOffset > size || seedBytes > size - ent.seedTableOffset) {
            setError(error, where + "seed table section out of bounds");
            return std::nullopt;
        }
        if (ent.locationOffset % kSeedMapSectionAlign != 0 ||
            ent.locationOffset > size || locBytes > size - ent.locationOffset) {
            setError(error, where + "location section out of bounds");
            return std::nullopt;
        }
        const u32 *seedTable =
            reinterpret_cast<const u32 *>(data + ent.seedTableOffset);
        const u32 *locations =
            reinterpret_cast<const u32 *>(data + ent.locationOffset);
        if (options.verifyPayload) {
            if (util::xxh64(seedTable, seedBytes) != ent.seedTableChecksum) {
                setError(error, where + "seed table checksum mismatch");
                return std::nullopt;
            }
            if (util::xxh64(locations, locBytes) != ent.locationChecksum) {
                setError(error, where + "location table checksum mismatch");
                return std::nullopt;
            }
        }
        // Structural invariants of the local CSR that lookups rely on.
        // These are NOT optional alongside the checksums: a checksum
        // only proves the bytes are the author's, not that the author's
        // CSR is sane, and lookup() turns any non-monotone entry into
        // an out-of-bounds span. Monotonicity plus the endpoint checks
        // bound every interior entry to [0, locationEntries].
        if (seedTable[0] != 0 ||
            seedTable[ent.seedTableEntries - 1] != ent.locationEntries) {
            setError(error, where + "local CSR does not cover the "
                                    "location slice");
            return std::nullopt;
        }
        // Branchless block scan (vectorizes); damaged images are the
        // rare case, so locate the offending entry only on failure.
        bool monotone = true;
        for (u64 i = 0; i + 1 < ent.seedTableEntries;) {
            u64 end = std::min<u64>(ent.seedTableEntries - 1, i + 4096);
            u32 bad = 0;
            for (; i < end; ++i)
                bad |= static_cast<u32>(seedTable[i] > seedTable[i + 1]);
            if (bad != 0) {
                monotone = false;
                break;
            }
        }
        if (!monotone) {
            setError(error, where + "local CSR is not monotone");
            return std::nullopt;
        }
        out.shards.push_back(
            { { seedTable, ent.seedTableEntries },
              { locations, ent.locationEntries } });
    }
    return out;
}

} // namespace

void
saveSeedMapV2(std::ostream &os, const SeedMap &map, u32 shards)
{
    const u32 tableBits = map.tableBits();
    const u64 tableEntries = u64{ 1 } << tableBits;
    u64 want = std::bit_ceil(
        u64{ std::clamp<u32>(shards, 1, 1u << 30) });
    const u32 shardCount =
        static_cast<u32>(std::min<u64>(want, tableEntries));
    const u64 hashPerShard = tableEntries / shardCount;

    const std::vector<u32> &seedTable = map.rawSeedTable();
    const std::vector<u32> &locations = map.rawLocationTable();

    // Lay out the directory first so every section offset is known
    // before anything is written.
    std::vector<SeedMapShardDirEntry> dir(shardCount);
    u64 offset = alignUp(sizeof(SeedMapImageHeaderV2) +
                         u64{ shardCount } * sizeof(SeedMapShardDirEntry));
    // Shard-local CSR tables are derived (rebased) copies; build them
    // once, checksum them, and reuse at write time.
    std::vector<std::vector<u32>> localCsr(shardCount);
    for (u32 s = 0; s < shardCount; ++s) {
        const u64 lo = u64{ s } * hashPerShard;
        const u32 globalBase = seedTable[lo];
        const u32 globalEnd = seedTable[lo + hashPerShard];
        localCsr[s].resize(hashPerShard + 1);
        for (u64 i = 0; i <= hashPerShard; ++i)
            localCsr[s][i] = seedTable[lo + i] - globalBase;

        SeedMapShardDirEntry &ent = dir[s];
        ent.hashCount = hashPerShard;
        ent.seedTableOffset = offset;
        ent.seedTableEntries = hashPerShard + 1;
        ent.seedTableChecksum = util::xxh64(
            localCsr[s].data(), localCsr[s].size() * sizeof(u32));
        offset = alignUp(offset + ent.seedTableEntries * sizeof(u32));
        ent.locationOffset = offset;
        ent.locationEntries = globalEnd - globalBase;
        ent.locationChecksum = util::xxh64(
            locations.data() + globalBase,
            ent.locationEntries * sizeof(u32));
        offset = alignUp(offset + ent.locationEntries * sizeof(u32));
    }

    SeedMapImageHeaderV2 hdr;
    hdr.seedLen = map.params().seedLen;
    hdr.tableBits = tableBits;
    hdr.filterThreshold = map.params().filterThreshold;
    hdr.shardCount = shardCount;
    hdr.fileBytes = offset;
    hdr.directoryOffset = sizeof(SeedMapImageHeaderV2);
    hdr.directoryChecksum = util::xxh64(
        dir.data(), dir.size() * sizeof(SeedMapShardDirEntry));
    hdr.headerChecksum =
        util::xxh64(&hdr, sizeof(hdr) - sizeof(u64));

    os.write(reinterpret_cast<const char *>(&hdr), sizeof(hdr));
    os.write(reinterpret_cast<const char *>(dir.data()),
             static_cast<std::streamsize>(dir.size() *
                                          sizeof(SeedMapShardDirEntry)));
    writePadding(os, sizeof(hdr) + dir.size() * sizeof(SeedMapShardDirEntry));
    for (u32 s = 0; s < shardCount; ++s) {
        const u64 seedBytes = localCsr[s].size() * sizeof(u32);
        os.write(reinterpret_cast<const char *>(localCsr[s].data()),
                 static_cast<std::streamsize>(seedBytes));
        writePadding(os, seedBytes);
        const u64 lo = u64{ s } * hashPerShard;
        const u64 locBytes = dir[s].locationEntries * sizeof(u32);
        os.write(reinterpret_cast<const char *>(locations.data() +
                                                seedTable[lo]),
                 static_cast<std::streamsize>(locBytes));
        writePadding(os, locBytes);
    }
}

std::optional<SeedMapImage>
SeedMapImage::open(const std::string &path,
                   const SeedMapOpenOptions &options, std::string *error)
{
    auto mapped = util::MappedFile::open(path, error);
    if (!mapped)
        return std::nullopt;

    if (mapped->size() < 2 * sizeof(u32)) {
        setError(error, "file too small to be a SeedMap image");
        return std::nullopt;
    }
    u32 magicVersion[2];
    std::memcpy(magicVersion, mapped->data(), sizeof(magicVersion));
    if (magicVersion[0] != SeedMapImageHeaderV2::kMagic) {
        setError(error, "not a SeedMap image (bad magic)");
        return std::nullopt;
    }
    if (magicVersion[1] == 1) {
        setError(error, path + " is a version 1 image, which is no "
                        "longer supported; rebuild it with gpx_index");
        return std::nullopt;
    }
    if (magicVersion[1] != SeedMapImageHeaderV2::kVersion) {
        setError(error, path + " has unsupported image version " +
                            std::to_string(magicVersion[1]));
        return std::nullopt;
    }
    if (util::checkFault("mmap.validate")) {
        setError(error, path + ": injected validation fault "
                        "(mmap.validate)");
        return std::nullopt;
    }

    // Validate in place against the mapping, once. The pass touches
    // every byte the image will ever serve, so it runs under the
    // SIGBUS guard: a file truncated between mmap and here (or shrunk
    // by a botched index refresh) becomes a diagnostic reject instead
    // of killing the process.
    mapped->prefetch();
    std::optional<ParsedV2> parsed;
    const bool survived = util::SigbusGuard::run([&] {
        parsed = parseV2Image(mapped->data(), mapped->size(), options,
                              error);
    });
    if (!survived) {
        setError(error, path + " truncated while validating "
                        "(SIGBUS on a mapped page); refusing image");
        return std::nullopt;
    }
    if (!parsed)
        return std::nullopt;

    SeedMapImage image;
    image.file_ = std::move(*mapped);
    image.shards_ = std::move(parsed->shards);
    image.params_ = parsed->params;
    image.tableBits_ = parsed->tableBits;
    return image;
}

} // namespace genpair
} // namespace gpx
