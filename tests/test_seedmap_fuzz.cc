/**
 * @file
 * Format-fuzz wall for the SeedMap v2 image: every header and directory
 * byte bit-flipped, truncation at every section boundary, every
 * checksum corrupted. The contract under test: SeedMapImage::open must
 * reject a damaged image with a diagnostic — never crash, never
 * silently accept. The ASan/UBSan CI job runs this
 * suite too, so any out-of-bounds parse is caught even when it would
 * not change the verdict.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "genpair/seedmap_io.hh"
#include "simdata/genome_generator.hh"
#include "util/xxhash.hh"

namespace {

using namespace gpx;
using genomics::Reference;
using genpair::SeedMap;
using genpair::SeedMapImage;
using genpair::SeedMapImageHeaderV2;
using genpair::SeedMapOpenOptions;
using genpair::SeedMapParams;
using genpair::SeedMapShardDirEntry;

class SeedMapFuzzTest : public ::testing::Test
{
  protected:
    static constexpr u32 kShards = 4;

    void
    SetUp() override
    {
        simdata::GenomeParams gp;
        gp.length = 20000;
        gp.chromosomes = 2;
        gp.seed = 99;
        ref_ = simdata::generateGenome(gp);
        SeedMapParams sp;
        sp.tableBits = 12; // small table keeps the fuzz grid fast
        map_ = std::make_unique<SeedMap>(ref_, sp);

        std::ostringstream os;
        genpair::saveSeedMapV2(os, *map_, kShards);
        image_ = os.str();

        std::memcpy(&hdr_, image_.data(), sizeof(hdr_));
        ASSERT_EQ(hdr_.shardCount, kShards);
        ASSERT_EQ(hdr_.fileBytes, image_.size());
    }

    /** Write @p bytes to a temp file and return the path. */
    std::string
    writeTemp(const std::string &bytes, const std::string &tag)
    {
        std::string path = ::testing::TempDir() + "gpx_fuzz_" + tag +
                           ".gpx";
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
        out.close();
        return path;
    }

    /** open() must reject @p bytes; returns its diagnostic. */
    std::string
    expectRejected(const std::string &bytes, const std::string &what)
    {
        std::string error;
        EXPECT_FALSE(
            SeedMapImage::open(writeTemp(bytes, "rej"), {}, &error)
                .has_value())
            << what << ": accepted a damaged image";
        EXPECT_FALSE(error.empty())
            << what << ": rejected without a diagnostic";
        return error;
    }

    /** Patch the image at @p offset and refresh the header checksum, so
        semantic validation (not the checksum) is what rejects. */
    std::string
    withPatchedHeader(std::size_t offset, const void *value,
                      std::size_t len)
    {
        std::string bytes = image_;
        std::memcpy(bytes.data() + offset, value, len);
        u64 sum = util::xxh64(bytes.data(),
                              sizeof(SeedMapImageHeaderV2) - sizeof(u64));
        std::memcpy(bytes.data() + sizeof(SeedMapImageHeaderV2) -
                        sizeof(u64),
                    &sum, sizeof(sum));
        return bytes;
    }

    Reference ref_;
    std::unique_ptr<SeedMap> map_;
    std::string image_;
    SeedMapImageHeaderV2 hdr_;
};

TEST_F(SeedMapFuzzTest, CleanImageRoundTrips)
{
    std::string error;
    auto opened = SeedMapImage::open(writeTemp(image_, "clean"), {},
                                     &error);
    ASSERT_TRUE(opened.has_value()) << error;
    EXPECT_EQ(opened->shardCount(), kShards);
    EXPECT_EQ(opened->params().seedLen, map_->params().seedLen);
    EXPECT_EQ(opened->params().filterThreshold,
              map_->params().filterThreshold);
    genpair::SeedMapView view = opened->view();
    const genomics::DnaSequence &chrom = ref_.chromosome(0);
    for (u64 p = 0; p + 50 <= chrom.size(); p += 137) {
        u32 h = map_->hashSeed(chrom.sub(p, 50));
        auto want = map_->lookup(h);
        auto got = view.lookup(h);
        ASSERT_EQ(want.size(), got.size()) << "position " << p;
        for (std::size_t i = 0; i < want.size(); ++i)
            EXPECT_EQ(want[i], got[i]);
    }
}

TEST_F(SeedMapFuzzTest, EveryHeaderByteBitFlipRejected)
{
    // The header checksum covers bytes [0, 56); flipping any bit there
    // breaks it, and flipping the checksum itself breaks the match.
    for (std::size_t off = 0; off < sizeof(SeedMapImageHeaderV2); ++off) {
        std::string bytes = image_;
        bytes[off] = static_cast<char>(bytes[off] ^ 0x10);
        expectRejected(bytes,
                       "header byte " + std::to_string(off) + " flipped");
    }
}

TEST_F(SeedMapFuzzTest, EveryDirectoryByteBitFlipRejected)
{
    const std::size_t dirBegin = hdr_.directoryOffset;
    const std::size_t dirBytes =
        std::size_t{ hdr_.shardCount } * sizeof(SeedMapShardDirEntry);
    for (std::size_t off = dirBegin; off < dirBegin + dirBytes; ++off) {
        std::string bytes = image_;
        bytes[off] = static_cast<char>(bytes[off] ^ 0x04);
        expectRejected(bytes, "directory byte " + std::to_string(off) +
                                  " flipped");
    }
}

TEST_F(SeedMapFuzzTest, TruncationAtEverySectionBoundaryRejected)
{
    // Section boundaries: header end, directory end, every shard's seed
    // table and location section start, plus one byte short of EOF.
    std::vector<std::size_t> cuts = {
        0, 1, sizeof(u32), 2 * sizeof(u32), sizeof(SeedMapImageHeaderV2)
    };
    cuts.push_back(hdr_.directoryOffset +
                   std::size_t{ hdr_.shardCount } *
                       sizeof(SeedMapShardDirEntry));
    for (u32 s = 0; s < hdr_.shardCount; ++s) {
        SeedMapShardDirEntry ent;
        std::memcpy(&ent,
                    image_.data() + hdr_.directoryOffset +
                        std::size_t{ s } * sizeof(ent),
                    sizeof(ent));
        cuts.push_back(ent.seedTableOffset);
        cuts.push_back(ent.locationOffset);
    }
    cuts.push_back(image_.size() - 1);

    for (std::size_t cut : cuts) {
        ASSERT_LT(cut, image_.size());
        expectRejected(image_.substr(0, cut),
                       "truncated at byte " + std::to_string(cut));
    }
}

TEST_F(SeedMapFuzzTest, EveryPayloadSectionCorruptionRejected)
{
    for (u32 s = 0; s < hdr_.shardCount; ++s) {
        SeedMapShardDirEntry ent;
        std::memcpy(&ent,
                    image_.data() + hdr_.directoryOffset +
                        std::size_t{ s } * sizeof(ent),
                    sizeof(ent));
        {
            std::string bytes = image_;
            std::size_t mid =
                ent.seedTableOffset + ent.seedTableEntries * 2;
            bytes[mid] = static_cast<char>(bytes[mid] ^ 0x40);
            expectRejected(bytes, "shard " + std::to_string(s) +
                                      " seed table corrupted");
        }
        if (ent.locationEntries > 0) {
            std::string bytes = image_;
            std::size_t mid =
                ent.locationOffset + ent.locationEntries * 2;
            bytes[mid] = static_cast<char>(bytes[mid] ^ 0x40);
            expectRejected(bytes, "shard " + std::to_string(s) +
                                      " location table corrupted");
        }
    }
}

TEST_F(SeedMapFuzzTest, SemanticViolationsRejectedPastTheChecksum)
{
    // These patches keep the header checksum valid, so the *semantic*
    // validators — not the checksum — must reject.
    u32 three = 3; // not a power of two
    expectRejected(withPatchedHeader(offsetof(SeedMapImageHeaderV2,
                                              shardCount),
                                     &three, sizeof(three)),
                   "shardCount=3");
    u32 bits = 31;
    expectRejected(withPatchedHeader(offsetof(SeedMapImageHeaderV2,
                                              tableBits),
                                     &bits, sizeof(bits)),
                   "tableBits=31");
    u32 seedLen = 4;
    expectRejected(withPatchedHeader(offsetof(SeedMapImageHeaderV2,
                                              seedLen),
                                     &seedLen, sizeof(seedLen)),
                   "seedLen=4");
    u64 wrongSize = image_.size() + genpair::kSeedMapSectionAlign;
    expectRejected(withPatchedHeader(offsetof(SeedMapImageHeaderV2,
                                              fileBytes),
                                     &wrongSize, sizeof(wrongSize)),
                   "fileBytes too large");
    u64 badDir = image_.size() + 64;
    expectRejected(withPatchedHeader(offsetof(SeedMapImageHeaderV2,
                                              directoryOffset),
                                     &badDir, sizeof(badDir)),
                   "directory beyond EOF");
}

TEST_F(SeedMapFuzzTest, GarbageAndWrongVersionsRejected)
{
    expectRejected(std::string(), "empty image");
    expectRejected(std::string("GPX"), "three bytes");
    expectRejected(std::string(4096, '\0'), "all zeros");
    expectRejected(std::string("not a seedmap image at all — just text"),
                   "text file");

    // The version word is read before any checksum, so each wrong
    // version gets a diagnostic naming it; retired v1 images are told
    // how to get a current one.
    for (u32 version : { 1u, 3u }) {
        std::string bytes = image_;
        std::memcpy(bytes.data() + sizeof(u32), &version, sizeof(version));
        const std::string what = "version=" + std::to_string(version);
        const std::string error = expectRejected(bytes, what);
        EXPECT_NE(error.find("version " + std::to_string(version)),
                  std::string::npos)
            << error;
        EXPECT_EQ(error.find("gpx_index") != std::string::npos,
                  version == 1)
            << error;
    }
}

TEST_F(SeedMapFuzzTest, NonMonotoneCsrRejectedEvenWithValidChecksums)
{
    // The adversarial case checksums cannot catch: an *authored* image
    // whose checksums are all self-consistent but whose CSR is bogus.
    // An interior entry of 0xFFFFFFFF would turn the first unlucky
    // lookup() into an out-of-bounds span; the structural validator
    // must reject it at open time on both load paths.
    std::string bytes = image_;
    SeedMapShardDirEntry ent;
    std::memcpy(&ent, bytes.data() + hdr_.directoryOffset, sizeof(ent));

    // Poison an interior local-CSR entry of shard 0.
    u32 poison = 0xFFFFFFFFu;
    std::memcpy(bytes.data() + ent.seedTableOffset +
                    (ent.seedTableEntries / 2) * sizeof(u32),
                &poison, sizeof(poison));

    // Re-checksum the seed table section, the directory, the header.
    ent.seedTableChecksum =
        util::xxh64(bytes.data() + ent.seedTableOffset,
                    ent.seedTableEntries * sizeof(u32));
    std::memcpy(bytes.data() + hdr_.directoryOffset, &ent, sizeof(ent));
    u64 dirSum = util::xxh64(bytes.data() + hdr_.directoryOffset,
                             std::size_t{ hdr_.shardCount } *
                                 sizeof(SeedMapShardDirEntry));
    std::memcpy(bytes.data() + offsetof(SeedMapImageHeaderV2,
                                        directoryChecksum),
                &dirSum, sizeof(dirSum));
    u64 hdrSum = util::xxh64(bytes.data(),
                             sizeof(SeedMapImageHeaderV2) - sizeof(u64));
    std::memcpy(bytes.data() + sizeof(SeedMapImageHeaderV2) -
                    sizeof(u64),
                &hdrSum, sizeof(hdrSum));

    const std::string error =
        expectRejected(bytes, "non-monotone CSR with valid checksums");
    EXPECT_NE(error.find("monotone"), std::string::npos) << error;
}

TEST_F(SeedMapFuzzTest, StructuralCsrChecksRunEvenWithoutPayloadVerify)
{
    // Corrupt shard 0's local CSR first entry (must be 0). With payload
    // verification off the checksum cannot catch it; the structural
    // validator must.
    SeedMapShardDirEntry ent;
    std::memcpy(&ent, image_.data() + hdr_.directoryOffset, sizeof(ent));
    std::string bytes = image_;
    u32 bad = 7;
    std::memcpy(bytes.data() + ent.seedTableOffset, &bad, sizeof(bad));

    SeedMapOpenOptions opts;
    opts.verifyPayload = false;
    std::string error;
    EXPECT_FALSE(SeedMapImage::open(writeTemp(bytes, "csr"), opts,
                                    &error)
                     .has_value());
    EXPECT_NE(error.find("CSR"), std::string::npos) << error;
}

TEST_F(SeedMapFuzzTest, SkippingPayloadVerifyStillServesCleanImages)
{
    SeedMapOpenOptions opts;
    opts.verifyPayload = false;
    std::string error;
    auto opened =
        SeedMapImage::open(writeTemp(image_, "noverify"), opts, &error);
    ASSERT_TRUE(opened.has_value()) << error;
    u32 h = map_->hashSeed(ref_.chromosome(0).sub(100, 50));
    auto want = map_->lookup(h);
    auto got = opened->view().lookup(h);
    ASSERT_EQ(want.size(), got.size());
    for (std::size_t i = 0; i < want.size(); ++i)
        EXPECT_EQ(want[i], got[i]);
}

TEST_F(SeedMapFuzzTest, SingleShardAndManyShardImagesAgree)
{
    for (u32 shards : { 1u, 2u, 16u }) {
        std::ostringstream os;
        genpair::saveSeedMapV2(os, *map_, shards);
        std::string error;
        std::string tag = "shards";
        tag += std::to_string(shards); // two steps: gcc-12 -Wrestrict FP
        auto opened =
            SeedMapImage::open(writeTemp(os.str(), tag), {}, &error);
        ASSERT_TRUE(opened.has_value()) << error;
        EXPECT_EQ(opened->shardCount(), shards);
        const genomics::DnaSequence &chrom = ref_.chromosome(0);
        for (u64 p = 0; p + 50 <= chrom.size(); p += 173) {
            u32 h = map_->hashSeed(chrom.sub(p, 50));
            auto want = map_->lookup(h);
            auto got = opened->view().lookup(h);
            ASSERT_EQ(want.size(), got.size())
                << shards << " shards, position " << p;
            for (std::size_t i = 0; i < want.size(); ++i)
                EXPECT_EQ(want[i], got[i]);
        }
    }
}

} // namespace
