/**
 * @file
 * Golden end-to-end corpus: a small checked-in simulated reference and
 * read set (tests/data/golden/) with a pinned SAM md5. Serial, pooled,
 * streaming and mmap-backed (v2 image) drivers must all reproduce the
 * digest bit-identically — the cross-driver determinism contract that
 * PR 2 established and the v2 zero-copy serving path must preserve.
 * Runs with a light-align gate installed must too, and additionally
 * pin their trace and light-align counters.
 *
 * If an intentional mapping-behavior change moves the digest, every
 * driver must move to the SAME new digest; update kGoldenSamMd5 and
 * say why in the commit. `md5sum` of a gpx_map run over the same
 * corpus (threads/chunk don't matter) reproduces the value.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>

#include "baseline/mm2lite.hh"
#include "filters/filtered_light_align.hh"
#include "filters/sneakysnake.hh"
#include "genomics/fasta.hh"
#include "genomics/sam.hh"
#include "genpair/pipeline.hh"
#include "genpair/seedmap_io.hh"
#include "genpair/streaming.hh"
#include "hwsim/trace_adapter.hh"
#include "test_gates.hh"
#include "util/gzip_stream.hh"
#include "util/md5.hh"

namespace {

using namespace gpx;
using genomics::Reference;

/** Pinned digest of header + all records over the golden corpus. */
const char kGoldenSamMd5[] = "6e4b292bd35bc3babd6ffd733c44612f";

/**
 * The same digest for the MM2-lite baseline (`gpx_map --baseline`,
 * DriverConfig::useGenPair = false): every baseline driver must
 * reproduce it too.
 */
const char kGoldenBaselineSamMd5[] = "b1f7214ea2481d9b39ea058c59fdc41a";

const char *
goldenDir()
{
#ifdef GPX_GOLDEN_DIR
    return GPX_GOLDEN_DIR;
#else
    return "tests/data/golden";
#endif
}

class GoldenCorpusTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        std::string dir = goldenDir();
        std::ifstream refFile(dir + "/ref.fa");
        ASSERT_TRUE(refFile) << "missing golden reference in " << dir;
        ref_ = genomics::readFasta(refFile);
        ASSERT_GT(ref_.totalLength(), 0u);

        std::ifstream r1(dir + "/r1.fq"), r2(dir + "/r2.fq");
        ASSERT_TRUE(r1 && r2) << "missing golden FASTQ in " << dir;
        auto reads1 = genomics::readFastq(r1);
        auto reads2 = genomics::readFastq(r2);
        ASSERT_EQ(reads1.size(), reads2.size());
        ASSERT_GT(reads1.size(), 0u);
        pairs_.reserve(reads1.size());
        for (std::size_t i = 0; i < reads1.size(); ++i)
            pairs_.push_back({ reads1[i], reads2[i] });

        // Pinned index parameters: auto-sizing heuristics must never be
        // able to move the golden digest.
        params_.seedLen = 50;
        params_.tableBits = 18;
        params_.filterThreshold = 500;
        map_ = std::make_unique<genpair::SeedMap>(ref_, params_);
    }

    /** Digest of one full SAM run produced by @p writeBody. */
    template <typename WriteBody>
    std::string
    samDigest(WriteBody &&writeBody)
    {
        std::ostringstream os;
        genomics::SamWriter sam(os, ref_);
        sam.writeHeader();
        writeBody(sam);
        return util::md5Hex(os.str());
    }

    /** Light-align counters and trace digest of one gated run. */
    struct GatedPins
    {
        const char *traceMd5;
        u64 gateRejected;
        u64 lightAlignsAttempted;
        u64 lightHypotheses;
        u64 lightAligned;
        u64 lightAlignFallback;
    };

    /**
     * Map the corpus through GenPairPipeline in 64-pair blocks with
     * @p gate installed. A sound gate keeps the pinned SAM digest; the
     * trace lines and light-align counters pin which candidates it
     * dropped.
     */
    void
    expectGatedRun(genpair::LightAlignGate &gate, const GatedPins &pins)
    {
        baseline::Mm2Lite fallback(ref_, config_.fallback);
        genpair::GenPairPipeline pipeline(ref_, *map_, config_.pipeline,
                                          &fallback);
        pipeline.setLightAlignGate(&gate);
        std::vector<genomics::PairMapping> out(pairs_.size());
        std::vector<genpair::PairTraceRecord> trace(pairs_.size());
        for (u64 begin = 0; begin < pairs_.size(); begin += 64) {
            const u64 n = std::min<u64>(64, pairs_.size() - begin);
            pipeline.mapBatch(pairs_.data() + begin, n, out.data() + begin,
                              trace.data() + begin);
        }
        EXPECT_EQ(samDigest([&](genomics::SamWriter &sam) {
                      for (std::size_t i = 0; i < pairs_.size(); ++i)
                          sam.writePair(pairs_[i], out[i]);
                  }),
                  kGoldenSamMd5);
        std::ostringstream lines;
        for (const auto &record : trace)
            record.writeText(lines);
        EXPECT_EQ(util::md5Hex(lines.str()), pins.traceMd5);
        const genpair::PipelineStats &st = pipeline.stats();
        EXPECT_EQ(st.gateRejected, pins.gateRejected);
        EXPECT_EQ(st.lightAlignsAttempted, pins.lightAlignsAttempted);
        EXPECT_EQ(st.lightHypotheses, pins.lightHypotheses);
        EXPECT_EQ(st.lightAligned, pins.lightAligned);
        EXPECT_EQ(st.lightAlignFallback, pins.lightAlignFallback);
    }

    Reference ref_;
    std::vector<genomics::ReadPair> pairs_;
    genpair::SeedMapParams params_;
    std::unique_ptr<genpair::SeedMap> map_;
    genpair::DriverConfig config_;
};

TEST_F(GoldenCorpusTest, SerialPipelineReproducesPinnedDigest)
{
    std::string digest = samDigest([&](genomics::SamWriter &sam) {
        baseline::Mm2Lite fallback(ref_, config_.fallback);
        genpair::GenPairPipeline pipeline(ref_, *map_, config_.pipeline,
                                          &fallback);
        for (const auto &pair : pairs_)
            sam.writePair(pair, pipeline.mapPair(pair));
    });
    EXPECT_EQ(digest, kGoldenSamMd5);
}

TEST_F(GoldenCorpusTest, WorkerPoolReproducesPinnedDigest)
{
    std::string digest = samDigest([&](genomics::SamWriter &sam) {
        genpair::DriverConfig config = config_;
        config.threads = 3;
        genpair::ParallelMapper mapper(ref_, *map_, config);
        auto result = mapper.mapAll(pairs_);
        for (std::size_t i = 0; i < pairs_.size(); ++i)
            sam.writePair(pairs_[i], result.mappings[i]);
    });
    EXPECT_EQ(digest, kGoldenSamMd5);
}

TEST_F(GoldenCorpusTest, StreamingDriverReproducesPinnedDigest)
{
    std::string dir = goldenDir();
    std::string digest = samDigest([&](genomics::SamWriter &sam) {
        std::ifstream r1(dir + "/r1.fq"), r2(dir + "/r2.fq");
        ASSERT_TRUE(r1 && r2);
        genpair::DriverConfig config = config_;
        config.threads = 2;
        genpair::StreamingMapper mapper(ref_, *map_, config, 64);
        auto result = mapper.run(r1, r2, sam);
        EXPECT_EQ(result.pairs, pairs_.size());
        EXPECT_GT(result.chunks, 1u);
    });
    EXPECT_EQ(digest, kGoldenSamMd5);
}

TEST_F(GoldenCorpusTest, BaselineDriversReproducePinnedDigest)
{
    genpair::DriverConfig config = config_;
    config.useGenPair = false;
    EXPECT_EQ(samDigest([&](genomics::SamWriter &sam) {
                  baseline::Mm2Lite mapper(ref_, config.fallback);
                  for (const auto &pair : pairs_)
                      sam.writePair(pair, mapper.mapPair(pair));
              }),
              kGoldenBaselineSamMd5)
        << "serial Mm2Lite::mapPair";

    config.threads = 3;
    EXPECT_EQ(samDigest([&](genomics::SamWriter &sam) {
                  genpair::ParallelMapper mapper(ref_, *map_, config);
                  auto result = mapper.mapAll(pairs_);
                  for (std::size_t i = 0; i < pairs_.size(); ++i)
                      sam.writePair(pairs_[i], result.mappings[i]);
              }),
              kGoldenBaselineSamMd5)
        << "ParallelMapper";

    std::string dir = goldenDir();
    config.threads = 2;
    EXPECT_EQ(samDigest([&](genomics::SamWriter &sam) {
                  std::ifstream r1(dir + "/r1.fq"), r2(dir + "/r2.fq");
                  ASSERT_TRUE(r1 && r2);
                  genpair::StreamingMapper mapper(ref_, *map_, config, 64);
                  auto result = mapper.run(r1, r2, sam);
                  EXPECT_EQ(result.pairs, pairs_.size());
                  EXPECT_GT(result.chunks, 1u);
              }),
              kGoldenBaselineSamMd5)
        << "StreamingMapper";
}

TEST_F(GoldenCorpusTest, IoThreadSweepReproducesPinnedDigest)
{
    // The async spine contract: parser fan-out, chunk size and worker
    // count must never move the digest — the reorder buffer restores
    // exact input order at every combination.
    std::string dir = goldenDir();
    for (u32 io : { 1u, 2u, 4u }) {
        for (u64 chunk : { u64{ 16 }, u64{ 100000 } }) {
            std::string digest =
                samDigest([&](genomics::SamWriter &sam) {
                    std::ifstream r1(dir + "/r1.fq"), r2(dir + "/r2.fq");
                    ASSERT_TRUE(r1 && r2);
                    genpair::DriverConfig config = config_;
                    config.threads = 3;
                    genpair::StreamingMapper mapper(ref_, *map_, config,
                                                    chunk, io);
                    auto result = mapper.run(r1, r2, sam);
                    EXPECT_EQ(result.pairs, pairs_.size());
                });
            EXPECT_EQ(digest, kGoldenSamMd5)
                << "io_threads=" << io << " chunk=" << chunk;
        }
    }
}

TEST_F(GoldenCorpusTest, GzipIngestReproducesPinnedDigest)
{
    // Round the golden FASTQ through gzip and back in via the sniffing
    // ingest path: same bits out as the plain-text corpus.
    if (!util::gzipSupported())
        GTEST_SKIP() << "built without zlib";
    std::string dir = goldenDir();
    auto slurp = [](const std::string &path) {
        std::ifstream in(path, std::ios::binary);
        std::ostringstream os;
        os << in.rdbuf();
        return os.str();
    };
    const std::string gz1 = util::gzipCompress(slurp(dir + "/r1.fq"));
    const std::string gz2 = util::gzipCompress(slurp(dir + "/r2.fq"));
    std::string digest = samDigest([&](genomics::SamWriter &sam) {
        std::istringstream r1(gz1), r2(gz2);
        genpair::DriverConfig config = config_;
        config.threads = 2;
        genpair::StreamingMapper mapper(ref_, *map_, config, 64, 2);
        auto result = mapper.run(r1, r2, sam);
        EXPECT_EQ(result.pairs, pairs_.size());
    });
    EXPECT_EQ(digest, kGoldenSamMd5);
}

TEST_F(GoldenCorpusTest, MmapBackedDriverReproducesPinnedDigest)
{
    // Round the index through a sharded v2 image and serve the mapping
    // from the mmap view: still the same bits out.
    std::string imagePath = ::testing::TempDir() + "golden_v2.gpx";
    {
        std::ofstream out(imagePath, std::ios::binary | std::ios::trunc);
        genpair::saveSeedMapV2(out, *map_, 4);
        ASSERT_TRUE(out.good());
    }
    std::string error;
    auto image = genpair::SeedMapImage::open(imagePath, {}, &error);
    ASSERT_TRUE(image.has_value()) << error;
    ASSERT_EQ(image->shardCount(), 4u);

    std::string dir = goldenDir();
    std::string digest = samDigest([&](genomics::SamWriter &sam) {
        std::ifstream r1(dir + "/r1.fq"), r2(dir + "/r2.fq");
        ASSERT_TRUE(r1 && r2);
        genpair::DriverConfig config = config_;
        config.threads = 2;
        genpair::StreamingMapper mapper(ref_, image->view(), config, 128);
        auto result = mapper.run(r1, r2, sam);
        EXPECT_EQ(result.pairs, pairs_.size());
    });
    EXPECT_EQ(digest, kGoldenSamMd5);
}

TEST_F(GoldenCorpusTest, TraceEnabledRunReproducesPinnedDigest)
{
    // Stage-event recording must be a pure observer: the traced run
    // produces the same bits as every other driver, and the trace
    // itself parses back with one record per corpus pair.
    std::ostringstream trace;
    hwsim::writeTraceHeader(trace, map_->tableBits());
    std::string dir = goldenDir();
    std::string digest = samDigest([&](genomics::SamWriter &sam) {
        std::ifstream r1(dir + "/r1.fq"), r2(dir + "/r2.fq");
        ASSERT_TRUE(r1 && r2);
        genpair::DriverConfig config = config_;
        config.threads = 3;
        config.recordTrace = true;
        genpair::StreamingMapper mapper(ref_, *map_, config, 64);
        auto result = mapper.run(
            r1, r2, sam,
            [&](const genpair::PairTraceRecord *records, u64 count) {
                for (u64 i = 0; i < count; ++i)
                    records[i].writeText(trace);
            });
        EXPECT_EQ(result.pairs, pairs_.size());
    });
    EXPECT_EQ(digest, kGoldenSamMd5);

    std::istringstream is(trace.str());
    hwsim::RecordedRun run;
    std::string error;
    ASSERT_TRUE(hwsim::loadRecordedRun(is, &run, &error)) << error;
    EXPECT_EQ(run.stats.pairsTotal, pairs_.size());
}

TEST_F(GoldenCorpusTest, OddPositionGatePinsTheGatedPath)
{
    gpx::testing::OddPositionGate gate;
    expectGatedRun(gate, { "989a1253b804373ff72774aad0a6299b", 209, 184,
                           22143, 48, 216 });
}

TEST_F(GoldenCorpusTest, SneakySnakeGatePinsTheGatedPath)
{
    // Budget 5 puts candidates 0..4 of the corpus below the filter's
    // left flank; they must pass unevaluated, not abort.
    filters::SneakySnakeFilter snake;
    filters::FilterGate gate(ref_, snake, 5);
    expectGatedRun(gate, { "dd7edabf07422a14216d4d27bf1d013b", 19, 504,
                           60863, 215, 49 });
}

} // namespace
