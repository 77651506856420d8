/**
 * @file
 * Ingest-path fuzz wall: seeded byte-level mutations (flips, inserts,
 * deletes, truncations) over paired FASTQ text, driven through the
 * chunked parallel ingest and the full streaming spine.
 *
 * The contract under fuzz is binary: either the input parses
 * bit-identically to the serial FastqReader (same reads, same
 * ambiguous-base accounting), or it is rejected with the serial
 * reader's diagnostic at the serial reader's position — never a crash,
 * never torn output. Everything is seeded (util::Pcg32), so a failure
 * replays from the iteration number printed in the assertion message.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <string>
#include <vector>

#include "genomics/fasta.hh"
#include "genomics/fastq_ingest.hh"
#include "genomics/sam.hh"
#include "genpair/driver.hh"
#include "genpair/streaming.hh"
#include "simdata/genome_generator.hh"
#include "simdata/read_simulator.hh"
#include "simdata/variants.hh"
#include "util/byte_stream.hh"
#include "util/gzip_stream.hh"
#include "util/rng.hh"

namespace {

using namespace gpx;
using genomics::FastqParse;
using genomics::FastqReader;
using genomics::IngestError;
using genomics::Read;
using genomics::ReadPair;

/** Valid FASTQ text of @p n records; seqs drawn from @p rng. */
std::string
makeFastq(util::Pcg32 &rng, u64 n, const char *suffix,
          u64 ambiguous_every = 0)
{
    static const char kBases[] = "ACGT";
    std::string text;
    for (u64 i = 0; i < n; ++i) {
        const u64 len = 36 + rng.below(37);
        text += "@fz" + std::to_string(i) + suffix + "\n";
        std::string seq;
        for (u64 b = 0; b < len; ++b)
            seq.push_back(kBases[rng.below(4)]);
        if (ambiguous_every && i % ambiguous_every == 0)
            seq[0] = 'N';
        text += seq + "\n+\n" + std::string(len, 'I') + "\n";
    }
    return text;
}

/** One ingest outcome: the pairs parsed before the winning error. */
struct IngestOut
{
    std::vector<ReadPair> pairs;
    IngestError err;
    u64 ambiguousBases = 0;
};

/**
 * The serial reference: interleaved tryNext over both streams, the
 * discipline the chunked pipeline documents itself against.
 */
IngestOut
serialIngest(const std::string &t1, const std::string &t2)
{
    std::istringstream i1(t1), i2(t2);
    FastqReader r1(i1), r2(i2);
    IngestOut out;
    for (u64 idx = 0;; ++idx) {
        Read a, b;
        std::string e1, e2;
        // Error candidates carry 1-based record numbers (the index the
        // failing record would have had), matching the chunker.
        FastqParse p1 = r1.tryNext(a, &e1);
        if (p1 == FastqParse::kError) {
            out.err = { idx + 1, 0, e1 };
            break;
        }
        FastqParse p2 = r2.tryNext(b, &e2);
        if (p2 == FastqParse::kError) {
            out.err = { idx + 1, 1, e2 };
            break;
        }
        if ((p1 == FastqParse::kEof) != (p2 == FastqParse::kEof)) {
            out.err = { idx + 1, 2, "stream length disagreement" };
            break;
        }
        if (p1 == FastqParse::kEof)
            break;
        out.pairs.push_back({ std::move(a), std::move(b) });
    }
    out.ambiguousBases =
        r1.stats().ambiguousBases + r2.stats().ambiguousBases;
    return out;
}

/** The parallel-ingest path: chunker + slice parsers, minimum error wins. */
IngestOut
chunkedIngest(const std::string &t1, const std::string &t2,
              u64 chunk_pairs)
{
    util::StringSource s1(t1), s2(t2);
    genomics::PairedFastqChunker chunker(s1, s2, chunk_pairs);
    std::atomic<bool> warned{ false };
    IngestOut out;
    genomics::FastqChunk chunk;
    while (chunker.next(chunk)) {
        genomics::ParsedChunk parsed =
            genomics::parseFastqChunk(std::move(chunk), &warned);
        for (auto &pair : parsed.pairs)
            out.pairs.push_back(std::move(pair));
        if (parsed.error.set() && parsed.error.before(out.err))
            out.err = parsed.error;
        out.ambiguousBases += parsed.r1Stats.ambiguousBases +
                              parsed.r2Stats.ambiguousBases;
        chunk = genomics::FastqChunk{};
    }
    return out;
}

/** Apply one random byte-level mutation in place. */
void
mutate(util::Pcg32 &rng, std::string &text)
{
    if (text.empty())
        return;
    const u64 pos = rng.below64(text.size());
    switch (rng.below(4)) {
      case 0:
        text[pos] = static_cast<char>(rng.below(256));
        break;
      case 1:
        text.erase(pos, 1);
        break;
      case 2:
        text.insert(pos, 1, static_cast<char>(rng.below(256)));
        break;
      default:
        text.resize(pos); // truncation, possibly mid-record
        break;
    }
}

/** Chunked == serial: identical reads on success, same winner on error. */
void
expectMatchesSerial(const IngestOut &serial, const IngestOut &chunked,
                    const std::string &context)
{
    if (serial.err.set()) {
        ASSERT_TRUE(chunked.err.set()) << context;
        EXPECT_EQ(chunked.err.recordIndex, serial.err.recordIndex)
            << context;
        EXPECT_EQ(chunked.err.rank, serial.err.rank) << context;
        // Parse diagnostics are reproduced verbatim; the pair-level
        // disagreement message is phrased by each driver.
        if (serial.err.rank < 2) {
            EXPECT_EQ(chunked.err.message, serial.err.message) << context;
        }
        return;
    }
    ASSERT_FALSE(chunked.err.set())
        << context << ": " << chunked.err.message;
    ASSERT_EQ(chunked.pairs.size(), serial.pairs.size()) << context;
    for (std::size_t i = 0; i < serial.pairs.size(); ++i) {
        EXPECT_EQ(chunked.pairs[i].first.name, serial.pairs[i].first.name)
            << context << " pair " << i;
        EXPECT_EQ(chunked.pairs[i].first.seq.toString(),
                  serial.pairs[i].first.seq.toString())
            << context << " pair " << i;
        EXPECT_EQ(chunked.pairs[i].second.seq.toString(),
                  serial.pairs[i].second.seq.toString())
            << context << " pair " << i;
    }
    EXPECT_EQ(chunked.ambiguousBases, serial.ambiguousBases) << context;
}

TEST(IngestFuzz, CleanInputParsesIdenticallyAcrossChunkSizes)
{
    util::Pcg32 rng(11);
    const std::string r1 = makeFastq(rng, 30, "/1", 7);
    const std::string r2 = makeFastq(rng, 30, "/2");
    IngestOut serial = serialIngest(r1, r2);
    ASSERT_FALSE(serial.err.set()) << serial.err.message;
    ASSERT_EQ(serial.pairs.size(), 30u);
    EXPECT_GE(serial.ambiguousBases, 5u); // the injected N bases
    for (u64 chunk : { u64{ 1 }, u64{ 3 }, u64{ 7 }, u64{ 64 } })
        expectMatchesSerial(serial, chunkedIngest(r1, r2, chunk),
                            "chunk_pairs=" + std::to_string(chunk));
}

TEST(IngestFuzz, MutatedInputMatchesSerialOrRejectsIdentically)
{
    util::Pcg32 dataRng(17);
    const std::string base1 = makeFastq(dataRng, 30, "/1", 11);
    const std::string base2 = makeFastq(dataRng, 30, "/2");
    util::Pcg32 rng(1234);
    u64 rejected = 0;
    for (int iter = 0; iter < 300; ++iter) {
        std::string m1 = base1, m2 = base2;
        mutate(rng, rng.chance(0.5) ? m1 : m2);
        if (rng.chance(0.25)) // occasionally stack a second mutation
            mutate(rng, rng.chance(0.5) ? m1 : m2);
        IngestOut serial = serialIngest(m1, m2);
        rejected += serial.err.set();
        const std::string context = "iter " + std::to_string(iter);
        expectMatchesSerial(serial, chunkedIngest(m1, m2, 3),
                            context + " chunk=3");
        expectMatchesSerial(serial, chunkedIngest(m1, m2, 7),
                            context + " chunk=7");
    }
    // The corpus must exercise both arms of the contract.
    EXPECT_GT(rejected, 10u);
    EXPECT_LT(rejected, 300u);
}

TEST(IngestFuzz, CorruptGzipNeverCrashesTheInflateStack)
{
    if (!util::gzipSupported())
        GTEST_SKIP() << "binary built without zlib";
    util::Pcg32 dataRng(23);
    const std::string plain = makeFastq(dataRng, 40, "/1");
    const std::string gz = util::gzipCompress(plain);
    util::Pcg32 rng(5678);
    for (int iter = 0; iter < 200; ++iter) {
        std::string corrupt = gz;
        const u32 flips = 1 + rng.below(3);
        for (u32 f = 0; f < flips; ++f)
            corrupt[rng.below64(corrupt.size())] =
                static_cast<char>(rng.below(256));
        if (rng.chance(0.2))
            corrupt.resize(rng.below64(corrupt.size()));

        util::StringSource src(corrupt);
        util::AutoInflateSource inflate(src);
        FastqReader reader(inflate);
        Read read;
        std::string err;
        FastqParse status;
        u64 records = 0;
        while ((status = reader.tryNext(read, &err)) ==
               FastqParse::kRecord)
            ++records;
        // Any outcome but a crash/hang is in contract; a rejection
        // must carry a diagnostic.
        EXPECT_LE(records, 40u) << "iter " << iter;
        if (status == FastqParse::kError) {
            EXPECT_FALSE(err.empty()) << "iter " << iter;
        }
    }
}

TEST(IngestFuzz, FullSpineRejectsOrMapsNeverCrashes)
{
    simdata::GenomeParams gp;
    gp.length = 1 << 16;
    gp.chromosomes = 1;
    gp.seed = 77;
    genomics::Reference ref = simdata::generateGenome(gp);
    simdata::VariantParams vp;
    vp.snpRate = 0;
    vp.indelRate = 0;
    vp.seed = 78;
    simdata::DiploidGenome donor(ref, vp);
    simdata::ReadSimParams rp;
    rp.seed = 79;
    simdata::ReadSimulator sim(donor, rp);
    std::vector<ReadPair> pairs = sim.simulate(300);
    std::vector<Read> reads1, reads2;
    for (const auto &pair : pairs) {
        reads1.push_back(pair.first);
        reads2.push_back(pair.second);
    }
    std::ostringstream o1, o2;
    genomics::writeFastq(o1, reads1);
    genomics::writeFastq(o2, reads2);
    const std::string base1 = o1.str(), base2 = o2.str();

    genpair::SeedMap map =
        genpair::SeedMap::build(ref, genpair::SeedMapParams{}, 2);
    genpair::DriverConfig config;
    config.threads = 2;
    genpair::StreamingMapper spine(ref, map, config, /*chunk_pairs=*/64,
                                   /*io_threads=*/2);

    util::Pcg32 rng(4242);
    u64 okRuns = 0;
    for (int iter = 0; iter < 10; ++iter) {
        std::string m1 = base1, m2 = base2;
        if (iter > 0)
            mutate(rng, rng.chance(0.5) ? m1 : m2);

        std::istringstream i1(m1), i2(m2);
        std::ostringstream out;
        genomics::SamWriter sam(out, ref);
        sam.checkWrites("<fuzz>", /*fatal_on_error=*/false);
        sam.writeHeader();
        genpair::StreamingResult sr;
        IngestError err;
        genpair::StreamRunStatus status =
            spine.tryRun(i1, i2, sam, sr, &err);
        if (status == genpair::StreamRunStatus::kOk) {
            ++okRuns;
            if (iter == 0) {
                EXPECT_EQ(sr.pairs, 300u);
            }
        } else {
            ASSERT_EQ(status, genpair::StreamRunStatus::kParseError)
                << "iter " << iter;
            EXPECT_TRUE(err.set()) << "iter " << iter;
        }
    }
    EXPECT_GE(okRuns, 1u); // the unmutated run must map
}

} // namespace
