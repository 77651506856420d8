/**
 * @file
 * Ingest-path fuzz wall: seeded byte-level mutations (flips, inserts,
 * deletes, truncations) over paired FASTQ text, driven through the
 * chunked parallel ingest, the serial FastqReader and the full
 * streaming spine.
 *
 * The contract under fuzz is binary: either the input parses
 * bit-identically to the serial oracle (same reads, same
 * ambiguous-base accounting), or it is rejected with the oracle's
 * diagnostic at the oracle's position — never a crash, never torn
 * output. The oracle is a frozen copy of the line reader and record
 * parser the ingest path used before it scanned and parsed in place,
 * so the test compares today's code with that behaviour, not with
 * itself. Everything is seeded (util::Pcg32), so a failure replays
 * from the iteration number printed in the assertion message.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
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
#include "util/logging.hh"
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

/**
 * The line reader of the serial oracle: LineReader::getline as it was
 * before lines were appended or skipped in place.
 */
class OracleLineReader
{
  public:
    explicit OracleLineReader(util::ByteSource &source) : source_(source) {}

    bool
    getline(std::string &line)
    {
        line.clear();
        for (;;) {
            if (pos_ < buffer_.size()) {
                const char *base = buffer_.data() + pos_;
                const std::size_t avail = buffer_.size() - pos_;
                const void *nl = std::memchr(base, '\n', avail);
                if (nl != nullptr) {
                    const std::size_t len = static_cast<std::size_t>(
                        static_cast<const char *>(nl) - base);
                    line.append(base, len);
                    pos_ += len + 1;
                    return true;
                }
                line.append(base, avail);
                pos_ = buffer_.size();
            }
            if (eof_)
                return !line.empty();
            buffer_.clear();
            pos_ = 0;
            if (!source_.read(buffer_)) {
                buffer_.clear();
                eof_ = true;
            }
        }
    }

    const std::string &error() const { return source_.error(); }

  private:
    util::ByteSource &source_;
    std::string buffer_;
    std::size_t pos_ = 0;
    bool eof_ = false;
};

/**
 * The record parser of the serial oracle: FastqReader::tryNext as it
 * was before it reused its line buffers (the ambiguous-base warning
 * left out; the count is kept).
 */
class OracleFastqReader
{
  public:
    explicit OracleFastqReader(util::ByteSource &source) : lines_(source) {}

    FastqParse
    tryNext(Read &read, std::string *error)
    {
        if (poisoned_) {
            *error = lastError_;
            return FastqParse::kError;
        }
        auto fail = [&](std::string msg) {
            poisoned_ = true;
            lastError_ = std::move(msg);
            *error = lastError_;
            return FastqParse::kError;
        };
        auto chompCr = [](std::string &line) {
            if (!line.empty() && line.back() == '\r')
                line.pop_back();
        };
        std::string header, seq, plus, qual;
        while (lines_.getline(header)) {
            chompCr(header);
            if (header.empty())
                continue;
            if (header[0] != '@')
                return fail(util::detail::cat(
                    "malformed FASTQ header at record ", records_ + 1,
                    ": expected '@', got '", header.substr(0, 40), "'"));
            if (!lines_.getline(seq) || !lines_.getline(plus) ||
                !lines_.getline(qual)) {
                if (!lines_.error().empty())
                    return fail(lines_.error());
                return fail(util::detail::cat(
                    "truncated FASTQ record: EOF mid-record at record ",
                    records_ + 1, " (header '", header, "')"));
            }
            chompCr(seq);
            std::size_t end = header.find_first_of(" \t", 1);
            read.name = header.substr(
                1, end == std::string::npos ? end : end - 1);
            read.seq = genomics::DnaSequence(seq, &ambiguousBases_);
            ++records_;
            return FastqParse::kRecord;
        }
        if (!lines_.error().empty())
            return fail(lines_.error());
        return FastqParse::kEof;
    }

    u64 ambiguousBases() const { return ambiguousBases_; }

  private:
    OracleLineReader lines_;
    u64 records_ = 0;
    u64 ambiguousBases_ = 0;
    bool poisoned_ = false;
    std::string lastError_;
};

/** One ingest outcome: the pairs parsed before the winning error. */
struct IngestOut
{
    std::vector<ReadPair> pairs;
    IngestError err;
    u64 ambiguousBases = 0;
};

/**
 * Interleaved tryNext over both streams: the serial discipline the
 * chunked pipeline documents itself against.
 */
template <typename Reader>
IngestOut
interleavedIngest(Reader &r1, Reader &r2)
{
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
    return out;
}

/** The frozen serial oracle over two byte sources. */
IngestOut
oracleIngest(util::ByteSource &s1, util::ByteSource &s2)
{
    OracleFastqReader r1(s1), r2(s2);
    IngestOut out = interleavedIngest(r1, r2);
    out.ambiguousBases = r1.ambiguousBases() + r2.ambiguousBases();
    return out;
}

IngestOut
oracleIngest(const std::string &t1, const std::string &t2)
{
    util::StringSource s1(t1), s2(t2);
    return oracleIngest(s1, s2);
}

/** Today's serial reader, as gpx_serve and the long-read path use it. */
IngestOut
serialIngest(util::ByteSource &s1, util::ByteSource &s2)
{
    FastqReader r1(s1), r2(s2);
    IngestOut out = interleavedIngest(r1, r2);
    out.ambiguousBases =
        r1.stats().ambiguousBases + r2.stats().ambiguousBases;
    return out;
}

/** The parallel-ingest path: chunker + slice parsers, minimum error wins. */
IngestOut
chunkedIngest(util::ByteSource &s1, util::ByteSource &s2, u64 chunk_pairs)
{
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

IngestOut
chunkedIngest(const std::string &t1, const std::string &t2,
              u64 chunk_pairs)
{
    util::StringSource s1(t1), s2(t2);
    return chunkedIngest(s1, s2, chunk_pairs);
}

/**
 * Serves a text in blocks of @p block bytes and fails, with a
 * diagnostic, once @p fail_at bytes are out (never when npos).
 */
class BlockSource : public util::ByteSource
{
  public:
    BlockSource(std::string text, std::size_t block,
                std::size_t fail_at = std::string::npos)
        : text_(std::move(text)), block_(block), failAt_(fail_at)
    {
    }

    bool
    read(std::string &out) override
    {
        if (pos_ >= failAt_) {
            error_ = "injected source failure at byte " +
                     std::to_string(failAt_);
            return false;
        }
        if (pos_ >= text_.size())
            return false;
        const std::size_t n =
            std::min({ block_, text_.size() - pos_, failAt_ - pos_ });
        out.assign(text_, pos_, n);
        pos_ += n;
        return true;
    }

    const std::string &error() const override { return error_; }

  private:
    std::string text_;
    std::size_t block_;
    std::size_t failAt_;
    std::size_t pos_ = 0;
    std::string error_;
};

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

/** Chunked == oracle: identical reads on success, same winner on error. */
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
    IngestOut serial = oracleIngest(r1, r2);
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
        IngestOut serial = oracleIngest(m1, m2);
        rejected += serial.err.set();
        const std::string context = "iter " + std::to_string(iter);
        std::istringstream i1(m1), i2(m2);
        util::IstreamSource is1(i1, 61), is2(i2, 97);
        expectMatchesSerial(serial, serialIngest(is1, is2),
                            context + " serial");
        expectMatchesSerial(serial, chunkedIngest(m1, m2, 3),
                            context + " chunk=3");
        expectMatchesSerial(serial, chunkedIngest(m1, m2, 7),
                            context + " chunk=7");
    }
    // The corpus must exercise both arms of the contract.
    EXPECT_GT(rejected, 10u);
    EXPECT_LT(rejected, 300u);
}

/**
 * The serial reader and the chunked ingest against the oracle on one
 * pair of texts, read through IstreamSources of every block size
 * given (1 byte splits every line across blocks).
 */
void
expectAllPathsMatchOracle(const std::string &t1, const std::string &t2,
                          const std::string &context)
{
    const IngestOut oracle = oracleIngest(t1, t2);
    for (std::size_t block : { 1, 2, 3, 5, 64, 1 << 20 }) {
        const std::string ctx = context + " block=" + std::to_string(block);
        std::istringstream a1(t1), a2(t2);
        util::IstreamSource s1(a1, block), s2(a2, block);
        expectMatchesSerial(oracle, serialIngest(s1, s2), ctx + " serial");
        for (u64 chunk : { u64{ 1 }, u64{ 2 }, u64{ 64 } }) {
            std::istringstream b1(t1), b2(t2);
            util::IstreamSource c1(b1, block), c2(b2, block);
            expectMatchesSerial(oracle, chunkedIngest(c1, c2, chunk),
                                ctx + " chunk=" + std::to_string(chunk));
        }
    }
}

TEST(IngestFixed, ChunkTextsPastOneMebibyteMatchOracle)
{
    // Texts past 1 MiB are re-reserved mid-chunk (the first chunk) or
    // sized from the previous chunk; neither may change what parses.
    util::Pcg32 rng(29);
    const std::string r1 = makeFastq(rng, 24000, "/1", 97);
    const std::string r2 = makeFastq(rng, 24000, "/2");
    ASSERT_GT(r1.size(), 2u << 20); // chunks of 10 000 pass 1 MiB
    const IngestOut oracle = oracleIngest(r1, r2);
    ASSERT_FALSE(oracle.err.set()) << oracle.err.message;
    expectMatchesSerial(oracle, chunkedIngest(r1, r2, 10000), "big chunks");
}

TEST(IngestFixed, LinesSplitAcrossSourceBlocks)
{
    util::Pcg32 rng(31);
    const std::string r1 = makeFastq(rng, 6, "/1", 4);
    const std::string r2 = makeFastq(rng, 6, "/2");
    const IngestOut oracle = oracleIngest(r1, r2);
    ASSERT_FALSE(oracle.err.set()) << oracle.err.message;
    ASSERT_EQ(oracle.pairs.size(), 6u);
    EXPECT_EQ(oracle.pairs[5].first.name, "fz5/1");
    expectAllPathsMatchOracle(r1, r2, "split");
}

TEST(IngestFixed, CrlfLineEnds)
{
    const std::string r1 = "@a/1 x\r\nACGT\r\n+\r\nIIII\r\n"
                           "@b/1\r\nGGCA\r\n+\r\nIIII\r\n";
    const std::string r2 = "@a/2\r\nTTGA\r\n+\r\nIIII\r\n"
                           "@b/2\r\nCCAN\r\n+\r\nIIII"; // no final EOL
    const IngestOut oracle = oracleIngest(r1, r2);
    ASSERT_FALSE(oracle.err.set()) << oracle.err.message;
    ASSERT_EQ(oracle.pairs.size(), 2u);
    EXPECT_EQ(oracle.pairs[0].first.name, "a/1");
    EXPECT_EQ(oracle.pairs[1].second.name, "b/2");
    EXPECT_EQ(oracle.pairs[1].second.seq.toString(), "CCAA");
    EXPECT_EQ(oracle.ambiguousBases, 1u);
    expectAllPathsMatchOracle(r1, r2, "crlf");
}

TEST(IngestFixed, BlankLinesBetweenRecords)
{
    const std::string r1 = "\n\r\n@a/1\nACGT\n+\nIIII\n\n\n"
                           "@b/1\nGGCA\n+\nIIII\n\r\n\n";
    const std::string r2 = "@a/2\nTTGA\n+\nIIII\n\r\n"
                           "@b/2\nCCAT\n+\nIIII\n";
    const IngestOut oracle = oracleIngest(r1, r2);
    ASSERT_FALSE(oracle.err.set()) << oracle.err.message;
    ASSERT_EQ(oracle.pairs.size(), 2u);
    expectAllPathsMatchOracle(r1, r2, "blank");

    // A blank line inside a record is a line like any other: here it
    // becomes the '+' line, and the record after it is misframed.
    const std::string torn = "@a/1\nACGT\n\n+\nIIII\n";
    EXPECT_TRUE(oracleIngest(torn, r2).err.set());
    expectAllPathsMatchOracle(torn, r2, "blank-in-record");
}

TEST(IngestFixed, SourceFailureMidRecordDropsTheStagedRecord)
{
    util::Pcg32 rng(37);
    const std::string r1 = makeFastq(rng, 5, "/1");
    const std::string r2 = makeFastq(rng, 5, "/2");
    // Record 3 (index 2) of either stream starts here; fail 9 bytes
    // into it, inside its header or sequence line.
    for (int failing = 0; failing < 2; ++failing) {
        const std::string &text = failing == 0 ? r1 : r2;
        const std::size_t rec3 =
            text.find(failing == 0 ? "@fz2/1\n" : "@fz2/2\n");
        ASSERT_NE(rec3, std::string::npos);
        const std::size_t failAt = rec3 + 9;
        const std::size_t fail1 = failing == 0 ? failAt : std::string::npos;
        const std::size_t fail2 = failing == 1 ? failAt : std::string::npos;
        const std::string ctx = "failing stream " + std::to_string(failing);

        BlockSource o1(r1, 7, fail1), o2(r2, 7, fail2);
        const IngestOut oracle = oracleIngest(o1, o2);
        ASSERT_TRUE(oracle.err.set()) << ctx;
        EXPECT_EQ(oracle.err.recordIndex, 3u) << ctx;
        EXPECT_EQ(oracle.err.rank, failing) << ctx;
        EXPECT_NE(oracle.err.message.find("injected source failure"),
                  std::string::npos)
            << ctx;

        BlockSource s1(r1, 7, fail1), s2(r2, 7, fail2);
        expectMatchesSerial(oracle, serialIngest(s1, s2), ctx + " serial");
        for (u64 chunk : { u64{ 1 }, u64{ 2 }, u64{ 64 } }) {
            BlockSource c1(r1, 7, fail1), c2(r2, 7, fail2);
            expectMatchesSerial(oracle, chunkedIngest(c1, c2, chunk),
                                ctx + " chunk=" + std::to_string(chunk));
        }

        // The scanner staged part of record 3 of the failing stream in
        // the chunk text before the failure; it must be gone, leaving
        // records 1 and 2. R1's complete record 3 stays when R2 fails
        // (the serial reader has parsed it by then).
        BlockSource c1(r1, 7, fail1), c2(r2, 7, fail2);
        genomics::PairedFastqChunker chunker(c1, c2, 64);
        genomics::FastqChunk chunk;
        ASSERT_TRUE(chunker.next(chunk)) << ctx;
        EXPECT_EQ(chunk.pairs, 2u) << ctx;
        EXPECT_EQ(chunk.scanError.recordIndex, 3u) << ctx;
        EXPECT_EQ(chunk.scanError.rank, failing) << ctx;
        EXPECT_EQ(chunk.r1Text,
                  r1.substr(0, r1.find(failing == 0 ? "@fz2/1\n"
                                                    : "@fz3/1\n")))
            << ctx;
        EXPECT_EQ(chunk.r2Text, r2.substr(0, r2.find("@fz2/2\n"))) << ctx;
        EXPECT_FALSE(chunker.next(chunk)) << ctx;
    }
}

TEST(IngestFixed, EofMidRecordOnEitherStream)
{
    util::Pcg32 rng(41);
    const std::string r1 = makeFastq(rng, 4, "/1");
    const std::string r2 = makeFastq(rng, 4, "/2");
    for (int cut = 0; cut < 2; ++cut) {
        const std::string &text = cut == 0 ? r1 : r2;
        const std::size_t rec3 =
            text.find(cut == 0 ? "@fz2/1\n" : "@fz2/2\n");
        // Cut inside the header line, after it, and before the quality
        // line (a cut inside the quality line leaves a complete record:
        // a final newline-less run is a line).
        for (std::size_t keep :
             { rec3 + 3, rec3 + 7, text.find("+\n", rec3) + 2 }) {
            std::string t1 = r1, t2 = r2;
            (cut == 0 ? t1 : t2).resize(keep);
            const std::string ctx = "cut stream " + std::to_string(cut) +
                                    " at " + std::to_string(keep);
            const IngestOut oracle = oracleIngest(t1, t2);
            ASSERT_TRUE(oracle.err.set()) << ctx;
            EXPECT_EQ(oracle.err.recordIndex, 3u) << ctx;
            EXPECT_EQ(oracle.err.rank, cut) << ctx;
            EXPECT_NE(oracle.err.message.find("truncated FASTQ record"),
                      std::string::npos)
                << ctx << ": " << oracle.err.message;
            expectAllPathsMatchOracle(t1, t2, ctx);
        }
    }
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
