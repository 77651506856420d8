/**
 * @file
 * Failure-injection and format-robustness tests for the FASTA/FASTQ
 * readers and the CLI flag parser: a production mapper meets malformed
 * and foreign-formatted files long before it meets clean ones.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>

#include "../tools/cli.hh"
#include "genomics/fasta.hh"
#include "util/byte_stream.hh"
#include "util/gzip_stream.hh"

namespace {

using namespace gpx;
using genomics::DnaSequence;
using genomics::Reference;

// ---------------------------------------------------------------------
// FASTA robustness
// ---------------------------------------------------------------------

TEST(FastaRobust, EmptyStreamYieldsEmptyReference)
{
    std::istringstream in("");
    Reference ref = genomics::readFasta(in);
    EXPECT_EQ(ref.totalLength(), 0u);
    EXPECT_EQ(ref.numChromosomes(), 0u);
}

TEST(FastaRobust, CrlfLineEndingsDoNotCorruptSequence)
{
    // A CRLF file must decode to the same bases as its LF twin; a naive
    // reader turns each '\r' into a spurious 'A'.
    std::istringstream crlf(">chr1\r\nACGTACGT\r\nTTGG\r\n");
    Reference ref = genomics::readFasta(crlf);
    ASSERT_EQ(ref.numChromosomes(), 1u);
    EXPECT_EQ(ref.chromosome(0).toString(), "ACGTACGTTTGG");
}

TEST(FastaRobust, HeaderDescriptionStripped)
{
    std::istringstream in(">chr1 Homo sapiens chromosome 1\nACGT\n");
    Reference ref = genomics::readFasta(in);
    ASSERT_EQ(ref.numChromosomes(), 1u);
    EXPECT_EQ(ref.name(0), "chr1");
}

TEST(FastaRobust, BlankLinesSkipped)
{
    std::istringstream in("\n>chr1\n\nAC\nGT\n\n>chr2\nTTTT\n");
    Reference ref = genomics::readFasta(in);
    ASSERT_EQ(ref.numChromosomes(), 2u);
    EXPECT_EQ(ref.chromosome(0).toString(), "ACGT");
    EXPECT_EQ(ref.chromosome(1).toString(), "TTTT");
}

TEST(FastaRobust, MultiLineWrapJoined)
{
    std::string seq(500, 'C');
    std::ostringstream file;
    file << ">chr1\n";
    for (std::size_t i = 0; i < seq.size(); i += 60)
        file << seq.substr(i, 60) << '\n';
    std::istringstream in(file.str());
    Reference ref = genomics::readFasta(in);
    EXPECT_EQ(ref.chromosome(0).toString(), seq);
}

TEST(FastaRobust, AmbiguityCodesResolveToA)
{
    // The documented convention: any non-ACGT character maps to A.
    std::istringstream in(">chr1\nACGTNNRY\n");
    Reference ref = genomics::readFasta(in);
    EXPECT_EQ(ref.chromosome(0).toString(), "ACGTAAAA");
}

TEST(FastaRobust, AmbiguousBasesCountedInStats)
{
    std::istringstream in(">c1\nACGTNN\n>c2\nNRYA\nacgt\n");
    genomics::IngestStats stats;
    Reference ref = genomics::readFasta(in, &stats);
    EXPECT_EQ(ref.numChromosomes(), 2u);
    EXPECT_EQ(stats.ambiguousBases, 5u); // N N + N R Y

    std::istringstream clean(">c1\nACGT\n");
    genomics::IngestStats cleanStats;
    genomics::readFasta(clean, &cleanStats);
    EXPECT_EQ(cleanStats.ambiguousBases, 0u);
}

// ---------------------------------------------------------------------
// FASTQ robustness
// ---------------------------------------------------------------------

TEST(FastqRobust, CrlfRecordsDecodeCleanly)
{
    std::istringstream in("@r1\r\nACGT\r\n+\r\nIIII\r\n");
    auto reads = genomics::readFastq(in);
    ASSERT_EQ(reads.size(), 1u);
    EXPECT_EQ(reads[0].name, "r1");
    EXPECT_EQ(reads[0].seq.toString(), "ACGT");
}

TEST(FastqRobust, NameStopsAtWhitespace)
{
    std::istringstream in("@r1 1:N:0:ATCACG\nACGT\n+\nIIII\n");
    auto reads = genomics::readFastq(in);
    ASSERT_EQ(reads.size(), 1u);
    EXPECT_EQ(reads[0].name, "r1");
}

TEST(FastqRobust, ReaderCountsAmbiguousBases)
{
    std::istringstream in("@r1\nACGN\n+\nIIII\n@r2\nNNNN\n+\nIIII\n"
                          "@r3\nACGT\n+\nIIII\n");
    genomics::FastqReader reader(in);
    genomics::Read r;
    while (reader.next(r)) {
    }
    EXPECT_EQ(reader.recordsRead(), 3u);
    EXPECT_EQ(reader.ambiguousBases(), 5u);
    EXPECT_EQ(reader.stats().ambiguousBases, 5u);
}

TEST(FastqRobust, CleanInputReportsZeroAmbiguous)
{
    std::istringstream in("@r1\nACGT\n+\nIIII\n");
    genomics::FastqReader reader(in);
    genomics::Read r;
    while (reader.next(r)) {
    }
    EXPECT_EQ(reader.ambiguousBases(), 0u);
}

TEST(FastqRobust, MissingTrailingNewlineStillYieldsLastRecord)
{
    // EOF directly after the quality characters (no final '\n'): the
    // last record must parse whole, not vanish or go fatal.
    std::istringstream in("@r1\nACGT\n+\nIIII\n@r2\nTTGG\n+\nIIII");
    auto reads = genomics::readFastq(in);
    ASSERT_EQ(reads.size(), 2u);
    EXPECT_EQ(reads[1].name, "r2");
    EXPECT_EQ(reads[1].seq.toString(), "TTGG");
}

TEST(FastqRobust, CrlfWithMissingTrailingNewline)
{
    // CRLF line endings AND no terminator on the last line: the '\r'
    // on the final quality line must not corrupt anything.
    std::istringstream in("@r1\r\nACGT\r\n+\r\nIIII\r\n@r2\r\nTTGG\r\n"
                          "+\r\nIIII");
    auto reads = genomics::readFastq(in);
    ASSERT_EQ(reads.size(), 2u);
    EXPECT_EQ(reads[0].seq.toString(), "ACGT");
    EXPECT_EQ(reads[1].name, "r2");
    EXPECT_EQ(reads[1].seq.toString(), "TTGG");
}

TEST(FastqRobust, EmptyFinalRecordParsesAsZeroLengthRead)
{
    // A zero-length final record (empty sequence and quality) is valid
    // FASTQ; it must surface as an empty read, not crash or be lost.
    std::istringstream in("@r1\nACGT\n+\nIIII\n@empty\n\n+\n\n");
    auto reads = genomics::readFastq(in);
    ASSERT_EQ(reads.size(), 2u);
    EXPECT_EQ(reads[1].name, "empty");
    EXPECT_EQ(reads[1].seq.size(), 0u);
}

TEST(FastqRobust, CrlfEmptyFinalRecord)
{
    std::istringstream in("@r1\r\nACGT\r\n+\r\nIIII\r\n@empty\r\n\r\n"
                          "+\r\n\r\n");
    auto reads = genomics::readFastq(in);
    ASSERT_EQ(reads.size(), 2u);
    EXPECT_EQ(reads[1].name, "empty");
    EXPECT_EQ(reads[1].seq.size(), 0u);
}

TEST(FastqRobust, TrailingBlankLinesYieldNoExtraRecords)
{
    std::istringstream in("@r1\nACGT\n+\nIIII\n\n\n\r\n");
    auto reads = genomics::readFastq(in);
    ASSERT_EQ(reads.size(), 1u);
    EXPECT_EQ(reads[0].seq.toString(), "ACGT");
}

TEST(FastqRobust, StreamingReaderAgreesOnEdgeCaseInput)
{
    // The incremental reader (the streaming driver's parser) must see
    // exactly the same records as the batch helper on edge-case input.
    const std::string file =
        "@r1\r\nACGT\r\n+\r\nIIII\r\n@empty\n\n+\n\n@r3\nGGCC\n+\nIIII";
    std::istringstream a(file);
    auto batch = genomics::readFastq(a);
    std::istringstream b(file);
    genomics::FastqReader reader(b);
    genomics::Read r;
    std::size_t i = 0;
    while (reader.next(r)) {
        ASSERT_LT(i, batch.size());
        EXPECT_EQ(r.name, batch[i].name);
        EXPECT_EQ(r.seq.toString(), batch[i].seq.toString());
        ++i;
    }
    EXPECT_EQ(i, batch.size());
    EXPECT_EQ(reader.recordsRead(), 3u);
}

// ---------------------------------------------------------------------
// Recoverable parse path (the serve-mode discipline): tryNext() must
// report malformed input instead of exiting, so gpx_serve can reject
// one bad request without taking the daemon down.
// ---------------------------------------------------------------------

TEST(FastqTryNext, CleanStreamMatchesNext)
{
    std::istringstream in("@r1\nACGT\n+\nIIII\n@r2\nTTGG\n+\nIIII\n");
    genomics::FastqReader reader(in);
    genomics::Read r;
    std::string error;
    EXPECT_EQ(reader.tryNext(r, &error), genomics::FastqParse::kRecord);
    EXPECT_EQ(r.name, "r1");
    EXPECT_EQ(reader.tryNext(r, &error), genomics::FastqParse::kRecord);
    EXPECT_EQ(r.name, "r2");
    EXPECT_EQ(reader.tryNext(r, &error), genomics::FastqParse::kEof);
    EXPECT_TRUE(error.empty());
}

TEST(FastqTryNext, TruncatedRecordReportsErrorNotDeath)
{
    std::istringstream in("@r1\nACGT\n+\nIIII\n@r2\nACGT\n+\n");
    genomics::FastqReader reader(in);
    genomics::Read r;
    std::string error;
    EXPECT_EQ(reader.tryNext(r, &error), genomics::FastqParse::kRecord);
    EXPECT_EQ(reader.tryNext(r, &error), genomics::FastqParse::kError);
    EXPECT_NE(error.find("truncated FASTQ record"), std::string::npos)
        << error;
    EXPECT_NE(error.find("record 2"), std::string::npos) << error;
    EXPECT_NE(error.find("@r2"), std::string::npos) << error;
}

TEST(FastqTryNext, MalformedHeaderReportsErrorNotDeath)
{
    std::istringstream in("ACGT\nACGT\n+\nIIII\n");
    genomics::FastqReader reader(in);
    genomics::Read r;
    std::string error;
    EXPECT_EQ(reader.tryNext(r, &error), genomics::FastqParse::kError);
    EXPECT_NE(error.find("malformed FASTQ header"), std::string::npos)
        << error;
}

TEST(FastqTryNext, ErrorPoisonsReader)
{
    // After one kError the stream position inside the broken record is
    // meaningless; every further call must keep failing with the same
    // diagnostic rather than resynchronize on garbage.
    std::istringstream in("@r1\nACGT\n+\n");
    genomics::FastqReader reader(in);
    genomics::Read r;
    std::string first, second;
    EXPECT_EQ(reader.tryNext(r, &first), genomics::FastqParse::kError);
    EXPECT_EQ(reader.tryNext(r, &second), genomics::FastqParse::kError);
    EXPECT_EQ(first, second);
    EXPECT_FALSE(first.empty());
}

TEST(FastqTryNext, NullErrorPointerAccepted)
{
    std::istringstream in("garbage");
    genomics::FastqReader reader(in);
    genomics::Read r;
    EXPECT_EQ(reader.tryNext(r), genomics::FastqParse::kError);
}

TEST(FastqRobustDeath, TruncatedRecordIsFatal)
{
    EXPECT_DEATH(
        {
            std::istringstream in("@r1\nACGT\n+\n"); // missing quality
            genomics::readFastq(in);
        },
        "truncated FASTQ record");
}

TEST(FastqRobustDeath, TruncatedRecordReportsIndexAndHeader)
{
    // EOF mid-record must say which record broke, not just that the
    // stream ended: record 1 parsed fine, record 2 is cut short.
    EXPECT_DEATH(
        {
            std::istringstream in(
                "@r1\nACGT\n+\nIIII\n@r2\nACGT\n+\n");
            genomics::readFastq(in);
        },
        "EOF mid-record at record 2 \\(header '@r2'\\)");
}

TEST(FastqRobustDeath, MalformedHeaderIsFatal)
{
    EXPECT_DEATH(
        {
            std::istringstream in("ACGT\nACGT\n+\nIIII\n");
            genomics::readFastq(in);
        },
        "malformed FASTQ header");
}

// ---------------------------------------------------------------------
// Gzip ingest + record-base offsets (the splittable-reader contracts)
// ---------------------------------------------------------------------

TEST(FastqGzip, GzipStreamDecodesLikePlainText)
{
    if (!util::gzipSupported())
        GTEST_SKIP() << "built without zlib";
    const std::string text =
        "@a one\nACGT\n+\nIIII\n@b two\nTTAA\n+\nIIII\n";
    std::istringstream in(util::gzipCompress(text));
    genomics::FastqReader reader(in);
    genomics::Read r;
    std::vector<std::string> names;
    while (reader.next(r))
        names.push_back(r.name);
    ASSERT_EQ(names.size(), 2u);
    EXPECT_EQ(names[0], "a");
    EXPECT_EQ(names[1], "b");
}

TEST(FastqGzip, MultiMemberGzipConcatenationDecodes)
{
    // `cat a.fq.gz b.fq.gz` is a valid gzip file; the inflater must
    // cross the member boundary instead of stopping at the first one.
    if (!util::gzipSupported())
        GTEST_SKIP() << "built without zlib";
    std::string joined = util::gzipCompress("@a\nACGT\n+\nIIII\n") +
                         util::gzipCompress("@b\nTTAA\n+\nIIII\n");
    std::istringstream in(joined);
    genomics::FastqReader reader(in);
    genomics::Read r;
    u64 count = 0;
    while (reader.next(r))
        ++count;
    EXPECT_EQ(count, 2u);
}

TEST(FastqGzip, CorruptGzipPayloadReportsError)
{
    if (!util::gzipSupported())
        GTEST_SKIP() << "built without zlib";
    std::string gz = util::gzipCompress("@a\nACGT\n+\nIIII\n");
    ASSERT_GT(gz.size(), 12u);
    // Valid gzip header, then a deflate block with the reserved type:
    // inflate must reject it before yielding any bytes to the parser.
    gz = gz.substr(0, 10) + std::string(4, '\xff');
    std::istringstream in(gz);
    genomics::FastqReader reader(in);
    genomics::Read r;
    std::string error;
    EXPECT_EQ(reader.tryNext(r, &error), genomics::FastqParse::kError);
    EXPECT_NE(error.find("gzip"), std::string::npos) << error;
}

TEST(FastqRecordBase, ErrorIndicesAreOffsetByRecordBase)
{
    // A chunk parser that owns records 100.. must report absolute
    // record numbers: the second record of this slice is record 102.
    util::StringSource slice("@r1\nACGT\n+\nIIII\n@r2\nACGT\n+\n");
    genomics::FastqReader reader(slice, 100);
    genomics::Read r;
    std::string error;
    EXPECT_EQ(reader.tryNext(r, &error), genomics::FastqParse::kRecord);
    EXPECT_EQ(reader.tryNext(r, &error), genomics::FastqParse::kError);
    EXPECT_NE(error.find("at record 102"), std::string::npos) << error;
}

TEST(FastqRecordBase, SharedAmbiguityWarningFiresOnce)
{
    // Concurrent slice readers share one warned-ambiguous latch so a
    // file full of N bases warns once, not once per parser thread.
    std::atomic<bool> warned{ false };
    util::StringSource s1("@a\nACGN\n+\nIIII\n");
    util::StringSource s2("@b\nNNNN\n+\nIIII\n");
    genomics::FastqReader r1(s1, 0, &warned);
    genomics::FastqReader r2(s2, 1, &warned);
    genomics::Read r;
    EXPECT_TRUE(r1.next(r));
    EXPECT_TRUE(warned.load());
    EXPECT_TRUE(r2.next(r));
    EXPECT_EQ(r1.ambiguousBases() + r2.ambiguousBases(), 5u);
}

// ---------------------------------------------------------------------
// CLI parser
// ---------------------------------------------------------------------

tools::Cli
parse(std::vector<std::string> args, const std::set<std::string> &vals,
      const std::set<std::string> &bools)
{
    std::vector<char *> argv;
    static std::vector<std::string> storage;
    storage = std::move(args);
    storage.insert(storage.begin(), "prog");
    argv.reserve(storage.size());
    for (auto &s : storage)
        argv.push_back(s.data());
    return tools::Cli(static_cast<int>(argv.size()), argv.data(), vals,
                      bools, "usage");
}

TEST(Cli, ValueAndBoolFlags)
{
    auto cli = parse({ "--ref", "x.fa", "--baseline" }, { "--ref" },
                     { "--baseline" });
    EXPECT_EQ(cli.str("--ref"), "x.fa");
    EXPECT_TRUE(cli.has("--baseline"));
    EXPECT_FALSE(cli.has("--out"));
}

TEST(Cli, NumericParsing)
{
    auto cli = parse({ "--threads", "8", "--rate", "0.25" },
                     { "--threads", "--rate" }, {});
    EXPECT_EQ(cli.num<u32>("--threads", 0), 8u);
    EXPECT_DOUBLE_EQ(cli.real("--rate", 0.0), 0.25);
    EXPECT_EQ(cli.num<u32>("--missing", 42), 42u);
    EXPECT_DOUBLE_EQ(cli.real("--missing", 1.5), 1.5);
}

TEST(CliDeath, UnknownFlagExits)
{
    EXPECT_EXIT(parse({ "--bogus" }, { "--ref" }, {}),
                ::testing::ExitedWithCode(2), "unknown flag: --bogus");
}

TEST(CliDeath, MissingValueExits)
{
    EXPECT_EXIT(parse({ "--ref" }, { "--ref" }, {}),
                ::testing::ExitedWithCode(2), "needs a value");
}

TEST(CliDeath, MissingRequiredExits)
{
    auto cli = parse({}, { "--ref" }, {});
    EXPECT_EXIT(cli.required("--ref"), ::testing::ExitedWithCode(2),
                "missing required flag: --ref");
}

TEST(CliDeath, NonNumericValueExits)
{
    auto cli = parse({ "--threads", "many" }, { "--threads" }, {});
    EXPECT_EXIT(cli.num<u32>("--threads", 0), ::testing::ExitedWithCode(2),
                "expects an integer");
    auto empty = parse({ "--threads", "" }, { "--threads" }, {});
    EXPECT_EXIT(empty.num<u32>("--threads", 0),
                ::testing::ExitedWithCode(2), "expects an integer");
}

TEST(CliDeath, OutOfRangeValueExits)
{
    // Values are range-checked before they narrow: nothing wraps.
    auto cli = parse({ "--threads", "-1", "--port", "70000", "--mib",
                       "4096", "--big", "99999999999999999999" },
                     { "--threads", "--port", "--mib", "--big" }, {});
    EXPECT_EXIT(cli.num<u32>("--threads", 0), ::testing::ExitedWithCode(2),
                "flag --threads expects an integer in \\[0, 4294967295\\], "
                "got '-1'");
    EXPECT_EXIT(cli.num<u16>("--port", 0), ::testing::ExitedWithCode(2),
                "in \\[0, 65535\\], got '70000'");
    EXPECT_EXIT(cli.num<u32>("--mib", 64, 4095),
                ::testing::ExitedWithCode(2), "in \\[0, 4095\\], got '4096'");
    EXPECT_EXIT(cli.num<u64>("--big", 0), ::testing::ExitedWithCode(2),
                "got '99999999999999999999'");
    EXPECT_EQ(cli.num<u64>("--port", 0), 70000u);
    EXPECT_EQ(cli.num<u32>("--mib", 64, 4096), 4096u);
}


TEST(CliDeath, HelpExitsZero)
{
    // Usage goes to stdout (which EXPECT_EXIT does not capture); the
    // contract under test is the clean exit before any flag validation.
    EXPECT_EXIT(parse({ "--help" }, { "--ref" }, {}),
                ::testing::ExitedWithCode(0), "");
}

} // namespace
