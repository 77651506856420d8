/**
 * @file
 * Tests for the adoption-surface I/O: SAM records and VCF round-trips
 * (the SeedMap image has its own fuzz wall, test_seedmap_fuzz.cc).
 */

#include <gtest/gtest.h>

#include <sstream>
#include <streambuf>
#include <vector>

#include "eval/vcf.hh"
#include "genomics/fasta.hh"
#include "genomics/sam.hh"
#include "simdata/genome_generator.hh"
#include "util/byte_stream.hh"
#include "util/rng.hh"

namespace {

using namespace gpx;
using genomics::Cigar;
using genomics::DnaSequence;
using genomics::Mapping;
using genomics::PairMapping;
using genomics::ReadPair;
using genomics::Reference;
using genomics::SamWriter;

Reference
makeRef()
{
    Reference ref;
    util::Pcg32 rng(5);
    std::string s;
    for (int i = 0; i < 3000; ++i)
        s.push_back(genomics::baseToChar(rng.below(4)));
    ref.addChromosome("chr1", DnaSequence(s));
    ref.addChromosome("chr2", DnaSequence(s.substr(0, 1500)));
    return ref;
}

TEST(Sam, HeaderListsChromosomes)
{
    Reference ref = makeRef();
    std::ostringstream os;
    SamWriter writer(os, ref);
    writer.writeHeader();
    std::string out = os.str();
    EXPECT_NE(out.find("@SQ\tSN:chr1\tLN:3000"), std::string::npos);
    EXPECT_NE(out.find("@SQ\tSN:chr2\tLN:1500"), std::string::npos);
}

TEST(Sam, ProperPairFlagsAndTlen)
{
    Reference ref = makeRef();
    std::ostringstream os;
    SamWriter writer(os, ref);

    ReadPair pair;
    pair.first.name = "p0";
    pair.first.seq = ref.window(100, 150);
    pair.second.name = "p0";
    pair.second.seq = ref.window(350, 150).revComp();

    PairMapping pm;
    pm.first.mapped = true;
    pm.first.pos = 100;
    pm.first.cigar = Cigar::parse("150M");
    pm.first.score = 300;
    pm.second.mapped = true;
    pm.second.pos = 350;
    pm.second.reverse = true;
    pm.second.cigar = Cigar::parse("150M");
    pm.second.score = 300;

    writer.writePair(pair, pm);
    std::string out = os.str();
    EXPECT_EQ(writer.recordsWritten(), 2u);

    // First record: paired, proper, first-in-pair, mate reverse.
    u32 f1 = genomics::kSamPaired | genomics::kSamProperPair |
             genomics::kSamFirstInPair | genomics::kSamMateReverse;
    EXPECT_NE(out.find("p0\t" + std::to_string(f1) + "\tchr1\t101"),
              std::string::npos);
    // TLEN = 350 + 150 - 100 = 400.
    EXPECT_NE(out.find("\t400\t"), std::string::npos);
    EXPECT_NE(out.find("\t-400\t"), std::string::npos);
}

TEST(Sam, ReverseReadSequenceIsRevComped)
{
    Reference ref = makeRef();
    std::ostringstream os;
    SamWriter writer(os, ref);
    genomics::Read read;
    read.name = "r";
    read.seq = ref.window(200, 20).revComp();
    Mapping m;
    m.mapped = true;
    m.pos = 200;
    m.reverse = true;
    m.cigar = Cigar::parse("20M");
    writer.writeRead(read, m);
    // SAM stores the reference-forward orientation.
    EXPECT_NE(os.str().find(ref.window(200, 20).toString()),
              std::string::npos);
}

TEST(Sam, UnmappedRecord)
{
    Reference ref = makeRef();
    std::ostringstream os;
    SamWriter writer(os, ref);
    genomics::Read read;
    read.name = "u";
    read.seq = DnaSequence("ACGT");
    writer.writeRead(read, Mapping{});
    EXPECT_NE(os.str().find("u\t4\t*\t0\t0\t*"), std::string::npos);
}

TEST(Sam, MatesOnTwoChromosomesAreNeverProper)
{
    // chr1 ends at global 3000. A forward mate near its end and a
    // reverse mate near the start of chr2 are 300 bp apart in
    // concatenated coordinates, well inside the insert bound, but they
    // sit on different references: not proper, TLEN 0 (SAM v1 §1.4).
    Reference ref = makeRef();
    std::ostringstream os;
    SamWriter writer(os, ref);
    ReadPair pair;
    pair.first.name = "x";
    pair.first.seq = ref.window(2850, 100);
    pair.second.name = "x";
    pair.second.seq = ref.window(3050, 100).revComp();
    PairMapping pm;
    pm.first.mapped = true;
    pm.first.pos = 2850;
    pm.first.cigar = Cigar::parse("100M");
    pm.second.mapped = true;
    pm.second.pos = 3050;
    pm.second.reverse = true;
    pm.second.cigar = Cigar::parse("100M");
    writer.writePair(pair, pm);

    const u32 f1 = genomics::kSamPaired | genomics::kSamFirstInPair |
                   genomics::kSamMateReverse;
    const u32 f2 = genomics::kSamPaired | genomics::kSamSecondInPair |
                   genomics::kSamReverse;
    std::istringstream lines(os.str());
    std::string r1, r2;
    ASSERT_TRUE(std::getline(lines, r1));
    ASSERT_TRUE(std::getline(lines, r2));
    EXPECT_EQ(r1.substr(0, r1.find("\t", r1.find("\t", 2) + 1)),
              "x\t" + std::to_string(f1) + "\tchr1")
        << r1;
    EXPECT_NE(r1.find("\tchr2\t51\t0\t"), std::string::npos) << r1;
    EXPECT_EQ(r2.substr(0, r2.find("\t", r2.find("\t", 2) + 1)),
              "x\t" + std::to_string(f2) + "\tchr2")
        << r2;
    EXPECT_NE(r2.find("\tchr1\t2851\t0\t"), std::string::npos) << r2;

    // The same layout on one chromosome is proper with TLEN 300.
    pm.second.pos = 2550;
    pm.first.pos = 2350;
    std::ostringstream same;
    SamWriter sameWriter(same, ref);
    sameWriter.writePair(pair, pm);
    EXPECT_NE(same.str().find("\t=\t2551\t300\t"), std::string::npos)
        << same.str();
}

// ---------------------------------------------------------------------------
// The renderer against the ostream-based one it replaced.
// ---------------------------------------------------------------------------

/**
 * The ostream renderer SamWriter used before it wrote into a reused
 * buffer, kept as the byte oracle. The one change from that code is
 * the cross-chromosome rule: mates on different references are never
 * a proper pair.
 */
class OracleSam
{
  public:
    explicit OracleSam(const Reference &ref, u32 max_proper_insert = 1200)
        : ref_(ref), maxProperInsert_(max_proper_insert)
    {
    }

    void
    writeRecord(std::ostream &os, const genomics::Read &read,
                const Mapping &mapping, u32 flags, const Mapping *mate,
                i64 tlen) const
    {
        std::string rname = "*";
        u64 pos1 = 0;
        std::string cigar = "*";
        if (mapping.mapped) {
            genomics::ChromPos cp = ref_.toChromPos(mapping.pos);
            rname = ref_.name(cp.chrom);
            pos1 = cp.offset + 1;
            cigar = mapping.cigar.empty() ? "*" : mapping.cigar.toString();
            if (mapping.reverse)
                flags |= genomics::kSamReverse;
        } else {
            flags |= genomics::kSamUnmapped;
        }
        std::string rnext = "*";
        u64 pnext = 0;
        if (mate) {
            if (mate->mapped) {
                genomics::ChromPos mcp = ref_.toChromPos(mate->pos);
                rnext = ref_.name(mcp.chrom) == rname ? "="
                                                      : ref_.name(mcp.chrom);
                pnext = mcp.offset + 1;
                if (mate->reverse)
                    flags |= genomics::kSamMateReverse;
            } else {
                flags |= genomics::kSamMateUnmapped;
            }
        }
        std::string seq = mapping.mapped && mapping.reverse
                              ? read.seq.revComp().toString()
                              : read.seq.toString();
        u8 mapq = mapping.mapped ? 60 : 0;
        os << read.name << '\t' << flags << '\t' << rname << '\t' << pos1
           << '\t' << static_cast<u32>(mapq) << '\t' << cigar << '\t'
           << rnext << '\t' << pnext << '\t' << tlen << '\t' << seq << '\t'
           << '*' << "\tAS:i:" << mapping.score << '\n';
    }

    void
    writePairTo(std::ostream &os, const ReadPair &pair,
                const PairMapping &mapping) const
    {
        u32 f1 = genomics::kSamPaired | genomics::kSamFirstInPair;
        u32 f2 = genomics::kSamPaired | genomics::kSamSecondInPair;
        i64 tlen = 0;
        bool proper = false;
        if (mapping.bothMapped() &&
            mapping.first.reverse != mapping.second.reverse &&
            ref_.toChromPos(mapping.first.pos).chrom ==
                ref_.toChromPos(mapping.second.pos).chrom) {
            const Mapping &left =
                mapping.first.reverse ? mapping.second : mapping.first;
            const Mapping &right =
                mapping.first.reverse ? mapping.first : mapping.second;
            if (right.pos >= left.pos) {
                u64 span = right.pos + right.cigar.refSpan() - left.pos;
                if (span <= maxProperInsert_) {
                    proper = true;
                    tlen = static_cast<i64>(span);
                }
            }
        }
        if (proper) {
            f1 |= genomics::kSamProperPair;
            f2 |= genomics::kSamProperPair;
        }
        writeRecord(os, pair.first, mapping.first, f1, &mapping.second,
                    mapping.first.reverse ? -tlen : tlen);
        writeRecord(os, pair.second, mapping.second, f2, &mapping.first,
                    mapping.second.reverse ? -tlen : tlen);
    }

  private:
    const Reference &ref_;
    u32 maxProperInsert_;
};

/** A stringbuf that records the size of every write it receives. */
class CountingBuf : public std::stringbuf
{
  public:
    std::vector<std::streamsize> writes;

  protected:
    std::streamsize
    xsputn(const char *s, std::streamsize n) override
    {
        writes.push_back(n);
        return std::stringbuf::xsputn(s, n);
    }
};

/** A read named the way the FASTQ reader names one: cut at a comment. */
genomics::Read
parsedRead(const std::string &header, const std::string &bases)
{
    util::StringSource src(header + "\n" + bases + "\n+\n" +
                           std::string(bases.size(), 'I') + "\n");
    genomics::FastqReader reader(src);
    genomics::Read read;
    EXPECT_TRUE(reader.next(read));
    return read;
}

std::string
randomBases(util::Pcg32 &rng, u64 n)
{
    std::string s;
    for (u64 i = 0; i < n; ++i)
        s.push_back(genomics::baseToChar(rng.below(4)));
    return s;
}

Cigar
randomCigar(util::Pcg32 &rng)
{
    static const genomics::CigarOp kOps[] = {
        genomics::CigarOp::Match,    genomics::CigarOp::Insertion,
        genomics::CigarOp::Deletion, genomics::CigarOp::SoftClip,
        genomics::CigarOp::Equal,    genomics::CigarOp::Diff,
    };
    static const u32 kMaxLen[] = { 9, 99, 99999, 4000000000u };
    Cigar c;
    const u32 n = rng.chance(0.1) ? 0 : 1 + rng.below(6);
    u32 op = rng.below(6);
    for (u32 i = 0; i < n; ++i) {
        c.push(kOps[op], 1 + rng.below(kMaxLen[rng.below(4)]));
        op = (op + 1 + rng.below(5)) % 6; // never merges with the last
    }
    return c;
}

Mapping
randomMapping(util::Pcg32 &rng, u64 genome)
{
    Mapping m;
    m.mapped = !rng.chance(0.15);
    m.pos = m.mapped ? rng.below64(genome) : kInvalidPos;
    m.reverse = rng.chance(0.5);
    m.score = static_cast<i32>(rng.below(2000)) - 1000;
    m.cigar = randomCigar(rng);
    return m;
}

/**
 * Seeded pairs covering every branch of a record: unmapped reads and
 * mates, both strands, mates on one chromosome, on two, and straddling
 * the chr1/chr2 boundary within the insert bound; empty and
 * multi-element CIGARs with every op and multi-digit lengths; negative
 * TLEN; zero-length reads; names cut at a comment.
 */
void
randomPairs(const Reference &ref, u64 n, u64 seed,
            std::vector<ReadPair> &pairs, std::vector<PairMapping> &maps)
{
    util::Pcg32 rng(seed);
    const u64 genome = ref.totalLength();
    for (u64 i = 0; i < n; ++i) {
        const u64 len1 = rng.chance(0.05) ? 0 : 1 + rng.below(300);
        const u64 len2 = rng.chance(0.05) ? 0 : 1 + rng.below(300);
        const std::string name = "p" + std::to_string(i);
        const char *comment = rng.chance(0.3) ? " 1:N:0:ACGT" : "";
        ReadPair pair;
        pair.first =
            parsedRead("@" + name + comment, randomBases(rng, len1));
        pair.second =
            parsedRead("@" + name + "\tBX:Z:x", randomBases(rng, len2));
        PairMapping pm;
        pm.first = randomMapping(rng, genome);
        pm.second = randomMapping(rng, genome);
        if (rng.chance(0.5) && pm.bothMapped()) {
            // An FR layout within the insert bound, either mate first;
            // around position 3000 the mates straddle chr1/chr2.
            const u64 left = rng.chance(0.3) ? 2700 + rng.below(300)
                                             : rng.below64(genome - 800);
            const u64 right = left + rng.below(600);
            const bool firstLeft = rng.chance(0.5);
            pm.first.pos = firstLeft ? left : right;
            pm.second.pos = firstLeft ? right : left;
            pm.first.reverse = !firstLeft;
            pm.second.reverse = firstLeft;
            pm.first.cigar = Cigar{};
            pm.first.cigar.push(genomics::CigarOp::Match,
                                1 + rng.below(200));
            pm.second.cigar = Cigar{};
            pm.second.cigar.push(genomics::CigarOp::Match,
                                 1 + rng.below(200));
        }
        pairs.push_back(std::move(pair));
        maps.push_back(std::move(pm));
    }
}

TEST(SamRender, MatchesOstreamOracleByteForByte)
{
    const Reference ref = makeRef();
    const OracleSam oracle(ref);
    std::vector<ReadPair> pairs;
    std::vector<PairMapping> maps;
    randomPairs(ref, 3000, 2024, pairs, maps);

    // The coverage the oracle comparison relies on.
    u64 proper = 0, crossChrom = 0, negTlen = 0, eq = 0;
    for (std::size_t i = 0; i < pairs.size(); ++i) {
        std::ostringstream one;
        oracle.writePairTo(one, pairs[i], maps[i]);
        const std::string rec = one.str();
        const u64 flags = std::stoull(rec.substr(rec.find('\t') + 1));
        proper += (flags & genomics::kSamProperPair) != 0;
        negTlen += rec.find("\t-") != std::string::npos;
        eq += rec.find("\t=\t") != std::string::npos;
        if (maps[i].bothMapped() &&
            ref.toChromPos(maps[i].first.pos).chrom !=
                ref.toChromPos(maps[i].second.pos).chrom &&
            maps[i].first.pos + 1200 > maps[i].second.pos &&
            maps[i].second.pos + 1200 > maps[i].first.pos)
            ++crossChrom;
    }
    EXPECT_GT(proper, 300u);
    EXPECT_GT(negTlen, 300u);
    EXPECT_GT(eq, 300u);
    EXPECT_GT(crossChrom, 20u);

    // writePair, one pair at a time.
    std::ostringstream expected;
    for (std::size_t i = 0; i < pairs.size(); ++i)
        oracle.writePairTo(expected, pairs[i], maps[i]);
    std::ostringstream single;
    SamWriter singleWriter(single, ref);
    for (std::size_t i = 0; i < pairs.size(); ++i)
        singleWriter.writePair(pairs[i], maps[i]);
    ASSERT_EQ(single.str(), expected.str());

    // writePairBatch over more than two slices, in one call.
    std::string batchExpected;
    std::vector<ReadPair> many;
    std::vector<PairMapping> manyMaps;
    while (batchExpected.size() < 2 * SamWriter::kSliceBytes + 4096) {
        batchExpected += expected.str();
        many.insert(many.end(), pairs.begin(), pairs.end());
        manyMaps.insert(manyMaps.end(), maps.begin(), maps.end());
    }
    CountingBuf buf;
    std::ostream batchOs(&buf);
    SamWriter batchWriter(batchOs, ref);
    batchWriter.checkWrites("batch.sam", /*fatal_on_error=*/true);
    batchWriter.writePairBatch(many.data(), manyMaps.data(), many.size());
    EXPECT_EQ(buf.str(), batchExpected);
    EXPECT_EQ(batchWriter.bytesWritten(), batchExpected.size());
    EXPECT_EQ(batchWriter.recordsWritten(), 2 * many.size());
    // Committed in slices: every write but the last passes the slice
    // size by less than one pair, and no write holds the whole batch.
    ASSERT_GE(buf.writes.size(), 3u);
    for (std::size_t w = 0; w + 1 < buf.writes.size(); ++w) {
        EXPECT_GE(buf.writes[w], static_cast<std::streamsize>(
                                     SamWriter::kSliceBytes));
        EXPECT_LT(buf.writes[w], static_cast<std::streamsize>(
                                     SamWriter::kSliceBytes + 4096));
    }

    // writeRead: single-end records (no mate fields).
    std::ostringstream readExpected, readActual;
    SamWriter readWriter(readActual, ref);
    for (std::size_t i = 0; i < pairs.size(); ++i) {
        oracle.writeRecord(readExpected, pairs[i].second, maps[i].second,
                           0, nullptr, 0);
        readWriter.writeRead(pairs[i].second, maps[i].second);
    }
    EXPECT_EQ(readActual.str(), readExpected.str());
}

TEST(Sam, MapqFromScores)
{
    EXPECT_EQ(genomics::mapqFromScores(300, 0, 300), 60);
    EXPECT_EQ(genomics::mapqFromScores(300, 300, 300), 0);
    u8 mid = genomics::mapqFromScores(300, 270, 300);
    EXPECT_GT(mid, 0);
    EXPECT_LT(mid, 60);
    EXPECT_EQ(genomics::mapqFromScores(0, 0, 300), 0);
}

TEST(Vcf, RoundTripAllClasses)
{
    Reference ref = makeRef();
    std::vector<eval::CalledVariant> calls(3);
    calls[0].chrom = 0;
    calls[0].pos = 500;
    calls[0].type = simdata::VariantType::Snp;
    calls[0].altBase = (ref.baseAt(500) + 1) & 3u;
    calls[0].altFraction = 0.5;
    calls[0].depth = 30;
    calls[1].chrom = 0;
    calls[1].pos = 800;
    calls[1].type = simdata::VariantType::Insertion;
    calls[1].insSeq = "TTG";
    calls[1].len = 3;
    calls[2].chrom = 1;
    calls[2].pos = 300;
    calls[2].type = simdata::VariantType::Deletion;
    calls[2].len = 2;

    std::stringstream ss;
    eval::writeVcf(ss, ref, calls);
    auto back = eval::readVcf(ss, ref);
    ASSERT_EQ(back.size(), 3u);
    EXPECT_EQ(back[0].type, simdata::VariantType::Snp);
    EXPECT_EQ(back[0].pos, 500u);
    EXPECT_EQ(back[0].altBase, calls[0].altBase);
    EXPECT_EQ(back[1].type, simdata::VariantType::Insertion);
    EXPECT_EQ(back[1].insSeq, "TTG");
    EXPECT_EQ(back[2].type, simdata::VariantType::Deletion);
    EXPECT_EQ(back[2].len, 2u);
    EXPECT_EQ(back[2].chrom, 1u);
}

TEST(Vcf, HeaderWellFormed)
{
    Reference ref = makeRef();
    std::ostringstream os;
    eval::writeVcf(os, ref, {});
    std::string out = os.str();
    EXPECT_EQ(out.rfind("##fileformat=VCFv4.2", 0), 0u);
    EXPECT_NE(out.find("##contig=<ID=chr1,length=3000>"),
              std::string::npos);
    EXPECT_NE(out.find("#CHROM\tPOS"), std::string::npos);
}

} // namespace
