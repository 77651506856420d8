/**
 * @file
 * Tests for the adoption-surface I/O: SAM records and VCF round-trips
 * (the SeedMap image has its own fuzz wall, test_seedmap_fuzz.cc).
 */

#include <gtest/gtest.h>

#include <sstream>

#include "eval/vcf.hh"
#include "genomics/sam.hh"
#include "simdata/genome_generator.hh"
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
