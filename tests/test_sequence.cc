/**
 * @file
 * Unit tests for the 2-bit DnaSequence representation.
 */

#include <gtest/gtest.h>

#include "genomics/sequence.hh"
#include "util/rng.hh"

namespace {

using namespace gpx;
using genomics::DnaSequence;

TEST(Sequence, EncodeDecodeRoundTrip)
{
    DnaSequence s("ACGTACGTTGCA");
    EXPECT_EQ(s.size(), 12u);
    EXPECT_EQ(s.toString(), "ACGTACGTTGCA");
}

TEST(Sequence, LowerCaseAndAmbiguityHandled)
{
    DnaSequence s("acgtN");
    EXPECT_EQ(s.toString(), "ACGTA"); // N maps to A
}

TEST(Sequence, AsciiEncodingMatchesThePerCharTables)
{
    // Every byte value at every position of the 8-byte word encoder and
    // in the per-char tail: codes from charToBase, the ambiguous count
    // from isAmbiguousBase.
    util::Pcg32 rng(91);
    for (int iter = 0; iter < 400; ++iter) {
        std::string ascii(rng.below(70), 'A');
        for (char &c : ascii) {
            c = rng.chance(0.5) ? "ACGTacgt"[rng.below(8)]
                                : static_cast<char>(rng.below(256));
        }
        u64 ambiguous = 0;
        const DnaSequence s(ascii, &ambiguous);
        ASSERT_EQ(s.size(), ascii.size());
        u64 expected = 0;
        for (std::size_t i = 0; i < ascii.size(); ++i) {
            ASSERT_EQ(s.at(i), genomics::charToBase(ascii[i]))
                << "iter " << iter << " pos " << i;
            expected += genomics::isAmbiguousBase(ascii[i]);
        }
        EXPECT_EQ(ambiguous, expected) << "iter " << iter;
        if (!ascii.empty() && (ascii.size() & 3u) != 0) {
            // Tail bits past the last base stay zero.
            EXPECT_EQ(s.packed().back() >> (2 * (ascii.size() & 3u)), 0);
        }
    }
}

TEST(Sequence, AtMatchesEncoding)
{
    DnaSequence s("ACGT");
    EXPECT_EQ(s.at(0), genomics::BaseA);
    EXPECT_EQ(s.at(1), genomics::BaseC);
    EXPECT_EQ(s.at(2), genomics::BaseG);
    EXPECT_EQ(s.at(3), genomics::BaseT);
}

TEST(Sequence, SetOverwritesBase)
{
    DnaSequence s("AAAA");
    s.set(2, genomics::BaseT);
    EXPECT_EQ(s.toString(), "AATA");
}

TEST(Sequence, SubExtractsRange)
{
    DnaSequence s("ACGTACGT");
    EXPECT_EQ(s.sub(2, 4).toString(), "GTAC");
    EXPECT_EQ(s.sub(0, 0).size(), 0u);
}

TEST(Sequence, RevCompKnownValue)
{
    DnaSequence s("AACGTT");
    EXPECT_EQ(s.revComp().toString(), "AACGTT"); // palindrome
    EXPECT_EQ(DnaSequence("ACCT").revComp().toString(), "AGGT");
}

TEST(Sequence, RevCompInvolution)
{
    util::Pcg32 rng(3);
    std::string s;
    for (int i = 0; i < 257; ++i)
        s.push_back(genomics::baseToChar(rng.below(4)));
    DnaSequence seq(s);
    EXPECT_EQ(seq.revComp().revComp(), seq);
}

TEST(Sequence, AppendConcatenates)
{
    DnaSequence a("ACG");
    DnaSequence b("TTT");
    a.append(b);
    EXPECT_EQ(a.toString(), "ACGTTT");
}

TEST(Sequence, PackedBytesDeterministic)
{
    DnaSequence a("ACGTACGT");
    DnaSequence b("ACGTACGT");
    EXPECT_EQ(a.packed(), b.packed());
    DnaSequence c("ACGTACGA");
    EXPECT_NE(a.packed(), c.packed());
}

TEST(Sequence, BitPlanesMatchBaseBits)
{
    DnaSequence s("ACGT");
    std::vector<u64> lo, hi;
    s.bitPlanes(lo, hi);
    ASSERT_EQ(lo.size(), 1u);
    // A=00 C=01 G=10 T=11 -> lo bits 0101 (C,T), hi bits 0011 (G,T).
    EXPECT_EQ(lo[0], 0b1010u);
    EXPECT_EQ(hi[0], 0b1100u);
}

TEST(Sequence, BitPlanesCrossWordBoundary)
{
    std::string s(70, 'T');
    DnaSequence seq(s);
    std::vector<u64> lo, hi;
    seq.bitPlanes(lo, hi);
    ASSERT_EQ(lo.size(), 2u);
    EXPECT_EQ(lo[0], ~u64{0});
    EXPECT_EQ(lo[1], (u64{1} << 6) - 1);
}

TEST(Sequence, HammingDistanceCountsDiffs)
{
    DnaSequence a("ACGTACGT");
    DnaSequence b("ACGAACGA");
    EXPECT_EQ(genomics::hammingDistance(a, b), 2u);
    EXPECT_EQ(genomics::hammingDistance(a, a), 0u);
}

TEST(Sequence, FromCodesMatchesPush)
{
    std::vector<u8> codes = { 0, 1, 2, 3, 3, 2 };
    DnaSequence s = DnaSequence::fromCodes(codes);
    EXPECT_EQ(s.toString(), "ACGTTG");
}

TEST(Sequence, ComplementBase)
{
    EXPECT_EQ(genomics::complementBase(genomics::BaseA), genomics::BaseT);
    EXPECT_EQ(genomics::complementBase(genomics::BaseC), genomics::BaseG);
}

TEST(DnaView, BasicAccessAndWords)
{
    DnaSequence s("ACGTACGTTGCA");
    genomics::DnaView v = s.view(2, 7); // GTACGTT
    EXPECT_EQ(v.size(), 7u);
    EXPECT_EQ(v.toString(), "GTACGTT");
    EXPECT_EQ(v.at(0), genomics::BaseG);
    EXPECT_EQ(v.at(6), genomics::BaseT);
    // One packed word: G,T,A,C,G,T,T = 2,3,0,1,2,3,3 LSB-first.
    u64 w = v.word(0);
    for (int i = 0; i < 7; ++i)
        EXPECT_EQ((w >> (2 * i)) & 3u, v.at(static_cast<std::size_t>(i)));
    EXPECT_EQ(w >> 14, 0u); // zero-padded past the view
}

TEST(DnaView, EqualityAcrossDifferentAlignments)
{
    DnaSequence s("TTACGTACGTACG");
    // The same 8-base payload viewed at offsets 2 and from a copy at 0.
    DnaSequence copy = s.sub(2, 8);
    EXPECT_TRUE(s.view(2, 8) == copy.view());
    EXPECT_FALSE(s.view(1, 8) == copy.view());
    EXPECT_FALSE(s.view(2, 7) == copy.view());
}

TEST(DnaView, MaterializeRoundTrip)
{
    std::string ascii(157, 'A');
    for (std::size_t i = 0; i < ascii.size(); ++i)
        ascii[i] = genomics::baseToChar(static_cast<u8>(i % 4));
    DnaSequence s{ std::string_view(ascii) };
    DnaSequence copy = s.view(3, 140).materialize();
    EXPECT_EQ(copy.toString(), ascii.substr(3, 140));
}

TEST(DnaView, AsciiDecodesMatchToStringAndRevComp)
{
    util::Pcg32 rng(93);
    for (int iter = 0; iter < 200; ++iter) {
        std::string ascii(rng.below(200), 'A');
        for (char &c : ascii)
            c = genomics::baseToChar(static_cast<u8>(rng.below(4)));
        const DnaSequence s{ std::string_view(ascii) };
        const std::size_t start = ascii.empty() ? 0 : rng.below(
                                                          ascii.size());
        const std::size_t len = rng.below(ascii.size() - start + 1);
        for (const genomics::DnaView &v : { s.view(), s.view(start, len) }) {
            std::string fwd(v.size(), '?');
            v.decodeAscii(fwd.data());
            EXPECT_EQ(fwd, v.toString()) << "iter " << iter;
            std::string rc(v.size(), '?');
            v.decodeRevCompAscii(rc.data());
            EXPECT_EQ(rc, v.revComp().toString()) << "iter " << iter;
        }
    }
}

} // namespace
