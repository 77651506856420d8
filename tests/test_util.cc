/**
 * @file
 * Unit tests for util: xxHash reference vectors, the PCG RNG, statistics
 * containers and the table printer.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "util/json.hh"
#include "util/md5.hh"
#include "util/rng.hh"
#include "util/stats.hh"
#include "util/table.hh"
#include "util/xxhash.hh"

namespace {

using namespace gpx;
using namespace gpx::util;

// Canonical xxHash test vectors (from the reference implementation).
TEST(XxHash, Xxh32EmptyInput)
{
    EXPECT_EQ(xxh32(nullptr, 0, 0), 0x02CC5D05u);
}

TEST(XxHash, Xxh32KnownStrings)
{
    const std::string a = "a";
    EXPECT_EQ(xxh32(a.data(), a.size(), 0), 0x550D7456u);
    const std::string abc = "abc";
    EXPECT_EQ(xxh32(abc.data(), abc.size(), 0), 0x32D153FFu);
    const std::string msg = "Hello World";
    EXPECT_EQ(xxh32(msg.data(), msg.size(), 0), 0xB1FD16EEu);
}

TEST(XxHash, Xxh32SeedChangesDigest)
{
    const std::string s = "GenPairX";
    EXPECT_NE(xxh32(s.data(), s.size(), 0), xxh32(s.data(), s.size(), 1));
}

TEST(XxHash, Xxh32LongInputCoversStripedPath)
{
    // > 16 bytes exercises the 4-lane accumulation.
    std::string s(100, 'x');
    for (std::size_t i = 0; i < s.size(); ++i)
        s[i] = static_cast<char>('A' + (i % 26));
    u32 h1 = xxh32(s.data(), s.size(), 0);
    u32 h2 = xxh32(s.data(), s.size(), 0);
    EXPECT_EQ(h1, h2);
    s[50] ^= 1;
    EXPECT_NE(h1, xxh32(s.data(), s.size(), 0));
}

TEST(XxHash, Xxh64EmptyInput)
{
    EXPECT_EQ(xxh64(nullptr, 0, 0), 0xEF46DB3751D8E999ull);
}

TEST(XxHash, Xxh64KnownString)
{
    const std::string abc = "abc";
    EXPECT_EQ(xxh64(abc.data(), abc.size(), 0), 0x44BC2CF5AD770999ull);
}

TEST(XxHash, Xxh64WordWrapperMatchesBuffer)
{
    u64 w = 0x0123456789ABCDEFull;
    EXPECT_EQ(xxh64Word(w, 7), xxh64(&w, 8, 7));
}

TEST(Pcg32, DeterministicForSameSeed)
{
    Pcg32 a(42, 3), b(42, 3);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Pcg32, StreamsDiffer)
{
    Pcg32 a(42, 1), b(42, 2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 4);
}

TEST(Pcg32, BelowRespectsBound)
{
    Pcg32 rng(1);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.below(17), 17u);
}

TEST(Pcg32, UniformMeanIsCentered)
{
    Pcg32 rng(5);
    double sum = 0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        sum += rng.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Pcg32, NormalMomentsMatch)
{
    Pcg32 rng(9);
    RunningStat st;
    for (int i = 0; i < 100000; ++i)
        st.add(rng.normal(10.0, 2.0));
    EXPECT_NEAR(st.mean(), 10.0, 0.05);
    EXPECT_NEAR(st.stddev(), 2.0, 0.05);
}

TEST(Pcg32, ExtendLengthGeometric)
{
    Pcg32 rng(13);
    RunningStat st;
    for (int i = 0; i < 50000; ++i)
        st.add(rng.extendLength(0.5, 100));
    // Mean of geometric(start=1, p_continue=0.5) is 2.
    EXPECT_NEAR(st.mean(), 2.0, 0.1);
}

TEST(RunningStat, BasicMoments)
{
    RunningStat st;
    for (double v : { 1.0, 2.0, 3.0, 4.0 })
        st.add(v);
    EXPECT_EQ(st.count(), 4u);
    EXPECT_DOUBLE_EQ(st.mean(), 2.5);
    EXPECT_NEAR(st.variance(), 5.0 / 3.0, 1e-12);
    EXPECT_DOUBLE_EQ(st.min(), 1.0);
    EXPECT_DOUBLE_EQ(st.max(), 4.0);
    EXPECT_DOUBLE_EQ(st.sum(), 10.0);
}

TEST(RunningStat, EmptyIsZero)
{
    RunningStat st;
    EXPECT_EQ(st.count(), 0u);
    EXPECT_EQ(st.mean(), 0.0);
    EXPECT_EQ(st.variance(), 0.0);
}

TEST(Histogram, CountsAndCdf)
{
    Histogram h(0.0, 10.0, 10);
    for (int i = 0; i < 10; ++i)
        h.add(i + 0.5);
    EXPECT_EQ(h.totalCount(), 10u);
    auto cdf = h.cdf();
    EXPECT_NEAR(cdf.front(), 0.1, 1e-12);
    EXPECT_NEAR(cdf.back(), 1.0, 1e-12);
}

TEST(Histogram, ClampsOutOfRange)
{
    Histogram h(0.0, 1.0, 4);
    h.add(-5.0);
    h.add(7.0);
    EXPECT_EQ(h.binCount(0), 1u);
    EXPECT_EQ(h.binCount(3), 1u);
}

TEST(Histogram, PercentileMonotone)
{
    Histogram h(0.0, 100.0, 100);
    for (int i = 0; i < 1000; ++i)
        h.add(i % 100);
    EXPECT_LE(h.percentile(0.25), h.percentile(0.75));
}

TEST(ExactPercentile, MedianOfOddSet)
{
    EXPECT_DOUBLE_EQ(exactPercentile({ 3.0, 1.0, 2.0 }, 0.5), 2.0);
}

// RFC 1321 appendix A.5 test suite: the golden-corpus digests pinned
// elsewhere are only trustworthy if this implementation matches md5sum.
TEST(Md5, Rfc1321Vectors)
{
    EXPECT_EQ(md5Hex(std::string("")),
              "d41d8cd98f00b204e9800998ecf8427e");
    EXPECT_EQ(md5Hex(std::string("a")),
              "0cc175b9c0f1b6a831c399e269772661");
    EXPECT_EQ(md5Hex(std::string("abc")),
              "900150983cd24fb0d6963f7d28e17f72");
    EXPECT_EQ(md5Hex(std::string("message digest")),
              "f96b697d7cb7938d525a2f31aaf161d0");
    EXPECT_EQ(md5Hex(std::string("abcdefghijklmnopqrstuvwxyz")),
              "c3fcd3d76192e4007dfb496cca67e13b");
    EXPECT_EQ(md5Hex(std::string(
                  "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"
                  "0123456789")),
              "d174ab98d277d9f5a5611c2c9f419d9f");
    EXPECT_EQ(md5Hex(std::string(
                  "123456789012345678901234567890123456789012345678901"
                  "23456789012345678901234567890")),
              "57edf4a22be3c955ac49da2e2107b67a");
}

TEST(Md5, IncrementalUpdatesMatchOneShot)
{
    // Same bytes absorbed in awkward chunk sizes (straddling the
    // 64-byte block boundary) must give the same digest.
    std::string data(1000, '\0');
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<char>('A' + (i * 17) % 26);
    Md5 incremental;
    std::size_t pos = 0;
    const std::size_t chunks[] = { 1, 63, 64, 65, 7, 300 };
    std::size_t c = 0;
    while (pos < data.size()) {
        std::size_t take =
            std::min(chunks[c++ % 6], data.size() - pos);
        incremental.update(data.data() + pos, take);
        pos += take;
    }
    EXPECT_EQ(incremental.hexDigest(), md5Hex(data));
}

TEST(Table, RendersAlignedColumns)
{
    Table t({ "name", "value" });
    t.row().cell("alpha").cell(42);
    t.row().cell("b").cell(3.14159, 2);
    std::string s = t.toString("demo");
    EXPECT_NE(s.find("alpha"), std::string::npos);
    EXPECT_NE(s.find("3.14"), std::string::npos);
    EXPECT_NE(s.find("=== demo ==="), std::string::npos);
}

TEST(JsonEscape, QuotesBackslashesAndEveryControlByte)
{
    EXPECT_EQ(jsonEscape("plain name"), "plain name");
    EXPECT_EQ(jsonEscape("a\"b\\c"), "a\\\"b\\\\c");
    EXPECT_EQ(jsonEscape("x\ny\tz\r"), "x\\u000ay\\u0009z\\u000d");
    EXPECT_EQ(jsonEscape(std::string("\0\x01\x1f", 3)),
              "\\u0000\\u0001\\u001f");
    // DEL and UTF-8 bytes are legal inside a JSON string as they are.
    EXPECT_EQ(jsonEscape("\x7f\xc3\xa9"), "\x7f\xc3\xa9");
}

TEST(Table, SiFormat)
{
    EXPECT_EQ(siFormat(1500.0, 1), "1.5K");
    EXPECT_EQ(siFormat(2.5e6, 1), "2.5M");
    EXPECT_EQ(siFormat(3.0e9, 0), "3G");
}

} // namespace
