#include "genomics/sequence.hh"

#include <algorithm>
#include <array>
#include <cstring>

#include "util/logging.hh"

namespace gpx {
namespace genomics {

namespace {

/** char -> 2-bit code (non-ACGT maps to A). */
constexpr std::array<u8, 256>
makeCodeTable()
{
    std::array<u8, 256> t{};
    t[static_cast<u8>('C')] = t[static_cast<u8>('c')] = BaseC;
    t[static_cast<u8>('G')] = t[static_cast<u8>('g')] = BaseG;
    t[static_cast<u8>('T')] = t[static_cast<u8>('t')] = BaseT;
    return t;
}

/** char -> 1 when not an unambiguous ACGT/acgt character. */
constexpr std::array<u8, 256>
makeAmbigTable()
{
    std::array<u8, 256> t{};
    t.fill(1);
    for (char c : { 'A', 'a', 'C', 'c', 'G', 'g', 'T', 't' })
        t[static_cast<u8>(c)] = 0;
    return t;
}

constexpr auto kCodeTable = makeCodeTable();
constexpr auto kAmbigTable = makeAmbigTable();

/**
 * Encode the eight ASCII bases of little-endian word @p x into sixteen
 * packed bits, base k at bits [2k, 2k+2). Non-ACGT/acgt bytes encode
 * as A and are added to @p ambig: the word-parallel form of kCodeTable
 * and kAmbigTable.
 */
u32
encode8(u64 x, u64 &ambig)
{
    constexpr u64 kOnes = 0x0101010101010101ull;
    constexpr u64 kLow7 = 0x7f7f7f7f7f7f7f7full;
    constexpr u64 kHigh = 0x8080808080808080ull;
    // High bit of each byte of v that is nonzero.
    auto nonzero = [](u64 v) { return (((v & kLow7) + kLow7) | v) & kHigh; };
    // ACGT and acgt differ only in bit 5; a byte is ambiguous when its
    // upper-cased form is none of the four.
    const u64 up = x & ~(0x20 * kOnes);
    const u64 bad =
        nonzero(up ^ ('A' * kOnes)) & nonzero(up ^ ('C' * kOnes)) &
        nonzero(up ^ ('G' * kOnes)) & nonzero(up ^ ('T' * kOnes));
    ambig += ((bad >> 7) * kOnes) >> 56; // one per ambiguous byte
    // Bits 1-3 of the ASCII code give A=0 C=1 G=2 T=3 (either case);
    // ambiguous bytes become A.
    u64 codes = ((x >> 1) ^ (x >> 2)) & (3 * kOnes);
    codes &= ~((bad >> 7) * 3);
    codes |= codes >> 6;  // byte k: bases k, k+1
    codes |= codes >> 12; // byte k: bases k .. k+3
    return static_cast<u32>((codes & 0xffu) | ((codes >> 24) & 0xff00u));
}

/** Packed byte -> its four bases as ASCII, first base first. */
constexpr std::array<std::array<char, 4>, 256>
makeByteAsciiTable()
{
    constexpr char kChars[4] = { 'A', 'C', 'G', 'T' };
    std::array<std::array<char, 4>, 256> t{};
    for (unsigned b = 0; b < 256; ++b) {
        for (unsigned i = 0; i < 4; ++i)
            t[b][i] = kChars[(b >> (2 * i)) & 3u];
    }
    return t;
}

constexpr auto kByteAscii = makeByteAsciiTable();

/** Decode the low @p n (<= 32) bases of packed word @p v to @p out. */
void
decodeWordAscii(u64 v, std::size_t n, char *out)
{
    char full[32];
    char *dst = n == 32 ? out : full;
    for (std::size_t k = 0; k < 8; ++k) {
        const auto &chars = kByteAscii[(v >> (8 * k)) & 0xffu];
        std::memcpy(dst + 4 * k, chars.data(), 4);
    }
    if (n != 32)
        std::memcpy(out, full, n);
}

/**
 * Streams 2-bit payloads of arbitrary bit width into a packed byte
 * vector, LSB-first — the write-side counterpart of DnaView::word().
 */
struct PackedWriter
{
    std::vector<u8> &out;
    u64 acc = 0;
    u32 bits = 0;

    explicit PackedWriter(std::vector<u8> &o) : out(o) {}

    /** Append the low @p nbits bits of @p v (nbits <= 64). */
    void
    push(u64 v, u32 nbits)
    {
        pushSmall(v & 0xffffffffull, std::min<u32>(nbits, 32));
        if (nbits > 32)
            pushSmall(v >> 32, nbits - 32);
    }

    /** nbits <= 32; keeps the accumulator under one byte afterwards. */
    void
    pushSmall(u64 v, u32 nbits)
    {
        if (nbits < 32)
            v &= (u64{1} << nbits) - 1;
        acc |= v << bits;
        bits += nbits;
        while (bits >= 8) {
            out.push_back(static_cast<u8>(acc));
            acc >>= 8;
            bits -= 8;
        }
    }

    void
    finish()
    {
        if (bits > 0) {
            out.push_back(static_cast<u8>(acc));
            acc = 0;
            bits = 0;
        }
    }
};

} // namespace

char
baseToChar(u8 code)
{
    static const char table[4] = { 'A', 'C', 'G', 'T' };
    return table[code & 0x3u];
}

u8
charToBase(char c)
{
    return kCodeTable[static_cast<u8>(c)];
}

bool
isAmbiguousBase(char c)
{
    return kAmbigTable[static_cast<u8>(c)] != 0;
}

// ---------------------------------------------------------------------------
// DnaView
// ---------------------------------------------------------------------------

DnaView::DnaView(const DnaSequence &seq)
    : bytes_(seq.packed().data()), bytesLen_(seq.packed().size()), off_(0),
      size_(seq.size())
{
}

DnaView::DnaView(const DnaSequence &seq, std::size_t start, std::size_t len)
{
    gpx_assert(start + len <= seq.size(), "view out of range: start=", start,
               " len=", len, " size=", seq.size());
    bytes_ = seq.packed().data() + (start >> 2);
    bytesLen_ = seq.packed().size() - (start >> 2);
    off_ = start & 3u;
    size_ = len;
}

DnaView
DnaView::sub(std::size_t start, std::size_t len) const
{
    gpx_assert(start + len <= size_, "sub-view out of range: start=", start,
               " len=", len, " size=", size_);
    DnaView v;
    std::size_t base = off_ + start;
    v.bytes_ = bytes_ + (base >> 2);
    v.bytesLen_ = bytesLen_ - (base >> 2);
    v.off_ = base & 3u;
    v.size_ = len;
    return v;
}

void
DnaView::packTo(u8 *out) const
{
    if (size_ == 0)
        return;
    std::size_t nbytes = packedBytes();
    if (off_ == 0) {
        // Byte-aligned: straight copy plus a masked tail byte.
        std::memcpy(out, bytes_, nbytes);
        if ((size_ & 3u) != 0)
            out[nbytes - 1] &=
                static_cast<u8>((1u << ((size_ & 3u) << 1)) - 1);
        return;
    }
    std::size_t nw = numWords();
    for (std::size_t w = 0; w < nw; ++w)
        detail::store64le(out + 8 * w, word(w),
                          std::min<std::size_t>(8, nbytes - 8 * w));
}

void
DnaView::decodeTo(u8 *out) const
{
    const std::size_t nw = numWords();
    for (std::size_t w = 0; w < nw; ++w) {
        u64 v = word(w);
        const std::size_t rem = std::min<std::size_t>(32, size_ - 32 * w);
        for (std::size_t i = 0; i < rem; ++i) {
            out[32 * w + i] = static_cast<u8>(v & 0x3u);
            v >>= 2;
        }
    }
}

DnaSequence
DnaView::materialize() const
{
    std::vector<u8> bytes(packedBytes());
    packTo(bytes.data());
    return DnaSequence::fromPackedBytes(std::move(bytes), size_);
}

DnaSequence
DnaView::revComp() const
{
    std::vector<u8> bytes;
    bytes.reserve(packedBytes());
    PackedWriter wr(bytes);
    for (std::size_t w = numWords(); w > 0; --w) {
        std::size_t rem = std::min<std::size_t>(32, size_ - 32 * (w - 1));
        // word() zero-pads past the end; the pad becomes the low fields
        // of the reversed word and is shifted out below.
        u64 rc = detail::revCompWord(word(w - 1));
        rc >>= 64 - 2 * rem;
        wr.push(rc, static_cast<u32>(2 * rem));
    }
    wr.finish();
    return DnaSequence::fromPackedBytes(std::move(bytes), size_);
}

void
DnaSequence::assignRevComp(const DnaView &src)
{
    gpx_assert(packed_.data() == nullptr ||
                   src.rawBytes() != packed_.data(),
               "assignRevComp source must not alias the destination");
    packed_.clear();
    PackedWriter wr(packed_);
    const std::size_t n = src.size();
    for (std::size_t w = src.numWords(); w > 0; --w) {
        std::size_t rem = std::min<std::size_t>(32, n - 32 * (w - 1));
        u64 rc = detail::revCompWord(src.word(w - 1));
        rc >>= 64 - 2 * rem;
        wr.push(rc, static_cast<u32>(2 * rem));
    }
    wr.finish();
    size_ = n;
}

std::string
DnaView::toString() const
{
    std::string s(size_, '\0');
    decodeAscii(s.data());
    return s;
}

void
DnaView::decodeAscii(char *out) const
{
    const std::size_t nw = numWords();
    for (std::size_t w = 0; w < nw; ++w) {
        decodeWordAscii(word(w), std::min<std::size_t>(32, size_ - 32 * w),
                        out + 32 * w);
    }
}

void
DnaView::decodeRevCompAscii(char *out) const
{
    for (std::size_t w = numWords(); w > 0; --w) {
        const std::size_t rem =
            std::min<std::size_t>(32, size_ - 32 * (w - 1));
        // Same word walk as revComp(): the zero pad past the end lands
        // in the low fields of the reversed word and is shifted out.
        const u64 rc = detail::revCompWord(word(w - 1)) >> (64 - 2 * rem);
        decodeWordAscii(rc, rem, out);
        out += rem;
    }
}

void
DnaView::bitPlanes(std::vector<u64> &lo, std::vector<u64> &hi) const
{
    std::size_t words = (size_ + 63) / 64;
    lo.resize(words);
    hi.resize(words);
    std::size_t nw = numWords();
    for (std::size_t w = 0; w < words; ++w) {
        u64 v0 = word(2 * w);
        u64 v1 = 2 * w + 1 < nw ? word(2 * w + 1) : 0;
        lo[w] = detail::evenBits(v0) | (detail::evenBits(v1) << 32);
        hi[w] = detail::evenBits(v0 >> 1) | (detail::evenBits(v1 >> 1) << 32);
    }
}

bool
DnaView::operator==(const DnaView &other) const
{
    if (size_ != other.size_)
        return false;
    std::size_t nw = numWords();
    for (std::size_t w = 0; w < nw; ++w) {
        if (word(w) != other.word(w))
            return false;
    }
    return true;
}

u64
hammingDistance(const DnaView &a, const DnaView &b)
{
    gpx_assert(a.size() == b.size(), "hammingDistance: length mismatch");
    u64 d = 0;
    std::size_t nw = a.numWords();
    for (std::size_t w = 0; w < nw; ++w) {
        u64 x = a.word(w) ^ b.word(w);
        // Collapse each differing 2-bit field onto its low bit.
        u64 diff = (x | (x >> 1)) & 0x5555555555555555ull;
        d += static_cast<u64>(std::popcount(diff));
    }
    return d;
}

// ---------------------------------------------------------------------------
// DnaSequence
// ---------------------------------------------------------------------------

DnaSequence::DnaSequence(std::string_view ascii, u64 *ambiguous)
{
    const std::size_t n = ascii.size();
    const auto *in = reinterpret_cast<const u8 *>(ascii.data());
    packed_.resize((n + 3) / 4);
    u64 ambig = 0;
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const u32 v = encode8(detail::load64le(in + i, 8), ambig);
        packed_[i >> 2] = static_cast<u8>(v);
        packed_[(i >> 2) + 1] = static_cast<u8>(v >> 8);
    }
    for (; i < n; ++i) {
        packed_[i >> 2] |=
            static_cast<u8>(kCodeTable[in[i]] << ((i & 3u) << 1));
        ambig += kAmbigTable[in[i]];
    }
    size_ = n;
    if (ambiguous != nullptr)
        *ambiguous += ambig;
}

DnaSequence
DnaSequence::fromCodes(const std::vector<u8> &codes)
{
    DnaSequence s;
    s.packed_.reserve((codes.size() + 3) / 4);
    for (u8 c : codes)
        s.push(c);
    return s;
}

DnaSequence
DnaSequence::fromPackedBytes(std::vector<u8> bytes, std::size_t n)
{
    gpx_assert(bytes.size() == (n + 3) / 4,
               "fromPackedBytes: byte count does not match base count");
    gpx_assert((n & 3u) == 0 || bytes.empty() ||
                   (bytes.back() >> ((n & 3u) << 1)) == 0,
               "fromPackedBytes: nonzero tail bits");
    DnaSequence s;
    s.packed_ = std::move(bytes);
    s.size_ = n;
    return s;
}

void
DnaSequence::push(u8 code)
{
    if ((size_ & 3u) == 0)
        packed_.push_back(0);
    packed_.back() |= static_cast<u8>((code & 0x3u) << ((size_ & 3u) << 1));
    ++size_;
}

void
DnaSequence::append(const DnaView &other)
{
    if (other.empty())
        return;
    // A view into our own storage would dangle across reallocation.
    DnaSequence copy;
    DnaView src = other;
    if (!packed_.empty() && other.rawBytes() >= packed_.data() &&
        other.rawBytes() < packed_.data() + packed_.size()) {
        copy = other.materialize();
        src = copy.view();
    }
    packed_.reserve((size_ + src.size() + 3) / 4);
    PackedWriter wr(packed_);
    if ((size_ & 3u) != 0) {
        // Re-open the partial tail byte so the writer continues it.
        wr.acc = packed_.back();
        wr.bits = static_cast<u32>((size_ & 3u) << 1);
        packed_.pop_back();
    }
    std::size_t nw = src.numWords();
    for (std::size_t w = 0; w < nw; ++w) {
        std::size_t rem = std::min<std::size_t>(32, src.size() - 32 * w);
        wr.push(src.word(w), static_cast<u32>(2 * rem));
    }
    wr.finish();
    size_ += src.size();
}

void
DnaSequence::set(std::size_t i, u8 code)
{
    gpx_assert(i < size_, "set out of range");
    u8 shift = static_cast<u8>((i & 3u) << 1);
    packed_[i >> 2] = static_cast<u8>(
        (packed_[i >> 2] & ~(0x3u << shift)) | ((code & 0x3u) << shift));
}

DnaSequence
DnaSequence::sub(std::size_t start, std::size_t len) const
{
    gpx_assert(start + len <= size_, "sub out of range: start=", start,
               " len=", len, " size=", size_);
    return view(start, len).materialize();
}

} // namespace genomics
} // namespace gpx
