/**
 * @file
 * Two-bit packed DNA sequences and zero-copy views over them.
 *
 * Every sequence in the pipeline (reference chromosomes, reads, seeds) is a
 * DnaSequence: A=0, C=1, G=2, T=3, packed 4 bases per byte. The class also
 * exposes the two *bit-plane* views (low bit and high bit of each base code)
 * that the Light Alignment module's XOR datapath operates on (paper §5.4).
 *
 * DnaView is the non-owning counterpart: a (packed byte pointer, base
 * offset, length) triple over a live DnaSequence. All hot kernels —
 * reverse complement, equality, Hamming distance, bit-plane extraction,
 * slicing — operate on 64-bit packed words (32 bases per load) instead of
 * per-base extraction, and reference windows are handed out as views so
 * candidate inspection stops copying the reference one base at a time.
 */

#ifndef GPX_GENOMICS_SEQUENCE_HH
#define GPX_GENOMICS_SEQUENCE_HH

#include <bit>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "util/types.hh"

namespace gpx {
namespace genomics {

/** Base codes. */
enum Base : u8 { BaseA = 0, BaseC = 1, BaseG = 2, BaseT = 3 };

/** Decode a 2-bit base code to its ASCII character. */
char baseToChar(u8 code);

/**
 * Encode an ASCII base to its 2-bit code. Lower-case accepted; any
 * non-ACGT character (including N) maps to A, mirroring the common
 * mapper convention of arbitrarily resolving ambiguity codes.
 */
u8 charToBase(char c);

/** True when @p c is not an unambiguous ACGT/acgt character. */
bool isAmbiguousBase(char c);

/** Complement of a 2-bit base code (A<->T, C<->G). */
inline u8 complementBase(u8 code) { return code ^ 0x3u; }

namespace detail {

/** Byte-swap for the big-endian fallback of the word loads/stores. */
constexpr u64
byteswap64(u64 v)
{
    v = ((v & 0x00ff00ff00ff00ffull) << 8) | ((v >> 8) & 0x00ff00ff00ff00ffull);
    v = ((v & 0x0000ffff0000ffffull) << 16) |
        ((v >> 16) & 0x0000ffff0000ffffull);
    return (v << 32) | (v >> 32);
}

/**
 * Little-endian 64-bit load of up to @p avail bytes at @p p: byte k lands
 * at bits [8k, 8k+8). Bytes past @p avail read as zero, so loads near the
 * end of a packed buffer stay in bounds.
 */
inline u64
load64le(const u8 *p, std::size_t avail)
{
    if (avail >= 8) {
        u64 v;
        std::memcpy(&v, p, 8);
        if constexpr (std::endian::native == std::endian::big)
            v = byteswap64(v);
        return v;
    }
    u64 v = 0;
    for (std::size_t i = 0; i < avail; ++i)
        v |= static_cast<u64>(p[i]) << (8 * i);
    return v;
}

/** Little-endian store of the low @p nbytes bytes of @p v to @p p. */
inline void
store64le(u8 *p, u64 v, std::size_t nbytes)
{
    if (nbytes == 8) {
        if constexpr (std::endian::native == std::endian::big)
            v = byteswap64(v);
        std::memcpy(p, &v, 8);
        return;
    }
    for (std::size_t i = 0; i < nbytes; ++i)
        p[i] = static_cast<u8>(v >> (8 * i));
}

/** Compress the 32 even-indexed bits of @p x into bits [0, 32). */
constexpr u64
evenBits(u64 x)
{
    x &= 0x5555555555555555ull;
    x = (x | (x >> 1)) & 0x3333333333333333ull;
    x = (x | (x >> 2)) & 0x0f0f0f0f0f0f0f0full;
    x = (x | (x >> 4)) & 0x00ff00ff00ff00ffull;
    x = (x | (x >> 8)) & 0x0000ffff0000ffffull;
    x = (x | (x >> 16)) & 0x00000000ffffffffull;
    return x;
}

/**
 * Reverse-complement all 32 bases of a packed word: base i moves to slot
 * 31-i and is complemented (2-bit complement == bitwise NOT).
 */
constexpr u64
revCompWord(u64 v)
{
    v = byteswap64(v);
    v = ((v & 0x0303030303030303ull) << 6) |
        ((v & 0x0c0c0c0c0c0c0c0cull) << 2) |
        ((v & 0x3030303030303030ull) >> 2) |
        ((v & 0xc0c0c0c0c0c0c0c0ull) >> 6);
    return ~v;
}

} // namespace detail

class DnaSequence;

/**
 * Non-owning view of a 2-bit packed base range: a packed byte pointer, a
 * sub-byte base offset and a length. Views alias the parent sequence's
 * storage, so they are valid only while the parent is alive and
 * unmodified — the intended use is handing out reference windows and
 * read slices to the mapping kernels without materializing copies.
 *
 * word(w) exposes 32 bases per 64-bit load (base 32w+i of the view at
 * bits [2i, 2i+2), zero-padded past the end), which is what the
 * word-parallel kernels (revComp, equality, Hamming, bit planes, Myers
 * edit distance, minimizer rolling hash) iterate over.
 */
class DnaView
{
  public:
    DnaView() = default;

    /** Whole-sequence view (implicit: any DnaSequence argument works). */
    DnaView(const DnaSequence &seq); // NOLINT(google-explicit-constructor)

    /**
     * A view of a temporary would dangle the moment the full expression
     * ends (e.g. `DnaView v = ref.window(...)` — window() returns an
     * owning copy; the zero-copy spelling is windowView()). Deleted so
     * the mistake is a compile error instead of a use-after-free.
     */
    DnaView(DnaSequence &&) = delete;

    /** View of [start, start+len) of @p seq. */
    DnaView(const DnaSequence &seq, std::size_t start, std::size_t len);

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** 2-bit code of base i of the view. */
    u8
    at(std::size_t i) const
    {
        std::size_t b = off_ + i;
        return (bytes_[b >> 2] >> ((b & 3u) << 1)) & 0x3u;
    }

    /** Number of 32-base packed words covering the view. */
    std::size_t numWords() const { return (size_ + 31) / 32; }

    /**
     * Packed word w: bases [32w, 32w+32) of the view, base 32w+i at bits
     * [2i, 2i+2). Bits past the view's last base are zero.
     */
    u64
    word(std::size_t w) const
    {
        std::size_t base = off_ + 32 * w;
        std::size_t byteIdx = base >> 2;
        u32 shift = static_cast<u32>((base & 3u) << 1);
        u64 v = detail::load64le(bytes_ + byteIdx, bytesLen_ - byteIdx) >>
                shift;
        if (shift != 0 && byteIdx + 8 < bytesLen_)
            v |= static_cast<u64>(bytes_[byteIdx + 8]) << (64u - shift);
        std::size_t rem = size_ - 32 * w;
        if (rem < 32)
            v &= (u64{1} << (2 * rem)) - 1;
        return v;
    }

    /** Sub-view [start, start+len) of this view. */
    DnaView sub(std::size_t start, std::size_t len) const;

    /** Copy the viewed bases into an owning DnaSequence. */
    DnaSequence materialize() const;

    /** Word-parallel reverse complement into a fresh sequence. */
    DnaSequence revComp() const;

    /** Decode to ASCII. */
    std::string toString() const;

    /** Decode to ASCII at @p out, which must hold size() chars. */
    void decodeAscii(char *out) const;

    /**
     * Decode the reverse complement to ASCII at @p out (size() chars),
     * without materializing it: the SAM renderer's path for
     * reverse-mapped reads.
     */
    void decodeRevCompAscii(char *out) const;

    /**
     * Write the view as packed bytes (4 bases per byte, LSB-first, tail
     * bits zero) to @p out, which must hold at least packedBytes() bytes.
     */
    void packTo(u8 *out) const;

    /**
     * Decode to one 2-bit code per byte: @p out must hold size() bytes.
     * The word-unpack counterpart of packTo() for DP kernels that want
     * flat byte operands.
     */
    void decodeTo(u8 *out) const;

    /** Bytes packTo() writes: ceil(size/4). */
    std::size_t packedBytes() const { return (size_ + 3) / 4; }

    /** Bit-plane extraction (see DnaSequence::bitPlanes), word-parallel. */
    void bitPlanes(std::vector<u64> &lo, std::vector<u64> &hi) const;

    /** Word-parallel base equality. */
    bool operator==(const DnaView &other) const;

    /** Raw aliased bytes (for overlap checks). */
    const u8 *rawBytes() const { return bytes_; }

  private:
    friend class DnaSequence;

    const u8 *bytes_ = nullptr;  ///< packed bytes, view starts inside [0]
    std::size_t bytesLen_ = 0;   ///< readable bytes at bytes_
    std::size_t off_ = 0;        ///< base offset of view start in bytes_[0]
    std::size_t size_ = 0;       ///< bases in the view
};

/** Word-parallel Hamming distance between equal-length views. */
u64 hammingDistance(const DnaView &a, const DnaView &b);

/**
 * Packed 2-bit DNA sequence with random access, slicing and
 * reverse-complement support.
 */
class DnaSequence
{
  public:
    DnaSequence() = default;

    /** Build from an ASCII string such as "ACGTT". */
    explicit DnaSequence(std::string_view ascii) : DnaSequence(ascii, nullptr)
    {
    }

    /**
     * Build from ASCII; when @p ambiguous is non-null, adds the number
     * of non-ACGT input characters (all encoded as A) to *ambiguous so
     * ingestion can surface corrupted/ambiguity-coded inputs.
     */
    DnaSequence(std::string_view ascii, u64 *ambiguous);

    /** Build from raw 2-bit codes. */
    static DnaSequence fromCodes(const std::vector<u8> &codes);

    /**
     * Adopt packed bytes (4 bases per byte, LSB-first). @p bytes must be
     * exactly ceil(n/4) long with zero tail bits past base n-1.
     */
    static DnaSequence fromPackedBytes(std::vector<u8> bytes, std::size_t n);

    /** Number of bases. */
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** 2-bit code of the base at index i. */
    u8
    at(std::size_t i) const
    {
        return (packed_[i >> 2] >> ((i & 3u) << 1)) & 0x3u;
    }

    /** Append one 2-bit base code. */
    void push(u8 code);

    /** Append another sequence (or any view; word-parallel). */
    void append(const DnaView &other);

    /** Overwrite the base at index i. */
    void set(std::size_t i, u8 code);

    /** Zero-copy view of the whole sequence. */
    DnaView view() const { return DnaView(*this); }

    /** Zero-copy view of [start, start+len). */
    DnaView view(std::size_t start, std::size_t len) const
    {
        return DnaView(*this, start, len);
    }

    /** Extract the subsequence [start, start+len) as an owning copy. */
    DnaSequence sub(std::size_t start, std::size_t len) const;

    /** Reverse complement (word-parallel). */
    DnaSequence revComp() const { return view().revComp(); }

    /**
     * Overwrite this sequence with the reverse complement of @p src,
     * reusing the packed storage (no allocation once warm). @p src must
     * not alias this sequence's own storage. The batched mapping stages
     * recompute read orientations per pair; this is their
     * allocation-free path.
     */
    void assignRevComp(const DnaView &src);

    /** Decode to ASCII. */
    std::string toString() const { return view().toString(); }

    /** Packed bytes (4 bases per byte, LSB-first); used for hashing. */
    const std::vector<u8> &packed() const { return packed_; }

    /**
     * Bit-plane extraction for the SHD/XOR datapath: writes one u64 word
     * stream per plane where bit i of word w corresponds to base
     * (64*w + i). lo holds bit0 of each base code, hi holds bit1.
     */
    void
    bitPlanes(std::vector<u64> &lo, std::vector<u64> &hi) const
    {
        view().bitPlanes(lo, hi);
    }

    bool
    operator==(const DnaSequence &other) const
    {
        return view() == other.view();
    }

  private:
    std::vector<u8> packed_;
    std::size_t size_ = 0;
};

/** Hamming distance between equal-length sequences (word-parallel). */
inline u64
hammingDistance(const DnaSequence &a, const DnaSequence &b)
{
    return hammingDistance(a.view(), b.view());
}

} // namespace genomics
} // namespace gpx

#endif // GPX_GENOMICS_SEQUENCE_HH
