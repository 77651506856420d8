#include "genomics/sam.hh"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <ostream>

#include "util/fault.hh"
#include "util/logging.hh"

namespace gpx {
namespace genomics {

namespace {

/**
 * Bytes of a record beyond its name, sequence, CIGAR and reference
 * names: 11 tabs, the newline, "*" for QUAL, "AS:i:" and the widest
 * FLAG, POS, MAPQ, PNEXT, TLEN and AS values, rounded up.
 */
constexpr std::size_t kRecordFixedBytes = 128;
/** Widest CIGAR element: a u32 length and its op. */
constexpr std::size_t kCigarElemBytes = 11;
/** to_chars limit for any 64-bit value (20 digits and a sign). */
constexpr std::size_t kIntBytes = 21;

char *
put(char *p, std::string_view s)
{
    std::memcpy(p, s.data(), s.size());
    return p + s.size();
}

template <typename T>
char *
putInt(char *p, T value)
{
    return std::to_chars(p, p + kIntBytes, value).ptr;
}

} // namespace

SamWriter::SamWriter(std::ostream &os, const Reference &ref,
                     u32 max_proper_insert)
    : os_(os), ref_(ref), maxProperInsert_(max_proper_insert)
{
}

void
SamWriter::checkWrites(std::string label, bool fatal_on_error)
{
    outputLabel_ = std::move(label);
    checkWrites_ = true;
    fatalOnError_ = fatal_on_error;
}

void
SamWriter::commit(std::string_view rendered)
{
    if (writeFailed_)
        return; // latched: drop output, the caller already has the error
    if (util::checkFaultBytes("sam.write", rendered.size())) {
        // Simulated ENOSPC/short write: poison the stream the way a
        // real full filesystem would, so the check below and any later
        // flush see the same failed state.
        os_.setstate(std::ios::failbit);
    } else {
        os_.write(rendered.data(),
                  static_cast<std::streamsize>(rendered.size()));
    }
    if (checkWrites_ && !os_) {
        writeFailed_ = true;
        writeError_ = util::detail::cat(
            "SAM write failed at byte offset ", bytesWritten_, " of ",
            outputLabel_.empty() ? "<output>" : outputLabel_,
            " (short write or disk full)");
        if (fatalOnError_)
            gpx_fatal(writeError_);
        return;
    }
    if (os_)
        bytesWritten_ += rendered.size();
}

char *
SamWriter::reserve(std::size_t bytes)
{
    if (buf_.size() - used_ < bytes)
        buf_.resize(std::max(2 * buf_.size(), used_ + bytes));
    return buf_.data() + used_;
}

void
SamWriter::flush()
{
    commit(std::string_view(buf_.data(), used_));
    used_ = 0;
}

void
SamWriter::writeHeader()
{
    std::size_t bytes = 128; // @HD and @PG
    for (u32 c = 0; c < ref_.numChromosomes(); ++c)
        bytes += ref_.name(c).size() + 16 + kIntBytes;
    char *p = reserve(bytes);
    p = put(p, "@HD\tVN:1.6\tSO:unknown\n");
    for (u32 c = 0; c < ref_.numChromosomes(); ++c) {
        p = put(p, "@SQ\tSN:");
        p = put(p, ref_.name(c));
        p = put(p, "\tLN:");
        p = putInt(p, ref_.chromosomeLength(c));
        *p++ = '\n';
    }
    p = put(p, "@PG\tID:genpairx\tPN:genpairx\tVN:1.0\n");
    used_ = static_cast<std::size_t>(p - buf_.data());
    flush();
}

void
SamWriter::appendRecord(const Read &read, const Mapping &mapping,
                        const ChromPos &cp, u32 flags, const Mapping *mate,
                        const ChromPos &mate_cp, i64 tlen)
{
    std::string_view rname = "*";
    u64 pos1 = 0;
    if (mapping.mapped) {
        rname = ref_.name(cp.chrom);
        pos1 = cp.offset + 1; // SAM is 1-based
        if (mapping.reverse)
            flags |= kSamReverse;
    } else {
        flags |= kSamUnmapped;
    }

    std::string_view rnext = "*";
    u64 pnext = 0;
    if (mate != nullptr) {
        if (mate->mapped) {
            const std::string &mateName = ref_.name(mate_cp.chrom);
            rnext = mateName == rname ? std::string_view("=")
                                      : std::string_view(mateName);
            pnext = mate_cp.offset + 1;
            if (mate->reverse)
                flags |= kSamMateReverse;
        } else {
            flags |= kSamMateUnmapped;
        }
    }

    const std::vector<CigarElem> &cigar = mapping.cigar.elems();
    char *p = reserve(read.name.size() + read.seq.size() + rname.size() +
                      rnext.size() + kCigarElemBytes * cigar.size() +
                      kRecordFixedBytes);
    p = put(p, read.name);
    *p++ = '\t';
    p = putInt(p, flags);
    *p++ = '\t';
    p = put(p, rname);
    *p++ = '\t';
    p = putInt(p, pos1);
    *p++ = '\t';
    p = putInt(p, mapping.mapped ? 60u : 0u);
    *p++ = '\t';
    if (!mapping.mapped || cigar.empty()) {
        *p++ = '*';
    } else {
        for (const CigarElem &e : cigar) {
            p = putInt(p, e.len);
            *p++ = cigarOpChar(e.op);
        }
    }
    *p++ = '\t';
    p = put(p, rnext);
    *p++ = '\t';
    p = putInt(p, pnext);
    *p++ = '\t';
    p = putInt(p, tlen);
    *p++ = '\t';
    // Sequence is stored in original orientation; SAM wants the
    // reference-forward orientation for reverse-mapped reads.
    if (mapping.mapped && mapping.reverse)
        read.seq.view().decodeRevCompAscii(p);
    else
        read.seq.view().decodeAscii(p);
    p += read.seq.size();
    p = put(p, "\t*\tAS:i:");
    p = putInt(p, mapping.score);
    *p++ = '\n';
    used_ = static_cast<std::size_t>(p - buf_.data());
    ++records_;
}

void
SamWriter::appendPair(const ReadPair &pair, const PairMapping &mapping)
{
    const Mapping &m1 = mapping.first;
    const Mapping &m2 = mapping.second;
    const ChromPos cp1 = m1.mapped ? ref_.toChromPos(m1.pos) : ChromPos{};
    const ChromPos cp2 = m2.mapped ? ref_.toChromPos(m2.pos) : ChromPos{};

    // A proper pair is FR on one chromosome within the insert bound.
    // TLEN is set only then: mates on different references get 0
    // (SAM v1 §1.4) however close their concatenated coordinates are.
    i64 tlen = 0;
    bool proper = false;
    if (mapping.bothMapped() && m1.reverse != m2.reverse &&
        cp1.chrom == cp2.chrom) {
        const Mapping &left = m1.reverse ? m2 : m1;
        const Mapping &right = m1.reverse ? m1 : m2;
        if (right.pos >= left.pos) {
            u64 span = right.pos + right.cigar.refSpan() - left.pos;
            if (span <= maxProperInsert_) {
                proper = true;
                tlen = static_cast<i64>(span);
            }
        }
    }
    u32 f1 = kSamPaired | kSamFirstInPair;
    u32 f2 = kSamPaired | kSamSecondInPair;
    if (proper) {
        f1 |= kSamProperPair;
        f2 |= kSamProperPair;
    }
    appendRecord(pair.first, m1, cp1, f1, &m2, cp2,
                 m1.reverse ? -tlen : tlen);
    appendRecord(pair.second, m2, cp2, f2, &m1, cp1,
                 m2.reverse ? -tlen : tlen);
}

void
SamWriter::writePair(const ReadPair &pair, const PairMapping &mapping)
{
    appendPair(pair, mapping);
    flush();
}

void
SamWriter::writePairBatch(const ReadPair *pairs,
                          const PairMapping *mappings, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        appendPair(pairs[i], mappings[i]);
        if (used_ >= kSliceBytes)
            flush();
    }
    flush();
}

void
SamWriter::writeRead(const Read &read, const Mapping &mapping)
{
    const ChromPos cp =
        mapping.mapped ? ref_.toChromPos(mapping.pos) : ChromPos{};
    appendRecord(read, mapping, cp, 0, nullptr, ChromPos{}, 0);
    flush();
}

u8
mapqFromScores(i32 best, i32 second_best, i32 perfect)
{
    if (best <= 0 || perfect <= 0)
        return 0;
    if (second_best <= 0)
        return 60;
    double gap = static_cast<double>(best - second_best) / perfect;
    double q = 60.0 * std::min(1.0, gap * 4.0);
    return static_cast<u8>(std::max(0.0, q));
}

} // namespace genomics
} // namespace gpx
