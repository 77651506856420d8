#include "genomics/fastq_ingest.hh"

#include <algorithm>

#include "util/logging.hh"

namespace gpx {
namespace genomics {

namespace {

constexpr std::size_t kMiB = std::size_t{1} << 20;
/** Past glibc's largest mmap threshold: 32 MiB on 64-bit (mallopt(3)). */
constexpr std::size_t kOwnMapping = 32 * kMiB + 4096;

/**
 * Capacity in bytes for a per-chunk buffer (a chunk text, a chunk's
 * pairs) expected to hold @p bytes. One of a mebibyte or more gets at
 * least kOwnMapping, so glibc always serves it with its own mapping:
 * freeing it returns the memory to the system and leaves the dynamic
 * mmap threshold alone. Sized to fit, such a buffer would be below
 * that ceiling; its free would raise the threshold to its size, and
 * the next ones would come from thread arenas, which keep what is
 * freed and, as each run's new threads take over the old arenas,
 * grow run after run. Pages never written cost no resident memory.
 */
std::size_t
chunkCapacity(std::size_t bytes)
{
    return bytes < kMiB ? bytes : std::max(bytes, kOwnMapping);
}

/** chunkCapacity for the text of a chunk like one of @p last bytes. */
std::size_t
textCapacity(std::size_t last)
{
    return chunkCapacity(last + last / 16);
}

} // namespace

u64
SliceScanner::scan(u64 max_records, std::string &text, bool &partial_tail)
{
    partial_tail = false;
    if (eof_)
        return 0;
    u64 records = 0;
    while (records < max_records) {
        // The record's lines go straight into the text; a source
        // failure rolls the text back here, dropping the staged tail.
        const std::size_t recordStart = text.size();
        bool haveHeader = false;
        for (;;) {
            const std::size_t lineStart = text.size();
            if (!lines_.appendLine(text))
                break;
            std::size_t len = text.size() - lineStart - 1;
            if (len > 0 && text[lineStart + len - 1] == '\r')
                --len; // CR-stripped emptiness, same test as the parser
            if (len > 0) {
                haveHeader = true;
                break;
            }
        }
        if (!haveHeader) {
            eof_ = true;
            // Trailing blank lines are part of the stream (the parser
            // skips them identically); a source failure keeps nothing.
            if (!lines_.error().empty())
                text.resize(recordStart);
            return records;
        }
        bool truncated = false;
        for (int i = 0; i < 3 && !truncated; ++i)
            truncated = !lines_.appendLine(text);
        if (truncated) {
            eof_ = true;
            if (lines_.error().empty()) {
                // Genuine EOF mid-record: ship the tail so the parse
                // worker reproduces the serial truncation diagnostic.
                partial_tail = true;
            } else {
                text.resize(recordStart);
            }
            return records;
        }
        ++records;
    }
    return records;
}

PairedFastqChunker::PairedFastqChunker(util::ByteSource &r1,
                                       util::ByteSource &r2,
                                       u64 chunk_pairs)
    : scan1_(r1), scan2_(r2), chunkPairs_(chunk_pairs == 0 ? 1 : chunk_pairs)
{
}

bool
PairedFastqChunker::next(FastqChunk &chunk)
{
    if (done_)
        return false;
    chunk.seq = nextSeq_;
    chunk.recordBase = pairsScanned_;
    chunk.pairs = 0;
    chunk.r1Text.clear();
    chunk.r2Text.clear();
    // Chunks of one run are alike: each text is sized once, for the
    // previous chunk's bytes, instead of growing by doubling.
    chunk.r1Text.reserve(textCapacity(lastR1Bytes_));
    chunk.r2Text.reserve(textCapacity(lastR2Bytes_));
    chunk.scanError = IngestError{};
    bool p1 = false;
    bool p2 = false;
    while (chunk.pairs < chunkPairs_) {
        // Lockstep, one pair at a time, mirroring the serial
        // next(r1); next(r2); check-disagree iteration so every error
        // candidate lands at the exact serial firing position.
        const u64 errorIndex = pairsScanned_ + chunk.pairs + 1;
        if (scan1_.scan(1, chunk.r1Text, p1) == 0) {
            done_ = true;
            if (!scan1_.error().empty()) {
                chunk.scanError = {errorIndex, 0, scan1_.error()};
            } else if (!p1) {
                // Clean R1 EOF: probe R2 as the serial loop's next(r2)
                // call would. A complete record there is the
                // disagreement; a partial tail is an R2 truncation the
                // parse worker reproduces from the shipped tail.
                if (scan2_.scan(1, chunk.r2Text, p2) == 1) {
                    chunk.scanError = {
                        errorIndex, 2,
                        util::detail::cat(
                            "FASTQ streams disagree: R1 ended early "
                            "after ",
                            pairsScanned_ + chunk.pairs,
                            " records while R2 still has reads (",
                            errorIndex, " so far)")};
                } else if (!scan2_.error().empty()) {
                    chunk.scanError = {errorIndex, 1, scan2_.error()};
                }
            }
            // p1: the R1 tail is in r1Text; the parse worker produces
            // the serial truncation diagnostic at errorIndex, rank 0.
            break;
        }
        if (scan2_.scan(1, chunk.r2Text, p2) == 0) {
            done_ = true;
            if (!scan2_.error().empty()) {
                chunk.scanError = {errorIndex, 1, scan2_.error()};
            } else if (!p2) {
                chunk.scanError = {
                    errorIndex, 2,
                    util::detail::cat(
                        "FASTQ streams disagree: R2 ended early after ",
                        pairsScanned_ + chunk.pairs,
                        " records while R1 still has reads (", errorIndex,
                        " so far)")};
            }
            break;
        }
        ++chunk.pairs;
        // A text that passes 1 MiB without a reservation (the first
        // chunk, or one larger than the last) moves to its own mapping.
        for (std::string *text : {&chunk.r1Text, &chunk.r2Text}) {
            if (text->size() >= kMiB && text->capacity() < kOwnMapping)
                text->reserve(kOwnMapping);
        }
    }
    pairsScanned_ += chunk.pairs;
    ++nextSeq_;
    lastR1Bytes_ = chunk.r1Text.size();
    lastR2Bytes_ = chunk.r2Text.size();
    if (chunk.pairs == 0 && !chunk.scanError.set() &&
        chunk.r1Text.empty() && chunk.r2Text.empty())
        return false; // nothing at all: suppress the empty terminal chunk
    return true;
}

ParsedChunk
parseFastqChunk(FastqChunk &&chunk, std::atomic<bool> *warned_ambiguous)
{
    ParsedChunk out;
    out.seq = chunk.seq;
    out.recordBase = chunk.recordBase;
    util::StringSource s1(std::move(chunk.r1Text));
    util::StringSource s2(std::move(chunk.r2Text));
    FastqReader r1(s1, chunk.recordBase, warned_ambiguous);
    FastqReader r2(s2, chunk.recordBase, warned_ambiguous);

    // Both streams parse straight into the pairs. Around a stream
    // error a slice may hold one record past chunk.pairs (or a
    // truncated tail); such a record parses into a spare, so its
    // diagnostics and ambiguous bases count as the serial reader's do.
    out.pairs.reserve(chunkCapacity(chunk.pairs * sizeof(ReadPair)) /
                      sizeof(ReadPair));
    out.pairs.resize(chunk.pairs);
    Read spare;
    auto parseAll = [&](FastqReader &reader, Read ReadPair::*mate,
                        int rank) {
        std::string err;
        for (u64 i = 0;; ++i) {
            Read &dst = i < out.pairs.size() ? out.pairs[i].*mate : spare;
            switch (reader.tryNext(dst, &err)) {
            case FastqParse::kRecord:
                continue;
            case FastqParse::kError:
                return IngestError{
                    chunk.recordBase + reader.recordsRead() + 1, rank,
                    std::move(err)};
            case FastqParse::kEof:
                return IngestError{};
            }
        }
    };

    IngestError e1 = parseAll(r1, &ReadPair::first, 0);
    IngestError e2 = parseAll(r2, &ReadPair::second, 1);
    out.r1Stats = r1.stats();
    out.r2Stats = r2.stats();

    out.error = e1;
    if (e2.before(out.error))
        out.error = e2;
    if (chunk.scanError.before(out.error))
        out.error = chunk.scanError;

    out.pairs.resize(
        std::min({r1.recordsRead(), r2.recordsRead(), chunk.pairs}));
    return out;
}

} // namespace genomics
} // namespace gpx
