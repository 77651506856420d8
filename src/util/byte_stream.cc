#include "util/byte_stream.hh"

#include <cstring>
#include <istream>

#include "util/fault.hh"

namespace gpx {
namespace util {

bool
IstreamSource::read(std::string &block)
{
    if (checkFault("byte.read")) {
        error_ = "injected byte-source fault (byte.read)";
        return false;
    }
    block.resize(blockBytes_);
    is_.read(block.data(), static_cast<std::streamsize>(blockBytes_));
    const std::size_t got = static_cast<std::size_t>(is_.gcount());
    block.resize(got);
    return got > 0;
}

PrefetchSource::PrefetchSource(ByteSource &inner, std::size_t slots)
    : inner_(inner), blocks_(slots)
{
    thread_ = std::thread([this]() {
        std::string block;
        while (inner_.read(block)) {
            if (!blocks_.push(std::move(block)))
                return; // consumer closed the channel: abort
            block.clear();
        }
        innerError_ = inner_.error();
        blocks_.close();
    });
}

PrefetchSource::~PrefetchSource()
{
    // Unblock a producer stuck on a full channel, then reap it.
    blocks_.close();
    if (thread_.joinable())
        thread_.join();
}

bool
PrefetchSource::read(std::string &block)
{
    if (auto next = blocks_.pop()) {
        block = std::move(*next);
        return true;
    }
    // Channel closed and drained: the close() in the prefetch thread
    // happens-after its innerError_ store, so the read is safe.
    error_ = innerError_;
    return false;
}

template <typename Sink>
bool
LineReader::pull(Sink &&sink)
{
    bool any = false;
    for (;;) {
        if (pos_ < buffer_.size()) {
            const char *base = buffer_.data() + pos_;
            const std::size_t avail = buffer_.size() - pos_;
            const void *nl = std::memchr(base, '\n', avail);
            if (nl != nullptr) {
                const std::size_t len =
                    static_cast<std::size_t>(static_cast<const char *>(nl) -
                                             base);
                sink(base, len);
                pos_ += len + 1; // consume the newline
                return true;
            }
            // Partial line: take what is buffered, keep reading.
            sink(base, avail);
            any = true;
            pos_ = buffer_.size();
        }
        if (eof_)
            // getline semantics: a final newline-less run is a line;
            // nothing buffered and nothing read means end of stream.
            return any;
        buffer_.clear();
        pos_ = 0;
        if (!source_.read(buffer_)) {
            // The block's contents are unspecified on a failed read;
            // never serve them as input.
            buffer_.clear();
            eof_ = true;
        }
    }
}

bool
LineReader::getline(std::string &line)
{
    line.clear();
    return pull([&](const char *p, std::size_t n) { line.append(p, n); });
}

bool
LineReader::appendLine(std::string &out)
{
    if (!pull([&](const char *p, std::size_t n) { out.append(p, n); }))
        return false;
    out.push_back('\n');
    return true;
}

bool
LineReader::skipLine()
{
    return pull([](const char *, std::size_t) {});
}

} // namespace util
} // namespace gpx
