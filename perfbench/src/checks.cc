/**
 * @file
 * Output checks and the small helpers every mode shares.
 */

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <sys/resource.h>

#include "bench.hh"
#include "eval/mapping_eval.hh"
#include "genomics/sam_reader.hh"
#include "util/logging.hh"

namespace gpx {
namespace perfbench {

double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto secs = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
    };
    return secs(ru.ru_utime) + secs(ru.ru_stime);
}

void
resetPeakRss()
{
    // Linux: writing 5 to clear_refs resets the VmHWM high-water mark.
    std::ofstream("/proc/self/clear_refs") << "5";
}

double
peakRssMib()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
highestSupportedQuantile(std::size_t n)
{
    for (double q : { 0.999, 0.99, 0.95, 0.9, 0.75 })
        if ((1.0 - q) * static_cast<double>(n) >= 10.0 - 1e-9)
            return q;
    return 0;
}

std::string
readFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        gpx_fatal("cannot read ", path);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

std::vector<TruthRead>
loadTruth(const std::string &path)
{
    std::ifstream is(path);
    if (!is)
        gpx_fatal("cannot read truth table ", path);
    std::vector<TruthRead> out;
    std::string line;
    std::getline(is, line); // header
    while (std::getline(is, line)) {
        const std::size_t t1 = line.find('\t');
        const std::size_t t2 = line.find('\t', t1 + 1);
        if (t1 == std::string::npos || t2 == std::string::npos)
            gpx_fatal("malformed truth line: ", line);
        TruthRead r;
        r.name = line.substr(0, t1);
        r.pos = std::stoull(line.substr(t1 + 1, t2 - t1 - 1));
        r.reverse = line.compare(t2 + 1, std::string::npos, "1") == 0;
        out.push_back(std::move(r));
    }
    return out;
}

namespace {

/** QNAME, FLAG, RNAME and POS of one SAM line; false if malformed. */
bool
parseRecord(std::string_view line, genomics::SamRecord &rec)
{
    std::string_view field[4];
    std::size_t at = 0;
    for (auto &f : field) {
        const std::size_t tab = line.find('\t', at);
        if (tab == std::string_view::npos)
            return false;
        f = line.substr(at, tab - at);
        at = tab + 1;
    }
    rec.qname.assign(field[0]);
    try {
        rec.flags = static_cast<u32>(std::stoul(std::string(field[1])));
        rec.pos1 = std::stoull(std::string(field[3]));
    } catch (const std::exception &) {
        return false;
    }
    rec.rname.assign(field[2]);
    return true;
}

} // namespace

SamCheck
checkSam(const std::string &text, const genomics::Reference &ref,
         const std::vector<TruthRead> &truth, u64 first_read, u64 pairs)
{
    SamCheck check;
    eval::MappingEvaluator evaluator; // 50 bp tolerance
    std::vector<u8> pairOk(pairs, 1);

    auto problem = [&](const std::string &what) {
        if (check.firstProblem.empty())
            check.firstProblem = what;
    };

    u64 record = 0;
    std::size_t at = 0;
    genomics::SamRecord rec;
    while (at < text.size()) {
        std::size_t nl = text.find('\n', at);
        if (nl == std::string::npos)
            nl = text.size();
        const std::string_view line(text.data() + at, nl - at);
        at = nl + 1;
        if (line.empty() || line[0] == '@')
            continue;
        const u64 pair = record / 2;
        const bool second = record % 2 == 1;
        ++record;
        if (pair >= pairs) {
            problem("more SAM records than reads");
            continue;
        }
        const TruthRead &t = truth[first_read + record - 1];
        if (!parseRecord(line, rec) || rec.qname != t.name ||
            rec.isFirstInPair() == second ||
            rec.isSecondInPair() != second) {
            problem("record " + std::to_string(record) +
                    " is not read " + t.name);
            pairOk[pair] = 0;
            continue;
        }
        genomics::Read read;
        read.truthPos = t.pos;
        read.truthReverse = t.reverse;
        genomics::Mapping m;
        if (auto pos = genomics::recordGlobalPos(rec, ref)) {
            m.mapped = true;
            m.pos = *pos;
            m.reverse = rec.isReverse();
        }
        evaluator.addRead(read, m);
    }
    if (record < 2 * pairs) {
        problem(std::to_string(2 * pairs - record) + " SAM records missing");
        for (u64 p = record / 2; p < pairs; ++p)
            pairOk[p] = 0;
    }
    for (u8 ok : pairOk)
        check.badPairs += ok ? 0 : 1;
    check.readsTotal = 2 * pairs;
    check.readsCorrect = evaluator.result().correct;
    return check;
}

void
corruptText(std::string &text)
{
    if (!text.empty())
        text[text.size() / 2] ^= 0x20;
}

} // namespace perfbench
} // namespace gpx
