/**
 * @file
 * gpx_mapeval — mapping-accuracy evaluation of a SAM file against the
 * truth table gpx_simulate writes (the paftools mapeval role, §7.8).
 * A record is correct when it maps within --tolerance of the simulated
 * origin on the right strand. Reports overall and MAPQ-binned accuracy
 * so miscalibrated confidence shows up, not just wrong positions.
 */

#include <cstdio>
#include <fstream>
#include <map>

#include "cli.hh"
#include "genomics/fasta.hh"
#include "genomics/sam_reader.hh"
#include "util/logging.hh"
#include "util/table.hh"

namespace {

const char kUsage[] =
    "usage: gpx_mapeval --ref REF.fa --sam FILE.sam --truth TRUTH.tsv "
    "[options]\n"
    "\n"
    "  --ref FILE       reference FASTA (chromosome name resolution)\n"
    "  --sam FILE       mappings to evaluate\n"
    "  --truth FILE     truth table from gpx_simulate\n"
    "  --tolerance N    max |mapped - truth| in bp          [20]\n"
    "  --min-correct X  exit non-zero when overall correct %\n"
    "                   falls below X (CI gating)            [off]\n"
    "  --version        print the gpx version and exit\n";

struct Truth
{
    gpx::GlobalPos pos = gpx::kInvalidPos;
    bool reverse = false;
    bool creditedCorrect = false; ///< --min-correct credit given once
};

} // namespace

int
main(int argc, char **argv)
{
    using namespace gpx;
    tools::Cli cli(argc, argv,
                   { "--ref", "--sam", "--truth", "--tolerance",
                     "--min-correct" },
                   {}, kUsage);

    std::ifstream refFile(cli.required("--ref"));
    if (!refFile)
        gpx_fatal("cannot open reference: ", cli.str("--ref"));
    genomics::Reference ref = genomics::readFasta(refFile);

    // Truth table: read name -> origin.
    std::ifstream truthFile(cli.required("--truth"));
    if (!truthFile)
        gpx_fatal("cannot open truth table: ", cli.str("--truth"));
    std::map<std::string, Truth> truths;
    std::string line;
    std::getline(truthFile, line); // header
    while (std::getline(truthFile, line)) {
        if (line.empty())
            continue;
        std::size_t t1 = line.find('\t');
        std::size_t t2 = line.find('\t', t1 + 1);
        if (t1 == std::string::npos || t2 == std::string::npos)
            gpx_fatal("malformed truth line: ", line);
        Truth t;
        t.pos = std::strtoull(line.substr(t1 + 1, t2 - t1 - 1).c_str(),
                              nullptr, 10);
        t.reverse = line.substr(t2 + 1) == "1";
        truths[line.substr(0, t1)] = t;
    }
    std::printf("truth table: %zu reads\n", truths.size());

    std::ifstream samFile(cli.required("--sam"));
    if (!samFile)
        gpx_fatal("cannot open SAM: ", cli.str("--sam"));
    auto sam = genomics::readSam(samFile);
    if (!sam.badLines.empty()) {
        for (const auto &[no, text] : sam.badLines)
            gpx_warn("SAM line ", no, " malformed: ", text);
    }
    std::printf("SAM: %zu records (%zu malformed lines skipped)\n",
                sam.records.size(), sam.badLines.size());

    const u64 tolerance = cli.num<u64>("--tolerance", 20);

    // Read names in SAM lack the /1 /2 suffix convention of the truth
    // table when pairs share a name; try both.
    auto findTruth = [&](const genomics::SamRecord &r) {
        auto it = truths.find(r.qname);
        if (it != truths.end())
            return it;
        std::string suffixed =
            r.qname + (r.isSecondInPair() ? "/2" : "/1");
        return truths.find(suffixed);
    };

    struct Bin
    {
        u64 total = 0, correct = 0, unmapped = 0;
    };
    std::map<u8, Bin> byMapq;
    Bin overall;
    u64 unknown = 0;
    u64 truthCorrect = 0; // distinct truth reads mapped correctly
    for (const auto &r : sam.records) {
        auto it = findTruth(r);
        if (it == truths.end()) {
            ++unknown;
            continue;
        }
        Bin &bin = byMapq[r.mapq];
        ++overall.total;
        ++bin.total;
        auto pos = genomics::recordGlobalPos(r, ref);
        if (!pos) {
            ++overall.unmapped;
            ++bin.unmapped;
            continue;
        }
        const u64 diff = *pos > it->second.pos ? *pos - it->second.pos
                                               : it->second.pos - *pos;
        if (diff <= tolerance && r.isReverse() == it->second.reverse) {
            ++overall.correct;
            ++bin.correct;
            if (!it->second.creditedCorrect) {
                it->second.creditedCorrect = true;
                ++truthCorrect;
            }
        }
    }
    if (unknown)
        gpx_warn(unknown, " records had no truth entry (ignored)");

    util::Table table({ "MAPQ", "records", "correct %", "unmapped %" });
    for (const auto &[mapq, bin] : byMapq) {
        table.row()
            .cell(static_cast<u64>(mapq))
            .cell(bin.total)
            .cell(bin.total ? 100.0 * bin.correct / bin.total : 0.0, 2)
            .cell(bin.total ? 100.0 * bin.unmapped / bin.total : 0.0, 2);
    }
    table.print("Accuracy by MAPQ");

    std::printf("\noverall: %llu records, %.3f%% correct (tolerance "
                "%llu bp), %.3f%% unmapped\n",
                static_cast<unsigned long long>(overall.total),
                overall.total ? 100.0 * overall.correct / overall.total
                              : 0.0,
                static_cast<unsigned long long>(tolerance),
                overall.total ? 100.0 * overall.unmapped / overall.total
                              : 0.0);

    const double minCorrect = cli.real("--min-correct", 0.0);
    if (minCorrect > 0) {
        // Credit each truth read at most once and denominate over the
        // truth set, so neither a truncated SAM nor duplicate/secondary
        // alignments can pass the gate.
        const double pctCorrect =
            truths.empty() ? 0.0
                           : 100.0 * truthCorrect / truths.size();
        if (pctCorrect < minCorrect) {
            std::fprintf(stderr,
                         "FAIL: %.3f%% of truth reads mapped correctly, "
                         "below --min-correct %.3f%%\n",
                         pctCorrect, minCorrect);
            return 1;
        }
    }
    return 0;
}
