/**
 * @file
 * gpx_simulate — generate a synthetic reference genome and paired-end
 * read set (the repository's Mason-equivalent, see DESIGN.md) in
 * standard FASTA/FASTQ formats, with a truth table for evaluating any
 * mapper. This is the dataset half of the zero-to-mapped quickstart:
 *
 *   gpx_simulate --length 4000000 --pairs 100000 --out data/demo
 *   gpx_index    --ref data/demo.fa --out data/demo.gpx
 *   gpx_map      --ref data/demo.fa --index data/demo.gpx \
 *                --r1 data/demo_1.fq --r2 data/demo_2.fq --out demo.sam
 */

#include <fstream>

#include "cli.hh"
#include "genomics/fasta.hh"
#include "simdata/genome_generator.hh"
#include "simdata/read_simulator.hh"
#include "util/logging.hh"

namespace {

const char kUsage[] =
    "usage: gpx_simulate --out PREFIX [options]\n"
    "\n"
    "  --out PREFIX        output prefix (writes PREFIX.fa, PREFIX_1.fq,\n"
    "                      PREFIX_2.fq, PREFIX.truth.tsv)\n"
    "  --length N          genome length in bp            [4194304]\n"
    "  --chromosomes N     chromosome count               [2]\n"
    "  --pairs N           read pairs to simulate         [100000]\n"
    "  --read-len N        read length in bp              [150]\n"
    "  --insert-mean X     mean outer fragment length     [400]\n"
    "  --insert-sd X       fragment length std deviation  [40]\n"
    "  --error-rate X      uniform per-base error rate; when given it\n"
    "                      replaces the default quality-mixture profile\n"
    "  --snp-rate X        donor SNP rate                 [0.001]\n"
    "  --indel-rate X      donor INDEL rate               [0.0002]\n"
    "  --seed N            RNG seed                       [23]\n"
    "  --long              simulate PacBio-HiFi-like long reads\n"
    "                      instead of pairs (writes PREFIX.fq; --pairs\n"
    "                      then counts reads; mean length 9569 bp)\n"
    "  --version           print the gpx version and exit\n";

} // namespace

int
main(int argc, char **argv)
{
    using namespace gpx;
    tools::Cli cli(argc, argv,
                   { "--out", "--length", "--chromosomes", "--pairs",
                     "--read-len", "--insert-mean", "--insert-sd",
                     "--error-rate", "--snp-rate", "--indel-rate",
                     "--seed" },
                   { "--long" }, kUsage);

    const std::string prefix = cli.required("--out");

    simdata::GenomeParams gp;
    gp.length = cli.num<u64>("--length", 4194304);
    gp.chromosomes = cli.num<u32>("--chromosomes", 2);
    gp.seed = cli.num<u64>("--seed", 23);
    std::printf("generating %llu bp genome across %u chromosomes...\n",
                static_cast<unsigned long long>(gp.length),
                gp.chromosomes);
    genomics::Reference ref = simdata::generateGenome(gp);

    simdata::VariantParams vp;
    vp.snpRate = cli.real("--snp-rate", vp.snpRate);
    vp.indelRate = cli.real("--indel-rate", vp.indelRate);
    vp.seed = gp.seed + 1;
    simdata::DiploidGenome diploid(ref, vp);
    std::printf("planted %zu truth variants\n",
                diploid.truthVariants().size());

    std::ofstream fa(prefix + ".fa");
    if (!fa)
        gpx_fatal("cannot open ", prefix, ".fa for writing");
    genomics::writeFasta(fa, ref);

    if (cli.has("--long")) {
        simdata::LongReadSimParams lp;
        lp.seed = gp.seed + 2;
        if (cli.has("--error-rate"))
            lp.errors = simdata::ErrorProfile::uniform(
                cli.real("--error-rate", 0.005));
        simdata::LongReadSimulator sim(diploid, lp);
        auto reads = sim.simulate(cli.num<u64>("--pairs", 1000));
        std::ofstream fq(prefix + ".fq");
        if (!fq)
            gpx_fatal("cannot open ", prefix, ".fq for writing");
        genomics::writeFastq(fq, reads);
        std::ofstream truth(prefix + ".truth.tsv");
        if (!truth)
            gpx_fatal("cannot open ", prefix, ".truth.tsv for writing");
        truth << "read\tglobal_pos\treverse\n";
        for (const auto &r : reads)
            truth << r.name << '\t' << r.truthPos << '\t'
                  << (r.truthReverse ? 1 : 0) << '\n';
        std::printf("wrote %s.fa, %zu long reads to %s.fq, truth to "
                    "%s.truth.tsv\n",
                    prefix.c_str(), reads.size(), prefix.c_str(),
                    prefix.c_str());
        return 0;
    }

    simdata::ReadSimParams rp;
    rp.readLen = cli.num<u32>("--read-len", 150);
    rp.insertMean = cli.real("--insert-mean", rp.insertMean);
    rp.insertSd = cli.real("--insert-sd", rp.insertSd);
    rp.seed = gp.seed + 2;
    if (cli.has("--error-rate"))
        rp.errors =
            simdata::ErrorProfile::uniform(cli.real("--error-rate", 0.001));
    simdata::ReadSimulator sim(diploid, rp);
    const u64 numPairs = cli.num<u64>("--pairs", 100000);
    auto pairs = sim.simulate(numPairs);

    std::vector<genomics::Read> r1, r2;
    r1.reserve(pairs.size());
    r2.reserve(pairs.size());
    for (const auto &p : pairs) {
        r1.push_back(p.first);
        r2.push_back(p.second);
    }
    std::ofstream fq1(prefix + "_1.fq");
    std::ofstream fq2(prefix + "_2.fq");
    if (!fq1 || !fq2)
        gpx_fatal("cannot open FASTQ outputs under prefix ", prefix);
    genomics::writeFastq(fq1, r1);
    genomics::writeFastq(fq2, r2);

    // Truth table: per read, the simulated forward-strand origin.
    std::ofstream truth(prefix + ".truth.tsv");
    if (!truth)
        gpx_fatal("cannot open ", prefix, ".truth.tsv for writing");
    truth << "read\tglobal_pos\treverse\n";
    for (const auto &p : pairs)
        for (const auto *r : { &p.first, &p.second })
            truth << r->name << '\t' << r->truthPos << '\t'
                  << (r->truthReverse ? 1 : 0) << '\n';

    std::printf("wrote %s.fa (%llu bp), %zu pairs to %s_1.fq/%s_2.fq, "
                "truth to %s.truth.tsv\n",
                prefix.c_str(),
                static_cast<unsigned long long>(ref.totalLength()),
                pairs.size(), prefix.c_str(), prefix.c_str(),
                prefix.c_str());
    return 0;
}
