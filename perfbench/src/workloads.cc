/**
 * @file
 * The benchmark's workloads and their seeded generation.
 *
 * Every workload maps 2x150 bp pairs against the same synthetic 4 Mbp
 * genome through an offline v2 SeedMap image. Generation runs in its own
 * process before anything is timed; the timed code only sees the files
 * written here.
 */

#include <bit>
#include <fstream>
#include <thread>

#include "bench.hh"
#include "genomics/fasta.hh"
#include "genpair/seedmap.hh"
#include "genpair/seedmap_io.hh"
#include "simdata/datasets.hh"
#include "util/logging.hh"

namespace gpx {
namespace perfbench {

namespace {

constexpr u64 kGenomeBp = u64{ 4 } << 20;
constexpr u64 kTinyGenomeBp = u64{ 256 } << 10;

/** splitmix64: independent generator seeds from one workload seed. */
u64
mixSeed(u64 seed, u64 stream)
{
    u64 z = seed + stream * 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::vector<Workload>
allWorkloads()
{
    std::vector<Workload> w(3);
    w[0].name = "giab_batch";
    w[0].kind = WorkloadKind::Batch;
    w[0].why = "production gpx_map path on the D1 GIAB-like mixture-error "
               "profile: the headline configuration, every layer works";
    w[0].genomeBp = kGenomeBp;
    w[0].pairs = 200000;
    w[0].minAccuracy = 0.97;

    w[1].name = "err4_batch";
    w[1].kind = WorkloadKind::Batch;
    w[1].why = "same path at 4% uniform error: the DP fallback does nearly "
               "all the work and light alignment almost none";
    w[1].genomeBp = kGenomeBp;
    w[1].pairs = 100000;
    w[1].errorRate = 0.04;
    w[1].minAccuracy = 0.80;

    w[2].name = "serve_clean";
    w[2].kind = WorkloadKind::Serve;
    w[2].why = "in-process gpx_serve over a Unix socket, 128-pair requests "
               "at 0.2% error: per-request spine, submit mutex and wire "
               "dominate, and requests contend";
    w[2].genomeBp = kGenomeBp;
    w[2].pairs = 400 * kRequestPairs;
    w[2].errorRate = 0.002;
    w[2].minAccuracy = 0.97;
    return w;
}

} // namespace

Workload
findWorkload(const std::string &name, bool tiny)
{
    for (Workload w : allWorkloads()) {
        if (w.name != name)
            continue;
        if (tiny) {
            w.genomeBp = kTinyGenomeBp;
            w.pairs = w.kind == WorkloadKind::Serve ? 16 * kRequestPairs
                                                    : 2000;
        }
        return w;
    }
    gpx_fatal("unknown workload: ", name);
}

void
generateWorkload(const Workload &w, u64 seed, const WorkloadFiles &f)
{
    simdata::DatasetConfig cfg =
        simdata::datasetConfig(1, w.genomeBp, w.pairs);
    // The reference (genome and donor variants) is one fixed asset, as
    // in a deployment; the seed picks the read set.
    cfg.reads.seed = mixSeed(seed, 1);
    if (w.errorRate > 0)
        cfg.reads.errors = simdata::ErrorProfile::uniform(w.errorRate);
    simdata::Dataset ds = simdata::buildDataset(cfg);

    auto openOut = [](const std::string &path) {
        std::ofstream os(path, std::ios::binary);
        if (!os)
            gpx_fatal("cannot write ", path);
        return os;
    };
    auto closeOut = [](std::ofstream &os, const std::string &path) {
        os.flush();
        if (!os)
            gpx_fatal("write to ", path, " failed");
    };

    std::ofstream fa = openOut(f.ref());
    genomics::writeFasta(fa, *ds.reference);
    closeOut(fa, f.ref());

    std::vector<genomics::Read> r1, r2;
    r1.reserve(ds.pairs.size());
    r2.reserve(ds.pairs.size());
    std::ofstream truth = openOut(f.truth());
    truth << "read\tglobal_pos\treverse\n";
    for (auto &p : ds.pairs) {
        for (const genomics::Read *r : { &p.first, &p.second })
            truth << r->name << '\t' << r->truthPos << '\t'
                  << (r->truthReverse ? 1 : 0) << '\n';
        r1.push_back(std::move(p.first));
        r2.push_back(std::move(p.second));
    }
    closeOut(truth, f.truth());
    std::ofstream fq1 = openOut(f.r1());
    genomics::writeFastq(fq1, r1);
    closeOut(fq1, f.r1());
    std::ofstream fq2 = openOut(f.r2());
    genomics::writeFastq(fq2, r2);
    closeOut(fq2, f.r2());

    // The image gpx_index writes by default: every hardware thread
    // builds, one shard per build thread.
    const u32 threads = std::max(1u, std::thread::hardware_concurrency());
    genpair::SeedMap map = genpair::SeedMap::build(
        *ds.reference, genpair::SeedMapParams{}, threads);
    std::ofstream img = openOut(f.index());
    genpair::saveSeedMapV2(img, map, std::bit_ceil(threads));
    closeOut(img, f.index());
}

} // namespace perfbench
} // namespace gpx
