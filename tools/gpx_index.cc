/**
 * @file
 * gpx_index — offline SeedMap construction (paper §4.2). Reads a
 * reference FASTA, builds the Seed Table + Location Table with the
 * index filtering threshold, reports the occupancy statistics the
 * hardware sizing depends on (Obs. 2), and persists the v2 image
 * gpx_map and gpx_serve memory-map.
 */

#include <algorithm>
#include <bit>
#include <fstream>
#include <thread>

#include "cli.hh"
#include "genomics/fasta.hh"
#include "genpair/seedmap.hh"
#include "genpair/seedmap_io.hh"
#include "util/logging.hh"
#include "util/timer.hh"

namespace {

const char kUsage[] =
    "usage: gpx_index --ref REF.fa --out INDEX.gpx [options]\n"
    "\n"
    "  --ref FILE           reference FASTA\n"
    "  --out FILE           output SeedMap image\n"
    "  --seed-len N         seed length in bp                  [50]\n"
    "  --table-bits N       log2 Seed Table entries (0 = auto) [0]\n"
    "  --filter-threshold N index filtering threshold;\n"
    "                       0 disables the filter              [500]\n"
    "  --threads N          build worker threads (0 = hardware;\n"
    "                       any count gives identical tables)  [0]\n"
    "  --shards N           hash-range shards in the image\n"
    "                       (rounded up to a power of two;\n"
    "                       0 = match the build threads)       [0]\n"
    "  --version            print the gpx version and exit\n";

} // namespace

int
main(int argc, char **argv)
{
    using namespace gpx;
    tools::Cli cli(argc, argv,
                   { "--ref", "--out", "--seed-len", "--table-bits",
                     "--filter-threshold", "--threads", "--shards" },
                   {}, kUsage);

    const std::string refPath = cli.required("--ref");
    const std::string outPath = cli.required("--out");

    std::ifstream refFile(refPath);
    if (!refFile)
        gpx_fatal("cannot open reference: ", refPath);
    genomics::Reference ref = genomics::readFasta(refFile);
    if (ref.totalLength() == 0)
        gpx_fatal("reference is empty: ", refPath);
    std::printf("reference: %llu bp, %u chromosomes\n",
                static_cast<unsigned long long>(ref.totalLength()),
                ref.numChromosomes());

    genpair::SeedMapParams params;
    params.seedLen = cli.num<u32>("--seed-len", 50);
    params.tableBits = cli.num<u32>("--table-bits", 0);
    params.filterThreshold = cli.num<u32>("--filter-threshold", 500);

    u32 threads = cli.num<u32>("--threads", 0);
    if (threads == 0)
        threads = std::max(1u, std::thread::hardware_concurrency());

    util::Stopwatch watch;
    genpair::SeedMap map = genpair::SeedMap::build(ref, params, threads);
    const auto &stats = map.stats();
    std::printf("built SeedMap in %.2f s (%u threads)\n", watch.seconds(),
                threads);
    std::printf("  seeds scanned            %llu\n",
                static_cast<unsigned long long>(stats.totalSeeds));
    std::printf("  locations stored         %llu\n",
                static_cast<unsigned long long>(stats.storedLocations));
    std::printf("  distinct hashes          %llu\n",
                static_cast<unsigned long long>(stats.distinctHashes));
    std::printf("  filtered seeds           %llu (%llu locations)\n",
                static_cast<unsigned long long>(stats.filteredSeeds),
                static_cast<unsigned long long>(stats.filteredLocations));
    std::printf("  locations/seed (mean)    %.2f\n",
                stats.avgLocationsPerSeed);
    std::printf("  locations/seed (query-weighted, Obs. 2) %.2f\n",
                stats.queryWeightedLocations);

    std::ofstream out(outPath, std::ios::binary);
    if (!out)
        gpx_fatal("cannot open output: ", outPath);
    u32 shards = cli.num<u32>("--shards", 0);
    if (shards == 0)
        shards = std::bit_ceil(threads);
    genpair::saveSeedMapV2(out, map, shards);
    out.flush();
    if (!out)
        gpx_fatal("write failed: ", outPath);
    std::printf("wrote %s (v2 image)\n", outPath.c_str());
    return 0;
}
