/**
 * @file
 * gpx_map — end-to-end paired-end read mapping with the GenPair
 * pipeline and MM2-lite DP fallback (the paper's "GenPair + MM2"
 * software configuration, §6), producing SAM. Loads a prebuilt SeedMap
 * image when given, otherwise builds one in memory.
 *
 * The residual-routing summary it prints after mapping is the Fig. 10
 * view of the run: how many pairs the fast path handled and where the
 * rest fell back. `--stats-json` emits the full PipelineStats
 * (including the per-stage counters of the stage graph) machine-
 * readably, and `--trace` records per-pair stage events in the
 * gpx-stage-trace format that the hwsim trace adapter replays through
 * the NMSL and pipeline hardware models.
 */

#include <fstream>
#include <iostream>

#include "cli.hh"
#include "genomics/fasta.hh"
#include "genomics/sam.hh"
#include "genpair/seedmap.hh"
#include "genpair/longread.hh"
#include "genpair/streaming.hh"
#include "genpair/seedmap_io.hh"
#include "hwsim/trace_adapter.hh"
#include "util/logging.hh"
#include "util/timer.hh"

namespace {

const char kUsage[] =
    "usage: gpx_map --ref REF.fa --r1 R1.fq --r2 R2.fq --out OUT.sam "
    "[options]\n"
    "       gpx_map --ref REF.fa --long READS.fq --out OUT.sam\n"
    "\n"
    "  --ref FILE           reference FASTA\n"
    "  --r1 FILE            first-in-pair FASTQ (plain or gzip)\n"
    "  --r2 FILE            second-in-pair FASTQ (plain or gzip)\n"
    "  --long FILE          long-read FASTQ (SS4.7 pseudo-pair mode;\n"
    "                       replaces --r1/--r2)\n"
    "  --out FILE           output SAM ('-' for stdout)\n"
    "  --index FILE         prebuilt SeedMap image (from gpx_index),\n"
    "                       served zero-copy via mmap; omitted =\n"
    "                       build in memory\n"
    "  --threads N          worker threads (0 = hardware)     [0]\n"
    "  --io-threads N       FASTQ parser threads of the I/O\n"
    "                       spine (paired mode)               [1]\n"
    "  --chunk N            read pairs mapped per chunk (the\n"
    "                       memory bound)                 [65536]\n"
    "  --delta N            paired-adjacency threshold in bp  [500]\n"
    "  --filter-threshold N index filter when building inline [500]\n"
    "  --baseline           bypass GenPair; map with MM2-lite only\n"
    "  --stats-json FILE    write PipelineStats (incl. per-stage\n"
    "                       counters) as JSON after mapping; in\n"
    "                       --long mode, LongReadStats. Both carry\n"
    "                       the ambiguous-base ingest count\n"
    "  --trace FILE         record per-pair stage events for hwsim\n"
    "                       co-simulation (gpx-stage-trace v1)\n"
    "  --version            print the gpx version and exit\n";

} // namespace

int
main(int argc, char **argv)
{
    using namespace gpx;
    tools::Cli cli(argc, argv,
                   { "--ref", "--r1", "--r2", "--long", "--out",
                     "--index", "--threads", "--io-threads", "--delta",
                     "--filter-threshold", "--chunk", "--stats-json",
                     "--trace" },
                   { "--baseline" }, kUsage);

    // Reference.
    const std::string refPath = cli.required("--ref");
    std::ifstream refFile(refPath);
    if (!refFile)
        gpx_fatal("cannot open reference: ", refPath);
    genomics::Reference ref = genomics::readFasta(refFile);
    if (ref.totalLength() == 0)
        gpx_fatal("reference is empty: ", refPath);

    // Reads (streamed; opened here so path errors surface before the
    // index is built).
    const bool longMode = cli.has("--long");
    std::ifstream r1File, r2File, longFile;
    if (longMode) {
        longFile.open(cli.str("--long"));
        if (!longFile)
            gpx_fatal("cannot open --long FASTQ");
        if (cli.has("--trace"))
            gpx_fatal("--trace records paired-end stage events; it "
                      "does not apply to --long mode");
    } else {
        r1File.open(cli.required("--r1"));
        if (!r1File)
            gpx_fatal("cannot open --r1 FASTQ");
        r2File.open(cli.required("--r2"));
        if (!r2File)
            gpx_fatal("cannot open --r2 FASTQ");
    }

    // SeedMap: open the offline image (zero-copy mmap) or build inline.
    // Either way the query path below consumes only the non-owning
    // view.
    std::optional<genpair::SeedMapImage> image;
    std::unique_ptr<genpair::SeedMap> built;
    genpair::SeedMapView map;
    if (cli.has("--index")) {
        std::string err;
        util::Stopwatch watch;
        image = genpair::SeedMapImage::open(cli.str("--index"), {}, &err);
        if (!image)
            gpx_fatal("index image rejected: ", err);
        map = image->view();
        std::printf("opened index in %.3f s (mmap, zero-copy, %u "
                    "shard%s)\n",
                    watch.seconds(), image->shardCount(),
                    image->shardCount() == 1 ? "" : "s");
    } else {
        genpair::SeedMapParams sp;
        sp.filterThreshold = cli.num<u32>("--filter-threshold", 500);
        util::Stopwatch watch;
        built = std::make_unique<genpair::SeedMap>(genpair::SeedMap::build(
            ref, sp, cli.num<u32>("--threads", 0)));
        map = *built;
        std::printf("built SeedMap inline in %.2f s\n", watch.seconds());
    }

    // SAM output (the stream must exist before mapping starts).
    std::ofstream outFile;
    std::ostream *os = nullptr;
    if (cli.str("--out") == "-") {
        os = &std::cout;
    } else {
        outFile.open(cli.required("--out"));
        if (!outFile)
            gpx_fatal("cannot open output: ", cli.str("--out"));
        os = &outFile;
    }
    genomics::SamWriter sam(*os, ref);
    // Batch mode is all-or-nothing: every SAM write is checked, and a
    // failure (disk full, short write) aborts with the output path and
    // byte offset rather than leaving a silently truncated file.
    sam.checkWrites(cli.str("--out") == "-" ? "<stdout>"
                                            : cli.str("--out"),
                    /*fatal_on_error=*/true);
    sam.writeHeader();

    if (longMode) {
        // SS4.7: pseudo-pair decomposition + Location Voting + DP,
        // chunk-streamed through the parallel LongReadDriver.
        genpair::LongReadParams lrParams;
        lrParams.delta = cli.num<u32>("--delta", 500);
        genpair::LongReadDriver driver(
            ref, map, lrParams, baseline::Mm2LiteParams{},
            cli.num<u32>("--threads", 0));
        // Long reads are ~60x a short pair; keep the resident chunk
        // small unless the user asked otherwise.
        const u64 chunkReads = cli.num<u64>("--chunk", 4096);
        genomics::FastqReader reader(longFile);
        genpair::LongReadStats stats;
        double mapSeconds = 0;
        util::Stopwatch watch;
        std::vector<genomics::Read> reads;
        bool eof = false;
        while (!eof) {
            reads.clear();
            genomics::Read read;
            while (reads.size() < chunkReads) {
                if (!reader.next(read)) {
                    eof = true;
                    break;
                }
                reads.push_back(std::move(read));
            }
            if (reads.empty())
                break;
            auto result = driver.mapAll(reads);
            stats += result.stats;
            mapSeconds += result.timing.seconds;
            for (std::size_t i = 0; i < reads.size(); ++i)
                sam.writeRead(reads[i], result.mappings[i]);
        }
        os->flush();
        std::printf("mapped %llu/%llu long reads in %.2f s "
                    "(%u threads, pure mapping %.2f s, "
                    "%.1f Mcells DP/read)\n",
                    static_cast<unsigned long long>(stats.mapped),
                    static_cast<unsigned long long>(stats.readsTotal),
                    watch.seconds(), driver.threads(), mapSeconds,
                    stats.readsTotal ? static_cast<double>(stats.dpCells) /
                                           stats.readsTotal / 1e6
                                     : 0.0);
        std::printf("wrote %llu SAM records\n",
                    static_cast<unsigned long long>(
                        sam.recordsWritten()));
        if (cli.has("--stats-json")) {
            std::ofstream statsFile(cli.str("--stats-json"));
            if (!statsFile)
                gpx_fatal("cannot open stats output: ",
                          cli.str("--stats-json"));
            genpair::writeLongReadStatsJson(
                statsFile, stats, reader.stats().ambiguousBases);
            statsFile.flush();
            if (!statsFile)
                gpx_fatal("write to stats file failed");
            std::printf("wrote long-read stats to %s\n",
                        cli.str("--stats-json").c_str());
        }
        return 0;
    }

    // Map in bounded-memory chunks.
    genpair::DriverConfig config;
    config.threads = cli.num<u32>("--threads", 0);
    config.pipeline.delta = cli.num<u32>("--delta", 500);
    config.useGenPair = !cli.has("--baseline");

    // Stage-event trace (hwsim co-simulation hand-off).
    std::ofstream traceFile;
    genpair::StreamingMapper::TraceSink traceSink;
    if (cli.has("--trace")) {
        if (!config.useGenPair)
            gpx_fatal("--trace records GenPair stage events; drop "
                      "--baseline");
        traceFile.open(cli.str("--trace"));
        if (!traceFile)
            gpx_fatal("cannot open trace output: ", cli.str("--trace"));
        config.recordTrace = true;
        hwsim::writeTraceHeader(traceFile, map.tableBits());
        traceSink = [&traceFile](const genpair::PairTraceRecord *records,
                                 u64 count) {
            for (u64 i = 0; i < count; ++i)
                records[i].writeText(traceFile);
        };
    }

    genpair::StreamingMapper mapper(
        ref, map, config, cli.num<u64>("--chunk", 65536),
        cli.num<u32>("--io-threads", 1));
    auto result = mapper.run(r1File, r2File, sam, traceSink);
    os->flush();
    if (traceFile.is_open()) {
        traceFile.flush();
        if (!traceFile)
            gpx_fatal("write to trace file failed");
    }
    std::printf("mapped %llu pairs in %.2f s (%.0f pairs/s, %llu "
                "chunks; pure mapping %.2f s = %.0f pairs/s)\n",
                static_cast<unsigned long long>(result.pairs),
                result.total.seconds, result.total.itemsPerSec,
                static_cast<unsigned long long>(result.chunks),
                result.mapping.seconds, result.mapping.itemsPerSec);
    std::printf("I/O spine stalls: reader %.3f s, writer %.3f s; serial "
                "ends: scan %.3f s, parse %.3f s, render %.3f s\n",
                result.stats.readerStallSeconds,
                result.stats.writerStallSeconds, result.stats.scanSeconds,
                result.stats.parseSeconds, result.stats.renderSeconds);

    // Fig. 10 routing summary.
    const auto &st = result.stats;
    if (config.useGenPair) {
        std::printf("GenPair routing:\n");
        std::printf("  light-aligned fast path   %6.2f%%\n",
                    100 * st.fraction(st.lightAligned));
        std::printf("  DP-align at candidates    %6.2f%%\n",
                    100 * st.fraction(st.dpAligned));
        std::printf("  SeedMap miss -> full DP   %6.2f%%\n",
                    100 * st.fraction(st.seedMissFallback));
        std::printf("  PA-filter miss -> full DP %6.2f%%\n",
                    100 * st.fraction(st.paFilterFallback));
        std::printf("  unmapped                  %6.2f%%\n",
                    100 * st.fraction(st.unmapped));
    }

    if (cli.has("--stats-json")) {
        std::ofstream statsFile(cli.str("--stats-json"));
        if (!statsFile)
            gpx_fatal("cannot open stats output: ",
                      cli.str("--stats-json"));
        st.writeJson(statsFile);
        statsFile.flush();
        if (!statsFile)
            gpx_fatal("write to stats file failed");
        std::printf("wrote pipeline stats to %s\n",
                    cli.str("--stats-json").c_str());
    }

    std::printf("wrote %llu SAM records\n",
                static_cast<unsigned long long>(sam.recordsWritten()));
    return 0;
}
