/**
 * @file
 * gpx_client — reference client for a running gpx_serve daemon:
 * streams FASTQ pairs to the server in framed batches and writes the
 * returned SAM (header + records) to a file, byte-identical to a
 * gpx_map run over the same input against the same index.
 *
 * Doubles as the daemon's control tool: `--server-stats` prints the
 * aggregate counters JSON, `--shutdown` asks the server to drain.
 */

#include <algorithm>
#include <fstream>
#include <iostream>
#include <sstream>

#include "cli.hh"
#include "genomics/fasta.hh"
#include "serve/client.hh"
#include "util/logging.hh"
#include "util/timer.hh"

namespace {

const char kUsage[] =
    "usage: gpx_client --socket PATH --r1 R1.fq --r2 R2.fq --out OUT.sam"
    " [options]\n"
    "       gpx_client --port N [--host IP] ...\n"
    "       gpx_client --socket PATH --server-stats | --shutdown\n"
    "\n"
    "  --socket PATH        connect to a Unix-domain socket\n"
    "  --host IP            TCP host (IPv4)            [127.0.0.1]\n"
    "  --port N             TCP port (replaces --socket)\n"
    "  --r1 FILE            first-in-pair FASTQ\n"
    "  --r2 FILE            second-in-pair FASTQ\n"
    "  --out FILE           output SAM ('-' for stdout)\n"
    "  --ref NAME           mount to map against (default: the\n"
    "                       server's sole mount)\n"
    "  --batch N            read pairs per request          [4096]\n"
    "  --retries N          re-send a request shed with OVERLOADED\n"
    "                       up to N times (capped exponential\n"
    "                       backoff seeded by the server's\n"
    "                       retry_after_ms hint)                [0]\n"
    "  --backoff-ms N       first backoff step                 [50]\n"
    "  --stats-json FILE    write the last request's PipelineStats\n"
    "  --server-stats       print the server aggregate stats JSON\n"
    "  --refresh            ask the server to hot-swap --ref's\n"
    "                       index image (empty = sole mount)\n"
    "  --shutdown           ask the server to drain and exit\n"
    "  --version            print the gpx version and exit\n";

} // namespace

int
main(int argc, char **argv)
{
    using namespace gpx;
    tools::Cli cli(argc, argv,
                   { "--socket", "--host", "--port", "--r1", "--r2",
                     "--out", "--ref", "--batch", "--retries",
                     "--backoff-ms", "--stats-json" },
                   { "--server-stats", "--refresh", "--shutdown" },
                   kUsage);

    std::string error;
    std::optional<serve::ServeClient> client;
    if (cli.has("--port"))
        client = serve::ServeClient::connectTcp(
            cli.str("--host", "127.0.0.1"),
            cli.num<u16>("--port", 0), &error);
    else
        client = serve::ServeClient::connectUnix(
            cli.required("--socket"), &error);
    if (!client)
        gpx_fatal("cannot connect: ", error);

    if (cli.has("--server-stats")) {
        std::string json;
        auto status = client->fetchStats(&json);
        if (!status.ok)
            gpx_fatal("stats request failed: ", status.describe());
        std::printf("%s", json.c_str());
        return 0;
    }
    if (cli.has("--refresh")) {
        auto status = client->refreshMount(cli.str("--ref"));
        if (!status.ok)
            gpx_fatal("refresh request failed: ", status.describe());
        std::printf("index swapped\n");
        return 0;
    }
    if (cli.has("--shutdown")) {
        auto status = client->shutdownServer();
        if (!status.ok)
            gpx_fatal("shutdown request failed: ", status.describe());
        std::printf("server draining\n");
        return 0;
    }

    serve::RetryPolicy retryPolicy;
    retryPolicy.maxRetries = cli.num<u32>("--retries", 0);
    retryPolicy.backoffMs = cli.num<u32>("--backoff-ms", 50);
    client->setRetryPolicy(retryPolicy);

    const std::string refName = cli.str("--ref");
    std::ifstream r1File(cli.required("--r1"));
    if (!r1File)
        gpx_fatal("cannot open --r1 FASTQ");
    std::ifstream r2File(cli.required("--r2"));
    if (!r2File)
        gpx_fatal("cannot open --r2 FASTQ");

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

    // Header first, so the output file is a complete SAM document
    // byte-identical to a gpx_map run.
    // Every output write is checked as it happens, so a full disk
    // fails with the path and byte offset instead of a silently
    // truncated SAM.
    const std::string outLabel =
        cli.str("--out") == "-" ? "<stdout>" : cli.str("--out");
    u64 outBytes = 0;
    auto emit = [&](const std::string &text) {
        os->write(text.data(),
                  static_cast<std::streamsize>(text.size()));
        if (!*os)
            gpx_fatal("SAM write failed at byte offset ", outBytes,
                      " of ", outLabel, " (short write or disk full)");
        outBytes += text.size();
    };

    std::string header;
    auto status = client->fetchHeader(refName, &header);
    if (!status.ok)
        gpx_fatal("header request failed: ", status.describe());
    emit(header);

    const u64 batchPairs = std::max<u64>(1, cli.num<u64>("--batch", 4096));
    genomics::FastqReader reader1(r1File);
    genomics::FastqReader reader2(r2File);
    u64 pairs = 0, requests = 0;
    std::string lastStatsJson;
    const bool wantStats = cli.has("--stats-json");
    util::Stopwatch watch;
    bool eof = false;
    while (!eof) {
        // Re-frame up to batchPairs records per side as FASTQ text.
        std::vector<genomics::Read> batch1, batch2;
        genomics::Read read;
        while (batch1.size() < batchPairs) {
            const bool got1 = reader1.next(read);
            if (got1)
                batch1.push_back(std::move(read));
            const bool got2 = reader2.next(read);
            if (got2)
                batch2.push_back(std::move(read));
            if (got1 != got2)
                gpx_fatal("FASTQ streams disagree: ",
                          got1 ? "R2" : "R1", " ended early after ",
                          (got1 ? reader2 : reader1).recordsRead(),
                          " records");
            if (!got1) {
                eof = true;
                break;
            }
        }
        if (batch1.empty())
            break;
        std::ostringstream fq1, fq2;
        genomics::writeFastq(fq1, batch1);
        genomics::writeFastq(fq2, batch2);

        serve::MapReplyBody reply;
        status = client->mapBatch(refName, fq1.str(), fq2.str(),
                                  wantStats, &reply);
        if (!status.ok)
            gpx_fatal("map request failed: ", status.describe());
        if (reply.pairCount != batch1.size())
            gpx_fatal("server mapped ", reply.pairCount, " of ",
                      batch1.size(), " pairs");
        emit(reply.sam);
        if (wantStats)
            lastStatsJson = reply.statsJson;
        pairs += reply.pairCount;
        ++requests;
    }
    os->flush();
    if (os == &outFile && !outFile)
        gpx_fatal("write to output failed");

    double secs = watch.seconds();
    std::printf("mapped %llu pairs in %llu requests, %.2f s (%.0f "
                "pairs/s end-to-end)\n",
                static_cast<unsigned long long>(pairs),
                static_cast<unsigned long long>(requests), secs,
                secs > 0 ? static_cast<double>(pairs) / secs : 0.0);

    if (wantStats) {
        std::ofstream statsFile(cli.str("--stats-json"));
        if (!statsFile)
            gpx_fatal("cannot open stats output: ",
                      cli.str("--stats-json"));
        statsFile << lastStatsJson;
        statsFile.flush();
        if (!statsFile)
            gpx_fatal("write to stats file failed");
    }
    return 0;
}
