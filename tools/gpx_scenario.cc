/**
 * @file
 * gpx_scenario — run the scenario wall (src/scenario): the pinned
 * accuracy/throughput matrix over short-read, high-error, long-read,
 * contamination and ingest-robustness workloads. `--json` emits the
 * format:1 document that scripts/check_scenarios.py gates against the
 * floors checked in as BENCH_scenarios.json.
 *
 * Accuracy is deterministic (seeded simulation, bit-identical mapping
 * at every thread count), so the floors are exact at scale 1;
 * throughput fields are informational.
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <vector>

#include "cli.hh"
#include "scenario/scenario.hh"
#include "util/logging.hh"
#include "util/timer.hh"

namespace {

const char kUsage[] =
    "usage: gpx_scenario [--json OUT.json] [options]\n"
    "\n"
    "  --json FILE      write the format:1 scenarios document\n"
    "  --list           print the scenario table and exit\n"
    "  --only NAME      run a single scenario (repeatable)\n"
    "  --scale X        genome/read-count scale factor        [1.0]\n"
    "                   (floors are recorded at scale 1; the\n"
    "                   checker SKIPs reduced-scale runs)\n"
    "  --threads N      mapper threads (0 = hardware)         [0]\n"
    "  --work-dir DIR   scratch dir for image files           [.]\n"
    "  --version        print the gpx version and exit\n";

} // namespace

int
main(int argc, char **argv)
{
    using namespace gpx;
    tools::Cli cli(argc, argv,
                   { "--json", "--only", "--scale", "--threads",
                     "--work-dir" },
                   { "--list" }, kUsage);

    const auto &table = scenario::scenarioTable();
    if (cli.has("--list")) {
        for (const auto &spec : table)
            std::printf("%-16s %-17s %s\n", spec.name.c_str(),
                        scenario::kindName(spec.kind), spec.note.c_str());
        return 0;
    }

    scenario::ScenarioOptions options;
    options.scale = cli.real("--scale", 1.0);
    if (options.scale <= 0)
        gpx_fatal("--scale must be positive");
    options.threads = cli.num<u32>("--threads", 0);
    options.workDir = cli.str("--work-dir");

    std::vector<const scenario::ScenarioSpec *> selected;
    if (cli.has("--only")) {
        for (const auto &name : cli.all("--only")) {
            const scenario::ScenarioSpec *spec =
                scenario::findScenario(name);
            if (spec == nullptr)
                gpx_fatal("unknown scenario: ", name,
                          " (see --list)");
            selected.push_back(spec);
        }
    } else {
        for (const auto &spec : table)
            selected.push_back(&spec);
    }

    std::vector<scenario::ScenarioResult> rows;
    rows.reserve(selected.size());
    for (const auto *spec : selected) {
        util::Stopwatch watch;
        scenario::ScenarioResult row =
            scenario::runScenario(*spec, options);
        if (row.skipped) {
            std::printf("%-16s SKIP  %s\n", row.name.c_str(),
                        row.skipReason.c_str());
        } else if (row.kind == scenario::ScenarioKind::kTruncatedIngest) {
            std::printf("%-16s %s  (%.1f s)\n", row.name.c_str(),
                        row.rejected ? "rejected as expected"
                                     : "NOT REJECTED",
                        watch.seconds());
        } else {
            std::printf("%-16s acc %.4f  mapped %llu/%llu",
                        row.name.c_str(), row.accuracy,
                        static_cast<unsigned long long>(row.mapped),
                        static_cast<unsigned long long>(row.reads));
            if (row.snpF1 >= 0)
                std::printf("  SNP F1 %.4f  INDEL F1 %.4f", row.snpF1,
                            row.indelF1);
            for (const auto &region : row.attribution)
                std::printf("  %s cross %.4f", region.label.c_str(),
                            region.crossFraction());
            std::printf("  (%.0f reads/s, %.1f s)\n", row.readsPerSec,
                        watch.seconds());
        }
        rows.push_back(std::move(row));
    }

    if (cli.has("--json")) {
        std::ofstream out(cli.str("--json"));
        if (!out)
            gpx_fatal("cannot open output: ", cli.str("--json"));
        scenario::writeScenariosJson(out, rows, options.scale,
                                     options.threads);
        out.flush();
        if (!out)
            gpx_fatal("write to json output failed");
        std::printf("wrote %zu scenario rows to %s\n", rows.size(),
                    cli.str("--json").c_str());
    }
    return 0;
}
