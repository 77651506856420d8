/**
 * @file
 * Tests for the scenario wall (src/scenario): the registry shape the
 * CI gate depends on, reduced-scale end-to-end runs of each workload
 * family, and the format:1 JSON document consumed by
 * scripts/check_scenarios.py.
 *
 * Runs here use ScenarioOptions::scale well below 1 so the full
 * simulate -> index -> map -> evaluate path stays cheap under the
 * sanitizers; the scale-1 floors live in BENCH_scenarios.json and are
 * gated by the smoke job, not here.
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "scenario/scenario.hh"
#include "util/gzip_stream.hh"

namespace {

using namespace gpx;
using scenario::ScenarioKind;
using scenario::ScenarioOptions;
using scenario::ScenarioResult;
using scenario::ScenarioSpec;

ScenarioOptions
reducedScale(double scale)
{
    ScenarioOptions options;
    options.scale = scale;
    options.threads = 2; // accuracy is thread-count independent
    options.workDir = ::testing::TempDir();
    return options;
}

ScenarioResult
runByName(const std::string &name, double scale)
{
    const ScenarioSpec *spec = scenario::findScenario(name);
    EXPECT_NE(spec, nullptr) << name;
    return scenario::runScenario(*spec, reducedScale(scale));
}

TEST(ScenarioTable, CoversEveryPinnedWorkloadFamily)
{
    const auto &table = scenario::scenarioTable();
    EXPECT_GE(table.size(), 10u);

    std::set<std::string> names;
    u32 longRead = 0, highError = 0, contamination = 0, gzip = 0;
    u32 truncation = 0, variantLeg = 0;
    for (const auto &spec : table) {
        EXPECT_TRUE(names.insert(spec.name).second)
            << "duplicate scenario name: " << spec.name;
        EXPECT_FALSE(spec.note.empty()) << spec.name;
        longRead += spec.kind == ScenarioKind::kLongRead;
        highError += spec.errorRate >= 0.10;
        contamination += spec.kind == ScenarioKind::kContamination;
        gzip += spec.kind == ScenarioKind::kGzipIngest;
        truncation += spec.kind == ScenarioKind::kTruncatedIngest;
        variantLeg += spec.plantVariants;
    }
    EXPECT_GE(longRead, 1u);
    EXPECT_GE(highError, 2u);
    EXPECT_GE(contamination, 1u);
    EXPECT_GE(gzip, 1u);
    EXPECT_GE(truncation, 1u);
    EXPECT_GE(variantLeg, 1u);
}

TEST(ScenarioTable, LookupByName)
{
    const ScenarioSpec *spec = scenario::findScenario("short_baseline");
    ASSERT_NE(spec, nullptr);
    EXPECT_EQ(spec->kind, ScenarioKind::kShortRead);
    EXPECT_TRUE(spec->plantVariants);
    EXPECT_EQ(scenario::findScenario("no_such_scenario"), nullptr);
}

TEST(ScenarioRun, BaselineMapsAndCallsVariantsAtReducedScale)
{
    ScenarioResult row = runByName("short_baseline", 0.2);
    ASSERT_FALSE(row.skipped) << row.skipReason;
    ASSERT_FALSE(row.rejected) << row.rejectDiagnostic;
    EXPECT_GT(row.reads, 0u);
    EXPECT_GT(row.accuracy, 0.97);
    // The variant leg must have run (F1 fields default to -1).
    EXPECT_GE(row.snpF1, 0.7);
    EXPECT_GE(row.indelF1, 0.0);
}

TEST(ScenarioRun, ErrorSweepDegradesMonotonically)
{
    ScenarioResult e5 = runByName("short_err5", 0.15);
    ScenarioResult e10 = runByName("short_err10", 0.15);
    ScenarioResult e15 = runByName("short_err15", 0.15);
    ASSERT_FALSE(e5.skipped || e10.skipped || e15.skipped);
    EXPECT_GT(e5.accuracy, 0.6);
    // Same genome and seeds across the sweep; only the error rate
    // moves, so accuracy must fall (small epsilon for sampling noise
    // at the reduced read count).
    EXPECT_GT(e5.accuracy, e10.accuracy - 0.02);
    EXPECT_GT(e10.accuracy, e15.accuracy - 0.02);
    EXPECT_LT(e15.accuracy, e5.accuracy);
}

TEST(ScenarioRun, ContaminationAttributesReadsPerSpecies)
{
    ScenarioResult row = runByName("contam_mix10", 0.25);
    ASSERT_FALSE(row.skipped) << row.skipReason;
    // The index must really be the deployment path: a multi-shard v2
    // image mounted through mmap, not the in-memory SeedMap.
    EXPECT_EQ(row.shardCount, 4u);
    ASSERT_EQ(row.attribution.size(), 2u);
    EXPECT_EQ(row.attribution[0].label, "host");
    EXPECT_EQ(row.attribution[1].label, "contaminant");
    for (const auto &region : row.attribution) {
        EXPECT_GT(region.readsTotal, 0u) << region.label;
        EXPECT_LT(region.crossFraction(), 0.05) << region.label;
    }
    EXPECT_GT(row.accuracy, 0.95);
}

TEST(ScenarioRun, TruncatedIngestRejectsWithDiagnostic)
{
    ScenarioResult row = runByName("trunc_reject", 0.25);
    ASSERT_FALSE(row.skipped) << row.skipReason;
    EXPECT_TRUE(row.rejected);
    ASSERT_FALSE(row.rejectDiagnostic.empty());
    EXPECT_NE(row.rejectDiagnostic.find("record"), std::string::npos)
        << row.rejectDiagnostic;
}

TEST(ScenarioRun, GzipRunIsBitIdenticalToPlain)
{
    if (!util::gzipSupported())
        GTEST_SKIP() << "binary built without zlib";
    ScenarioResult row = runByName("gzip_ingest", 0.2);
    ASSERT_FALSE(row.skipped) << row.skipReason;
    ASSERT_FALSE(row.rejected) << row.rejectDiagnostic;
    EXPECT_TRUE(row.samMatchesPlain);
    // The scenario sprinkles N bases into R1; the ingest accounting
    // must carry them through the inflate path to the stats.
    EXPECT_GE(row.ambiguousBases, 1u);
    EXPECT_GT(row.accuracy, 0.95);
}

TEST(ScenarioJson, DocumentCarriesTheGatedFields)
{
    ScenarioResult ok;
    ok.name = "fake_ok";
    ok.kind = ScenarioKind::kContamination;
    ok.reads = 100;
    ok.mapped = 99;
    ok.correct = 98;
    ok.accuracy = 0.98;
    ok.shardCount = 4;
    eval::RegionAccuracy region;
    region.label = "host";
    region.readsTotal = 90;
    region.mapped = 89;
    region.crossMapped = 1;
    ok.attribution.push_back(region);
    ScenarioResult rej;
    rej.name = "fake_reject";
    rej.kind = ScenarioKind::kTruncatedIngest;
    rej.rejected = true;
    rej.rejectDiagnostic = "truncated \"record\"\n";

    std::ostringstream os;
    scenario::writeScenariosJson(os, { ok, rej }, 1.0, 4);
    const std::string doc = os.str();
    for (const char *key :
         { "\"bench\": \"scenarios\"", "\"format\": 1", "\"scale\": 1",
           "\"name\": \"fake_ok\"", "\"kind\": \"contamination\"",
           "\"accuracy\": 0.98", "\"shard_count\": 4",
           "\"attribution\": [{\"label\": \"host\"",
           "\"cross_mapped\": 1", "\"rejected\": true",
           "\"sam_matches_plain\"", "\"ambiguous_bases\"" })
        EXPECT_NE(doc.find(key), std::string::npos) << key;
    // Quotes and newlines inside diagnostics must be escaped.
    EXPECT_NE(doc.find("truncated \\\"record\\\"\\u000a"),
              std::string::npos);
}

} // namespace
