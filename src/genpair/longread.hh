/**
 * @file
 * Long-read support (paper §4.7).
 *
 * A long read is reformulated as a sequence of interleaved pseudo
 * read-pairs of adjacent 150 bp segments (distance < delta by
 * construction). Each pseudo-pair runs Partitioned Seeding, SeedMap Query
 * and Paired-Adjacency Filtering; candidate read-start locations are then
 * combined with Location Voting across all pairs of the read, and the
 * winning region is aligned with DP (light alignment is insufficient for
 * noisy long reads).
 */

#ifndef GPX_GENPAIR_LONGREAD_HH
#define GPX_GENPAIR_LONGREAD_HH

#include <iosfwd>
#include <memory>
#include <vector>

#include "baseline/mm2lite.hh"
#include "genomics/readpair.hh"
#include "genpair/engine.hh"
#include "genpair/pafilter.hh"
#include "genpair/seeder.hh"
#include "genpair/seedmap.hh"
#include "util/types.hh"

namespace gpx {
namespace genpair {

/** Long-read mapping parameters. */
struct LongReadParams
{
    u32 segmentLen = 150; ///< pseudo-read length
    u32 delta = 500;      ///< adjacency threshold within a pseudo-pair
    u32 minVotes = 3;     ///< Location Voting acceptance threshold
    u32 voteBucket = 128; ///< vote clustering granularity (bases)
    u32 chunkLen = 600;   ///< DP alignment chunk size
    u32 chunkSlack = 100; ///< window slack per chunk
    i32 minChunkScoreFrac = 40; ///< % of perfect score a chunk must reach
};

/** Long-read pipeline counters. */
struct LongReadStats
{
    u64 readsTotal = 0;
    u64 mapped = 0;
    u64 unmapped = 0;
    u64 pseudoPairs = 0;
    u64 votes = 0;
    u64 dpCells = 0;
    QueryWork query;

    /** Single accumulation point for every long-read stats merge. */
    LongReadStats &
    operator+=(const LongReadStats &other)
    {
        readsTotal += other.readsTotal;
        mapped += other.mapped;
        unmapped += other.unmapped;
        pseudoPairs += other.pseudoPairs;
        votes += other.votes;
        dpCells += other.dpCells;
        query += other.query;
        return *this;
    }
};

/**
 * Machine-readable form of LongReadStats plus the ingest accounting
 * (`gpx_map --long --stats-json`): the long-read counterpart of
 * PipelineStats::writeJson, with the same "ingest" object so dirty
 * inputs surface identically in both modes.
 */
void writeLongReadStatsJson(std::ostream &os, const LongReadStats &stats,
                            u64 ambiguous_bases);

/** Long-read mapper built from GenPair stages plus DP alignment. */
class LongReadMapper
{
  public:
    LongReadMapper(const genomics::Reference &ref,
                   const SeedMapView &map, const LongReadParams &params,
                   baseline::Mm2Lite *dp);

    /** Map one long read; Mapping.cigar is stitched from DP chunks. */
    genomics::Mapping mapRead(const genomics::Read &read);

    const LongReadStats &stats() const { return stats_; }
    void resetStats() { stats_ = {}; }

  private:
    /** Candidate read starts (bucketed votes) for one orientation. */
    std::vector<std::pair<GlobalPos, u32>> voteCandidates(
        const genomics::DnaSequence &seq);

    /** Chunked DP alignment at a voted start position. */
    genomics::Mapping alignAtStart(const genomics::DnaSequence &seq,
                                   GlobalPos start);

    const genomics::Reference &ref_;
    SeedMapView map_;
    LongReadParams params_;
    PartitionedSeeder seeder_;
    baseline::Mm2Lite *dp_;
    LongReadStats stats_;
};

/** Result of a parallel long-read batch. */
struct LongReadResult
{
    std::vector<genomics::Mapping> mappings; ///< 1:1 with input reads
    LongReadStats stats; ///< aggregated across workers
    RunTiming timing;    ///< filled by MapperEngine
};

/**
 * Parallel long-read mapping: the third thin configuration layer over
 * MapperEngine. Per-worker contexts own an Mm2Lite DP engine (over one
 * shared MinimizerIndex) plus a LongReadMapper; mapping is per-read
 * pure and results land at input index, so output is bit-identical to
 * a serial LongReadMapper loop for any thread count.
 */
class LongReadDriver
{
  public:
    /**
     * @param threads Worker count; 0 = hardware concurrency.
     */
    LongReadDriver(const genomics::Reference &ref, const SeedMapView &map,
                   const LongReadParams &params,
                   const baseline::Mm2LiteParams &dp_params = {},
                   u32 threads = 0);

    /** Map all reads; mappings[i] corresponds to reads[i]. Safe from
     *  any thread, like ParallelMapper::mapAll(). */
    LongReadResult mapAll(const std::vector<genomics::Read> &reads);

    u32 threads() const { return engine_->threads(); }

  private:
    const genomics::Reference &ref_;
    SeedMapView map_;
    LongReadParams params_;
    baseline::Mm2LiteParams dpParams_;
    std::shared_ptr<const baseline::MinimizerIndex> sharedIndex_;
    std::unique_ptr<MapperEngine> engine_;
};

} // namespace genpair
} // namespace gpx

#endif // GPX_GENPAIR_LONGREAD_HH
