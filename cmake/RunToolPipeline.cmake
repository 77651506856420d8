# End-to-end smoke of the four CLIs, invoked by the smoke_tools_pipeline
# CTest entry: simulate a small dataset, build an index image, map the
# pairs through the streaming driver, then score the SAM against truth;
# then the same for the MM2-lite baseline (--baseline).
# Any non-zero exit fails the test.
#
# Required -D variables: GPX_SIMULATE GPX_INDEX GPX_MAP GPX_MAPEVAL WORK_DIR
foreach(v GPX_SIMULATE GPX_INDEX GPX_MAP GPX_MAPEVAL WORK_DIR)
    if(NOT DEFINED ${v})
        message(FATAL_ERROR "RunToolPipeline.cmake needs -D${v}=...")
    endif()
endforeach()

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

function(run_step)
    execute_process(COMMAND ${ARGV} RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "pipeline step failed (rc=${rc}): ${ARGV}")
    endif()
endfunction()

run_step(${GPX_SIMULATE} --out ${WORK_DIR}/sim
    --length 262144 --chromosomes 1 --pairs 1000)
run_step(${GPX_INDEX} --ref ${WORK_DIR}/sim.fa --out ${WORK_DIR}/sim.gpx)
run_step(${GPX_MAP} --ref ${WORK_DIR}/sim.fa --index ${WORK_DIR}/sim.gpx
    --r1 ${WORK_DIR}/sim_1.fq --r2 ${WORK_DIR}/sim_2.fq
    --out ${WORK_DIR}/out.sam --threads 2 --io-threads 2
    --stats-json ${WORK_DIR}/stats.json
    --trace ${WORK_DIR}/run.trace)
run_step(${GPX_MAPEVAL} --ref ${WORK_DIR}/sim.fa
    --sam ${WORK_DIR}/out.sam --truth ${WORK_DIR}/sim.truth.tsv
    --min-correct 90)

# --stats-json must carry the full PipelineStats, including the
# per-stage counters of the stage graph, the I/O spine's stall
# accounting (reader-starved vs emission-bound seconds) and the time of
# its serial ends (scan, parse, render).
file(READ ${WORK_DIR}/stats.json STATS_JSON)
foreach(key pairs_total light_aligned stages light_align fallback
        reader_stall_seconds writer_stall_seconds scan_seconds
        parse_seconds render_seconds)
    if(NOT STATS_JSON MATCHES "\"${key}\"")
        message(FATAL_ERROR "stats.json is missing key '${key}'")
    endif()
endforeach()

# The MM2-lite baseline over the same pairs: it must map them as well
# and account for every pair in its --stats-json.
run_step(${GPX_MAP} --ref ${WORK_DIR}/sim.fa --index ${WORK_DIR}/sim.gpx
    --r1 ${WORK_DIR}/sim_1.fq --r2 ${WORK_DIR}/sim_2.fq
    --out ${WORK_DIR}/baseline.sam --threads 2 --baseline
    --stats-json ${WORK_DIR}/baseline_stats.json)
run_step(${GPX_MAPEVAL} --ref ${WORK_DIR}/sim.fa
    --sam ${WORK_DIR}/baseline.sam --truth ${WORK_DIR}/sim.truth.tsv
    --min-correct 90)
file(READ ${WORK_DIR}/baseline_stats.json BASELINE_JSON)
if(NOT BASELINE_JSON MATCHES "\"pairs_total\": 1000[,\n]")
    message(FATAL_ERROR "baseline stats.json does not count 1000 pairs")
endif()

# --trace must produce a parseable gpx-stage-trace with one record per
# mapped pair (1000 simulated pairs + the 2-line header).
file(STRINGS ${WORK_DIR}/run.trace TRACE_LINES)
list(GET TRACE_LINES 0 TRACE_MAGIC)
if(NOT TRACE_MAGIC STREQUAL "# gpx-stage-trace v1")
    message(FATAL_ERROR "trace magic line is '${TRACE_MAGIC}'")
endif()
list(LENGTH TRACE_LINES TRACE_LEN)
if(TRACE_LEN LESS 1002)
    message(FATAL_ERROR "trace holds ${TRACE_LEN} lines, expected >= 1002")
endif()
