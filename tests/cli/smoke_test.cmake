# End-to-end smoke test of the dehealth_cli binary, including the index
# snapshot, the evaluate command and the strict-flag-parsing error paths.
#
# Usage: cmake -DCLI=<dehealth_cli> -DWORK_DIR=<scratch dir> -P smoke_test.cmake

if(NOT DEFINED CLI OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "smoke_test.cmake requires -DCLI=... and -DWORK_DIR=...")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# run_cli(<expect_rc> <args...>): run the CLI, assert the exit code, and
# expose stdout/stderr as RUN_OUT/RUN_ERR in the parent scope.
function(run_cli expect_rc)
  execute_process(
    COMMAND "${CLI}" ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL expect_rc)
    message(FATAL_ERROR
      "dehealth_cli ${ARGN}: expected exit ${expect_rc}, got ${rc}\n"
      "stdout: ${out}\nstderr: ${err}")
  endif()
  set(RUN_OUT "${out}" PARENT_SCOPE)
  set(RUN_ERR "${err}" PARENT_SCOPE)
endfunction()

# --- happy path: generate -> split -> attack with an index snapshot -----
run_cli(0 generate --preset webmd --users 60 --seed 7
        --out "${WORK_DIR}/forum.jsonl")
run_cli(0 split --dataset "${WORK_DIR}/forum.jsonl" --aux-fraction 0.5
        --seed 3 --anon-out "${WORK_DIR}/anon.jsonl"
        --aux-out "${WORK_DIR}/aux.jsonl" --truth-out "${WORK_DIR}/truth.csv")
run_cli(0 attack --anonymized "${WORK_DIR}/anon.jsonl"
        --auxiliary "${WORK_DIR}/aux.jsonl" --k 5 --learner centroid
        --threads 2 --index-path "${WORK_DIR}/aux.dhix"
        --truth "${WORK_DIR}/truth.csv" --out "${WORK_DIR}/pred.csv")
if(NOT RUN_OUT MATCHES "top-5 success: ([0-9.]+)%")
  message(FATAL_ERROR "attack output missing evaluation line: ${RUN_OUT}")
endif()
set(attack_top5 "${CMAKE_MATCH_1}")
if(NOT EXISTS "${WORK_DIR}/pred.csv")
  message(FATAL_ERROR "attack did not write predictions CSV")
endif()
if(NOT EXISTS "${WORK_DIR}/aux.dhix")
  message(FATAL_ERROR "attack did not persist the index snapshot")
endif()

# A second run reuses the persisted snapshot and must still succeed.
run_cli(0 attack --anonymized "${WORK_DIR}/anon.jsonl"
        --auxiliary "${WORK_DIR}/aux.jsonl" --k 5 --learner centroid
        --index-path "${WORK_DIR}/aux.dhix" --out "${WORK_DIR}/pred2.csv")
file(READ "${WORK_DIR}/pred.csv" first_run)
file(READ "${WORK_DIR}/pred2.csv" second_run)
if(NOT first_run STREQUAL second_run)
  message(FATAL_ERROR "snapshot-reusing run changed predictions")
endif()

# --threads reaches feature extraction too, and no thread count may change
# an answer: one thread must write the bytes of two and of the default.
run_cli(0 attack --anonymized "${WORK_DIR}/anon.jsonl"
        --auxiliary "${WORK_DIR}/aux.jsonl" --k 5 --learner centroid
        --threads 1 --out "${WORK_DIR}/pred_t1.csv")
file(READ "${WORK_DIR}/pred_t1.csv" one_thread_run)
if(NOT one_thread_run STREQUAL first_run OR
   NOT one_thread_run STREQUAL second_run)
  message(FATAL_ERROR "--threads 1 predictions differ from --threads 2 or "
          "the default thread count")
endif()

# --- observability: tracing and metrics must not perturb the attack -----
# A traced run (Chrome trace + Prometheus metrics dump) must produce a
# predictions CSV byte-identical to the untraced run above, and both
# observability files must be non-empty and well-formed.
run_cli(0 attack --anonymized "${WORK_DIR}/anon.jsonl"
        --auxiliary "${WORK_DIR}/aux.jsonl" --k 5 --learner centroid
        --threads 2 --index-path "${WORK_DIR}/aux.dhix"
        --trace-out "${WORK_DIR}/attack_trace.json"
        --metrics-out "${WORK_DIR}/attack_metrics.prom"
        --out "${WORK_DIR}/pred_traced.csv")
file(READ "${WORK_DIR}/pred_traced.csv" traced_run)
if(NOT first_run STREQUAL traced_run)
  message(FATAL_ERROR "traced run changed predictions — tracing must be "
          "invisible to the attack")
endif()
file(READ "${WORK_DIR}/attack_trace.json" trace_json)
if(NOT trace_json MATCHES "\"traceEvents\"")
  message(FATAL_ERROR "--trace-out did not write a Chrome trace document")
endif()
foreach(span build_uda_graph extract_posts fold_profiles correlation_graph
        load_forum_dataset)
  if(NOT trace_json MATCHES "\"${span}\"")
    message(FATAL_ERROR "trace is missing the pipeline's ${span} span")
  endif()
endforeach()
file(READ "${WORK_DIR}/attack_metrics.prom" metrics_prom)
if(NOT metrics_prom MATCHES "# TYPE dehealth_core_uda_builds_total counter")
  message(FATAL_ERROR "--metrics-out did not write Prometheus exposition")
endif()

# --- error paths: garbage flags must fail loudly, not default silently ---
run_cli(1 attack --anonymized "${WORK_DIR}/anon.jsonl"
        --auxiliary "${WORK_DIR}/aux.jsonl" --threads banana)
if(NOT RUN_ERR MATCHES "--threads expects an integer")
  message(FATAL_ERROR "garbage --threads error unclear: ${RUN_ERR}")
endif()
run_cli(1 attack --anonymized "${WORK_DIR}/anon.jsonl"
        --auxiliary "${WORK_DIR}/aux.jsonl" --threads -2)
if(NOT RUN_ERR MATCHES "--threads must be >= 0")
  message(FATAL_ERROR "negative --threads error unclear: ${RUN_ERR}")
endif()
run_cli(1 attack --anonymized "${WORK_DIR}/anon.jsonl"
        --auxiliary "${WORK_DIR}/aux.jsonl" --k 0)
run_cli(1 attack --anonymized "${WORK_DIR}/anon.jsonl"
        --auxiliary "${WORK_DIR}/aux.jsonl" --k 5nonsense)
# Unknown and retired flags fail instead of silently doing nothing.
run_cli(1 attack --anonymized "${WORK_DIR}/anon.jsonl"
        --auxiliary "${WORK_DIR}/aux.jsonl" --max-candidates 5)
if(NOT RUN_ERR MATCHES "unknown flag")
  message(FATAL_ERROR "retired --max-candidates error unclear: ${RUN_ERR}")
endif()
# In-process sharding is retired: splitting the universe is the fleet's
# job (--shard-count behind the router).
run_cli(1 attack --anonymized "${WORK_DIR}/anon.jsonl"
        --auxiliary "${WORK_DIR}/aux.jsonl" --shards 2)
if(NOT RUN_ERR MATCHES "unknown flag --shards")
  message(FATAL_ERROR "retired --shards error unclear: ${RUN_ERR}")
endif()
# The structural engine always scores through the index, so --index is
# retired like --shards.
run_cli(1 attack --anonymized "${WORK_DIR}/anon.jsonl"
        --auxiliary "${WORK_DIR}/aux.jsonl" --index)
if(NOT RUN_ERR MATCHES "unknown flag --index")
  message(FATAL_ERROR "retired --index error unclear: ${RUN_ERR}")
endif()
# Matrix-backed engines have no index: --index-path is a config error.
run_cli(1 attack --anonymized "${WORK_DIR}/anon.jsonl"
        --auxiliary "${WORK_DIR}/aux.jsonl" --engine blind
        --index-path "${WORK_DIR}/blind.dhix")
if(NOT RUN_ERR MATCHES "--index-path only applies to --engine=structural")
  message(FATAL_ERROR "--engine blind --index-path error unclear: ${RUN_ERR}")
endif()
# Enumerated flags reject values outside their lists instead of falling
# back to a default.
run_cli(1 attack --anonymized "${WORK_DIR}/anon.jsonl"
        --auxiliary "${WORK_DIR}/aux.jsonl" --learner centriod)
if(NOT RUN_ERR MATCHES "--learner must be smo, knn, rlsc, or centroid")
  message(FATAL_ERROR "misspelled --learner error unclear: ${RUN_ERR}")
endif()
run_cli(1 attack --anonymized "${WORK_DIR}/anon.jsonl"
        --auxiliary "${WORK_DIR}/aux.jsonl" --simd sse2)
if(NOT RUN_ERR MATCHES "simd mode must be auto, scalar, or avx2")
  message(FATAL_ERROR "retired --simd sse2 error unclear: ${RUN_ERR}")
endif()
run_cli(1 generate --preset healthboards --users 10
        --out "${WORK_DIR}/never.jsonl")
if(NOT RUN_ERR MATCHES "--preset must be webmd or hb")
  message(FATAL_ERROR "unknown --preset error unclear: ${RUN_ERR}")
endif()
if(EXISTS "${WORK_DIR}/never.jsonl")
  message(FATAL_ERROR "rejected --preset must not write a dataset")
endif()
# Graceful degradation: an unusable index snapshot path must not take the
# attack down — it warns and continues on an index kept in memory, and the
# answers are identical to the run above.
run_cli(0 attack --anonymized "${WORK_DIR}/anon.jsonl"
        --auxiliary "${WORK_DIR}/aux.jsonl" --k 5 --learner centroid
        --index-path "/nonexistent_dir/idx.dhix"
        --out "${WORK_DIR}/pred3.csv")
if(NOT RUN_ERR MATCHES "continuing with an in-memory index")
  message(FATAL_ERROR "unwritable --index-path warning missing: "
          "${RUN_ERR}")
endif()
file(READ "${WORK_DIR}/pred3.csv" degraded_run)
if(NOT first_run STREQUAL degraded_run)
  message(FATAL_ERROR "in-memory-index run changed predictions")
endif()

# --- evaluate: the structural engine's success@5 is attack's top-5 -------
run_cli(0 evaluate --anonymized "${WORK_DIR}/anon.jsonl"
        --auxiliary "${WORK_DIR}/aux.jsonl" --truth "${WORK_DIR}/truth.csv"
        --engines structural --ks 1,5 --threads 2)
if(NOT RUN_OUT MATCHES "structural +[0-9.]+% +([0-9.]+)%")
  message(FATAL_ERROR "evaluate output missing the structural row: "
          "${RUN_OUT}")
endif()
if(NOT CMAKE_MATCH_1 STREQUAL attack_top5)
  message(FATAL_ERROR "evaluate s@5 ${CMAKE_MATCH_1}% differs from "
          "attack's top-5 success ${attack_top5}%")
endif()
run_cli(1 evaluate --anonymized "${WORK_DIR}/anon.jsonl"
        --auxiliary "${WORK_DIR}/aux.jsonl" --truth "${WORK_DIR}/truth.csv"
        --index-path "${WORK_DIR}/aux.dhix")
if(NOT RUN_ERR MATCHES "--index-path does not apply")
  message(FATAL_ERROR "evaluate --index-path error unclear: ${RUN_ERR}")
endif()

# --- crash-safe job runner: checkpoint, crash, resume, byte-compare ------
# A fault-injected crash kills the process (exit 86) after two phase-2
# shards; the re-run must resume from the durable shards and produce a CSV
# byte-identical to pred.csv (the uninterrupted run above) — even though
# the resumed run uses a different thread count.
run_cli(86 attack --anonymized "${WORK_DIR}/anon.jsonl"
        --auxiliary "${WORK_DIR}/aux.jsonl" --k 5 --learner centroid
        --threads 2 --job-dir "${WORK_DIR}/job" --shard-size 7
        --fault-spec "job.phase2:crash:3"
        --out "${WORK_DIR}/pred_job.csv")
if(EXISTS "${WORK_DIR}/pred_job.csv")
  message(FATAL_ERROR "crashed job run must not write the output CSV")
endif()
run_cli(0 attack --anonymized "${WORK_DIR}/anon.jsonl"
        --auxiliary "${WORK_DIR}/aux.jsonl" --k 5 --learner centroid
        --threads 1 --job-dir "${WORK_DIR}/job" --shard-size 7
        --out "${WORK_DIR}/pred_job.csv")
file(READ "${WORK_DIR}/pred_job.csv" resumed_run)
if(NOT first_run STREQUAL resumed_run)
  message(FATAL_ERROR "resumed job run is not byte-identical to the "
          "uninterrupted run")
endif()

# A job directory from different inputs must fail closed, not mix results.
run_cli(1 attack --anonymized "${WORK_DIR}/anon.jsonl"
        --auxiliary "${WORK_DIR}/aux.jsonl" --k 4 --learner centroid
        --job-dir "${WORK_DIR}/job")
if(NOT RUN_ERR MATCHES "different forums, config, or shard size")
  message(FATAL_ERROR "manifest mismatch error unclear: ${RUN_ERR}")
endif()
run_cli(1 attack --anonymized "${WORK_DIR}/missing.jsonl"
        --auxiliary "${WORK_DIR}/aux.jsonl")
run_cli(1 frobnicate)

message(STATUS "cli smoke test passed")
