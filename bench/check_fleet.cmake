# fleet_determinism ctest body. Runs the fleet-scale bench (abl8) in
# --smoke mode TWICE with the same explicit seed, each run dumping the
# sharded engine's metrics snapshot via --snapshot=, and requires the two
# snapshots to be byte-identical. This is the cross-PROCESS determinism
# guarantee (fresh address space, fresh thread interleavings, fresh ASLR)
# on top of the in-process same-seed check the binary already performs —
# and each run itself covers the 256-VM smoke the CI fleet job requires,
# plus the 64- and 1000-VM sweeps.
#
# A third run under a different seed must produce a DIFFERENT snapshot:
# determinism must come from the seed actually driving the schedule, not
# from the engine ignoring it.
#
# The same three runs also dump the 256-VM run's metric timeline via
# --timeline-out=: the (ts, series)-ordered point stream must be
# byte-identical for the same seed across processes and diverge across
# seeds — the timeline's determinism contract, cross-process. Finally, a
# fourth run with VPHI_TIMELINE=0 (sampler off) must dump a snapshot
# byte-identical to the sampled runs': the timeline is a pure observer,
# cross-process.
#
# Invoked as:
#   cmake -DABL8=<abl8 binary> -P check_fleet.cmake
# with the working directory set to a private scratch dir (the runs write
# BENCH_abl8_fleet_scale.json into it).

if(NOT DEFINED ABL8)
  message(FATAL_ERROR "fleet_determinism: -DABL8=<path> is required")
endif()

function(run_abl8 seed snapshot timeline)
  execute_process(COMMAND ${ABL8} --smoke --seed=${seed} --snapshot=${snapshot}
                          --timeline-out=${timeline}
                  RESULT_VARIABLE _rc
                  OUTPUT_VARIABLE _out ERROR_VARIABLE _err)
  if(NOT _rc EQUAL 0)
    message(FATAL_ERROR
            "fleet_determinism: ${ABL8} --smoke --seed=${seed} exited ${_rc}"
            "\n${_out}\n${_err}")
  endif()
  if(NOT EXISTS ${CMAKE_CURRENT_BINARY_DIR}/${snapshot})
    message(FATAL_ERROR "fleet_determinism: run did not write ${snapshot}")
  endif()
  if(NOT EXISTS ${CMAKE_CURRENT_BINARY_DIR}/${timeline})
    message(FATAL_ERROR "fleet_determinism: run did not write ${timeline}")
  endif()
endfunction()

run_abl8(1234 fleet_a.json timeline_a.json)
run_abl8(1234 fleet_b.json timeline_b.json)
run_abl8(99 fleet_c.json timeline_c.json)

file(READ ${CMAKE_CURRENT_BINARY_DIR}/fleet_a.json _a)
file(READ ${CMAKE_CURRENT_BINARY_DIR}/fleet_b.json _b)
file(READ ${CMAKE_CURRENT_BINARY_DIR}/fleet_c.json _c)

string(LENGTH "${_a}" _len)
if(_len LESS 100)
  message(FATAL_ERROR
          "fleet_determinism: snapshot suspiciously small (${_len} bytes)")
endif()
if(NOT _a STREQUAL _b)
  message(FATAL_ERROR
          "fleet_determinism: same seed, two processes, different metrics "
          "snapshots — the sharded engine leaked wall-clock state into a "
          "simulated result (diff fleet_a.json fleet_b.json in the test "
          "working directory)")
endif()
if(_a STREQUAL _c)
  message(FATAL_ERROR
          "fleet_determinism: seeds 1234 and 99 produced identical "
          "snapshots — the seed is not reaching the traffic generator")
endif()

# Timeline determinism, cross-process: byte-identical for the same seed,
# divergent across seeds.
file(READ ${CMAKE_CURRENT_BINARY_DIR}/timeline_a.json _ta)
file(READ ${CMAKE_CURRENT_BINARY_DIR}/timeline_b.json _tb)
file(READ ${CMAKE_CURRENT_BINARY_DIR}/timeline_c.json _tc)
string(LENGTH "${_ta}" _tlen)
if(_tlen LESS 100)
  message(FATAL_ERROR
          "fleet_determinism: timeline suspiciously small (${_tlen} bytes)")
endif()
if(NOT _ta STREQUAL _tb)
  message(FATAL_ERROR
          "fleet_determinism: same seed, two processes, different metric "
          "timelines — the sampler leaked wall-clock state into the point "
          "stream (diff timeline_a.json timeline_b.json)")
endif()
if(_ta STREQUAL _tc)
  message(FATAL_ERROR
          "fleet_determinism: seeds 1234 and 99 produced identical "
          "timelines — the seed is not reaching the sampled series")
endif()

# Pure observer, cross-process: the sampler off (VPHI_TIMELINE=0) must
# reproduce the sampled runs' snapshot byte-for-byte.
execute_process(COMMAND ${CMAKE_COMMAND} -E env VPHI_TIMELINE=0
                        ${ABL8} --smoke --seed=1234 --snapshot=fleet_d.json
                RESULT_VARIABLE _rc
                OUTPUT_VARIABLE _out ERROR_VARIABLE _err)
if(NOT _rc EQUAL 0)
  message(FATAL_ERROR
          "fleet_determinism: VPHI_TIMELINE=0 run exited ${_rc}"
          "\n${_out}\n${_err}")
endif()
file(READ ${CMAKE_CURRENT_BINARY_DIR}/fleet_d.json _d)
if(NOT _a STREQUAL _d)
  message(FATAL_ERROR
          "fleet_determinism: disabling the timeline sampler changed the "
          "metrics snapshot — the timeline is not a pure observer (diff "
          "fleet_a.json fleet_d.json)")
endif()

message(STATUS
        "fleet_determinism OK: same-seed snapshots byte-identical "
        "(${_len} bytes), timelines byte-identical (${_tlen} bytes), "
        "different seed diverges, sampler on/off snapshots identical")
