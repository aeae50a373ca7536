# Drives tmcli through its whole surface; any non-zero exit fails the test.
file(MAKE_DIRECTORY ${WORKDIR})
foreach(args
    "gen-monero;--out;${WORKDIR}/data"
    "gen-synthetic;--out;${WORKDIR}/synth;--supers;10;--sigma;8"
    "stats;--data;${WORKDIR}/data"
    "select;--data;${WORKDIR}/data;--target;5;--algo;TM_P;--ell;20"
    "select;--data;${WORKDIR}/data;--target;5;--algo;TM_G;--ell;20"
    "attack;--data;${WORKDIR}/data"
    "report;--data;${WORKDIR}/data"
    "simulate;--rounds;2;--wallets;3")
  execute_process(COMMAND ${TMCLI} ${args} RESULT_VARIABLE code)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "tmcli ${args} failed with ${code}")
  endif()
endforeach()

# Exact BFS on the 633-token dataset must end in a typed failure within
# seconds (the universe cap answers InvalidArgument, the --budget wall
# clock Timeout), never run unbounded.
execute_process(
  COMMAND ${TMCLI} select --data ${WORKDIR}/data --target 5 --algo TM_B
          --ell 20 --budget 2
  RESULT_VARIABLE code
  ERROR_VARIABLE err
  TIMEOUT 30)
if(code EQUAL 0)
  message(FATAL_ERROR "tmcli select --algo TM_B succeeded on a 633-token "
                      "universe; expected a typed failure")
endif()
if(NOT err MATCHES "(Timeout|InvalidArgument)")
  message(FATAL_ERROR "tmcli select --algo TM_B: expected Timeout or "
                      "InvalidArgument, got code '${code}': ${err}")
endif()

# A (c, ℓ) pair outside DiversityRequirement::IsValid, a value that does
# not parse, a negative size and a flag without a value are refused at
# flag parsing with a typed InvalidArgument: never a TM_CHECK abort, a
# silent default, or a size_t wrapped to ~2^64.
foreach(args
    "select;--data;${WORKDIR}/data;--target;5;--c;inf"
    "simulate;--rounds;1;--wallets;2;--c;nan"
    "select;--data;${WORKDIR}/data;--target;5;--ell;abc"
    "simulate;--rounds;1;--wallets;-1"
    "stats;--data;${WORKDIR}/data;--seed")
  execute_process(COMMAND ${TMCLI} ${args}
    RESULT_VARIABLE code ERROR_VARIABLE err TIMEOUT 30)
  if(code EQUAL 0 OR NOT err MATCHES "InvalidArgument")
    message(FATAL_ERROR "tmcli ${args}: expected an InvalidArgument "
                        "failure, got code '${code}': ${err}")
  endif()
endforeach()
