#!/usr/bin/env python3
"""Write ``expected_outputs.json``: the seed-corpus behaviour of every
benchmark program, from an uninstrumented -O0 build.

The benchmark's correctness gate checks every workload's final
instrumented executables against this file.  Regenerate it only when a
program or its seed corpus changes on purpose:

    python3 perfbench/make_expected.py
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from repro.programs.registry import get_program  # noqa: E402
from repro.toolchain import build_module  # noqa: E402
from workloads import EXPECTED_PATH, WORKLOADS, behaviour, run_input  # noqa: E402


def main() -> None:
    programs = sorted({name for w in WORKLOADS.values() for name in w.programs})
    expected = {}
    for name in programs:
        program = get_program(name)
        executable = build_module(program.compile(), opt_level=0).executable
        cases = []
        for data in program.seeds():
            exit_code, stdout, trap = behaviour(run_input(executable, data))
            cases.append({"input": data.hex(), "exit_code": exit_code,
                          "stdout": stdout, "trap": trap})
        expected[name] = cases
    with open(EXPECTED_PATH, "w") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
