"""Time one cold set-up of lopcsim in a fresh interpreter.

Run by run.py, several times per run:

    python3 perfbench/setup_probe.py ROOT WORKLOAD OUT_FILE

Set-up is importing lopcsim, parsing and validating the four shipped
circuits and running the workload's warm-up ops.  Prints the set-up wall
time in seconds.
"""

import sys
from pathlib import Path
from time import perf_counter

import workloads


def main(argv: list[str]) -> int:
    root, workload, out_file = Path(argv[0]), argv[1], Path(argv[2])
    sys.path.insert(0, str(root / "src"))
    circuits = root / "src" / "lopcsim" / "circuits"
    start = perf_counter()
    runner = workloads.Runner(out_file)
    runner.load_circuits(circuits)
    for op in workloads.warm_up_ops(workload, circuits):
        runner.execute(op)
    print(perf_counter() - start)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
