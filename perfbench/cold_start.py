"""Set-up probe run in a fresh interpreter: import, load_config, build_problem.

Usage: python3 perfbench/cold_start.py CONFIG.json   (with src on PYTHONPATH)

Prints one JSON object with the seconds each step took.  The caller times
the whole process from spawn to exit as the set-up time.
"""

import json
import sys
from time import perf_counter


def main(config_path: str) -> None:
    t0 = perf_counter()
    import biphoton
    from biphoton import cli

    t1 = perf_counter()
    cfg = cli.load_config(config_path)
    t2 = perf_counter()
    cli.build_problem(cfg)
    t3 = perf_counter()
    print(json.dumps({
        "biphoton_file": biphoton.__file__,
        "import_s": t1 - t0,
        "load_config_s": t2 - t1,
        "build_problem_s": t3 - t2,
    }))


if __name__ == "__main__":
    main(sys.argv[1])
