"""Set one workload up in this fresh interpreter, print "ready" and exit.
run.py times this process from its start to the "ready" line as one
sample of ``setup_s``.

    python3 coxbench/setup_once.py WORKLOAD SEED
"""

import os
import shutil
import sys

from common import WORK
from run import setup


def main(name, seed):
    work_dir = WORK / str(os.getpid())
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        setup(name, int(seed), work_dir)
        print("ready", flush=True)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
