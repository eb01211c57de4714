"""Set-up of an in-process workload, run as a fresh process so that its
wall time is the set-up time: imports, default tables, unigram model build.

Usage: python3 perfbench/setup_probe.py LM.jsonl   (with src on PYTHONPATH)
"""

import sys

from ltgec import build_unigram, default_keyboard, default_table, read_samples

default_table()
default_keyboard()
with open(sys.argv[1], encoding="utf-8") as fp:
    build_unigram(read_samples(fp))
