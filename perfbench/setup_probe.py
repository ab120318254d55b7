"""Set-up cost in a fresh process: import closuretop, parse the inputs.

Usage (from the checkout root, with src on PYTHONPATH):
    python3 perfbench/setup_probe.py DIR

Parses every input file under DIR with the library's own parsers and
prints {"import_s": ..., "parse_s": ..., "ref_s": ...}, where ref_s is
the median time of the calibration reference around the timed part.
"""
import json
import os
import statistics
import sys
import time

import calibrate

REFS = 9


def main(root):
    calibrate.time_reference()  # warm
    refs = [calibrate.time_reference() for _ in range(REFS)]
    t0 = time.perf_counter()
    import closuretop
    t1 = time.perf_counter()
    parsers = {
        "m.csv": closuretop.metric_from_csv,
        "g.txt": closuretop.digraph_from_text,
        "f.csv": closuretop.sublevel_from_csv,
        "g.csv": closuretop.sublevel_from_csv,
        "s.json": closuretop.space_from_json,
        "src.json": closuretop.space_from_json,
        "tgt.json": closuretop.space_from_json,
        "f.json": json.loads,
        "g.json": json.loads,
    }
    for d, _, files in sorted(os.walk(root)):
        for name in sorted(files):
            if name in parsers:
                with open(os.path.join(d, name), "r", encoding="utf-8") as fh:
                    parsers[name](fh.read())
    t2 = time.perf_counter()
    refs += [calibrate.time_reference() for _ in range(REFS)]
    print(json.dumps({"import_s": t1 - t0, "parse_s": t2 - t1,
                      "ref_s": statistics.median(refs)}))


if __name__ == "__main__":
    main(sys.argv[1])
