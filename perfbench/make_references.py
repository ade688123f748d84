#!/usr/bin/env python3
"""Record reference fingerprints from benchmark records.

    python3 perfbench/make_references.py .bench_out/reduced-sweep-seed3-trace0.json ...

Each record's fingerprint becomes the reference for its workload and input
(``geometry_seed``) in perfbench/references.json.  An existing, different
reference is never replaced: a fingerprint that moves is a finding, not
something to re-record.  Delete the entry by hand to record it anew.
"""

import argparse
import json
import os
import sys

REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("records", nargs="+")
    args = p.parse_args(argv)
    with open(REFERENCES) as fh:
        refs = json.load(fh)
    status = 0
    for path in args.records:
        with open(path) as fh:
            rec = json.load(fh)
        fp = rec.get("fingerprint")
        ops = rec.get("ops", [])
        if fp is None or any(o["fingerprint"] != fp for o in ops):
            print(f"{path}: no fingerprint, or its ops disagree; skipped")
            status = 1
            continue
        table = refs.setdefault(rec["workload"], {})
        key = str(rec["environment"]["geometry_seed"])
        if key in table and table[key] != fp:
            print(f"{path}: differs from the recorded reference; not replaced")
            status = 1
            continue
        table[key] = fp
    with open(REFERENCES, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
