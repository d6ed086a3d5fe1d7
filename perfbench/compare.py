"""Compare two run records that run.py wrote under perfbench/out/.

    python3 perfbench/compare.py OLD.json NEW.json

Prints each metric of both records and the relative change.  Refuses, with
exit code 2, to compare records of different workloads or trace modes, or
records measured with different scalar backends (gmpy2 against Fraction):
exact arithmetic costs differ too much between them for a comparison to say
anything about the code.
"""

import json
import sys

MUST_MATCH = ("workload", "trace", "mpq", "calibration_ref_s")


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    old, new = (json.loads(open(path, encoding="utf-8").read()) for path in argv)
    for key in MUST_MATCH:
        if old["machine"].get(key) != new["machine"].get(key):
            print("refusing to compare: %s is %r in one record and %r in the other"
                  % (key, old["machine"].get(key), new["machine"].get(key)),
                  file=sys.stderr)
            return 2
    a, b = old["result"]["metrics"], new["result"]["metrics"]
    for name in sorted(set(a) | set(b)):
        va = a.get(name, {}).get("value")
        vb = b.get(name, {}).get("value")
        unit = (a.get(name) or b.get(name))["unit"]
        change = ("%+.1f%%" % (100 * (vb / va - 1))
                  if isinstance(va, (int, float)) and isinstance(vb, (int, float)) and va
                  else "")
        print("%-40s %14s %14s %-6s %s" % (name, va, vb, unit, change))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
