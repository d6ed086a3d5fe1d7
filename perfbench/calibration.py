"""Fixed work that measures how fast this machine runs now.

On a shared machine the same projection takes from 3.4 to 6.3 s within a
few minutes, because other tenants contend for the cores and caches; the
CPU time of the process tracks its wall time, so the slowdown is the
machine, not waiting.  The calibration slows down with it: timed right
before and after a projection, it tracks the projection's wall time.
``run.py`` divides each wall time by the calibration's and multiplies by
``REF_S``, which expresses it in reference seconds (see README.md) and
removes much of that drift.

One calibration runs two loops, one for each kind of work the workloads do:

- ``rational_loop``: small rational numbers as (numerator, denominator)
  pairs of Python ints, added and multiplied with a gcd after each step, over
  a table of a few MB visited out of order, like polyproj's exact arithmetic;
- ``float_lp_loop``: the same 50 small LPs solved with
  ``scipy.optimize.linprog`` (HiGHS), like polyproj's float probes.

Neither uses polyproj or ``fractions``, so no change to the program can
change the calibration.  Each loop checks its own result.
"""

import math
import time
from math import gcd

#: wall time of one calibration, in reference seconds: the unit of project_s
#: and setup_s.  About what one calibration took on the machine of README.md.
REF_S = 0.5

#: entries in the rational loop's table: about 3.5 MB of tuples and ints,
#: more than a core's own cache
TABLE = 1 << 15
PASSES = 10
RATIONAL_CHECKSUM = 68744864115790

LP_ROWS, LP_COLS, LP_COUNT = 150, 20, 50
#: the sum of the 50 optimal values
LP_CHECKSUM = -1548.177220796513


def _add(a, b):
    n = a[0] * b[1] + b[0] * a[1]
    d = a[1] * b[1]
    g = gcd(n, d)
    return (n // g, d // g)


def _mul(a, b):
    n = a[0] * b[0]
    d = a[1] * b[1]
    g = gcd(n, d)
    return (n // g, d // g)


def _lcg(x: int) -> int:
    return (x * 1103515245 + 12345) & 0x7FFFFFFF


def rational_loop() -> int:
    """The fixed rational work; returns a checksum so that none is skipped."""
    x = 12345
    table = []
    for _ in range(TABLE):
        x = _lcg(x)
        table.append((x % 101 - 50, x % 59 + 1))
    # an odd stride visits every entry once, scattered over the table
    order = [(i * 40503) % TABLE for i in range(TABLE)]
    for p in range(PASSES):
        pivot = (p % 11 + 1, p % 7 + 2)
        for k in range(0, TABLE, 2):
            i, j = order[k], order[k + 1]
            a = _add(table[i], _mul(pivot, table[j]))
            table[i] = (a[0] % 1000003, a[1] % 1000003 or 1)
    return sum(n * (k + 1) for k, (n, _) in enumerate(table))


def float_lp_loop() -> float:
    """Solve the same 50 bounded LPs with HiGHS; returns their optimal values' sum."""
    import numpy as np
    from scipy.optimize import linprog

    x = 54321
    numbers = []
    for _ in range((LP_ROWS + LP_COUNT) * LP_COLS):
        x = _lcg(x)
        numbers.append(x % 11 - 5)
    a_ub = np.array(numbers[:LP_ROWS * LP_COLS], dtype=float).reshape(LP_ROWS, LP_COLS)
    costs = np.array(numbers[LP_ROWS * LP_COLS:], dtype=float).reshape(LP_COUNT, LP_COLS)
    b_ub = np.full(LP_ROWS, 10.0)
    total = 0.0
    for c in costs:
        res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=(-20, 20), method="highs")
        if res.status != 0:
            raise RuntimeError("calibration LP failed: %s" % res.message)
        total += res.fun
    return total


def prepare() -> None:
    """Import what the loops use, so that no calibration times an import."""
    import numpy  # noqa: F401
    import scipy.optimize  # noqa: F401


def loop_seconds() -> float:
    """Wall time of one calibration now."""
    start = time.perf_counter()
    rational = rational_loop()
    lp = float_lp_loop()
    elapsed = time.perf_counter() - start
    if rational != RATIONAL_CHECKSUM:
        raise RuntimeError("rational loop gave %d, not %d" % (rational, RATIONAL_CHECKSUM))
    if not math.isclose(lp, LP_CHECKSUM, rel_tol=1e-7):
        raise RuntimeError("float LP loop gave %r, not %r" % (lp, LP_CHECKSUM))
    return elapsed
