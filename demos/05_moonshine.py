"""The M24 moonshine arithmetic on the coefficients of H(tau).

The first five coefficients are themselves dimensions of irreducible
representations of the Mathieu group M24; the next two are small sums
of dimensions.  The search machinery is exact and deterministic:
subset witnesses come from a meet-in-the-middle scan, counts from a
bounded-multiplicity dynamic program.
"""

from qmock import M24_DIMENSIONS, a_coefficients, decompose_bounded, decompose_distinct
from qmock.moonshine import report_json_obj
from qmock.verify import check_moonshine

a = a_coefficients(8)
print("A_n:", a)

for n in range(1, 6):
    print(f"A_{n} = {a[n]}  in dimension list: {a[n] in M24_DIMENSIONS}")

for n in (6, 7):
    w = decompose_distinct(a[n])
    print(f"A_{n} = {a[n]} =", " + ".join(map(str, w.dims())))

# The degenerate cases behave sensibly: nothing sums to 2, and the
# Leech-like 24 = 1 + 23 is found by the bounded search.
print("decompose 2:", decompose_distinct(2))
count, witnesses = decompose_bounded(24, 1)
print("24 with multiplicities <= 1:", count, "way(s);",
      "+".join(map(str, witnesses[0].dims())))

# A_8 exceeds the sum of all 26 distinct dimensions, so repeats are
# forced; counts explode quickly but stay exact.
count, _ = decompose_bounded(a[8], 1, max_witnesses=0)
print(f"A_8 = {a[8]} as a subset sum: {count} ways (sum of all dims is",
      f"{sum(M24_DIMENSIONS)})")
count, _ = decompose_bounded(a[8], 2, max_witnesses=0)
print(f"A_8 with multiplicities <= 2: {count} ways")

# The consolidated report used by the command line.
print(report_json_obj(a[6], distinct=True, cap=1, max_witnesses=1))

# The same check `qmock verify --suite moonshine` runs.
print(check_moonshine())
