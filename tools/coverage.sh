#!/usr/bin/env bash
# Line coverage of src/ by the test suite.
#
# Builds a Debug tree instrumented with --coverage (default build-coverage/,
# or the directory given as the first argument), runs the suite through
# ctest, then asks gcov for each object's line counts and prints the
# per-file and total coverage of the .cc files under src/. Header lines
# are left out: they are compiled into many objects, each with its own
# counts. Exits non-zero if the build, a test or gcov fails.
#
#   tools/coverage.sh [BUILD_DIR]
#
# JOBS (default: the CPU count) sets build and ctest parallelism.

set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
build=$(realpath -m "${1:-$root/build-coverage}")
jobs=${JOBS:-$(nproc)}

cmake -S "$root" -B "$build" -DCMAKE_BUILD_TYPE=Debug \
  -DTOPKMON_BUILD_BENCH=OFF -DTOPKMON_BUILD_EXAMPLES=OFF \
  -DCMAKE_CXX_FLAGS=--coverage -DCMAKE_EXE_LINKER_FLAGS=--coverage \
  > /dev/null
cmake --build "$build" -j "$jobs" --target topkmon_tests
# Counts accumulate across runs; start from zero.
find "$build" -name '*.gcda' -delete
ctest --test-dir "$build" --output-on-failure -j "$jobs"

# gcov -n prints, per source file an object touches,
#   File '<path>'
#   Lines executed:<pct>% of <n>
# and writes no .gcov files. Each src/ .cc is compiled into one object;
# an object whose code never ran has no .gcda and reads as 0%.
find "$build/CMakeFiles" -path '*/src/*' -name '*.cc.gcno' -print0 |
  xargs -0 -r gcov -n 2> /dev/null |
  awk -v src="$root/src/" '
    /^File / {
      file = substr($2, 2, length($2) - 2)
      keep = index(file, src) == 1 && file ~ /\.cc$/
      next
    }
    /^Lines executed:/ && keep {
      split($2, a, ":")
      pct = a[2] + 0
      n = $4 + 0
      hit = int(pct * n / 100 + 0.5)
      name = substr(file, length(src) + 1)
      if (!(name in lines)) order[++count] = name
      lines[name] = n
      hits[name] = hit
      keep = 0
    }
    END {
      if (count == 0) {
        print "coverage.sh: gcov reported no src/ files" > "/dev/stderr"
        exit 1
      }
      total = 0
      covered = 0
      for (i = 1; i <= count; ++i) {
        name = order[i]
        printf "%6.1f%%  %5d/%-5d  src/%s\n", 100 * hits[name] / lines[name],
               hits[name], lines[name], name | "sort -b -k3"
        total += lines[name]
        covered += hits[name]
      }
      close("sort -b -k3")
      printf "%6.1f%%  %5d/%-5d  total (src/*.cc)\n", 100 * covered / total,
             covered, total
    }'
