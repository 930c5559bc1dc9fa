#!/usr/bin/env bash
# Same outputs as a parent commit: byte-identical artifacts and a correct bench.
#
#     tools/same_outputs.sh PARENT
#
# Runs tools/artifact_digests.py --seed 1 and --seed 7 in a `git archive
# PARENT` copy and in the working tree and diffs their lines, then runs the
# seed-1 `perfbench/run.py --seconds 0 --trace 0` of each workload in the
# working tree and prints its `correct`, failed/attempted and failed
# operations, then runs the bench self-test (perfbench/tests/bench_selftest.py,
# about 11 s) in the working tree.  Last it prints the line count of each
# src/nilseqlab/*.py file and of all of them at PARENT and in the working
# tree, for information only.  Exits 1 on any diff, on `correct: false` or on
# a failing self-test, 2 on a bad call.
set -euo pipefail

if [ $# -ne 1 ]; then
    echo "usage: tools/same_outputs.sh PARENT" >&2
    exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/parent"
git -C "$root" archive "$1" | tar -x -C "$tmp/parent"

status=0
for seed in 1 7; do
    python3 "$tmp/parent/tools/artifact_digests.py" --seed "$seed" > "$tmp/parent-$seed.txt"
    python3 "$root/tools/artifact_digests.py" --seed "$seed" > "$tmp/tree-$seed.txt"
    if diff "$tmp/parent-$seed.txt" "$tmp/tree-$seed.txt"; then
        echo "digests, seed $seed: $(wc -l < "$tmp/tree-$seed.txt") lines, identical"
    else
        echo "digests, seed $seed: DIFFERENT"
        status=1
    fi
done

for workload in correlate structure campaign; do
    (cd "$root" && python3 perfbench/run.py --workload "$workload" --seed 1 \
        --seconds 0 --trace 0) > "$tmp/bench-$workload.txt"
    python3 - "$workload" "$tmp/bench-$workload.txt" <<'EOF' || status=1
import json
import sys

workload, path = sys.argv[1:]
lines = open(path).read().splitlines()
result = json.loads(lines[-1])
print(f"bench {workload}: correct: {json.dumps(result['correct'])}, "
      f"failed/attempted {result['failed']}/{result['attempted']}")
for line in lines:
    if line.startswith("FAILED "):
        print(f"  {line}")
sys.exit(0 if result["correct"] else 1)
EOF
done

if (cd "$root" && python3 -m pytest -q perfbench/tests/bench_selftest.py) \
        > "$tmp/selftest.txt" 2>&1; then
    echo "bench self-test: $(tail -n 1 "$tmp/selftest.txt")"
else
    echo "bench self-test: FAILED"
    grep -E "^(FAILED|ERROR) |(passed|failed|error)" "$tmp/selftest.txt" \
        | sed 's/^/  /' || true
    status=1
fi

lines() { if [ -f "$1" ]; then wc -l < "$1"; else echo -; fi; }
row() { printf '  %-32s %5s -> %5s\n' "$@"; }
echo "src/ lines, $1 -> working tree:"
(cd "$tmp/parent" && ls src/nilseqlab/*.py; cd "$root" && ls src/nilseqlab/*.py) \
    | sort -u | while read -r file; do
    row "$file" "$(lines "$tmp/parent/$file")" "$(lines "$root/$file")"
done
row total "$(cat "$tmp"/parent/src/nilseqlab/*.py | wc -l)" \
    "$(cat "$root"/src/nilseqlab/*.py | wc -l)"
exit $status
