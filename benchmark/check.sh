#!/usr/bin/env bash
# Build the benchmark, run it in smoke mode (every workload at reduced
# size, 3 ops, traced pass included) and self-test `compare`.
#
# Run from anywhere inside a full checkout. Not wired into
# .github/workflows/ci.yml yet: that file is outside this directory and
# the change that defines the benchmark touches nothing else.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release --offline --quiet
# The unit tests include the drift check of ../BENCHMARK.json against the
# workloads and metrics the program has.
cargo test --release --offline --quiet
target_dir="${CARGO_TARGET_DIR:-target}"
bin="$target_dir/release/spgemm-benchmark"

out="results/check"
mkdir -p results
rm -rf "$out"
start=$(date +%s)
"$bin" run --smoke --out "$out" > "$out.log" || { cat "$out.log"; echo "smoke run failed"; exit 1; }
took=$(( $(date +%s) - start ))
echo "smoke run: ${took}s (limit 25s)"
[ "$took" -le 25 ] || { echo "smoke run took too long"; exit 1; }
for w in protein-sq-compute social-sq-comm kmer-aat-membound mcl-session spmm-15d serve-mixed control-plane; do
    [ -s "$out/trace-$w.json" ] || { echo "no trace file for $w"; exit 1; }
done

# compare: identical files pass; +30 % wall_s (bound 25 %) fails; +1 byte
# modeled_bytes fails; a result measured for other `seconds` is refused.
doctor() { # doctor <metric or top-level key> <python expression of v> <output file>
    python3 - "$out/result.json" "$1" "$2" "$3" <<'EOF'
import json, sys
src, key, expr, dst = sys.argv[1:]
doc = json.load(open(src))
if key in doc:
    doc[key] = eval(expr, {"v": doc[key]})
else:
    m = doc["workloads"]["social-sq-comm"]["end_to_end"][key]
    m["value"] = eval(expr, {"v": m["value"]})
json.dump(doc, open(dst, "w"))
EOF
}
"$bin" compare "$out/result.json" "$out/result.json" > /dev/null \
    || { echo "compare rejected identical files"; exit 1; }
doctor wall_s "v * 1.3" "$out/slow.json"
if "$bin" compare "$out/result.json" "$out/slow.json" > /dev/null; then
    echo "compare accepted a 30 % slower wall_s"; exit 1
fi
doctor modeled_bytes "v + 1" "$out/onebyte.json"
if "$bin" compare "$out/result.json" "$out/onebyte.json" > /dev/null; then
    echo "compare accepted one more modeled byte"; exit 1
fi
doctor seconds "v * 2" "$out/longer.json"
if "$bin" compare "$out/result.json" "$out/longer.json" > /dev/null 2>&1; then
    echo "compare accepted results measured for different seconds"; exit 1
fi
echo "benchmark check passed"
