#!/usr/bin/env sh
# Regenerate every paper figure and table: run each bench binary once,
# in turn, and write BENCH_figures.json with its wall time and shape
# checks passed/total. The total wall time is the "figure clock", the
# end-to-end cost of reproducing the paper.
#
# Usage: bench/run_figures.sh [build-dir] [out-json]
#
# Exits 1 if any bench exits non-zero, prints no "shape checks: N/M
# passed" line, or fails a check. VANS_THREADS passes through to the
# benches (unset: the default worker count; 1: the serial reference).
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build"}
out=${2:-"$repo_root/BENCH_figures.json"}

if [ ! -x "$build_dir/bench/bench_fig05_buffer_prober" ]; then
    echo "error: no bench binaries under $build_dir/bench." >&2
    echo "Build them first:  cmake -B build -S . && cmake --build build -j" >&2
    exit 1
fi

exec python3 - "$build_dir/bench" "$out" <<'EOF'
import json, os, re, subprocess, sys, time

bench_dir, out = sys.argv[1], sys.argv[2]
names = sorted(n for n in os.listdir(bench_dir)
               if n.startswith("bench_") and n != "bench_simperf"
               and os.access(os.path.join(bench_dir, n), os.X_OK))
shape = re.compile(r"^shape checks: (\d+)/(\d+) passed$", re.M)

rows, ok = [], True
for name in names:
    t0 = time.monotonic()
    proc = subprocess.run([os.path.join(bench_dir, name)],
                          stdout=subprocess.PIPE, text=True)
    wall = time.monotonic() - t0
    m = shape.search(proc.stdout)
    passed, total = (int(m.group(1)), int(m.group(2))) if m else (0, 0)
    good = proc.returncode == 0 and m is not None and passed == total
    ok = ok and good
    rows.append({"name": name, "wall_s": round(wall, 3),
                 "exit_code": proc.returncode,
                 "checks_passed": passed, "checks_total": total})
    print(f"{name:34s} {wall:7.2f} s  {passed}/{total}"
          f"{'' if good else '  FAIL'}", flush=True)

report = {
    "vans_threads": os.environ.get("VANS_THREADS"),
    "total_wall_s": round(sum(r["wall_s"] for r in rows), 3),
    "checks_passed": sum(r["checks_passed"] for r in rows),
    "checks_total": sum(r["checks_total"] for r in rows),
    "benches": rows,
}
with open(out, "w") as f:
    json.dump(report, f, indent=2)
    f.write("\n")
print(f"figure clock: {report['total_wall_s']:.1f} s, shape checks "
      f"{report['checks_passed']}/{report['checks_total']}; wrote {out}")
sys.exit(0 if ok else 1)
EOF
