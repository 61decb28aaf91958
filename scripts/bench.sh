#!/usr/bin/env bash
# Run the perf micro-benchmark suite and write BENCH_results.json at the repo
# root, so subsequent PRs can diff the numbers.  Workload generation is
# profile-seeded (fixed seeds); pass --quick for a fast smoke run.
#
# --smoke (CI mode) runs the minimal matrix into a temp directory and asserts
# the harness still produces a structurally valid BENCH_results.json — no
# timing-sensitive assertions, and the tracked results file is not touched.
# The smoke run also exercises the parallel experiment executor (the harness
# re-runs the figure-8 diff phase and the fig6/7 matrix at jobs=2,
# storeless, and asserts row-identity and that every cell was scored), the
# per-workload fig8 units over REPRO_STORE_DIR (fig8_workload_units:
# serial vs jobs=2 vs warm-store row identity, warm runs revive every unit
# and execute none, and the fig8 store tree must hold
# objects/<generation>/shard), no store tree under REPRO_STORE_DIR may hold
# a variant directory (a run stores unit rows only, never a built variant),
# and the deep static-analysis subsystem
# (verify_overhead section, schema 7: the fig6 variant set must verify
# error-free at the full tier, cold vs AnalysisManager-warm timings vs the
# uncached build phase).
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}

if [[ "${1:-}" == "--smoke" ]]; then
  shift
  tmpdir="$(mktemp -d)"
  trap 'rm -rf "$tmpdir"' EXIT
  out="$tmpdir/BENCH_results.json"
  export REPRO_STORE_DIR="$tmpdir/store"
  mkdir -p "$REPRO_STORE_DIR"
  python benchmarks/perf/run_bench.py --smoke --out "$out" "$@"
  if [[ ! -s "$out" ]]; then
    echo "smoke: $out was not produced" >&2
    exit 1
  fi
  generation="$(python -c 'from repro.store import code_fingerprint; print(code_fingerprint())')"
  fig8_tree=("$REPRO_STORE_DIR"/fig8-units-*)
  if [[ ! -d "${fig8_tree[0]}/objects/$generation/shard" ]]; then
    echo "smoke: fig8 unit store tree (objects/$generation/shard) was not produced" >&2
    exit 1
  fi
  variant_dirs="$(find "$REPRO_STORE_DIR" -type d -name variant)"
  if [[ -n "$variant_dirs" ]]; then
    echo "smoke: a store-backed run stored variants: $variant_dirs" >&2
    exit 1
  fi
  echo "smoke: benchmark harness produced BENCH_results.json"
  echo "smoke: fig8 unit round trip verified (objects/$generation/shard persisted, serial == jobs=2 == warm)"
  echo "smoke: no store tree holds a variant directory"
  exit 0
fi

exec python benchmarks/perf/run_bench.py "$@"
