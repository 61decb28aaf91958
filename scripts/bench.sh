#!/usr/bin/env bash
# Run the perf micro-benchmark suite and write BENCH_results.json at the repo
# root, so subsequent PRs can diff the numbers.  Workload generation is
# profile-seeded (fixed seeds); pass --quick for a fast smoke run.
#
# --smoke (CI mode) runs the minimal matrix into a temp directory and asserts
# the harness still produces a structurally valid BENCH_results.json — no
# timing-sensitive assertions, and the tracked results file is not touched.
# The smoke run also exercises the parallel experiment executor (the harness
# re-runs the figure-8 diff phase at jobs=2 and asserts row-identity), the
# legacy disk-persisted variant cache (REPRO_VARIANT_CACHE_DIR round trip),
# the shared artifact store (REPRO_STORE_DIR: the fig67_sharded section
# must leave a store tree with an objects/ dir and a generation.json
# manifest, warm attaches must rebuild zero variants) and the
# function-granularity diff sharding (fig8_function_sharded: serial vs
# jobs=2 vs warm-store row identity, warm runs adopt every per-function
# diff payload and rebuild zero FeatureIndex payloads, and the fig8 store
# tree must hold objects/diff), and the deep static-analysis subsystem
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
  export REPRO_VARIANT_CACHE_DIR="$tmpdir/variant-cache"
  export REPRO_STORE_DIR="$tmpdir/store"
  mkdir -p "$REPRO_VARIANT_CACHE_DIR" "$REPRO_STORE_DIR"
  python benchmarks/perf/run_bench.py --smoke --out "$out" "$@"
  if [[ ! -s "$out" ]]; then
    echo "smoke: $out was not produced" >&2
    exit 1
  fi
  if [[ ! -s "$REPRO_VARIANT_CACHE_DIR/variants.pkl" ]]; then
    echo "smoke: variant cache was not persisted to disk" >&2
    exit 1
  fi
  store_tree=("$REPRO_STORE_DIR"/fig67-*)
  if [[ ! -d "${store_tree[0]}/objects" || ! -s "${store_tree[0]}/generation.json" ]]; then
    echo "smoke: artifact store tree (objects/ + generation.json) was not produced" >&2
    exit 1
  fi
  fig8_tree=("$REPRO_STORE_DIR"/fig8-*)
  if [[ ! -d "${fig8_tree[0]}/objects/diff" || ! -s "${fig8_tree[0]}/generation.json" ]]; then
    echo "smoke: fig8 function-sharded store tree (objects/diff + generation.json) was not produced" >&2
    exit 1
  fi
  echo "smoke: benchmark harness produced BENCH_results.json"
  echo "smoke: variant cache persisted and round-tripped"
  echo "smoke: artifact store tree persisted (objects/ + generation.json)"
  echo "smoke: fig8 function-sharded round trip verified (objects/diff persisted, serial == jobs=2 == warm)"
  exit 0
fi

exec python benchmarks/perf/run_bench.py "$@"
