#!/bin/bash
set -x
cd /root/repo
cargo build --release --workspace --bins -q 2>&1 | tail -3
B=target/release
$B/table1_triad --elems=16777216 --reps=10      > results/table1_triad.txt 2>&1
$B/fig5_seq_vs_par                              > results/fig5.txt 2>&1
$B/forward_progress                             > results/forward_progress.txt 2>&1
$B/fig8_breakdown --n=100000 --steps=2          > results/fig8.txt 2>&1
$B/fig9_backends --min-log2=12 --max-log2=17 --steps=2 > results/fig9.txt 2>&1
$B/validation --n=50000 --steps=24              > results/validation.txt 2>&1
$B/fig6_small --n=30000 --steps=2               > results/fig6.txt 2>&1
$B/fig7_mid --n=1000000 --steps=1               > results/fig7.txt 2>&1
$B/theta_sweep --n=20000                        > results/theta_sweep.txt 2>&1
$B/blocked_sweep --n=100000 --json=BENCH_blocked.json --metrics=BENCH_metrics.json > results/blocked_sweep.txt 2>&1
$B/metrics_check BENCH_metrics.json                  > results/metrics_check.txt 2>&1
$B/blocked_sweep --n=100000 --theta=0.5 --kernel=scalar,simd,simd-mixed --json=BENCH_simd.json > results/simd_sweep.txt 2>&1
$B/blocked_sweep --n=100000 --lifecycle=rebuild,incremental:1,incremental:3 --steps=16 --json=BENCH_incremental.json > results/lifecycle_sweep.txt 2>&1
$B/guard_soak --n=10000 --json=BENCH_guard.json > results/guard_soak.txt 2>&1
$B/service_soak --sessions=256 --n=1000 --json=BENCH_service.json > results/service_soak.txt 2>&1
$B/tree_reuse --n=50000 --steps=16              > results/tree_reuse.txt 2>&1
$B/curve_compare --n=100000                     > results/curve_compare.txt 2>&1
echo ALL_DONE
