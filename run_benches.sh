#!/bin/bash
# Runs the paper-table bench binaries, logging to bench_logs/<name>.log.
# Needs a build in <repo>/build (cmake -B build -S . && cmake --build build).
# Performance is measured by perfbench instead (see perfbench/README.md).
#
# Usage:
#   ./run_benches.sh            # the main paper-table suite
#   ./run_benches.sh wave2      # companion benches added after the main suite
#   ./run_benches.sh all        # both of the above
#   ./run_benches.sh NAME...    # any explicit list of bench binaries

set -u
ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$ROOT/build/bench" || exit 1
mkdir -p "$ROOT/bench_logs"

MAIN="bench_table1_datasets bench_table2_overall bench_fig3_ablation \
      bench_table4_slide_modes bench_fig6_noise bench_fig4_alpha \
      bench_table3_sfs bench_table5_depth bench_fig5_seqlen_hidden \
      bench_fig7_filters bench_complexity"
WAVE2="bench_table4_slide_modes bench_ablation_mixing bench_sampled_metrics"

case "${1:-main}" in
  main)  BENCHES="$MAIN" ;;
  wave2) BENCHES="$WAVE2" ;;
  all)   BENCHES="$MAIN $WAVE2" ;;
  *)     BENCHES="$*" ;;
esac

FAILED=0
for b in $BENCHES; do
  echo "=== $b start $(date +%H:%M:%S) ==="
  ./$b > "$ROOT/bench_logs/$b.log" 2>&1
  rc=$?
  echo "=== $b done  $(date +%H:%M:%S) rc=$rc ==="
  if [ $rc -ne 0 ]; then FAILED=1; fi
done
exit $FAILED
