#!/bin/sh
# Regenerate every paper table/figure; outputs land in results/.
#
# Usage: run_benches.sh [--jobs N]
#   --jobs N   worker threads for the experiment engine (exported as
#              HS_JOBS; default: engine picks all hardware threads)
#
# Every harness shares one result store (HS_STORE), so a cell an earlier
# harness already ran is read back instead of simulated again. Unless
# the caller sets HS_STORE, it is a fresh temporary store removed on
# exit.
cd "$(dirname "$0")"

while [ $# -gt 0 ]; do
    case "$1" in
        --jobs)
            [ $# -ge 2 ] || { echo "--jobs needs a value" >&2; exit 2; }
            case "$2" in
                ''|*[!0-9]*|0)
                    echo "--jobs must be a positive integer" >&2
                    exit 2
                    ;;
            esac
            HS_JOBS="$2"
            export HS_JOBS
            shift 2
            ;;
        *)
            echo "usage: $0 [--jobs N]" >&2
            exit 2
            ;;
    esac
done

if [ -z "${HS_STORE:-}" ]; then
    HS_STORE=$(mktemp -d) || exit 1
    trap 'rm -rf "$HS_STORE"' EXIT
    trap 'exit 1' HUP INT TERM
fi
export HS_STORE

mkdir -p results
for b in bench_calibration bench_fig3_access_rates bench_fig4_emergencies \
         bench_fig5_ipc bench_fig6_time_breakdown bench_sens_thresholds \
         bench_sens_heatsink bench_spec_pairs bench_dtm_policies \
         bench_workloads bench_smt_contexts bench_tech_scaling \
         bench_multicore; do
    echo "=== $b ==="
    ./build/bench/$b 2>&1 | tee results/$b.txt | tail -2
done
echo ALL_BENCHES_DONE
