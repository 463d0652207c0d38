#!/bin/sh
# usage: tools/allocseq/run.sh <log> <binary> [args…]
# Runs <binary> under the allocseq shim (built into target/ on demand) and
# writes its heap-call sequence to <log>. Diff two logs, or histogram one:
#   head -4000000 <log> | sort | uniq -c | sort -k2,2 -k3,3n
set -eu
[ $# -ge 2 ] || { sed -n '2p' "$0" >&2; exit 2; }
here=$(cd "$(dirname "$0")" && pwd)
so=$here/../../target/allocseq.so
if [ ! "$so" -nt "$here/allocseq.c" ]; then
    mkdir -p "$(dirname "$so")"
    gcc -O2 -Wall -Wextra -shared -fPIC -o "$so" "$here/allocseq.c" -lpthread
fi
log=$1
shift
ALLOCSEQ_LOG=$log LD_PRELOAD=$so exec "$@"
