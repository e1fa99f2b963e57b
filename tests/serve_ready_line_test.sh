#!/bin/sh
# goggles_serve's stderr ready line must stay valid JSON when the
# artifact directory's name contains '"' and '\': both must come out
# JSON-escaped. It must also report the default three-stage shape
# (decode, extract, infer threads). Starts the gateway on empty stdin,
# so it exits right after printing the line.
#
# Usage: serve_ready_line_test.sh GOGGLES_SERVE SCRATCH_DIR
set -eu
dir=$2/'quote"back\slash'
mkdir -p "$dir"
status=0
"$1" --artifact-dir "$dir" </dev/null 2>"$2/stderr.txt" || status=$?
cat "$2/stderr.txt"
[ "$status" -eq 0 ]
grep -qF 'quote\"back\\slash","pipeline_threads"' "$2/stderr.txt"
grep -qF '"pipeline_threads":[1,2,1]' "$2/stderr.txt"
