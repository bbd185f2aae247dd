#!/usr/bin/env bash
# Doc link/path checker: every repo-relative file path mentioned in the
# public docs must exist, so the manual cannot drift ahead of (or behind)
# the tree again.  Scans README.md, DESIGN.md, EXPERIMENTS.md and docs/*.md
# for tokens that look like paths into the source tree and fails listing
# the dangling ones.  Two forms are checked: paths rooted at a top-level
# directory (`src/core/ext_psrs.h`) and module-relative paths under src/
# (`core/ext_psrs.h`, resolved as src/core/ext_psrs.h) that no other path
# character precedes.  Run from the repository root; CI runs it on every
# build.
#
# Deliberately skipped: build/... (binaries exist only after a build) and
# bench_results/... (generated artifacts).
set -u

cd "$(dirname "$0")/.."

docs=(README.md DESIGN.md EXPERIMENTS.md docs/*.md)

status=0
checked=0
for doc in "${docs[@]}"; do
  [ -f "$doc" ] || continue
  # Path-looking tokens rooted in a real source directory.  Trailing
  # punctuation from surrounding prose is stripped by the regex itself
  # (the token must end in a known file extension).
  while IFS= read -r path; do
    checked=$((checked + 1))
    if [ ! -e "$path" ]; then
      echo "MISSING: $path (referenced in $doc)" >&2
      status=1
    fi
  done < <({
    grep -oE '\b(src|docs|tools|tests|bench|examples)/[A-Za-z0-9_./-]+\.(h|hpp|cpp|md|sh|py|json|yml|txt)\b' "$doc"
    grep -oP '(?<![A-Za-z0-9_./-])(core|seq|net|pdm|hetero|obs|base|fault|metrics|workload|service)/[A-Za-z0-9_./-]+\.(h|cpp)\b' "$doc" |
      sed 's|^|src/|'
  } | sort -u)
done

if [ "$checked" -eq 0 ]; then
  echo "check_doc_paths: no path references found — pattern broken?" >&2
  exit 1
fi

if [ "$status" -ne 0 ]; then
  echo "check_doc_paths: dangling doc references found" >&2
else
  echo "check_doc_paths: all $checked referenced paths exist"
fi
exit "$status"
