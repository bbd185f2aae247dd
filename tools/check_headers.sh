#!/usr/bin/env bash
# Self-containment check: every header under src/ must compile on its own,
# so no header leans on an include that happens to come first in its
# users.  Each header is compiled alone with -fsyntax-only against src/;
# the failing ones are listed with the compiler's first error.  Run from
# anywhere; CI runs it in the release job.
#
#   tools/check_headers.sh          # uses $CXX, else g++
set -u

cd "$(dirname "$0")/.."

cxx="${CXX:-g++}"
status=0
checked=0
while IFS= read -r header; do
  checked=$((checked + 1))
  if ! out=$(echo "#include \"${header#src/}\"" |
             "$cxx" -std=c++20 -fsyntax-only -Isrc -x c++ - 2>&1); then
    echo "NOT SELF-CONTAINED: $header" >&2
    echo "$out" | grep -m1 'error' >&2
    status=1
  fi
done < <(find src -name '*.h' | sort)

if [ "$checked" -eq 0 ]; then
  echo "check_headers: no headers found under src/" >&2
  exit 1
fi

if [ "$status" -ne 0 ]; then
  echo "check_headers: headers that do not compile on their own found" >&2
else
  echo "check_headers: all $checked headers compile on their own"
fi
exit "$status"
