#!/usr/bin/env bash
# Documentation consistency check, run as a tier-1 ctest:
#
#   1. every relative markdown link in README.md and docs/*.md resolves to
#      an existing file (anchors stripped; external schemes skipped), and
#   2. every `./build/bench/<target>` command in README.md or any docs/*.md
#      names a bench target that actually exists in bench/CMakeLists.txt, and
#   3. every `opt.<field>` in README.md or docs/*.md, and every
#      `LaunchOptions::<field>` there or in src/**/*.h, names a field
#      declared in `struct LaunchOptions` (src/cudalite/launch.h).
#
# Usage: scripts/check_docs.sh    (from anywhere; paths resolve to the repo)
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
fail=0

# --- 1. relative links resolve -------------------------------------------------
for doc in "$repo"/README.md "$repo"/docs/*.md; do
  dir="$(dirname "$doc")"
  # Markdown inline links: capture the (...) part, one per line.  Reference
  # definitions and autolinks are not used in this repo's docs.
  while IFS= read -r link; do
    # Skip external schemes and pure in-page anchors.
    case "$link" in
      http://*|https://*|mailto:*|chrome://*|\#*) continue ;;
    esac
    target="${link%%#*}"            # strip the anchor
    [ -n "$target" ] || continue
    if [ ! -e "$dir/$target" ]; then
      echo "BROKEN LINK: $doc -> ($link)"
      fail=1
    fi
  done < <(grep -o '](\([^)]*\))' "$doc" | sed 's/^](//; s/)$//')
done

# --- 2. documented bench commands exist in the build ---------------------------
# Discover docs by glob (same set as the link check) rather than a hard-coded
# list, so a new doc's bench commands are covered automatically.
cmake_benches="$repo/bench/CMakeLists.txt"
for doc in "$repo"/README.md "$repo"/docs/*.md; do
  while IFS= read -r target; do
    if ! grep -Eq "(g80_bench\($target\)|add_executable\($target )" \
         "$cmake_benches"; then
      echo "MISSING BENCH TARGET: ${doc#"$repo"/} names './build/bench/$target'" \
           "but bench/CMakeLists.txt defines no such target"
      fail=1
    fi
  done < <(grep -o '\./build/bench/[A-Za-z0-9_]*' "$doc" \
           | sed 's|\./build/bench/||' | sort -u)
done

# --- 3. documented LaunchOptions fields exist ----------------------------------
# Member declarations of the struct: comment lines dropped, then the name
# before the optional default and the semicolon.
fields="$(sed -n '/^struct LaunchOptions {/,/^};/p' \
            "$repo/src/cudalite/launch.h" \
          | grep -Ev '^[[:space:]]*//' \
          | grep -E '^[[:space:]]+[A-Za-z].*[[:space:]*&][a-z_][a-z0-9_]*( = [^;]*)?;$' \
          | sed -E 's/( = [^;]*)?;$//; s/.*[[:space:]*&]//')"
if [ -z "$fields" ]; then
  echo "NO FIELDS: found no member of struct LaunchOptions in src/cudalite/launch.h"
  fail=1
fi
check_fields() {  # $1 = file, $2 = extended regex ending in the field name
  local file="$1" pattern="$2" field
  while IFS= read -r field; do
    if ! grep -qx "$field" <<<"$fields"; then
      echo "UNKNOWN FIELD: ${file#"$repo"/} names LaunchOptions field" \
           "'$field', which struct LaunchOptions does not declare"
      fail=1
    fi
  done < <(grep -oE "$pattern" "$file" | sed -E 's/.*(opt\.|::)//' | sort -u)
}
for doc in "$repo"/README.md "$repo"/docs/*.md; do
  check_fields "$doc" '(^|[^A-Za-z0-9_.])opt\.[a-z_][a-z0-9_]*'
  check_fields "$doc" 'LaunchOptions::[a-z_][a-z0-9_]*'
done
while IFS= read -r header; do
  check_fields "$header" 'LaunchOptions::[a-z_][a-z0-9_]*'
done < <(find "$repo/src" -name '*.h' -type f | sort)

if [ "$fail" -ne 0 ]; then
  echo "check_docs: FAILED"
  exit 1
fi
echo "check_docs: all documentation links, bench targets and LaunchOptions fields resolve"
