#!/usr/bin/env bash
# Release-mode panic sites in product code (ROADMAP item 20).
#
# Prints, per crate, how many times `assert!`, `assert_eq!`, `.expect(`,
# `.unwrap()`, `panic!` and `unreachable!` appear in `crates/*/src`,
# outside `#[cfg(test)]` modules, `src/bin/` and comment lines
# (`debug_assert!` is compiled out of release builds and not counted). It
# fails when any count is above the one in `scripts/panic_sites.txt`. A
# count may fall: lower the file's figure in the change that removes the
# site, so the next one cannot come back unnoticed.
#
#   scripts/panic_sites.sh          # print the table and check it
set -euo pipefail
cd "$(dirname "$0")/.."

baseline=scripts/panic_sites.txt

# Files that are `#[cfg(test)] mod NAME;` modules: the whole file is test code.
test_files=$(git grep -A1 -E '^#\[cfg\(test\)\]' -- crates/*/src \
  | sed -n 's/^\(.*\)-mod \([a-z_]*\);$/\1 \2/p' \
  | while read -r file module; do
      case "$(basename "$file")" in
        mod.rs | lib.rs | main.rs) echo "$(dirname "$file")/$module.rs" ;;
        *) echo "${file%.rs}/$module.rs" ;;
      esac
    done)

count() {
  awk '
    /^#\[cfg\(test\)\]/ { skip = 1; next }
    skip && /^mod [a-z_]+;/ { skip = 0; next }
    skip && /^}/ { skip = 0; next }
    skip || /^[[:space:]]*\/\// { next }
    {
      n[1] += gsub(/(^|[^A-Za-z0-9_])assert!/, "&")
      n[2] += gsub(/(^|[^A-Za-z0-9_])assert_eq!/, "&")
      n[3] += gsub(/\.expect\(/, "&")
      n[4] += gsub(/\.unwrap\(\)/, "&")
      n[5] += gsub(/(^|[^A-Za-z0-9_])panic!/, "&")
      n[6] += gsub(/(^|[^A-Za-z0-9_])unreachable!/, "&")
    }
    END { printf "%d %d %d %d %d %d\n", n[1], n[2], n[3], n[4], n[5], n[6] }
  ' "$@" /dev/null
}

current=$(
  echo "crate assert! assert_eq! .expect( .unwrap() panic! unreachable!"
  for src in crates/*/src; do
    crate=$(basename "$(dirname "$src")")
    mapfile -t files < <(git ls-files -- "$src/*.rs" | grep -v "^$src/bin/" \
      | grep -vxF -f <(printf '%s\n' $test_files) || true)
    echo "$crate $(count "${files[@]}")"
  done
)
awk '{ printf "%-10s", $1; for (i = 2; i <= NF; i++) printf " %12s", $i; print "" }' <<<"$current"

# Every count at or below its baseline; a crate missing from the baseline
# has a baseline of zero.
awk '
  FILENAME == ARGV[1] { for (i = 2; i <= NF; i++) base[$1, i] = $i; next }
  FNR > 1 {
    for (i = 2; i <= NF; i++) if ($i > base[$1, i] + 0) {
      printf "%s: %s count %d is above the committed %d\n", $1, head[i], $i, base[$1, i] + 0
      bad = 1
    }
  }
  FNR == 1 { for (i = 2; i <= NF; i++) head[i] = $i }
  END { exit bad }
' "$baseline" - <<<"$current" >&2 \
  || { echo "a panic-site count rose above $baseline" >&2; exit 1; }
