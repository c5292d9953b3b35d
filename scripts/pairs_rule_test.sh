#!/usr/bin/env bash
# Fixture test of the pair rule (scripts/pairs_rule.awk) on runs recorded
# in EXPERIMENTS.md:
# - PR 45's ten `durable` `stall_max_ms` pairs (10 of 10, a 9.5 ms shift
#   against a 1.5 ms parent IQR) read `better`;
# - PR 45's fifteen `wide` `jobs_per_s` pairs (a parent IQR wider than the
#   12% bound) read `unresolved`;
# - PR 44's ten `durable` `jobs_per_s` pairs, which ran one program twice,
#   read neither `better` nor `worse`;
# - a level metric (equal values on both sides) reads `unchanged`, and a
#   clear regression past its bound reads `worse`.
#
#   scripts/pairs_rule_test.sh
set -euo pipefail
cd "$(dirname "$0")/.."

failed=0
# check NAME EXPECTED BETTER BOUND PARENT CHANGE; EXPECTED `!a|b` means
# any verdict but a or b.
check() {
  local name=$1 want=$2 got
  got=$(printf '%s\t%s\t%s\t%s\t%s\n' "$name" "$3" "$4" "$5" "$6" \
    | awk -f scripts/pairs_rule.awk | cut -f10)
  case $want in
    '!'*) [[ "|${want#!}|" != *"|$got|"* ]] ;;
    *) [ "$got" = "$want" ] ;;
  esac || { echo "pairs rule: $name reads $got, expected $want" >&2; failed=1; }
}

check "PR 45 durable stall_max_ms" better lower 0.25 \
  51.98,52.49,52.84,59.90,50.99,50.91,56.49,52.26,52.07,50.18 \
  42.29,41.97,44.23,41.46,42.69,42.57,42.93,44.14,41.98,44.65
check "PR 45 wide jobs_per_s" unresolved higher 0.12 \
  398,345,391,323,292,299,426,388,304,414,304,298,320,298,280 \
  378,313,302,298,329,343,422,345,302,407,378,304,307,303,343
check "PR 44 durable jobs_per_s" '!better|worse' higher 0.12 \
  421,461,454,477,456,529,432,460,488,457 \
  461,453,467,458,463,437,488,472,444,429
check "level awct" unchanged lower 0.05 7,7,7 7,7,7
check "regressed jobs_per_s" worse higher 0.12 100,101,99,100 80,81,79,80

[ "$failed" = 0 ] && echo "pairs rule: fixtures OK"
exit "$failed"
