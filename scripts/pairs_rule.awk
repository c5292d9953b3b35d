# The pair rule: one verdict per metric from alternating parent/change
# runs of the job-path benchmark (scripts/pairs.sh; fixture test
# scripts/pairs_rule_test.sh).
#
# Input, one tab-separated line per metric:
#   name  better  bound  parent values  change values
# `better` is `lower` or `higher`, `bound` the relative worsening
# BENCHMARK.json allows, and the values are comma-separated, pair i's
# parent run and change run in place i of each list.
#
# Output, one tab-separated line per metric:
#   name  parent median  Q1  Q3  change median  Q1  Q3  wins  pairs  verdict
# Quartiles interpolate linearly between order statistics; a win is a
# pair the change reads better in (ties count for neither side).
#
#   awk -f scripts/pairs_rule.awk < metrics.tsv

# The verdict, from each side's median, the parent's quartiles, the
# change's wins out of the pairs, and whether every change run reads
# better than every parent run:
# - `better`: the change wins at least nine tenths of the pairs and its
#   median is better by more than the parent's interquartile range;
# - `unresolved`: otherwise, when the parent's interquartile range is
#   wider than the bound (relative to the parent's median), unless every
#   change run reads better than every parent run, which is `unchanged`;
# - `worse`: otherwise, when the change's median is worse than the
#   parent's by more than the bound;
# - `unchanged`: otherwise.
function verdict(better, bound, pmed, pq1, pq3, cmed, wins, pairs, separated,
                 gain, spread, scale) {
    gain = better == "lower" ? pmed - cmed : cmed - pmed
    spread = pq3 - pq1
    scale = bound * (pmed < 0 ? -pmed : pmed)
    if (10 * wins >= 9 * pairs && gain > spread) return "better"
    if (spread > scale) return separated ? "unchanged" : "unresolved"
    if (-gain > scale) return "worse"
    return "unchanged"
}

# Sorts a[1..n] in place (insertion sort; a run has tens of values).
function sort(a, n,    i, j, v) {
    for (i = 2; i <= n; i++) {
        v = a[i]
        for (j = i - 1; j >= 1 && a[j] > v; j--) a[j + 1] = a[j]
        a[j + 1] = v
    }
}

# The p-quantile of sorted a[1..n], interpolated between order statistics.
function quantile(a, n, p,    h, lo) {
    h = (n - 1) * p + 1
    lo = int(h)
    return lo >= n ? a[n] : a[lo] + (h - lo) * (a[lo + 1] - a[lo])
}

BEGIN { FS = OFS = "\t"; OFMT = CONVFMT = "%.10g" }

{
    n = split($4, p, ",")
    if (split($5, c, ",") != n || n == 0) {
        printf "pairs_rule: %s: %d parent values and %d change values\n", $1, n, split($5, c, ",") > "/dev/stderr"
        bad = 1
        next
    }
    wins = 0
    for (i = 1; i <= n; i++) {
        p[i] += 0
        c[i] += 0
        wins += $2 == "lower" ? c[i] < p[i] : c[i] > p[i]
    }
    sort(p, n)
    sort(c, n)
    separated = $2 == "lower" ? c[n] < p[1] : c[1] > p[n]
    pmed = quantile(p, n, 0.5)
    pq1 = quantile(p, n, 0.25)
    pq3 = quantile(p, n, 0.75)
    cmed = quantile(c, n, 0.5)
    print $1, pmed, pq1, pq3, cmed, quantile(c, n, 0.25), quantile(c, n, 0.75), wins, n,
        verdict($2, $3 + 0, pmed, pq1, pq3, cmed, wins, n, separated)
}

END { exit bad }
