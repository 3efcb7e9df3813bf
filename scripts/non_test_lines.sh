#!/usr/bin/env bash
# Non-test line counts of the workspace's Rust sources.
#
# For every `.rs` file under `crates/`, `src/` and `examples/` (files in
# `tests/` directories are skipped), counts the lines before the
# `#[cfg(test)]` that directly precedes `mod tests`, or the whole file
# when it has no such module. Prints one count per crate (`src` is the
# facade, `examples` the examples) and the workspace total.
#
# Usage: scripts/non_test_lines.sh [repo-root]   (defaults to the
# repository containing this script)
set -euo pipefail

root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
cd "$root"

find crates src examples -name '*.rs' -not -path '*/tests/*' 2>/dev/null | LC_ALL=C sort |
    while IFS= read -r file; do
        count=$(awk '
            prev ~ /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ &&
                $0 ~ /^[[:space:]]*(pub(\([a-z]+\))?[[:space:]]+)?mod[[:space:]]+tests[[:space:]]*[{;]/ {
                print NR - 2; found = 1; exit
            }
            { prev = $0 }
            END { if (!found) print NR }
        ' "$file")
        case "$file" in
            crates/*) unit=$(echo "$file" | cut -d/ -f2) ;;
            *) unit=$(echo "$file" | cut -d/ -f1) ;;
        esac
        printf '%s\t%s\n' "$unit" "$count"
    done |
    awk -F'\t' '
        { sum[$1] += $2; total += $2 }
        END {
            n = 0
            for (u in sum) names[++n] = u
            # insertion sort: awk has no portable sort()
            for (i = 2; i <= n; i++) {
                v = names[i]; j = i - 1
                while (j > 0 && names[j] > v) { names[j + 1] = names[j]; j-- }
                names[j + 1] = v
            }
            for (i = 1; i <= n; i++) printf "%-12s %6d\n", names[i], sum[names[i]]
            printf "%-12s %6d\n", "total", total
        }
    '
