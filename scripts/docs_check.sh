#!/usr/bin/env bash
# docs_check.sh — docs-consistency gate (CI: docs-consistency job).
#
# The user-facing docs name make targets, CLI flags, and experiment ids.
# Those names rot silently: a renamed flag breaks every copy-pasted
# command in README.md without failing a single test. This script greps
# the docs for such references and fails when one no longer exists in
# the tree.
#
# Checks:
#   1. `make <target>` mentioned in docs  → target exists in Makefile
#   2. `-flag` on a cmd/<tool> invocation → tool declares the flag
#   3. `-only <IDs>` for cmd/experiments  → id is in the registry
#   4. -families/-styles values for cmd/explore → name is in the registry
#
# Exit: 0 clean, 1 findings. Best-effort by design — it only sees
# references it can attribute to a tool on the same (joined) line.
set -euo pipefail
cd "$(dirname "$0")/.."

DOCS="README.md DESIGN.md EXPERIMENTS.md"
fail=0

# Join backslash-continued lines so multi-line fenced commands read as one.
joined() {
  sed -e ':a' -e '/\\$/N; s/\\\n/ /; ta' "$@"
}

# 1. make targets: backtick-quoted (`make x`) or at the start of a
# command line in a fenced block — prose like "make the tables" is not a
# reference.
for t in $( (grep -ohE '`make [a-z][a-z0-9-]*`' $DOCS | tr -d '`';
             grep -ohE '^\s*make [a-z][a-z0-9-]*\s*$' $DOCS) | awk '{print $2}' | sort -u); do
  if ! grep -qE "^$t:" Makefile; then
    echo "docs_check: 'make $t' referenced in docs but Makefile has no target '$t'" >&2
    fail=1
  fi
done

# 2. flags on cmd/<tool> invocations. A flag counts as declared when any
# file under cmd/<tool>/ registers its name with the flag package.
while read -r line; do
  tool=$(grep -oE 'cmd/[a-z]+' <<<"$line" | head -1 | cut -d/ -f2)
  [ -d "cmd/$tool" ] || continue
  for f in $(grep -oE ' -[a-z][a-z0-9-]*' <<<"$line" | sed 's/^ -//' | sort -u); do
    if ! grep -rqE "\.(Bool|Int|Int64|String|Float64|Duration)\(\"$f\"" "cmd/$tool/"; then
      echo "docs_check: flag -$f used with cmd/$tool in docs but cmd/$tool declares no such flag" >&2
      fail=1
    fi
  done
done < <(joined $DOCS | grep -E 'cmd/[a-z]+ .*-[a-z]' | grep -vE '^\s*(//|#)')

# 3. experiment ids passed to cmd/experiments -only.
registry_ids=$(grep -oE '\{"[ED][0-9]+"' cmd/experiments/main.go | tr -d '{"')
for id in $(joined $DOCS | grep -oE '\-only [ED][0-9]+(,[ED][0-9]+)*' | sed 's/-only //' | tr ',' '\n' | sort -u); do
  if ! grep -qx "$id" <<<"$registry_ids"; then
    echo "docs_check: experiment id '$id' referenced in docs but absent from the cmd/experiments registry" >&2
    fail=1
  fi
done

# 4. family and style names passed to cmd/explore. The family registry is
# internal/cluster's Family constants (internal/explore aliases them); the
# styles are recovery.Style's String() names. "all" is the CLI's wildcard.
family_names=$(grep -oE 'Family = "[a-z]+"' internal/cluster/cluster.go | grep -oE '"[a-z]+"' | tr -d '"')
style_names=$(grep -oE 'return "[a-z]+"' internal/recovery/recovery.go | grep -oE '"[a-z]+"' | tr -d '"')
for fam in $(joined $DOCS | grep -oE 'cmd/explore .*' | grep -oE '\-families [a-z]+(,[a-z]+)*' | sed 's/-families //' | tr ',' '\n' | sort -u); do
  [ "$fam" = all ] && continue
  if ! grep -qx "$fam" <<<"$family_names"; then
    echo "docs_check: family '$fam' passed to cmd/explore in docs but absent from internal/cluster" >&2
    fail=1
  fi
done
for sty in $(joined $DOCS | grep -oE 'cmd/explore .*' | grep -oE '\-styles [a-z]+(,[a-z]+)*' | sed 's/-styles //' | tr ',' '\n' | sort -u); do
  [ "$sty" = all ] && continue
  if ! grep -qx "$sty" <<<"$style_names"; then
    echo "docs_check: style '$sty' passed to cmd/explore in docs but absent from internal/recovery" >&2
    fail=1
  fi
done

if [ "$fail" -ne 0 ]; then
  exit 1
fi
echo "docs_check: ok (targets, flags, experiment ids all resolve)"
