#!/bin/sh
# Fail when a library interface exports a value nothing else uses.
#
# For every `val NAME` in lib/*/*.mli, look for NAME as a whole word in
# the .ml/.mli files of lib, bin, bench, perfbench, examples and test,
# other than the module's own .ml and .mli.  A value with no such match
# has no caller outside its module: drop it from the .mli (the build's
# unused-value warning then finds whatever became dead).  A deliberate
# exception goes in scripts/exports.allow as "<mli path> <name> <reason>".
#
# The match is by word, not by resolved path, so it only errs one way:
# a value whose name also occurs elsewhere passes.  Run from anywhere:
#   sh scripts/check_exports.sh
set -eu
cd "$(dirname "$0")/.."
allow=scripts/exports.allow
dirs="lib bin bench perfbench examples test"

# Allow-list entries, "<mli> <name>", without comments and blank lines.
allowed=$(sed -e 's/#.*//' "$allow" | awk 'NF { print $1, $2 }')
if sed -e 's/#.*//' "$allow" | awk 'NF && NF < 3 { bad = 1 } END { exit !bad }'
then
  echo "check-exports: every line of $allow needs a reason" >&2
  exit 1
fi

unused=""
for mli in lib/*/*.mli; do
  ml=${mli%i}
  for name in $(sed -n \
      "s/^[[:space:]]*val[[:space:]][[:space:]]*\([a-z_][A-Za-z0-9_']*\)[[:space:]]*:.*/\1/p" \
      "$mli"); do
    if grep -rlw --include='*.ml' --include='*.mli' -e "$name" $dirs \
        | grep -v -x -e "$mli" -e "$ml" | grep -q .; then
      continue
    fi
    unused="$unused$mli $name
"
  done
done

status=0
printf '%s' "$unused" | while read -r mli name; do
  if ! printf '%s\n' "$allowed" | grep -q -x "$mli $name"; then
    echo "$mli: val $name has no caller outside its module"
  fi
done | grep . && status=1
printf '%s\n' "$allowed" | while read -r mli name; do
  [ -n "$mli" ] || continue
  if ! printf '%s' "$unused" | grep -q -x "$mli $name"; then
    echo "$allow: $mli $name is used or gone; remove the entry"
  fi
done | grep . && status=1
if [ "$status" -eq 0 ]; then
  echo "check-exports: every exported value has an outside caller"
fi
exit "$status"
