#!/bin/sh
# Fail when a library module keeps process-global mutable state.
#
# A top-level value of lib/*/*.ml is global: every campaign, sample and
# request in the process shares it, so a result could depend on what
# the process ran before.  This check flags each top-level `let` (or
# `and`) value binding whose right-hand side makes a ref, a Hashtbl,
# an Array.make/init/make_matrix array, Bytes, a Buffer, an Atomic or a
# Weak array, or is a record literal naming a field of a record type
# with a `mutable` field.  Such state belongs to a value that owns it
# (a decode, a target, a stream, a daemon).  A deliberate exception
# goes in scripts/globals.allow as "<ml path> <name> <reason>"; an
# entry whose binding is gone or no longer flagged fails too.
#
# The match is by text, not by type: a global that a function call
# returns (`let t = make ()`) passes, and a table filled once at
# initialisation and only read afterwards is flagged and needs its
# allow-list entry.  Run from anywhere:
#   sh scripts/check_globals.sh
set -eu
cd "$(dirname "$0")/.."
allow=scripts/globals.allow

# Allow-list entries, "<ml> <name>", without comments and blank lines.
allowed=$(sed -e 's/#.*//' "$allow" | awk 'NF { print $1, $2 }')
if sed -e 's/#.*//' "$allow" | awk 'NF && NF < 3 { bad = 1 } END { exit !bad }'
then
  echo "check-globals: every line of $allow needs a reason" >&2
  exit 1
fi

# The field names of each record type that has a mutable field, one
# type a line: a type runs from a column-0 `type`/`and` to the next
# column-0 line that starts anything else.
mutable_types=$(awk '
  function flush(   s, f, fields) {
    if (body ~ / mutable /) {
      s = body; fields = ""
      while (match(s, /[a-z_][A-Za-z0-9_'"'"']*[ ]*:/)) {
        f = substr(s, RSTART, RLENGTH)
        sub(/[ ]*:$/, "", f)
        fields = fields " " f
        s = substr(s, RSTART + RLENGTH)
      }
      print fields
    }
    body = ""; intype = 0
  }
  FNR == 1 { flush() }
  /^(type|and) / { if ($1 == "type" || intype) { flush(); intype = 1 } }
  /^[^ \t]/ && !/^(type|and) / && !/^[}|]/ { flush() }
  intype {
    line = $0
    gsub(/\(\*[^*]*\*\)/, "", line)
    if (gsub(/mutable /, "", line)) body = body " mutable "
    body = body " " line
  }
  END { flush() }
' lib/*/*.ml)

# "<ml> <name>" for each flagged top-level binding.
found=$(printf '%s\n' "$mutable_types" | awk '
  NR == FNR { if (NF) mut[++nmut] = $0 " "; next }
  # A record literal of fields [lit] (space-separated, space-padded)
  # can be of a mutable type when one such type has all of them.
  function mutable_record(lit,   i, n, fs, j, ok) {
    n = split(lit, fs, " ")
    for (i = 1; i <= nmut; i++) {
      ok = 1
      for (j = 1; j <= n; j++) if (index(" " mut[i], " " fs[j] " ") == 0) ok = 0
      if (ok && n > 0) return 1
    }
    return 0
  }
  function check(   r, s, f, lit) {
    if (name == "") return
    r = rhs
    gsub(/"([^"\\]|\\.)*"/, "\"\"", r)
    gsub(/\(\*([^*]|\*+[^*)])*\*+\)/, " ", r)
    sub(/^[ \t\n]+/, "", r)
    if (r ~ /^(fun|function)[^A-Za-z0-9_]/) { name = ""; return }
    s = " " r
    if (s ~ /[^A-Za-z0-9_.'"'"'](ref[ (]|Hashtbl\.create|Array\.(make|init|make_matrix)[ (]|Bytes\.(create|make|init|of_string)[ (]|Buffer\.create|Atomic\.make|Weak\.create)/) {
      print file, name
    } else if (r ~ /^\{/) {
      lit = ""
      gsub(/[ \t\n]with[ \t\n]/, ";", s)
      while (match(s, /[{;][ \t\n]*([A-Z][A-Za-z0-9_]*\.)*[a-z_][A-Za-z0-9_'"'"']*[ \t\n]*=[^=]/)) {
        f = substr(s, RSTART, RLENGTH)
        sub(/^[{;][ \t\n]*/, "", f)
        sub(/[ \t\n]*=.*$/, "", f)
        sub(/^.*\./, "", f)
        lit = lit " " f
        s = substr(s, RSTART + RLENGTH)
      }
      if (mutable_record(lit)) print file, name
    }
    name = ""
  }
  FNR == 1 { check(); file = FILENAME; kw = "" }
  /^[^ \t})\]|]/ {
    check()
    if ($1 == "let" || $1 == "type" || $1 == "module" || $1 == "exception")
      kw = $1
    if (($1 == "let" || ($1 == "and" && kw == "let")) &&
        match($0, /^(let|and)[ \t]+(rec[ \t]+)?[a-z_][A-Za-z0-9_'"'"']*[ \t]*(:[^=]*)?=/)) {
      head = substr($0, 1, RLENGTH)
      rhs = substr($0, RLENGTH + 1)
      sub(/^(let|and)[ \t]+(rec[ \t]+)?/, "", head)
      match(head, /^[a-z_][A-Za-z0-9_'"'"']*/)
      name = substr(head, 1, RLENGTH)
      if (name == "_") name = ""
    }
    next
  }
  name != "" { rhs = rhs "\n" $0 }
  END { check() }
' - lib/*/*.ml)

status=0
printf '%s\n' "$found" | while read -r ml name; do
  [ -n "$ml" ] || continue
  if ! printf '%s\n' "$allowed" | grep -q -x "$ml $name"; then
    echo "$ml: top-level $name is mutable state shared by the whole process"
  fi
done | grep . && status=1
printf '%s\n' "$allowed" | while read -r ml name; do
  [ -n "$ml" ] || continue
  if ! printf '%s\n' "$found" | grep -q -x "$ml $name"; then
    echo "$allow: $ml $name is gone or no longer mutable; remove the entry"
  fi
done | grep . && status=1
if [ "$status" -eq 0 ]; then
  echo "check-globals: no process-global mutable state outside $allow"
fi
exit "$status"
