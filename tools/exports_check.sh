#!/bin/sh
# Every `val` exported by a lib/*/*.mli must have a user outside its own
# module, resolved by the compiler rather than by name:
#
#   tools/exports_check.sh        (or `make exports-check`, from the repo root)
#
# It builds the typed trees (`dune build @check`), runs `ocamlcmt -annot`
# on every .cmt under _build/default, and joins the external references
# (`int_ref ... "lib/<lib>/<m>.mli" LINE`) against the `val` lines of
# lib/*/*.mli.  A reference from a .cmt under test/ or perfbench/test/
# counts as a test use; every other .cmt (lib/, bin/, bench/, examples/,
# perfbench/) is a real user.  It fails, printing one line per finding,
# when
#   - an export has no user at all,
#   - an export is used only by tests and is not in
#     tools/exports_allowlist.txt (`Module.value  reason`, one per line,
#     `#` comments), or
#   - an allowlist entry is stale: it has a non-test user, no test user,
#     or no longer names an export.
set -eu

"${DUNE:-dune}" build @check
root=_build/default
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# Include path: a .cmt's own objs directory first (every executable's
# modules are named Dune__exe__*, so each executable must resolve its own
# siblings), then the libraries every executable may reference.
libs=""
for d in "$root"/lib/*/.*.objs/byte "$root"/perfbench/.perfbench.objs/byte; do
  libs="$libs -I $d"
done

# refs: "<mli>:<line> <test|real>" for each reference into a lib/ .mli.
find "$root" -name '*.cmt' -path '*/byte/*' | sort | while read -r cmt; do
  case "$cmt" in
    "$root"/test/* | "$root"/perfbench/test/*) kind=test ;;
    *) kind=real ;;
  esac
  # shellcheck disable=SC2086
  ocamlcmt -annot -I "$(dirname "$cmt")" $libs -o - "$cmt" \
    | awk -v kind="$kind" '$1 == "int_ref" && $3 ~ /^"lib\/[^"]*\.mli"$/ {
        gsub(/"/, "", $3); print $3 ":" $4, kind }'
done | sort -u > "$work/refs"

# vals: "<mli>:<line> <Module[.Sub].name>" for each exported value.
for mli in lib/*/*.mli; do
  awk -v f="$mli" '
    BEGIN { n = split(f, p, "/"); m = p[n]; sub(/\.mli$/, "", m)
            m = toupper(substr(m, 1, 1)) substr(m, 2); depth = 0 }
    /^ *module [A-Z][A-Za-z0-9_]* *: *sig/ { depth++; sub(/^ *module /, ""); sub(/ *:.*/, ""); sub_[depth] = $0; next }
    /^ *end *$/ && depth > 0 { depth--; next }
    /^ *val / { name = $2; sub(/:.*/, "", name); path = m
                for (i = 1; i <= depth; i++) path = path "." sub_[i]
                print f ":" FNR, path "." name }' "$mli"
done > "$work/vals"

allow=tools/exports_allowlist.txt
sed -e 's/#.*//' -e '/^[[:space:]]*$/d' "$allow" | awk '{ print $1 }' | sort -u > "$work/allowed"

awk -v allowed="$work/allowed" -v allow="$allow" '
  FILENAME == allowed { ok[$1] = 1; next }
  FILENAME ~ /refs$/ { use[$1, $2] = 1; next }
  { key = $2; loc = $1; seen[key] = 1
    real = use[loc, "real"]; test = use[loc, "test"]
    if (ok[key] && real) { print "exports-check: allowlisted " key " has a non-test user; drop it from " allow; bad = 1 }
    else if (ok[key] && !test) { print "exports-check: allowlisted " key " (" loc ") has no test user left"; bad = 1 }
    else if (!ok[key] && !real && !test) { print "exports-check: " key " (" loc ") has no user outside its module"; bad = 1 }
    else if (!ok[key] && !real) { print "exports-check: " key " (" loc ") is used only by tests and is not in " allow; bad = 1 } }
  END { for (k in ok) if (!seen[k]) { print "exports-check: allowlisted " k " is not an exported value"; bad = 1 }
        exit bad }' "$work/allowed" "$work/refs" "$work/vals" && {
  echo "exports-check: $(wc -l < "$work/vals") exported values, $(wc -l < "$work/allowed") test-only (allowlisted), all used"
}
