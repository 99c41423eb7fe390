#!/bin/sh
# Public-surface check: every value a lib/ interface exports must be
# named, as a whole word, in some .ml under lib/, bin/, bench/ or
# examples/ other than its own module's. A value kept only for tests to
# compare against or inject through says so: its doc comment starts
# with "Test seam:". Word matching is conservative: a common name can
# look used when it is not, but a used value is never reported.
#
# Usage: sh surface.sh ROOT
# Prints each offending value as FILE:LINE: val NAME and exits 1 if
# there is any.
set -eu
cd "$1"
callers=$(find lib bin bench examples -name '*.ml' | sort)
unused=0
for mli in $(find lib -name '*.mli' | sort); do
  others=$(printf '%s\n' "$callers" | grep -vxF "${mli%i}")
  # NAME LINE for each val whose doc comment (the one right after its
  # signature) does not start with "Test seam:".
  for entry in $(awk '
    function flush() { if (name != "") print name ":" line; name = "" }
    /^[ \t]*val[ \t]/ {
      flush(); name = $2; sub(/:.*/, "", name); line = NR; next }
    name == "" { next }
    /^[ \t]*\(\*\*/ { if ($0 ~ /^[ \t]*\(\*\*[ \t]*Test seam:/) name = ""; flush(); next }
    /^[ \t]*$/ || /^[ \t]*(type|module|exception|include|end|\(\*)/ { flush() }
    END { flush() }' "$mli"); do
    name=${entry%:*}
    # shellcheck disable=SC2086
    if ! grep -qw -- "$name" $others; then
      echo "$mli:${entry#*:}: val $name"
      unused=$((unused + 1))
    fi
  done
done
if [ "$unused" -gt 0 ]; then
  echo "$unused exported values have no caller outside their module and test/;"
  echo "delete them, drop them from the .mli, or start their doc comment with \"Test seam:\""
  exit 1
fi
