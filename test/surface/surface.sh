#!/bin/sh
# Public-surface check: every value a lib/ interface exports must be
# named by some .ml under lib/, bin/, bench/ or examples/ other than its
# own module's, the way OCaml resolves it:
#   - as M.name, through a library prefix (Lib.M.name) or through an
#     alias bound in that file (module A = Lib.M, then A.name);
#   - as Sub.name for a value of a nested `module Sub : sig ... end`;
#   - as a bare word in a file that opens M (open M, let open M in,
#     M.( ... ), include M).
# A record projection x.M.field and a record label { M.field = ... }
# name a field, not a value, and do not count.
# A value kept only for tests to compare against or inject through says
# so: its doc comment starts with "Test seam:". Such a seam must be
# named, by the same rules, by some .ml under test/.
# The match is conservative: a mention in a comment or a string counts,
# and a name is resolved by its last module component, so a used value
# is never reported.
#
# Usage: sh surface.sh ROOT
# Prints each offending value as FILE:LINE: val NAME and exits 1 if
# there is any.
set -eu
cd "$1"
dirs() { for d in "$@"; do if [ -d "$d" ]; then echo "$d"; fi; done; }
# shellcheck disable=SC2046
mlis=$(find $(dirs lib) -name '*.mli' | sort)
# shellcheck disable=SC2046
callers=$(find $(dirs lib bin bench examples) -name '*.ml' | sort)
tests=
if [ -d test ]; then
  tests=$(find test -path test/surface -prune -o -name '*.ml' -print | sort)
fi
# shellcheck disable=SC2086
awk '
# The last module component of a dotted path: Lib.M -> M.
function last(path) { sub(/.*\./, "", path); return path }

# Records that the file being resolved names KEY (M.name).
function mark(key) {
  if (fphase == "test") { tested[key] = 1; return }
  if (!(key in first)) first[key] = file
  else if (first[key] != file) second[key] = 1
}

# Resolves what the file just read names: its qualified tokens, also
# through its aliases, and every bare word of a module it opens.
function flush(   i, m, w, mods) {
  if (file == "") return
  for (i = 1; i <= ntok; i++) {
    mark(tmod[i] "." tname[i])
    if (tmod[i] in alias) mark(alias[tmod[i]] "." tname[i])
  }
  for (m in opened) {
    mods[m] = 1
    if (m in alias) mods[alias[m]] = 1
  }
  for (m in mods) for (w in words) mark(m "." w)
  ntok = 0; file = ""
  for (m in alias) delete alias[m]
  for (m in opened) delete opened[m]
  for (w in words) delete words[w]
}

function scan(line,   rest, tok, path, seen, field) {
  # module A = Lib.M (not a functor application)
  if (match(line, /module[ \t]+[A-Z][A-Za-z0-9_'\'']*[ \t]*=[ \t]*[A-Z][A-Za-z0-9_'\''.]*/)) {
    tok = substr(line, RSTART, RLENGTH)
    rest = substr(line, RSTART + RLENGTH)
    if (rest !~ /^[ \t]*\(/) {
      path = tok; sub(/.*=[ \t]*/, "", path)
      tok = substr(tok, 7); sub(/^[ \t]+/, "", tok); sub(/[ \t]*=.*/, "", tok)
      alias[tok] = last(path)
    }
  }
  rest = line
  while (match(rest, /(open!?|include)[ \t]+[A-Z][A-Za-z0-9_'\''.]*/)) {
    tok = substr(rest, RSTART, RLENGTH)
    sub(/^[a-z!]+[ \t]+/, "", tok)
    opened[last(tok)] = 1
    rest = substr(rest, RSTART + RLENGTH)
  }
  rest = line
  while (match(rest, /[A-Z][A-Za-z0-9_'\''.]*\.\(/)) {
    tok = substr(rest, RSTART, RLENGTH - 2)
    opened[last(tok)] = 1
    rest = substr(rest, RSTART + RLENGTH)
  }
  rest = line; seen = ""
  while (match(rest, /[A-Z][A-Za-z0-9_'\'']*(\.[A-Z][A-Za-z0-9_'\'']*)*\.[a-z_][A-Za-z0-9_'\'']*/)) {
    tok = substr(rest, RSTART, RLENGTH)
    seen = seen substr(rest, 1, RSTART - 1)
    rest = substr(rest, RSTART + RLENGTH)
    # A record field, not a value: a projection x.M.field, or a label
    # { M.field = ... } (also after ; or with).
    field = seen ~ /[])A-Za-z0-9_'\'']\.$/ ||
      (seen ~ /(\{|;|with)[ \t]*$/ && rest ~ /^[ \t]*=([^=]|$)/)
    seen = seen tok
    if (field) continue
    path = tok; sub(/\.[a-z_][A-Za-z0-9_'\'']*$/, "", path)
    ntok++; tmod[ntok] = last(path); tname[ntok] = substr(tok, length(path) + 2)
  }
  rest = line
  while (match(rest, /[a-z_][A-Za-z0-9_'\'']*/)) {
    words[substr(rest, RSTART, RLENGTH)] = 1
    rest = substr(rest, RSTART + RLENGTH)
  }
}

# Interfaces: one entry per val, keyed M.name at the top level and
# Sub.name inside a nested module Sub : sig ... end.
function entry() {
  if (name == "") return
  nval++; vfile[nval] = mli; vline[nval] = line; vname[nval] = name
  vkey[nval] = key; vseam[nval] = seam
  vown[nval] = substr(mli, 1, length(mli) - 1)
  name = ""
}

phase == "mli" && FNR == 1 {
  entry(); sub_ = ""
  mod = FILENAME; sub(/.*\//, "", mod); sub(/\.mli$/, "", mod)
  mod = toupper(substr(mod, 1, 1)) substr(mod, 2)
}
phase == "mli" {
  if ($0 ~ /^[ \t]*module[ \t]+[A-Z][A-Za-z0-9_'\'']*[ \t]*:[ \t]*sig[ \t]*$/) {
    entry(); sub_ = $2; sub(/:.*/, "", sub_); next
  }
  if ($0 ~ /^[ \t]*end[ \t]*$/) { entry(); sub_ = ""; next }
  if ($0 ~ /^[ \t]*val[ \t]/) {
    entry(); name = $2; sub(/:.*/, "", name); line = FNR; seam = 0
    mli = FILENAME; key = (sub_ != "" ? sub_ : mod) "." name
    next
  }
  if (name == "") next
  # The doc comment right after the signature decides whether it is a seam.
  if ($0 ~ /^[ \t]*\(\*\*/) {
    seam = ($0 ~ /^[ \t]*\(\*\*[ \t]*Test seam:/); entry(); next
  }
  if ($0 ~ /^[ \t]*$/ || $0 ~ /^[ \t]*(type|module|exception|include|end|\(\*)/) entry()
  next
}
FNR == 1 { entry(); flush(); file = FILENAME; fphase = phase }
{ scan($0) }

END {
  flush(); entry()
  for (i = 1; i <= nval; i++) {
    k = vkey[i]
    if (vseam[i]) {
      if (!(k in tested)) {
        print vfile[i] ":" vline[i] ": val " vname[i] " (a test seam no test names)"
        bad++
      }
    } else if (!(k in first) || (first[k] == vown[i] && !(k in second))) {
      print vfile[i] ":" vline[i] ": val " vname[i]
      bad++
    }
  }
  if (bad > 0) {
    print bad " exported values have no caller outside their module and test/, or are seams no test names;"
    print "delete them, drop them from the .mli, or start their doc comment with \"Test seam:\""
    exit 1
  }
}' phase=mli $mlis phase=caller $callers phase=test $tests
