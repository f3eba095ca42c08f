#!/bin/sh
# End-to-end checks of the ruidx_tool CLI. Run by ctest with the path to the
# binary as $1; exits non-zero (with a message) on the first failure.
set -u

TOOL="$1"
TMPDIR="${TMPDIR:-/tmp}/ruidx_cli_test.$$"
mkdir -p "$TMPDIR"
trap 'rm -rf "$TMPDIR"' EXIT

DOC="$TMPDIR/doc.xml"
cat > "$DOC" <<'EOF'
<library><shelf genre="db"><book id="b1"><title>XML</title></book><book id="b2"><title>Trees</title></book></shelf><shelf genre="sys"><book id="b3"><title>Pages</title></book></shelf></library>
EOF

fail() {
  echo "FAIL: $1" >&2
  exit 1
}

expect_contains() {
  # $1 = label, $2 = needle, stdin = haystack
  out=$(cat)
  case "$out" in
    *"$2"*) ;;
    *) echo "--- output was:"; echo "$out"; fail "$1: missing '$2'" ;;
  esac
}

# stats
"$TOOL" stats "$DOC" | expect_contains "stats" "elements=9"

# number prints the root identifier
"$TOOL" number "$DOC" | expect_contains "number" "(1, 1, true)"

# ktable prints kappa and the header
"$TOOL" ktable "$DOC" --max-area-nodes 4 --max-area-depth 2 \
  | expect_contains "ktable" "kappa ="

# parent runs Fig. 6
"$TOOL" parent "$DOC" 1 2 false | expect_contains "parent" "= (1, 1, true)"

# query, all engines agree on the count
for engine in dom ruid ruid-index; do
  "$TOOL" query "$DOC" '//book/title' --engine "$engine" 2>/dev/null \
    | expect_contains "query($engine)" "<title>Trees</title>"
done

# union query
"$TOOL" query "$DOC" '//title | //book[@id="b3"]' 2>/dev/null \
  | expect_contains "union query" "Pages"

# fragment reconstruction
"$TOOL" fragment "$DOC" '//title' | expect_contains "fragment" "<fragment>"

# store round-trip
DB="$TMPDIR/doc.db"
"$TOOL" store "$DOC" "$DB" | expect_contains "store" "stored 12 records"
[ -s "$DB" ] || fail "store: no database file written"

# check with a file-backed store prints index, snapshot and leaf stats
CDB="$TMPDIR/doc_check.db"
CHECK_OUT=$("$TOOL" check "$DOC" --store "$CDB")
echo "$CHECK_OUT" | expect_contains "check --store" "OK "
echo "$CHECK_OUT" | expect_contains "check --store index stats" "name postings"
echo "$CHECK_OUT" | expect_contains "check --store compression" "bytes/key raw"
echo "$CHECK_OUT" | expect_contains "check --store leaf fan-out" "avg leaf fan-out"
echo "$CHECK_OUT" | expect_contains "check --store restart runs" "restart runs:"

# streaming store
SDB="$TMPDIR/doc_stream.db"
"$TOOL" stream "$DOC" "$SDB" | expect_contains "stream" "streamed 12 nodes"
[ -s "$SDB.gstate" ] || fail "stream: no global-state file written"

# error paths exit non-zero
"$TOOL" stats /nonexistent.xml >/dev/null 2>&1 && fail "stats: bad file must fail"
"$TOOL" query "$DOC" '///bad[' >/dev/null 2>&1 && fail "query: bad path must fail"
"$TOOL" bogus "$DOC" >/dev/null 2>&1 && fail "unknown command must fail"

echo "cli_test: all checks passed"
exit 0
