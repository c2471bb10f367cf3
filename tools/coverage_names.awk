# Reads `gcov -t -b -m` listings (one per object, from any number of build
# trees) and prints "<ran 0|1>\t<file>:<signature>\t<qualified name>" for
# every named function a .cc under the directory passed as `-v src=DIR/`
# defines. Lambda bodies and functions outside namespace flicker are skipped.
function qualified(sig,    s, depth, i, c, head, pre, op, cut) {
  gsub(/\[abi:[^]]*\]/, "", sig)
  gsub(/\(anonymous namespace\)/, "@anon@", sig)
  s = sig
  # Drop trailing qualifiers, then the final parameter list.
  while (sub(/ (const|volatile|&|&&|noexcept)$/, "", s)) {}
  depth = 0
  for (i = length(s); i > 0; i--) {
    c = substr(s, i, 1)
    if (c == ")") depth++
    else if (c == "(") { depth--; if (depth == 0) break }
  }
  head = substr(s, 1, i - 1)
  # Drop a template's return type: the last space outside <> before the
  # name (an operator's own spelling is not scanned).
  cut = index(head, "::operator")
  pre = cut ? substr(head, 1, cut + 1) : head
  op = cut ? substr(head, cut + 2) : ""
  depth = 0
  for (i = length(pre); i > 0; i--) {
    c = substr(pre, i, 1)
    if (c == ">") depth++
    else if (c == "<") depth--
    else if (c == " " && depth == 0) break
  }
  head = substr(pre, i + 1) op
  gsub(/@anon@/, "(anonymous namespace)", head)
  return head
}
/^ *-: *0:Source:/ {
  file = $0
  sub(/^ *-: *0:Source:/, "", file)
  in_src = index(file, src) == 1 && file ~ /\.cc$/
  next
}
in_src && /^function .* called [0-9]+ returned / {
  sig = $0
  sub(/^function /, "", sig)
  calls = sig
  sub(/ returned .*$/, "", calls)
  sub(/^.* called /, "", calls)
  sub(/ called [0-9]+ returned .*$/, "", sig)
  if (sig ~ /\{lambda\(/) next
  name = qualified(sig)
  if (name !~ /^flicker::/) next
  print (calls + 0 > 0 ? 1 : 0) "\t" file ":" sig "\t" name
}
