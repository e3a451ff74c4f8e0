#!/usr/bin/env sh
# Docs-consistency lane: cheap grep-based checks that the documentation
# does not drift from the tree. Fails (exit 1, one line per problem) when
#
#   1. a markdown link target in README.md / DESIGN.md / EXPERIMENTS.md /
#      docs/*.md points at a file that does not exist,
#   2. a `bench_*` harness or `examples/<name>` binary mentioned in the
#      docs has no source file under bench/ or examples/,
#   3. a tests/*.sh, tests/**/*_test.cpp, BENCH_*.json, or docs/*.md path
#      mentioned in the docs does not exist,
#   4. docs/DETERMINISM.md stops documenting both executor modes
#      (stepped and free_running) — the contract page must cover
#      whichever mode EngineConfig::executor_mode selects,
#   5. docs/OBSERVABILITY.md stops documenting an exporter format the
#      code registers (the ExporterFormat names in src/obs/export.cpp),
#   6. docs/FEDERATION.md stops documenting a federation message type the
#      wire protocol defines (the MsgType enumerators in
#      src/fed/wire.hpp),
#   7. a src/**/*.hpp or src/**/*.cpp path mentioned in the docs does not
#      exist (so docs stop naming deleted sources).
#   8. a backticked `Type::member` in the docs names a Type that no
#      src/**/*.hpp header defines (class, struct or enum), or whose
#      defining header does not contain `member` outside comments (so docs
#      stop naming deleted or renamed API).
#   9. a backticked call `name(` in the docs names a function that no
#      src/**/*.hpp header mentions as `name(` outside comments (so docs
#      stop naming deleted free functions and methods). Names the docs
#      cite on purpose without the tree providing them are listed in
#      call_allowlist.
#  10. a `-D<NAME>` CMake flag in the docs names no option() or CACHE
#      variable that CMakeLists.txt declares (so docs stop naming deleted
#      build switches).
#
# Wired into tests/run_ci.sh as the `docs` lane.
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
cd "$repo_root"

docs="README.md DESIGN.md EXPERIMENTS.md"
for f in docs/*.md; do docs="$docs $f"; done

status=0
fail() {
  echo "check_docs: $1" >&2
  status=1
}

# 1. Markdown link targets, resolved relative to the linking file.
for doc in $docs; do
  dir=$(dirname -- "$doc")
  # [text](target) with a path-like target: no URLs, no pure anchors.
  grep -o '](\([^)#]*\))' "$doc" | sed 's/^](//; s/)$//' |
  while IFS= read -r target; do
    case "$target" in
      http://*|https://*|mailto:*|'') continue ;;
    esac
    if [ ! -e "$dir/$target" ] && [ ! -e "$target" ]; then
      echo "check_docs: $doc links to missing file: $target" >&2
      touch "$repo_root/.check_docs_failed"
    fi
  done
done

# 2. Bench harnesses and example binaries named in the docs must exist.
for name in $(grep -ho 'bench_[a-z0-9_]*' $docs | sort -u); do
  [ "$name" = "bench_" ] && continue
  if [ ! -e "bench/$name.cpp" ] && ! grep -q "$name" bench/CMakeLists.txt; then
    fail "docs mention unknown bench harness: $name"
  fi
done
for name in $(grep -ho 'examples/[a-z0-9_]*' $docs | sed 's,examples/,,' | sort -u); do
  [ -z "$name" ] && continue
  if [ ! -e "examples/$name.cpp" ] && [ ! -e "examples/$name" ]; then
    fail "docs mention unknown example: examples/$name"
  fi
done

# 3. Script, test-source, result-JSON, and docs paths named in the docs.
for path in $(grep -ho 'tests/[a-z0-9_/]*\.\(sh\|cpp\)' $docs | sort -u) \
            $(grep -ho 'BENCH_[a-z]*\.json' $docs | sort -u) \
            $(grep -ho 'docs/[A-Za-z0-9_]*\.md' $docs | sort -u); do
  if [ ! -e "$path" ]; then
    fail "docs mention missing file: $path"
  fi
done

# 4. The determinism page must document both executor modes: the stepped
# contract and the free-running relaxed contract are the reference for
# every differential suite.
for mode in stepped free_running; do
  if ! grep -q "$mode" docs/DETERMINISM.md; then
    fail "docs/DETERMINISM.md no longer documents executor mode: $mode"
  fi
done

# 5. Every export format the code registers must be documented where the
# observability walkthrough lives. The names are extracted from the
# ExporterFormat{"<name>", ...} literals, which export.cpp keeps one per
# line for exactly this reason.
if [ ! -e docs/OBSERVABILITY.md ]; then
  fail "docs/OBSERVABILITY.md is missing"
else
  for fmt in $(sed -n 's/.*ExporterFormat{"\([a-z-]*\)".*/\1/p' src/obs/export.cpp); do
    if ! grep -q "$fmt" docs/OBSERVABILITY.md; then
      fail "docs/OBSERVABILITY.md does not document exporter format: $fmt"
    fi
  done
fi

# 6. Every federation wire message type must be documented in the wire
# spec. The enumerators are extracted from the MsgType enum, which
# wire.hpp keeps one per line for exactly this reason; the spec names
# them uppercase (HELLO, WELCOME, ...), so the match is case-insensitive.
if [ ! -e docs/FEDERATION.md ]; then
  fail "docs/FEDERATION.md is missing"
else
  for msg in $(sed -n '/enum class MsgType/,/};/s/^  \([a-z_]*\) =.*/\1/p' \
                 src/fed/wire.hpp); do
    if ! grep -qi "$msg" docs/FEDERATION.md; then
      fail "docs/FEDERATION.md does not document federation message: $msg"
    fi
  done
fi

# 7. Source paths named in the docs must exist.
for path in $(grep -ho 'src/[A-Za-z0-9_/]*\.\(hpp\|cpp\)' $docs | sort -u); do
  if [ ! -e "$path" ]; then
    fail "docs mention missing source file: $path"
  fi
done

# 8. `Type::member` names in backticks must exist in the header that
# defines Type. Comments are stripped first, so a header that only
# mentions a deleted member in prose does not keep the name alive.
headers=$(find src -name '*.hpp' | sort)
for ref in $(grep -ho '`[^`]*`' $docs |
             grep -o '[A-Z][A-Za-z0-9_]*::[A-Za-z_][A-Za-z0-9_]*' | sort -u); do
  type=${ref%%::*}
  member=${ref#*::}
  found=no
  for h in $(grep -lE "^[[:space:]]*(class|struct|enum class|enum) $type( final)?([[:space:]]*[:{]|[[:space:]]*\$)" $headers); do
    if sed 's,//.*,,' "$h" | grep -qw -- "$member"; then
      found=yes
      break
    fi
  done
  if [ "$found" = no ]; then
    fail "docs name $ref, but no src/**/*.hpp defining $type declares $member"
  fi
done

# 9. Backticked calls must name a function some header still has. One
# comment-stripped copy of every header is searched for `name(`.
call_allowlist="rand"  # DETERMINISM.md: "Nothing calls `rand()`"
header_code=$(mktemp)
for h in $headers; do sed 's,//.*,,' "$h"; done >"$header_code"
for name in $(grep -ho '`[^`]*`' $docs |
              grep -o '[A-Za-z_][A-Za-z0-9_]*(' | sed 's/($//' | sort -u); do
  case " $call_allowlist " in *" $name "*) continue ;; esac
  if ! grep -qE "(^|[^A-Za-z0-9_])$name\(" "$header_code"; then
    fail "docs call $name(), but no src/**/*.hpp declares it"
  fi
done
rm -f "$header_code"

# 10. CMake -D flags must name a variable the top-level CMakeLists.txt
# declares as an option() or a CACHE entry. The flag must start a word, so
# prose such as "PktGen-DPDK" is not read as a flag.
for name in $(grep -hoE '(^|[[:space:]`"(])-D[A-Za-z_][A-Za-z0-9_]*' $docs |
              sed 's/.*-D//' | sort -u); do
  if ! grep -qE "^[[:space:]]*(option\($name([[:space:]]|\$)|set\($name[[:space:]].*CACHE)" \
         CMakeLists.txt; then
    fail "docs pass -D$name, but CMakeLists.txt declares no such option"
  fi
done

if [ -e "$repo_root/.check_docs_failed" ]; then
  rm -f "$repo_root/.check_docs_failed"
  status=1
fi

if [ "$status" -eq 0 ]; then
  echo "check_docs: OK ($(echo $docs | wc -w) files checked)"
fi
exit "$status"
