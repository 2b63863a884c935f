#!/usr/bin/env bash
# Lint gate for the mutk tree.
#
# Four layers:
#   1. clang-tidy over the compilation database (config: .clang-tidy,
#      warnings are errors). Skipped with a warning when clang-tidy is
#      not installed, unless MUTK_LINT_REQUIRE_TIDY=1 (CI sets this);
#      skipped silently when MUTK_LINT_SKIP_TIDY=1 (the CI docs job
#      wants the grep layers without a compile).
#   2. Repo-specific greps that codify project rules clang-tidy cannot
#      express: no naked new/delete outside RAII wrappers, no rand()
#      (all randomness goes through SplitMix64/std engines with seeds),
#      no sleep-based synchronization in src/, no mutable shared
#      counters that bypass <atomic>, and no raw socket calls outside
#      the one transport module (src/service/Transport.cpp).
#   3. Metric catalog completeness: every metric name literal in
#      src/obs/ must be documented in docs/observability.md.
#   4. Lock discipline: no raw standard-library locking primitives in
#      src/ outside the annotated wrappers (support/Mutex.h), so every
#      mutex carries a thread-safety capability and feeds the
#      lock-order auditor.
#
# Usage: scripts/lint.sh [build-dir]
#   build-dir must contain compile_commands.json (any preset works;
#   defaults to ./build). Exits non-zero on any finding.
#   MUTK_LINT_ROOT overrides the tree being linted (the lint gate's own
#   fixture tests point it at synthetic trees).

set -u -o pipefail

REPO_ROOT="${MUTK_LINT_ROOT:-$(cd "$(dirname "$0")/.." && pwd)}"
BUILD_DIR="${1:-${REPO_ROOT}/build}"
FAILED=0

note() { printf '%s\n' "$*"; }
fail() {
  printf 'lint: %s\n' "$*" >&2
  FAILED=1
}

# --- Layer 1: clang-tidy ---------------------------------------------------

run_clang_tidy() {
  if [ "${MUTK_LINT_SKIP_TIDY:-0}" = "1" ]; then
    note "lint: MUTK_LINT_SKIP_TIDY=1; skipping static analysis layer"
    return
  fi
  local tidy=""
  for cand in clang-tidy clang-tidy-18 clang-tidy-17 clang-tidy-16 \
              clang-tidy-15 clang-tidy-14; do
    if command -v "$cand" >/dev/null 2>&1; then
      tidy="$cand"
      break
    fi
  done
  if [ -z "$tidy" ]; then
    if [ "${MUTK_LINT_REQUIRE_TIDY:-0}" = "1" ]; then
      fail "clang-tidy not found but MUTK_LINT_REQUIRE_TIDY=1"
    else
      note "lint: clang-tidy not installed; skipping static analysis layer"
    fi
    return
  fi
  if [ ! -f "${BUILD_DIR}/compile_commands.json" ]; then
    fail "no compile_commands.json in ${BUILD_DIR} (configure with cmake first)"
    return
  fi
  note "lint: running ${tidy} over src/ (config: .clang-tidy)"
  # Sources only; headers are pulled in via HeaderFilterRegex.
  local sources
  sources=$(cd "$REPO_ROOT" && find src -name '*.cpp' | sort)
  local runner=""
  for cand in run-clang-tidy run-clang-tidy-18 run-clang-tidy-17 \
              run-clang-tidy-16 run-clang-tidy-15 run-clang-tidy-14; do
    if command -v "$cand" >/dev/null 2>&1; then
      runner="$cand"
      break
    fi
  done
  if [ -n "$runner" ]; then
    # shellcheck disable=SC2086  # word-splitting the file list is intended
    if ! (cd "$REPO_ROOT" &&
          "$runner" -clang-tidy-binary "$(command -v "$tidy")" -quiet \
                    -p "$BUILD_DIR" $sources); then
      fail "clang-tidy reported findings"
    fi
  else
    # shellcheck disable=SC2086
    if ! (cd "$REPO_ROOT" && "$tidy" -p "$BUILD_DIR" --quiet $sources); then
      fail "clang-tidy reported findings"
    fi
  fi
}

run_clang_tidy

# --- Layer 2: repo-specific greps ------------------------------------------

# grep_rule <description> <pattern>
# Flags any match in src/ (tests and examples are exempt: they may
# exercise forbidden constructs deliberately). Line comments are
# stripped before the pattern is re-applied so prose about "the new
# node" does not trip the naked-new rule.
grep_rule() {
  local desc="$1" pattern="$2"
  local hits
  hits=$(cd "$REPO_ROOT" &&
         grep -rnE "$pattern" src --include='*.cpp' --include='*.h' \
           2>/dev/null |
         sed 's|//.*||' | grep -E "$pattern")
  if [ -n "$hits" ]; then
    fail "$desc"
    printf '%s\n' "$hits" >&2
  fi
}

# Ownership is std::unique_ptr/std::vector everywhere; a naked new or
# delete is a leak waiting for an early return.
grep_rule "naked 'new' expression (use std::make_unique / containers)" \
  '(^|[^[:alnum:]_."])new[[:space:]]+[[:alnum:]_:<]'
grep_rule "naked 'delete' expression (use RAII ownership)" \
  '(^|[^[:alnum:]_."])delete([[:space:]]*\[\])?[[:space:]]+[[:alnum:]_]'

# All randomness must be seedable and reproducible: SplitMix64 or a
# std engine with an explicit seed — never the global C PRNG.
grep_rule "C PRNG (rand/srand/random); use SplitMix64 or seeded std engines" \
  '(^|[^[:alnum:]_."])s?rand(om)?[[:space:]]*\('

# Cross-thread counters must be std::atomic (or guarded and documented);
# "volatile" is never a synchronization primitive.
grep_rule "volatile used as a (non-)synchronization primitive" \
  '(^|[^[:alnum:]_."])volatile[[:space:]]'

# Sleeping is not synchronization. Production code coordinates with
# condition variables and join(); sleeps belong in tests only.
grep_rule "sleep-based waiting in src/ (use condition variables)" \
  'sleep_for|sleep_until|usleep\(|::sleep\('

# Durable state may only be written through persist/Files.h (atomic
# temp+fsync+rename, or the O_APPEND AppendFile): stream/stdio file
# output under src/persist/ would bypass the crash-safety discipline.
hits=$(cd "$REPO_ROOT" &&
       grep -rnE 'std::ofstream|std::fstream|fopen\(|freopen\(' src/persist \
         --include='*.cpp' --include='*.h' 2>/dev/null |
       sed 's|//.*||' | grep -E 'std::ofstream|std::fstream|fopen\(|freopen\(')
if [ -n "$hits" ]; then
  fail "non-atomic file writes under src/persist/ (use persist/Files.h primitives)"
  printf '%s\n' "$hits" >&2
fi

# printf-family debugging must not linger outside the designated
# reporting surfaces (tools, Audit failure reporting, ASCII renderers).
DEBUG_PRINT_ALLOWLIST='src/support/Audit.cpp|src/support/LockOrder.cpp|src/tools/|src/analysis/'
hits=$(cd "$REPO_ROOT" &&
       grep -rnE '(^|[^[:alnum:]_."])fprintf\(stderr' src \
         --include='*.cpp' --include='*.h' 2>/dev/null |
       grep -vE "^(${DEBUG_PRINT_ALLOWLIST})")
if [ -n "$hits" ]; then
  fail "stray fprintf(stderr, ...) debugging outside reporting surfaces"
  printf '%s\n' "$hits" >&2
fi

# One socket transport: every accept/send/recv/listen and TCP_NODELAY
# in src/ lives in service/Transport.cpp. Two hand-written copies of
# the frame and accept code drifted apart before (one sent each frame
# in two writes and stalled on Nagle; both leaked finished connection
# threads); a new socket user calls the transport instead.
TRANSPORT_ALLOWLIST='src/service/Transport\.cpp'
SOCKET_CALL_PATTERN='(^|[^[:alnum:]_.>])(::)?accept4?\(|(^|[^[:alnum:]_])::(send|recv|listen)\(|sendmsg\(|TCP_NODELAY'
hits=$(cd "$REPO_ROOT" &&
       grep -rnE "$SOCKET_CALL_PATTERN" src \
         --include='*.cpp' --include='*.h' 2>/dev/null |
       grep -vE "^(${TRANSPORT_ALLOWLIST}):" |
       sed 's|//.*||' | grep -E "$SOCKET_CALL_PATTERN" || true)
if [ -n "$hits" ]; then
  fail "raw socket call outside the transport module (use service/Transport.h)"
  printf '%s\n' "$hits" >&2
fi

# --- Layer 3: metric catalog completeness -----------------------------------
#
# docs/observability.md promises to document every metric the process
# exports. Every "mutk_..." name literal in src/obs/ must therefore
# appear in that file; renaming or adding an instrument without updating
# the catalog fails the lint.
METRIC_DOC="${REPO_ROOT}/docs/observability.md"
if [ ! -f "$METRIC_DOC" ]; then
  fail "docs/observability.md missing (the metric catalog)"
else
  metric_names=$(cd "$REPO_ROOT" &&
                 grep -ohE '"mutk_[a-z0-9_]+"' src/obs/*.cpp src/obs/*.h \
                   2>/dev/null |
                 tr -d '"' | sort -u)
  undocumented=""
  for name in $metric_names; do
    if ! grep -q "$name" "$METRIC_DOC"; then
      undocumented="${undocumented} ${name}"
    fi
  done
  if [ -n "$undocumented" ]; then
    fail "metrics registered in src/obs/ but absent from docs/observability.md:${undocumented}"
  else
    note "lint: metric catalog covers all $(printf '%s\n' "$metric_names" | wc -l) names in src/obs/"
  fi
fi

# --- Layer 4: lock discipline ------------------------------------------------
#
# Every mutex in src/ must be a mutk::Mutex (support/Mutex.h) so it
# carries a Clang thread-safety capability and participates in the
# MUTK_AUDIT lock-order auditor. Raw standard-library primitives are
# confined to the wrapper itself; everything else would be invisible to
# both checkers. docs/development.md#lock-hierarchy documents the rule.
LOCK_PRIMITIVE_ALLOWLIST='src/support/Mutex\.h|src/support/ThreadAnnotations\.h|src/support/LockOrder\.cpp'
LOCK_PRIMITIVE_PATTERN='std::(mutex|shared_mutex|recursive_mutex|timed_mutex|condition_variable|condition_variable_any|lock_guard|unique_lock|shared_lock|scoped_lock)'
hits=$(cd "$REPO_ROOT" &&
       grep -rnE "$LOCK_PRIMITIVE_PATTERN" src \
         --include='*.cpp' --include='*.h' 2>/dev/null |
       grep -vE "^(${LOCK_PRIMITIVE_ALLOWLIST})" |
       sed 's|//.*||' | grep -E "$LOCK_PRIMITIVE_PATTERN" || true)
if [ -n "$hits" ]; then
  fail "raw standard-library locking primitive in src/ (use mutk::Mutex / MutexLock / CondVar from support/Mutex.h so the capability annotations and lock-order auditor apply)"
  printf '%s\n' "$hits" >&2
fi

if [ "$FAILED" -ne 0 ]; then
  note "lint: FAILED"
  exit 1
fi
note "lint: OK"
