#!/usr/bin/env python3
"""genbase_check: repo-specific lint invariants for src/.

Five rules, each encoding a convention the concurrent serving/obs stack
depends on but that neither the compiler nor clang-tidy enforces:

  atomic-memory-order   Every std::atomic load/store/RMW names an explicit
                        std::memory_order. A bare .load() silently means
                        seq_cst — usually an accident in a codebase whose
                        lock-free structures document their ordering, and a
                        reviewer cannot tell intent from default.
  raw-new-delete        No raw `new` / `delete` outside annotated sites.
                        Ownership flows through std::make_unique /
                        containers; the annotated exceptions are the
                        intentionally-leaked process singletons and
                        private-constructor factories.
  mutex-across-run      No std::mutex-family guard held across an
                        Engine::Run* / Serve call. Engine execution is
                        milliseconds to seconds: holding a lock across it
                        serializes the serving tier (the shard router's
                        drain logic was specifically built to avoid this).
  no-bare-assert        No bare assert()/std::abort() in src/ — internal
                        invariants use GENBASE_CHECK (which prints
                        file:line before aborting and is greppable),
                        runtime conditions use Status/Result.
  fault-hook-guard      Every FaultInjector hook call (OnServe,
                        ShardCrashed, ShardLatencySeconds,
                        DrawTransientError, ConsumeReloadFailure) in
                        src/serving/ outside faults.{h,cc} must sit inside
                        a scope guarded by an `enabled()` check — either
                        the positive `if (f && f->enabled()) { ... }`
                        style or the inverted early-return style
                        `if (f == nullptr || !f->enabled()) return;`. The
                        injector's no-fault fast path is one relaxed atomic
                        load; calling a hook unguarded either crashes on
                        the null default or silently pays mutex/tick costs
                        on every production op.
  plan-arena-alloc      No dense-buffer heap allocation in src/plan/ —
                        no Matrix construction, no std::vector<double>,
                        no `new double[]`/`new unsigned char[]`. Every
                        plan value must live in its slot of the plan's
                        region arenas, where a guard word follows it and
                        the region sizes account for every byte; a
                        buffer allocated elsewhere escapes both the
                        layout's memory accounting and the guard check.
                        The arena's own backing allocation and per-plan
                        statics carry inline waivers.

Waivers: a finding on line N is waived by a comment on line N or N-1 of the
form

    // lint:allow(<rule>): <justification>

The justification is mandatory; `--list-waivers` prints every waiver in the
tree so reviews can audit them in one place (see README).

Zero third-party dependencies; scans the source tree directly (no
compile_commands.json needed) so it runs identically everywhere.
"""

import argparse
import re
import sys
from pathlib import Path

RULES = (
    "atomic-memory-order",
    "raw-new-delete",
    "mutex-across-run",
    "no-bare-assert",
    "fault-hook-guard",
    "plan-arena-alloc",
)

ATOMIC_METHODS = (
    "load|store|exchange|fetch_add|fetch_sub|fetch_and|fetch_or|fetch_xor|"
    "compare_exchange_weak|compare_exchange_strong|wait|notify_one|"
    "notify_all"
)
# Receiver limited to an expression tail (identifier / ) / ]) directly
# joined by . or -> so free functions named `load` etc. don't match.
ATOMIC_CALL_RE = re.compile(
    r"[\w\)\]](?:\.|->)(" + ATOMIC_METHODS + r")\s*\(")
# notify/wait take no ordering; everything else must name one.
ATOMIC_NEEDS_ORDER = re.compile(
    r"^(load|store|exchange|fetch_add|fetch_sub|fetch_and|fetch_or|"
    r"fetch_xor|compare_exchange_weak|compare_exchange_strong)$")

NEW_RE = re.compile(r"\bnew\b(?!\s*\()")  # `new (place)` placement included
DELETE_RE = re.compile(r"\bdelete\b")
ASSERT_RE = re.compile(r"(?<![\w:])assert\s*\(")
ABORT_RE = re.compile(r"(?:\bstd::)?\babort\s*\(")
LOCK_DECL_RE = re.compile(
    r"\b(?:std::)?(lock_guard|unique_lock|scoped_lock|shared_lock)\s*[<(]")
RUN_CALL_RE = re.compile(r"(?:\.|->)(Run\w*|Serve)\s*\(")
FAULT_HOOK_RE = re.compile(
    r"(?:\.|->)(OnServe|ShardCrashed|ShardLatencySeconds|DrawTransientError|"
    r"ConsumeReloadFailure)\s*\(")
WAIVER_RE = re.compile(r"//\s*lint:allow\(([\w-]+)\)\s*:\s*(\S.*)")
# Block-comment variant for macro bodies, where a // comment would splice
# the continuation backslash into the comment.
BLOCK_WAIVER_RE = re.compile(
    r"lint:allow\(([\w-]+)\)\s*:\s*([^*\n]*[^*\s])")


def strip_comments_and_strings(text):
    """Returns text with comments/string contents blanked (same length and
    line structure), plus {line_number: waiver} parsed from the comments."""
    out = []
    waivers = {}
    i, n = 0, len(text)
    line = 1
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            m = WAIVER_RE.search(text[i:j])
            if m:
                waivers[line] = (m.group(1), m.group(2).strip())
            out.append(" " * (j - i))
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            chunk = text[i:j]
            m = BLOCK_WAIVER_RE.search(chunk)
            if m:
                waivers[line + chunk.count("\n", 0, m.start())] = (
                    m.group(1), m.group(2).strip())
            out.append("".join(ch if ch == "\n" else " " for ch in chunk))
            line += chunk.count("\n")
            i = j
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == quote:
                    break
                j += 1
            j = min(j + 1, n)
            out.append(quote + " " * (j - i - 2) + (quote if j - i >= 2 else ""))
            i = j
        else:
            out.append(c)
            if c == "\n":
                line += 1
            i += 1
    return "".join(out), waivers


def balanced_args(code, open_paren):
    """Returns the argument text of the call whose '(' is at open_paren."""
    depth = 0
    for j in range(open_paren, len(code)):
        if code[j] == "(":
            depth += 1
        elif code[j] == ")":
            depth -= 1
            if depth == 0:
                return code[open_paren + 1:j]
    return code[open_paren + 1:]


def matching_brace(code, open_brace):
    """Returns the index of the '}' closing the '{' at open_brace, or -1."""
    depth = 0
    for j in range(open_brace, len(code)):
        if code[j] == "{":
            depth += 1
        elif code[j] == "}":
            depth -= 1
            if depth == 0:
                return j
    return -1


class Finding:
    def __init__(self, path, line, rule, message):
        self.path, self.line, self.rule, self.message = (
            path, line, rule, message)

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def line_of(code, pos):
    return code.count("\n", 0, pos) + 1


def check_atomics(path, code):
    for m in ATOMIC_CALL_RE.finditer(code):
        method = m.group(1)
        if not ATOMIC_NEEDS_ORDER.match(method):
            continue
        args = balanced_args(code, m.end() - 1)
        if "memory_order" not in args:
            yield Finding(path, line_of(code, m.start()), "atomic-memory-order",
                          f".{method}() without an explicit std::memory_order")


def check_new_delete(path, code):
    for m in NEW_RE.finditer(code):
        yield Finding(path, line_of(code, m.start()), "raw-new-delete",
                      "raw `new` (use std::make_unique, or waive an "
                      "intentional singleton/factory)")
    for m in DELETE_RE.finditer(code):
        # `= delete` declarations are not deallocation.
        prefix = code[max(0, m.start() - 8):m.start()]
        if "=" in prefix:
            continue
        yield Finding(path, line_of(code, m.start()), "raw-new-delete",
                      "raw `delete`")


def check_assert_abort(path, code):
    for m in ASSERT_RE.finditer(code):
        yield Finding(path, line_of(code, m.start()), "no-bare-assert",
                      "bare assert() — use GENBASE_CHECK / GENBASE_DCHECK")
    for m in ABORT_RE.finditer(code):
        yield Finding(path, line_of(code, m.start()), "no-bare-assert",
                      "abort() outside GENBASE_CHECK — use GENBASE_CHECK or "
                      "return a Status")


def check_mutex_across_run(path, code):
    """Flags Run*/Serve calls made while a scoped lock is live.

    Brace-depth heuristic: a lock declaration at depth D guards everything
    until the enclosing scope closes below D. Function-call matching on a
    blanked source can't see through helper indirection; it doesn't need to
    — the rule polices the direct pattern reviews keep catching.
    """
    depth = 0
    live_locks = []  # (depth_at_decl, line)
    for m in re.finditer(r"[{}]|" + LOCK_DECL_RE.pattern + "|" +
                         RUN_CALL_RE.pattern, code):
        tok = m.group(0)
        if tok == "{":
            depth += 1
        elif tok == "}":
            depth -= 1
            live_locks = [(d, l) for (d, l) in live_locks if d <= depth]
        elif LOCK_DECL_RE.match(tok):
            live_locks.append((depth, line_of(code, m.start())))
        else:  # Run*/Serve call
            if live_locks:
                lock_line = live_locks[-1][1]
                yield Finding(
                    path, line_of(code, m.start()), "mutex-across-run",
                    f"engine call under a scoped lock taken at line "
                    f"{lock_line} — release before executing")


def check_fault_hook_guard(path, code):
    """Flags FaultInjector hook calls outside an enabled()-guarded scope.

    Scope model mirrors check_mutex_across_run: an `if (...)` whose
    condition mentions enabled() guards its braced block (tracked by brace
    depth), its brace-less statement (up to the next ';'), and the
    condition text itself (so `f->enabled() && f->ShardCrashed(s)`
    short-circuits count). An *inverted* guard that unconditionally leaves
    — `if (f == nullptr || !f->enabled()) return;` (brace-less or a braced
    body ending in return) — guards the remainder of its enclosing block.
    Not modeled: hooks in the `else` branch of an inverted guard — write
    those positive-if or early-return style, or waive inline. Applies only
    to src/serving/ and exempts the injector's own files, where the hooks
    are defined and self-call.
    """
    norm = str(path).replace("\\", "/")
    if "src/serving/" not in norm or norm.endswith(("/faults.h",
                                                    "/faults.cc")):
        return
    depth = 0
    # Open guards as (brace_depth, position the guarantee starts at): a
    # positive guard covers its block from the '{', an inverted
    # early-return guard covers the enclosing block from just past the
    # return — hooks *inside* the disabled-path body stay flagged.
    guards = []
    guarded_spans = []   # (start, end) ranges guarded without a brace scope
    expected_brace = -1  # position of the '{' opening a pending guard block
    for m in re.finditer(r"[{}]|\bif\s*\(|" + FAULT_HOOK_RE.pattern, code):
        tok = m.group(0)
        if tok == "{":
            depth += 1
            if m.start() == expected_brace:
                guards.append((depth, m.start()))
                expected_brace = -1
        elif tok == "}":
            depth -= 1
            guards = [(d, p) for (d, p) in guards if d <= depth]
        elif tok.startswith("if"):
            open_paren = m.end() - 1
            cond = balanced_args(code, open_paren)
            if "enabled" not in cond:
                continue
            close = open_paren + 1 + len(cond)  # position of ')'
            guarded_spans.append((open_paren, close))
            # A not applied to the enabled() call itself (`!f->enabled()`)
            # marks the inverted idiom: the branch body is the *disabled*
            # path. A `!` elsewhere (`enabled() && !crashed`) stays a
            # positive guard.
            inverted = re.search(r"!\s*(?:[\w.]|->|::)*enabled\s*\(",
                                 cond) is not None
            j = close + 1
            while j < len(code) and code[j].isspace():
                j += 1
            if j < len(code) and code[j] == "{":
                if inverted:
                    # Inverted braced guard: when the body unconditionally
                    # returns, everything after it in the enclosing block
                    # runs with the injector known enabled.
                    end = matching_brace(code, j)
                    body = code[j + 1:end] if end != -1 else code[j + 1:]
                    if end != -1 and re.search(r"\breturn\b[^;{}]*;\s*$",
                                               body):
                        guards.append((depth, end + 1))
                else:
                    expected_brace = j
            else:  # Brace-less guarded statement.
                stmt_end = code.find(";", close)
                if inverted:
                    if stmt_end != -1 and re.match(r"return\b", code[j:]):
                        guards.append((depth, stmt_end + 1))
                else:
                    guarded_spans.append(
                        (close, stmt_end if stmt_end != -1 else len(code)))
        else:  # Hook call.
            pos = m.start()
            if (any(pos >= p for (_, p) in guards) or
                    any(a <= pos < b for a, b in guarded_spans)):
                continue
            yield Finding(
                path, line_of(code, pos), "fault-hook-guard",
                f"FaultInjector::{m.group(1)}() outside an enabled() guard "
                "— wrap in `if (faults != nullptr && faults->enabled())`")


PLAN_ALLOC_RE = re.compile(
    r"\bMatrix\s*\(|\bMatrix::Create\b|\bstd::vector\s*<\s*double\s*>|"
    r"\bnew\b[^;]*?\b(?:double|unsigned char)\s*\[")


def check_plan_arena_alloc(path, code):
    """Flags heap allocation of dense buffers inside src/plan/.

    The plan subsystem's whole point is that execution scratch is placed by
    the static memory planner into one arena with exact peak accounting; a
    Matrix / vector<double> / raw double[] allocated in an operator body is
    memory the planner cannot see. Statics built once per compile (and the
    arena's own backing store) are waived inline.
    """
    norm = str(path).replace("\\", "/")
    if "src/plan/" not in norm:
        return
    for m in PLAN_ALLOC_RE.finditer(code):
        yield Finding(
            path, line_of(code, m.start()), "plan-arena-alloc",
            "dense buffer allocated outside the plan arena — make it a "
            "plan value with a layout slot, or waive a one-time/static "
            "allocation")


def scan_file(path):
    text = path.read_text(encoding="utf-8")
    code, waivers = strip_comments_and_strings(text)
    findings = []
    checkers = [check_atomics, check_new_delete, check_mutex_across_run,
                check_fault_hook_guard, check_plan_arena_alloc]
    # check.h implements GENBASE_CHECK itself; its aborts are the sanctioned
    # ones and carry inline waivers, which the generic path below honors.
    checkers.append(check_assert_abort)
    used_waivers = set()
    for checker in checkers:
        for f in checker(str(path), code):
            waiver = waivers.get(f.line) or waivers.get(f.line - 1)
            if waiver and waiver[0] == f.rule:
                used_waivers.add(f.line if f.line in waivers else f.line - 1)
                continue
            findings.append(f)
    unused = [
        (ln, rule, why) for ln, (rule, why) in sorted(waivers.items())
        if ln not in used_waivers
    ]
    return findings, [(str(path), ln, rule, why) for ln, rule, why in unused]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("roots", nargs="*", default=["src"],
                    help="directories to scan (default: src)")
    ap.add_argument("--list-waivers", action="store_true",
                    help="print every lint:allow waiver and exit")
    args = ap.parse_args()

    repo = Path(__file__).resolve().parent.parent.parent
    files = []
    for root in (args.roots or ["src"]):
        root_path = (repo / root) if not Path(root).is_absolute() else Path(root)
        files.extend(sorted(root_path.rglob("*.h")))
        files.extend(sorted(root_path.rglob("*.cc")))

    all_findings = []
    all_waivers = []
    stale_waivers = []
    for path in files:
        text = path.read_text(encoding="utf-8")
        _, waivers = strip_comments_and_strings(text)
        for ln, (rule, why) in sorted(waivers.items()):
            all_waivers.append((str(path), ln, rule, why))
            if rule not in RULES:
                stale_waivers.append(
                    (str(path), ln, rule, f"unknown rule '{rule}'"))
        findings, _ = scan_file(path)
        all_findings.extend(findings)

    if args.list_waivers:
        for path, ln, rule, why in all_waivers:
            print(f"{path}:{ln}: waiver({rule}): {why}")
        print(f"{len(all_waivers)} waiver(s)")
        return 0

    for path, ln, rule, why in stale_waivers:
        all_findings.append(Finding(path, ln, "waiver", why))
    for f in all_findings:
        print(f)
    if all_findings:
        print(f"genbase_check: {len(all_findings)} finding(s)",
              file=sys.stderr)
        return 1
    print(f"genbase_check: OK ({len(files)} files, "
          f"{len(all_waivers)} waiver(s))")
    return 0


if __name__ == "__main__":
    sys.exit(main())
