#!/usr/bin/env python3
"""Repository lint for xorator (DESIGN.md section 6 conventions).

Checks, in order of appearance in DESIGN.md:

  guard      src/**/*.h must use the XORATOR_<PATH>_H_ include-guard pattern
             (ifndef/define pair at the top, matching endif comment at the
             bottom) derived from the path below src/.
  throw      Library code (src/) must not throw or catch: fallible functions
             return Status/Result<T> (common/status.h).
  docs       Namespace-scope classes, structs, enums, and free functions
             declared in src/ headers must carry a `///` doc comment.
  banned     rand/srand (seeded std::mt19937_64 only), strcpy/strcat/sprintf/
             gets (bounds-unsafe), raw printf (library code reports
             through Status messages; diagnostics go to stderr), and the
             throwing or unchecked number parsers (std::stoi and its
             siblings, atoi; use std::from_chars) are banned in src/.
  discard    A bare `(void)call(...)` discard is banned everywhere: a
             deliberately ignored Status/Result must use
             XO_DISCARD_STATUS(expr, "why"), and other unused results should
             be named or restructured. `(void)variable;` (no call) is fine.
  raw-mutex  Library code (src/) must not use the raw standard locking
             primitives (std::mutex, std::shared_mutex, std::lock_guard,
             std::unique_lock, ...): they are invisible to Clang Thread
             Safety Analysis. Use the annotated xo::Mutex / xo::SharedMutex
             and their guards from common/mutex.h (DESIGN.md section 10) —
             that header is the single allowlisted wrapper site.
  raw-pin    The raw buffer-pool pin protocol (FetchPage/NewPage/Unpin) is
             banned everywhere outside src/ordb/buffer_pool.{h,cc}: pins
             are owned by the typestate-checked PageRef guard returned by
             BufferPool::Fetch/Create (DESIGN.md section 11), so balance
             is structural instead of manual.
  guard-loop Every operator `::Next(...)` definition in src/ordb/executor.cc
             must poll the query guard (a CheckPoint() call somewhere in its
             body), so that deadlines, cancellation, and memory budgets stay
             responsive no matter which operators a plan composes
             (DESIGN.md section 12).
  lock-rank  Every xo::Mutex / xo::SharedMutex declared in library code must
             be constructed with an explicit LockRank (common/mutex.h), so
             the runtime lock-rank detector can police DESIGN.md section
             10's acquisition hierarchy. A rank-less declaration does not
             compile (the default constructor is deleted), but the lint
             additionally requires the rank to appear on the declaration
             itself — not fed in through an init-list variable — so the
             hierarchy stays greppable.
  raw-bytes  Decode-path files (the slotted page, B+-tree, WAL, heap
             overflow, varint, row codec, XADT and XML parsing sources) must
             not touch raw bytes directly: memcpy/memmove, reinterpret_cast
             and pointer arithmetic on buffer data are banned there. All
             byte access goes through the checked xo::Span / BoundedReader
             accessors of src/common/span.h — the single file allowed to
             hold the unsafe primitives (DESIGN.md section 16).
  lifetime   Library functions returning a borrowed view (std::string_view,
             std::span, RowView, ValueView) must declare what the view
             borrows from with XO_LIFETIME_BOUND (common/lifetime.h) on a
             parameter or on `this`, so Clang builds catch dangling uses
             (DESIGN.md section 14). Functions returning views of static
             storage (the enum-name tables) are allowlisted by name.

Usage:
  lint.py --root <repo-root>      lint the tree, exit 1 on findings
  lint.py --self-test             run the checks against tools/lint/testdata
                                  fixtures and verify expected findings
"""

import argparse
import pathlib
import re
import sys

# Directories whose sources are library code (strict rules).
LIB_DIRS = ("src",)
# Directories additionally scanned for the discard rule.
ALL_DIRS = ("src", "tests", "bench", "examples", "tools")

BANNED_CALLS = {
    "rand": "use a seeded std::mt19937_64 (reproducibility)",
    "srand": "use a seeded std::mt19937_64 (reproducibility)",
    "strcpy": "bounds-unsafe; use std::string or std::memcpy with a size",
    "strcat": "bounds-unsafe; use std::string",
    "sprintf": "bounds-unsafe; use std::snprintf or std::string",
    "gets": "bounds-unsafe; never acceptable",
    "printf": "library code reports through Status; diagnostics use "
              "std::fprintf(stderr, ...)",
}
BANNED_CALLS.update({
    name: "throws or is undefined on bad input; use std::from_chars"
    for name in ("stoi", "stol", "stoll", "stoul", "stoull", "stof", "stod",
                 "stold", "atoi")
})

# `(void)name(...)` or `(void)obj.method(...)` / `(void)p->method(...)`:
# a call result dropped without justification.
DISCARD_RE = re.compile(r"\(\s*void\s*\)\s*[A-Za-z_][\w:]*(?:(?:\.|->)\w+)*\s*\(")

# Raw standard locking primitives, banned in library code: Clang Thread
# Safety Analysis cannot see them, so locks taken this way are unchecked.
RAW_MUTEX_RE = re.compile(
    r"\bstd\s*::\s*(?:(?:recursive_|timed_|recursive_timed_|shared_)?mutex"
    r"|lock_guard|unique_lock|shared_lock|scoped_lock)\b")
# The annotated wrapper layer itself — the one file allowed to touch the
# raw primitives (everything else goes through xo::Mutex & friends).
RAW_MUTEX_ALLOWLIST = ("src/common/mutex.h",)

# A declaration of an annotated mutex: the type followed by a variable
# name (a `*` or `&` after the type is a pointer/reference and carries no
# rank; `MutexLock` and friends do not match the \b boundary).
LOCK_RANK_DECL_RE = re.compile(
    r"\bxo\s*::\s*(?:Shared)?Mutex\b\s+[A-Za-z_]\w*\s*[{(;=]")
# The wrapper layer itself (declares the types, not instances of them).
LOCK_RANK_ALLOWLIST = ("src/common/mutex.h",)

# The raw pin protocol, banned outside the buffer pool itself: every other
# pin is owned by a PageRef guard (BufferPool::Fetch/Create), whose
# typestate makes leak/double-release a compile error under Clang.
RAW_PIN_RE = re.compile(r"\b(?:FetchPage|NewPage|Unpin)\s*\(")
RAW_PIN_ALLOWLIST = ("src/ordb/buffer_pool.h", "src/ordb/buffer_pool.cc")

# Decode-path sources: every file that interprets on-disk or wire bytes.
# Matched by path suffix (like GUARD_LOOP_SUFFIXES) so the self-test fixture
# under testdata/src/ordb/ exercises the same rule. src/common/span.h is the
# single site allowed to hold the raw primitives; it is simply not listed.
RAW_BYTES_SUFFIXES = (
    "common/varint.h", "common/varint.cc",
    "ordb/row_codec.h", "ordb/row_codec.cc",
    "ordb/page.h", "ordb/page.cc",
    "ordb/bptree.h", "ordb/bptree.cc",
    "ordb/heap_file.cc",
    "ordb/wal.h", "ordb/wal.cc",
    "ordb/tuple.cc",
    "ordb/database.cc",
    "xadt/xadt.cc", "xadt/scanner.cc",
    "xml/lexer.cc", "xml/parser.cc",
    "server/protocol.h", "server/protocol.cc",
)
# memcpy/memmove (qualified or not), reinterpret_cast, and pointer
# arithmetic on a buffer (`.data() + off`, `data_ + off`, `buf + pos` is
# too ambiguous to match textually — the first three cover every decode
# idiom this repo ever used).
RAW_BYTES_RE = re.compile(
    r"\bmemcpy\s*\(|\bmemmove\s*\(|\breinterpret_cast\b"
    r"|\bdata\s*\(\s*\)\s*\+|\bdata_\s*\+")

# Files whose `::Next(...)` definitions are executor operator loops and must
# poll the query guard (DESIGN.md section 12). Matched by path suffix so the
# self-test fixture under testdata/src/ordb/ exercises the same rule.
GUARD_LOOP_SUFFIXES = ("ordb/executor.cc",)
GUARD_LOOP_RE = re.compile(r"::\s*Next\s*\(")

# Declarations (and in-class definitions) of functions returning a borrowed
# view. Out-of-class definitions (`Type Class::Fn(...)`) deliberately do not
# match: the attribute lives on the declaration.
VIEW_RETURN_RE = re.compile(
    r"\b(?:Result\s*<\s*std\s*::\s*string_view\s*>|std\s*::\s*string_view"
    r"|std\s*::\s*span\s*<[^;{}()]*>|RowView|ValueView)\s+"
    r"([A-Za-z_]\w*)\s*\(")
# A view-returning match is only a declaration when the line up to it holds
# nothing but declaration specifiers (this skips locals and expressions,
# e.g. `const std::string_view v(payload);`).
VIEW_DECL_PREFIX_RE = re.compile(
    r"^\s*(?:\[\[nodiscard\]\]\s*|static\s+|inline\s+|constexpr\s+|"
    r"virtual\s+|friend\s+|explicit\s+)*$")
# Functions whose views aim at static storage (enum-name tables): there is
# no owner to bind the lifetime to.
LIFETIME_STATIC_ALLOWLIST = frozenset({
    "StatusCodeToString", "ColumnTypeName", "TypeName", "CompareOpName",
    "HealthStateName",
})

DECL_RE = re.compile(
    r"^(?:template\s*<.*>\s*)?"
    r"(?:class|struct|enum(?:\s+class)?)\s+(?:\[\[\w+\]\]\s*)?\w+"
    r"\s*(?:final\s*)?(?::[^;]*)?(?:\{|$)"
)
FUNC_RE = re.compile(
    r"^(?:\[\[nodiscard\]\]\s+)?"
    r"(?:inline\s+|constexpr\s+|static\s+)*"
    r"(?:[\w:<>,\s&*]+?)\s+\w+\s*\("
)


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(text):
    """Blanks out comments and string/char literals, preserving line
    structure, so the token checks do not fire on prose or literals."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            out.append("".join(ch if ch == "\n" else " " for ch in text[i:j]))
            i = j
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            out.append(quote + " " * (j - i - 2) + (quote if j - i >= 2 else ""))
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def expected_guard(root, path):
    rel = path.relative_to(root / "src")
    token = re.sub(r"[^A-Za-z0-9]", "_", str(rel)).upper()
    return f"XORATOR_{token}_"


def check_guard(root, path, lines, findings):
    guard = expected_guard(root, path)
    meaningful = [l for l in lines if l.strip() and not l.strip().startswith("//")]
    if len(meaningful) < 2 or \
            meaningful[0].strip() != f"#ifndef {guard}" or \
            meaningful[1].strip() != f"#define {guard}":
        findings.append(Finding(path, 1, "guard",
                                f"header must open with '#ifndef {guard}' / "
                                f"'#define {guard}'"))
        return
    tail = [l.strip() for l in lines if l.strip()]
    if not tail or tail[-1] != f"#endif  // {guard}":
        findings.append(Finding(path, len(lines), "guard",
                                f"header must close with '#endif  // {guard}'"))


def check_throw(path, stripped_lines, findings):
    for no, line in enumerate(stripped_lines, 1):
        if re.search(r"\bthrow\b", line) or re.search(r"\bcatch\s*\(", line):
            findings.append(Finding(path, no, "throw",
                                    "library code must not throw or catch; "
                                    "return a Status (common/status.h)"))


def check_banned(path, stripped_lines, findings):
    for no, line in enumerate(stripped_lines, 1):
        for name, why in BANNED_CALLS.items():
            # Reject bare calls; allow qualified safe cousins (std::snprintf,
            # fprintf) which do not match the \b...\( pattern for `name`.
            for m in re.finditer(r"\b" + name + r"\s*\(", line):
                before = line[:m.start()]
                if re.search(r"[\w.>]$", before.rstrip()) and \
                        not before.rstrip().endswith("std::"):
                    continue  # method call or prefixed identifier
                findings.append(Finding(path, no, "banned",
                                        f"'{name}' is banned: {why}"))


def check_raw_mutex(root, path, stripped_lines, findings):
    rel = path.relative_to(root).as_posix()
    if rel in RAW_MUTEX_ALLOWLIST:
        return
    for no, line in enumerate(stripped_lines, 1):
        if RAW_MUTEX_RE.search(line):
            findings.append(Finding(path, no, "raw-mutex",
                                    "raw std locking primitive is invisible "
                                    "to Thread Safety Analysis; use "
                                    "xo::Mutex / xo::SharedMutex and their "
                                    "guards (common/mutex.h)"))


def check_lock_rank(root, path, stripped_text, findings):
    """Every annotated-mutex declaration names its LockRank in place.

    The deleted default constructor already forces *some* rank expression;
    this check pins it to the declaration (`xo::Mutex mu_{
    xo::LockRank::k...};`) so `grep LockRank` reproduces the whole lock
    hierarchy, and a reviewer never has to chase an initializer through
    constructor plumbing to learn where a mutex sits in DESIGN.md
    section 10's order."""
    rel = path.relative_to(root).as_posix()
    if rel in LOCK_RANK_ALLOWLIST:
        return
    n = len(stripped_text)
    for m in LOCK_RANK_DECL_RE.finditer(stripped_text):
        # The declaration runs from the match to its terminating `;`.
        j = stripped_text.find(";", m.start())
        j = n if j == -1 else j
        if "LockRank" not in stripped_text[m.start():j]:
            line = stripped_text.count("\n", 0, m.start()) + 1
            findings.append(Finding(path, line, "lock-rank",
                                    "xo::Mutex / xo::SharedMutex declared "
                                    "without an explicit LockRank; state "
                                    "the rank on the declaration (e.g. "
                                    "xo::Mutex mu_{xo::LockRank::kWal};) "
                                    "so the DESIGN.md section 10 hierarchy "
                                    "stays greppable"))


def check_raw_pin(root, path, stripped_lines, findings):
    rel = path.relative_to(root).as_posix()
    if rel in RAW_PIN_ALLOWLIST:
        return
    for no, line in enumerate(stripped_lines, 1):
        if RAW_PIN_RE.search(line):
            findings.append(Finding(path, no, "raw-pin",
                                    "raw FetchPage/NewPage/Unpin outside "
                                    "src/ordb/buffer_pool.{h,cc}; hold the "
                                    "pin through a PageRef guard from "
                                    "BufferPool::Fetch/Create instead"))


def check_raw_bytes(root, path, stripped_lines, findings):
    """Decode-path files must not touch raw bytes directly.

    Every offset and length these files handle was decoded from attacker
    (or failing-disk) bytes; a raw memcpy or `data() + off` there is an
    unchecked trust of that input. The checked accessors in
    src/common/span.h (xo::Span, BoundedReader, LoadFixed/StoreFixed,
    ViewBytes, CopyInto, MoveWithin) bound every access and fail closed
    with kCorruption; span.h itself is the one place allowed to hold the
    unsafe primitives (DESIGN.md section 16)."""
    rel = path.relative_to(root).as_posix()
    if not rel.endswith(RAW_BYTES_SUFFIXES):
        return
    for no, line in enumerate(stripped_lines, 1):
        if RAW_BYTES_RE.search(line):
            findings.append(Finding(path, no, "raw-bytes",
                                    "raw byte access in a decode path; use "
                                    "the checked xo::Span / BoundedReader "
                                    "accessors (common/span.h, DESIGN.md "
                                    "section 16) instead of memcpy/"
                                    "reinterpret_cast/pointer arithmetic"))


def check_guard_loop(root, path, stripped_text, findings):
    """Every `::Next(...)` definition body must contain a CheckPoint call.

    Operator Next loops are the engine's cancellation points: an operator
    that never polls the guard makes whole plans immune to deadlines,
    Cancel(), and memory budgets. The check brace-matches each definition
    body (a `{` after the parameter list; calls and declarations end with
    `;` and are skipped) and looks for the token inside it."""
    rel = path.relative_to(root).as_posix()
    if not rel.endswith(GUARD_LOOP_SUFFIXES):
        return
    n = len(stripped_text)
    for m in GUARD_LOOP_RE.finditer(stripped_text):
        # Match the parameter list's parentheses.
        i = stripped_text.find("(", m.start())
        depth, j = 1, i + 1
        while j < n and depth:
            if stripped_text[j] == "(":
                depth += 1
            elif stripped_text[j] == ")":
                depth -= 1
            j += 1
        # Skip qualifiers (const, noexcept, override, whitespace) up to the
        # body's opening brace; anything else means this was a call.
        k = j
        while k < n and (stripped_text[k].isspace() or
                         stripped_text[k].isalnum() or
                         stripped_text[k] == "_"):
            k += 1
        if k >= n or stripped_text[k] != "{":
            continue
        depth, b = 1, k + 1
        while b < n and depth:
            if stripped_text[b] == "{":
                depth += 1
            elif stripped_text[b] == "}":
                depth -= 1
            b += 1
        if "CheckPoint" not in stripped_text[k:b]:
            line = stripped_text.count("\n", 0, m.start()) + 1
            findings.append(Finding(path, line, "guard-loop",
                                    "operator Next() never polls the query "
                                    "guard; add a CheckPoint() call so "
                                    "deadlines/cancel/budgets stay "
                                    "responsive (DESIGN.md section 12)"))


def check_lifetime(path, stripped_text, findings):
    """View-returning declarations must carry XO_LIFETIME_BOUND.

    A function handing out a std::string_view / std::span / RowView /
    ValueView borrows storage owned by something else; the annotation names
    that something (a parameter, or `this`) so Clang's lifetime analysis can
    reject dangling uses at the call site (DESIGN.md section 14). The check
    scans the declaration from the return type to the terminating `;` or
    body `{` and looks for the token anywhere in it."""
    n = len(stripped_text)
    for m in VIEW_RETURN_RE.finditer(stripped_text):
        if m.group(1) in LIFETIME_STATIC_ALLOWLIST:
            continue
        line_start = stripped_text.rfind("\n", 0, m.start()) + 1
        if not VIEW_DECL_PREFIX_RE.match(stripped_text[line_start:m.start()]):
            continue
        # The declaration runs to the first `;` or `{` outside parentheses
        # (attribute arguments like XO_CALLABLE_WHEN("...") nest in parens).
        depth, j = 1, m.end()
        while j < n:
            c = stripped_text[j]
            if c == "(":
                depth += 1
            elif c == ")":
                depth -= 1
            elif depth == 0 and c in ";{":
                break
            j += 1
        if "XO_LIFETIME_BOUND" not in stripped_text[m.start():j]:
            line = stripped_text.count("\n", 0, m.start()) + 1
            findings.append(Finding(path, line, "lifetime",
                                    f"'{m.group(1)}' returns a borrowed view "
                                    "without XO_LIFETIME_BOUND; annotate the "
                                    "owning parameter or `this` "
                                    "(common/lifetime.h, DESIGN.md section "
                                    "14), or allowlist it if the view aims "
                                    "at static storage"))


def check_discard(path, stripped_lines, findings):
    for no, line in enumerate(stripped_lines, 1):
        if DISCARD_RE.search(line):
            findings.append(Finding(path, no, "discard",
                                    "bare (void) call discard; use "
                                    "XO_DISCARD_STATUS(expr, \"why\") for "
                                    "Status/Result, or name the value"))


def relevant_decl(line):
    s = line.strip()
    if not s or s.startswith(("#", "//", "/*", "*", "}", "using ", "typedef ",
                              "extern ", "friend ", "namespace")):
        return False
    if s.startswith(("XORATOR_", "XO_")):  # macro invocations
        return False
    return bool(DECL_RE.match(s))


def check_docs(path, lines, stripped_lines, findings):
    """Namespace-scope classes/structs/enums in headers need /// docs."""
    depth = 0  # brace depth; declarations at depth 0 are namespace scope
    ns_depth = 0
    for no, raw in enumerate(lines, 1):
        line = stripped_lines[no - 1]
        s = raw.strip()
        if re.match(r"^namespace\b", s) and "{" in line:
            ns_depth += 1
            depth += line.count("{") - line.count("}")
            continue
        at_top = depth == ns_depth
        if at_top and relevant_decl(raw):
            # Look upward for a `///` block (skip blank and template lines).
            k = no - 2
            while k >= 0 and (not lines[k].strip() or
                              lines[k].strip().startswith("template")):
                k -= 1
            if k < 0 or not lines[k].strip().startswith("///"):
                findings.append(Finding(path, no, "docs",
                                        "public declaration needs a /// doc "
                                        "comment"))
        depth += line.count("{") - line.count("}")
        if depth < ns_depth:
            ns_depth = depth
    return


def lint_file(root, path, findings, lib):
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError:
        findings.append(Finding(path, 1, "encoding", "file is not UTF-8"))
        return
    lines = text.splitlines()
    stripped_text = strip_comments_and_strings(text)
    stripped = stripped_text.splitlines()
    # Pad in case the file does not end with a newline symmetry.
    while len(stripped) < len(lines):
        stripped.append("")
    if lib:
        if path.suffix == ".h":
            check_guard(root, path, lines, findings)
            check_docs(path, lines, stripped, findings)
        check_throw(path, stripped, findings)
        check_banned(path, stripped, findings)
        check_raw_mutex(root, path, stripped, findings)
        check_lock_rank(root, path, stripped_text, findings)
        check_lifetime(path, stripped_text, findings)
    # The pin protocol is global: tests and benches hold pins through
    # PageRef guards too.
    check_raw_pin(root, path, stripped, findings)
    check_raw_bytes(root, path, stripped, findings)
    check_guard_loop(root, path, stripped_text, findings)
    check_discard(path, stripped, findings)


def run(root):
    findings = []
    for d in ALL_DIRS:
        base = root / d
        if not base.is_dir():
            continue
        lib = d in LIB_DIRS
        for path in sorted(base.rglob("*")):
            if path.suffix not in (".h", ".cc", ".cpp", ".hpp"):
                continue
            if "testdata" in path.parts:
                continue
            lint_file(root, path, findings, lib)
    return findings


def self_test(script_dir):
    """Runs the checks over the fixtures and verifies each expected finding
    (and that the clean fixture produces none)."""
    testdata = script_dir / "testdata"
    cases = {
        "bad_guard.h": {"guard"},
        "bad_throw.h": {"throw", "docs"},
        "bad_banned.cc": {"banned"},
        "bad_discard.cc": {"discard"},
        "bad_raw_mutex.cc": {"raw-mutex"},
        "bad_lock_rank.cc": {"lock-rank"},
        "bad_raw_pin.cc": {"raw-pin"},
        "bad_lifetime.cc": {"lifetime"},
        "ordb/executor.cc": {"guard-loop"},
        "ordb/row_codec.cc": {"raw-bytes"},
        "clean.h": set(),
    }
    failures = []
    for name, expected in cases.items():
        path = testdata / "src" / name
        if not path.exists():
            failures.append(f"missing fixture {path}")
            continue
        findings = []
        lint_file(testdata, path, findings, lib=True)
        got = {f.rule for f in findings}
        if got != expected:
            failures.append(f"{name}: expected rules {sorted(expected)}, "
                            f"got {sorted(got)}: "
                            + "; ".join(str(f) for f in findings))
        if name == "bad_banned.cc":
            # Every banned name must fire, not just the rule.
            named = {re.match(r"'(\w+)'", f.message).group(1)
                     for f in findings if f.rule == "banned"}
            missing = sorted(set(BANNED_CALLS) - named)
            if missing:
                failures.append(f"{name}: no finding for {missing}")
    if failures:
        print("lint self-test FAILED:")
        for f in failures:
            print("  " + f)
        return 1
    print(f"lint self-test passed ({len(cases)} fixtures)")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", type=pathlib.Path,
                    default=pathlib.Path(__file__).resolve().parents[2])
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test(pathlib.Path(__file__).resolve().parent)
    findings = run(args.root.resolve())
    for f in findings:
        print(f)
    if findings:
        print(f"lint: {len(findings)} finding(s)")
        return 1
    print("lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
