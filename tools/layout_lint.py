#!/usr/bin/env python3
"""Per-thread array layout check: no false sharing between threads.

A per-thread array is one sized by ThreadRegistry::MaxThreads or indexed
by a thread's registry slot (`X[... slot() ...]`). When its element is
smaller than a cache line, neighbouring threads' elements share a line and
every owner write invalidates the other owners' copies. The rmw/op and
st/op proxies cannot see this: each store goes to a counter that looks
private. So the element must be `CacheLinePadded<...>` or a type declared
`alignas(CacheLineSize)`, or the state belongs on the thread side instead.

An array written by a single thread (a monitor's own bookkeeping) cannot
false-share; it carries an annotation on the flagged line, the line above
it, or the array's declaration (or the line above that):

    // layout-lint: allow(<reason>)

The scanner is textual: it strips comments and string literals (sharing
atomics_lint.py's stripper), finds the sizing and indexing sites, and
resolves an indexed array's element type from its declaration in the same
file, the header or source of the same name, or anywhere scanned.

Usage:
    tools/layout_lint.py              # scans src/ of this repository
    tools/layout_lint.py --self-test

Exit status: 0 clean, 1 findings, 2 usage/self-test failure.
"""

import re
import sys
from pathlib import Path

from atomics_lint import line_of, strip_noncode

AUDITED_DIR = "src"
SUFFIXES = {".h", ".cpp"}

ALLOW = re.compile(r"layout-lint:\s*allow\(")
PADDED_TYPE = re.compile(
    r"\b(?:struct|class)\s+alignas\s*\(\s*CacheLineSize\s*\)\s+(\w+)")
CONTAINER_HEAD = re.compile(r"\bstd\s*::\s*(unique_ptr|vector|array)\s*<")
C_ARRAY_DECL = re.compile(
    r"\b(?P<elem>[A-Za-z_][\w:]*)\s+(?P<name>[A-Za-z_]\w*)\s*"
    r"\[(?P<size>[^\[\]\n]+)\]\s*(?:;|=|\{)")
NOT_A_TYPE = {"return", "case", "delete", "new", "throw", "else", "do",
              "goto", "sizeof"}
NEW_ARRAY = re.compile(r"\bnew\s+")
MAX_THREADS = re.compile(r"\bThreadRegistry\s*::\s*MaxThreads\b")
SIZED_BY_CALL = re.compile(
    r"\b(?P<name>\w+)\s*(?:\.\s*(?:resize|assign)\s*)?\(\s*"
    r"ThreadRegistry\s*::\s*MaxThreads\b")
SLOT_INDEX = re.compile(
    r"\b(?P<name>\w+)\s*\[(?P<idx>[^\[\];{}]*?\bslot\s*\(\s*\)[^\[\];{}]*)\]")


def balanced_angle(code, open_pos):
    """Returns (inner text, index past the closing '>') for the '<' at
    open_pos, or (None, open_pos) when unbalanced."""
    depth = 0
    for j in range(open_pos, len(code)):
        if code[j] == "<":
            depth += 1
        elif code[j] == ">":
            depth -= 1
            if depth == 0:
                return code[open_pos + 1 : j], j + 1
        elif code[j] in ";{}":
            break
    return None, open_pos


def split_top_level(args):
    """Splits template arguments on commas outside nested <...>."""
    parts, depth, start = [], 0, 0
    for j, c in enumerate(args):
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
        elif c == "," and depth == 0:
            parts.append(args[start:j])
            start = j + 1
    parts.append(args[start:])
    return [p.strip() for p in parts]


def read_type(code, pos):
    """Reads `A::B` with an optional balanced `<...>` from pos; returns
    (type text, end) or (None, pos)."""
    m = re.compile(r"\s*([A-Za-z_][\w:]*)\s*").match(code, pos)
    if not m:
        return None, pos
    end = m.end()
    text = m.group(1)
    if end < len(code) and code[end] == "<":
        inner, end = balanced_angle(code, end)
        if inner is None:
            return None, pos
        text += "<" + inner + ">"
    return text, end


class Decl:
    def __init__(self, name, elem, path, line, size=""):
        self.name, self.elem, self.path = name, elem, path
        self.line, self.size = line, size


def declarations(code, path):
    """Array-like member and variable declarations: std::unique_ptr<T[]>,
    std::vector<T>, std::array<T, N> and C arrays T X[N]."""
    decls = []
    for m in CONTAINER_HEAD.finditer(code):
        inner, end = balanced_angle(code, m.end() - 1)
        if inner is None:
            continue
        name = re.compile(r"\s*([A-Za-z_]\w*)\s*[;={(]").match(code, end)
        if not name:
            continue
        kind, args = m.group(1), split_top_level(inner)
        size = ""
        if kind == "unique_ptr":
            if not args[0].endswith("]"):
                continue
            elem = re.sub(r"\s*\[\s*\]$", "", args[0])
        elif kind == "array":
            elem, size = args[0], args[1] if len(args) > 1 else ""
        else:
            elem = args[0]
        decls.append(Decl(name.group(1), elem, path,
                          line_of(code, m.start()), size))
    for m in C_ARRAY_DECL.finditer(code):
        if m.group("elem") in NOT_A_TYPE:
            continue
        decls.append(Decl(m.group("name"), m.group("elem"), path,
                          line_of(code, m.start()), m.group("size")))
    return decls


def padded(elem, padded_types):
    elem = re.sub(r"\bconst\b", "", elem).strip()
    if re.match(r"(?:\w+::)*CacheLinePadded\s*<", elem):
        return True
    base = re.sub(r"<.*", "", elem).split("::")[-1].strip()
    return base in padded_types


class Unit:
    def __init__(self, path, text):
        self.raw_lines = text.splitlines()
        self.code = strip_noncode(text)
        self.decls = declarations(self.code, path)


def allowed(units, path, line):
    lines = units[path].raw_lines
    return any(1 <= ln <= len(lines) and ALLOW.search(lines[ln - 1])
               for ln in (line, line - 1))


def resolve(units, path, name):
    """The declaration of array `name` seen from `path`: same file first,
    then the same-stem header/source, then a unique match anywhere."""
    stem = Path(path).with_suffix("")
    same_stem = [p for p in units if Path(p).with_suffix("") == stem]
    for scope, unique_only in (([path], False), (same_stem, False),
                               (list(units), True)):
        hits = [d for p in scope for d in units[p].decls if d.name == name]
        if hits:
            return None if unique_only and len(hits) > 1 else hits[0]
    return None


def lint_units(units):
    padded_types = set()
    for u in units.values():
        padded_types.update(PADDED_TYPE.findall(u.code))

    findings = []

    def report(path, line, name, elem, why, decl):
        if padded(elem, padded_types):
            return
        if allowed(units, path, line) or (
                decl and allowed(units, decl.path, decl.line)):
            return
        findings.append(
            (path, line,
             f"{name}: per-thread array ({why}) of {elem}: elements smaller "
             "than a cache line false-share between threads; use "
             "CacheLinePadded<...> or an alignas(CacheLineSize) type, keep "
             "the state on the thread side, or annotate a single-writer "
             "array // layout-lint: allow(<reason>)"))

    for path, u in units.items():
        code = u.code
        # Sized by ThreadRegistry::MaxThreads: new T[...], X(MaxThreads),
        # std::array<T, MaxThreads>, T X[MaxThreads].
        for m in NEW_ARRAY.finditer(code):
            elem, end = read_type(code, m.end())
            if not elem or end >= len(code) or code[end] != "[":
                continue
            close = code.find("]", end)
            if close == -1 or not MAX_THREADS.search(code[end:close]):
                continue
            target = re.search(r"(\w+)\s*\(\s*$", code[:m.start()])
            name = target.group(1) if target else "<new-expression>"
            decl = resolve(units, path, name) if target else None
            report(path, line_of(code, m.start()), name, elem,
                   "sized by MaxThreads", decl)
        for m in SIZED_BY_CALL.finditer(code):
            decl = resolve(units, path, m.group("name"))
            if decl is not None:
                report(path, line_of(code, m.start()), decl.name, decl.elem,
                       "sized by MaxThreads", decl)
        for d in u.decls:
            if MAX_THREADS.search(d.size):
                report(path, d.line, d.name, d.elem, "sized by MaxThreads",
                       d)
        # Indexed by a registry slot: X[... slot() ...].
        for m in SLOT_INDEX.finditer(code):
            name = m.group("name")
            decl = resolve(units, path, name)
            line = line_of(code, m.start())
            if decl is None:
                findings.append(
                    (path, line,
                     f"{name}: indexed by slot() but its declaration was "
                     "not found; declare it in this file or its header"))
                continue
            report(path, line, name, decl.elem, "indexed by slot()", decl)
    return findings


def lint_texts(texts):
    """texts: {path: source}. Returns the findings."""
    return lint_units({p: Unit(p, t) for p, t in texts.items()})


def self_test():
    # The shapes this check exists for: a lock carrying a packed
    # MaxThreads-sized hold array that every reader writes.
    bad = {"bad/Locks.h": """
        class BravoRwLock {
          std::unique_ptr<uint32_t[]> FastHolds;
        };
        class ReadWriteLock {
          std::unique_ptr<uint32_t[]> ReadHolds;
        };
        struct Tallies {
          std::vector<std::atomic<uint64_t>> Marks;
          std::array<RelaxedCounter, ThreadRegistry::MaxThreads> Counts;
          uint64_t Stamps[ThreadRegistry::MaxThreads];
        };
    """, "bad/Locks.cpp": """
        BravoRwLock::BravoRwLock(RuntimeContext &Ctx, BravoConfig Config)
            : Config(Config), Underlying(Ctx),
              FastHolds(new uint32_t[ThreadRegistry::MaxThreads]()) {}
        void BravoRwLock::readLock() {
          uint32_t &Fast = FastHolds[TS.slot()];
        }
        ReadWriteLock::ReadWriteLock(RuntimeContext &Ctx)
            : Ctx(Ctx), ReadHolds(new uint32_t[ThreadRegistry::MaxThreads]()) {}
        void ReadWriteLock::readLock() {
          uint32_t &Holds = ReadHolds[ThreadRegistry::current().slot()];
        }
        Tallies::Tallies() : Marks(ThreadRegistry::MaxThreads) {}
    """}
    good = {"good/Table.h": """
        struct alignas(CacheLineSize) Group { Slot Slots[8]; };
        class Table {
          std::unique_ptr<Group[]> Groups;
          std::vector<CacheLinePadded<uint32_t>> Depth;
          std::array<CacheLinePadded<std::atomic<uint64_t>>,
                     ThreadRegistry::MaxThreads> Cells;
          // layout-lint: allow(single writer: the monitor thread)
          std::unique_ptr<uint64_t[]> Reported;
          std::vector<ThreadState *> Live;
        };
    """, "good/Table.cpp": """
        Table::Table()
            : Groups(new Group[Partitions * ThreadRegistry::MaxThreads]),
              Depth(ThreadRegistry::MaxThreads),
              Reported(new uint64_t[ThreadRegistry::MaxThreads]()) {}
        void Table::enter(ThreadState &TS) {
          Group &G = Groups[static_cast<std::size_t>(Node) * Per +
                            TS.slot()];
          uint32_t &D = *Depth[TS.slot()];
          Live[Slot] = &TS;
          // FastHolds[TS.slot()] in a comment is not code
        }
    """}
    bad_found = lint_texts(bad)
    good_found = lint_texts(good)
    flagged = {f[2].split(":")[0] for f in bad_found}
    want = {"FastHolds", "ReadHolds", "Marks", "Counts", "Stamps"}
    ok = len(bad_found) == 7 and flagged == want and not good_found
    if not ok:
        print(f"self-test FAILED: bad={len(bad_found)} (want 7) flagging "
              f"{sorted(flagged)} (want {sorted(want)}), "
              f"good={len(good_found)} (want 0)")
        for f in bad_found + good_found:
            print("  %s:%d: %s" % f)
        return 2
    print("self-test OK")
    return 0


def main(argv):
    args = argv[1:]
    if args == ["--self-test"]:
        return self_test()
    if args:
        print("usage: layout_lint.py [--self-test]", file=sys.stderr)
        return 2

    root = Path(__file__).resolve().parents[1]
    texts = {}
    for p in sorted((root / AUDITED_DIR).rglob("*")):
        if p.suffix in SUFFIXES:
            texts[str(p.relative_to(root))] = p.read_text()
    findings = lint_texts(texts)
    for path, lineno, msg in findings:
        print(f"{path}:{lineno}: {msg}")
    print(f"layout_lint: {len(texts)} files, {len(findings)} findings")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
