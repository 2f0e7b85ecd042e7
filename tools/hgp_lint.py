#!/usr/bin/env python3
"""Project lint driver: rules the C++ compiler cannot enforce.

Rules (library scope = src/** unless noted):

  throw-policy    Only SolveError / CheckError (or bare rethrows) may be
                  thrown in library code; the status taxonomy depends on
                  every escaping exception being classifiable.
                  src/util/status.hpp and src/util/check.hpp — where the
                  taxonomy itself lives — are exempt.
  no-stdout       Library code never writes to stdout (std::cout, printf,
                  puts, fprintf(stdout, ...)); CLI tools, examples,
                  benches and tests are exempt.  stderr is allowed (the
                  logging sink).  The observability emitters are the one
                  sanctioned library exception — they are the designated
                  export sinks, and which stream they write to is the
                  caller's choice — but each is registered BY FILE in
                  NO_STDOUT_EXEMPT_FILES (src/obs/trace.cpp,
                  src/obs/metrics.cpp, src/obs/flight_recorder.cpp,
                  src/obs/introspect.cpp); there is deliberately no
                  src/obs directory blanket, so a new file under src/obs
                  still answers to the rule until it is audited in.
  include-cycle   The project include graph over src/** is acyclic.
  header-hygiene  Every header under src/ has `#pragma once` and starts
                  with a top-of-file comment saying what it is.
  naked-thread    std::thread is constructed only inside src/parallel
                  (everyone else goes through ThreadPool / parallel_for,
                  which own joining and exception transport).
  raw-binary-io   Raw binary I/O (fwrite/fread, POSIX ::write/::read,
                  reinterpret_cast<char*> pointer-punning into streams)
                  happens only inside src/io.  Everything durable goes
                  through the versioned, checksummed snapshot container
                  (src/io/snapshot.hpp, docs/FORMATS.md); ad-hoc struct
                  dumps have no version field, no CRC, and no reader
                  that can reject corruption as kDataLoss.
  raw-socket      The BSD socket primitives (socket, socketpair, connect,
                  bind, listen, accept, accept4, send, recv, sendto,
                  recvfrom, sendmsg, recvmsg) appear only inside src/net.
                  Everything on a wire goes through the framed channel
                  (src/net/channel.hpp): per-frame CRC, version handshake,
                  deadlines, typed kDataLoss/kUnavailable failures — a
                  naked send() has none of that, and its torn writes are
                  indistinguishable from success.  Member calls
                  (channel.send(...)) are not socket calls and do not
                  fire.  src/obs/introspect.cpp predates the net layer
                  and keeps its audited raw-socket scrape endpoint via a
                  per-FILE exemption (same policy as no-stdout: no
                  directory blankets).
  raw-mutex       The std synchronization primitives (std::mutex,
                  std::shared_mutex, std::lock_guard, std::unique_lock,
                  std::condition_variable, ...) appear only inside
                  src/util/sync.hpp.  Everywhere else uses the annotated
                  hgp::Mutex / MutexLock / CondVar wrappers, so Clang
                  Thread Safety Analysis (-DHGP_THREAD_SAFETY=ON) sees
                  every lock in the tree.
  orphan-module   Every header under src/ is included by some file under
                  src/, tools/, bench/, examples/ or perfbench/src/ other
                  than its own .cpp.  Tests do not count: a module that
                  only its own test exercises has no caller and is dead
                  code.  Reported on line 1 of the header.

Suppression: append `// hgp-lint: allow(<rule>)` to the offending line, or
put it alone on the previous line.

Usage:
  tools/hgp_lint.py [--root DIR]     lint the tree; exit 1 on violations
  tools/hgp_lint.py --self-test      run the rule engine against fixture
                                     violations; exit 1 on any miss
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import tempfile

LIB_DIR = "src"
HEADER_EXTS = (".hpp", ".h")
SOURCE_EXTS = (".cpp", ".cc", ".cxx") + HEADER_EXTS

ALLOW_RE = re.compile(r"//\s*hgp-lint:\s*allow\(([a-z-]+(?:\s*,\s*[a-z-]+)*)\)")

# A throw is fine when it rethrows (`throw;`) or constructs one of the
# status-taxonomy types.  Everything else in library code is a violation.
THROW_RE = re.compile(r"\bthrow\b\s*(?!;)([A-Za-z_][A-Za-z0-9_:<>]*)?")
ALLOWED_THROW_TYPES = {"SolveError", "CheckError"}
THROW_EXEMPT_FILES = {
    os.path.join("src", "util", "status.hpp"),
    os.path.join("src", "util", "check.hpp"),
}

STDOUT_RE = re.compile(
    r"std::cout\b"
    r"|\bstd::printf\s*\("
    r"|(?<![\w:.])printf\s*\("
    r"|\bstd::puts\s*\(|(?<![\w:.])puts\s*\("
    r"|\bfprintf\s*\(\s*stdout\b|\bstd::fprintf\s*\(\s*stdout\b"
)
# The telemetry exporters are the library's designated serialization sinks
# (Chrome trace JSON, metrics JSON, Prometheus exposition, flight-recorder
# dumps, summary tables); everything else must route output through them, a
# returned string, or an std::ostream&.  Exemptions are granted per FILE,
# never per directory: each new emitter is audited and registered here
# explicitly, so an unregistered file under src/obs still answers to the
# rule.
NO_STDOUT_EXEMPT_FILES = {
    os.path.join("src", "obs", "trace.cpp"),
    os.path.join("src", "obs", "metrics.cpp"),
    os.path.join("src", "obs", "flight_recorder.cpp"),
    os.path.join("src", "obs", "introspect.cpp"),
}

THREAD_RE = re.compile(r"\bstd::thread\b")
THREAD_ALLOWED_SUBDIR = os.path.join("src", "parallel")

# The binary-I/O primitives that bypass the snapshot container: C stdio
# block transfer, bare POSIX fd read/write (the `(?<![\w.])::` guard keeps
# qualified member names like SnapshotWriter::write_file out), and the
# classic reinterpret_cast<char*> stream-punning idiom.
RAW_IO_RE = re.compile(
    r"\bfwrite\s*\(|\bfread\s*\("
    r"|(?<![\w.])::write\s*\(|(?<![\w.])::read\s*\("
    r"|reinterpret_cast\s*<\s*(?:const\s+)?char\s*\*\s*>"
)
RAW_IO_ALLOWED_SUBDIR = os.path.join("src", "io")

# The std sync primitives the annotated layer wraps.  std::atomic and
# std::call_once are fine — the ban covers blocking primitives the thread
# safety analysis would otherwise not see.
RAW_MUTEX_RE = re.compile(
    r"\bstd::(?:recursive_|timed_|recursive_timed_|shared_)?mutex\b"
    r"|\bstd::(?:lock_guard|unique_lock|shared_lock|scoped_lock)\b"
    r"|\bstd::condition_variable(?:_any)?\b"
)
RAW_MUTEX_EXEMPT_FILES = {
    os.path.join("src", "util", "sync.hpp"),
}

# The BSD socket surface.  The lookbehind rejects member access
# (`channel.send(`, `log->send(`) and scoped names (`Socket::connect_unix` —
# also saved by the trailing `_`); the optional `::` prefix still catches the
# qualified POSIX idiom `::send(fd, ...)` the repo itself uses.
RAW_SOCKET_RE = re.compile(
    r"(?<![\w.:>])(?:::\s*)?"
    r"(?:socket|socketpair|connect|bind|listen|accept4?"
    r"|send(?:to|msg)?|recv(?:from|msg)?)\s*\("
)
# `void bind(const Key&)` is a method DECLARATION reusing a POSIX name, not
# a socket call: a match whose prefix ends in a type-ish identifier (and no
# `::` qualifier) is skipped.  `return send(...)` still fires — `return` is
# a keyword, not a type.
RAW_SOCKET_DECL_PREFIX_RE = re.compile(r"([A-Za-z_][\w:<>]*)\s*[&*]*\s*$")
RAW_SOCKET_NON_TYPE_TOKENS = {
    "return", "co_return", "co_await", "co_yield", "throw", "goto",
    "else", "do", "and", "or", "not",
}
RAW_SOCKET_ALLOWED_SUBDIR = os.path.join("src", "net")
RAW_SOCKET_EXEMPT_FILES = {
    os.path.join("src", "obs", "introspect.cpp"),
}

# Where an #include makes a src/ header "used" (tests/ deliberately absent).
ORPHAN_CALLER_DIRS = ("src", "tools", "bench", "examples",
                      os.path.join("perfbench", "src"))

INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"([^"]+)"')
PRAGMA_ONCE_RE = re.compile(r"^\s*#\s*pragma\s+once\s*$")

LINE_COMMENT_RE = re.compile(r"//.*$")
STRING_RE = re.compile(r'"(?:[^"\\]|\\.)*"')


class Finding:
    def __init__(self, path: str, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_code_line(line: str) -> str:
    """Removes string literals and // comments so rules don't fire on text."""
    no_strings = STRING_RE.sub('""', line)
    return LINE_COMMENT_RE.sub("", no_strings)


def suppressions(lines: list[str], idx: int) -> set[str]:
    """Rules suppressed for line idx (same line or a bare previous line)."""
    out: set[str] = set()
    m = ALLOW_RE.search(lines[idx])
    if m:
        out.update(r.strip() for r in m.group(1).split(","))
    if idx > 0:
        prev = lines[idx - 1].strip()
        m = ALLOW_RE.search(prev)
        if m and prev.startswith("//"):
            out.update(r.strip() for r in m.group(1).split(","))
    return out


def iter_files(root: str, subdir: str, exts: tuple[str, ...]):
    base = os.path.join(root, subdir)
    for dirpath, _, filenames in os.walk(base):
        for name in sorted(filenames):
            if name.endswith(exts):
                yield os.path.join(dirpath, name)


def relpath(root: str, path: str) -> str:
    return os.path.relpath(path, root)


# ------------------------------------------------------------------ rules


def check_throw_policy(root: str) -> list[Finding]:
    findings = []
    for path in iter_files(root, LIB_DIR, SOURCE_EXTS):
        rel = relpath(root, path)
        if rel in THROW_EXEMPT_FILES:
            continue
        lines = open(path, encoding="utf-8").read().splitlines()
        in_block_comment = False
        for i, raw in enumerate(lines):
            line, in_block_comment = strip_block_comments(raw, in_block_comment)
            code = strip_code_line(line)
            for m in THROW_RE.finditer(code):
                if "throw-policy" in suppressions(lines, i):
                    continue
                thrown = m.group(1)
                if thrown is not None:
                    base = thrown.split("<")[0].split("::")[-1]
                    if base in ALLOWED_THROW_TYPES:
                        continue
                label = thrown if thrown is not None else "a non-type expression"
                findings.append(
                    Finding(rel, i + 1, "throw-policy",
                            f"throws `{label}`; library code may only "
                            "throw SolveError or CheckError"))
    return findings


def check_no_stdout(root: str) -> list[Finding]:
    findings = []
    for path in iter_files(root, LIB_DIR, SOURCE_EXTS):
        rel = relpath(root, path)
        if rel in NO_STDOUT_EXEMPT_FILES:
            continue
        lines = open(path, encoding="utf-8").read().splitlines()
        in_block_comment = False
        for i, raw in enumerate(lines):
            line, in_block_comment = strip_block_comments(raw, in_block_comment)
            code = strip_code_line(line)
            if STDOUT_RE.search(code):
                if "no-stdout" in suppressions(lines, i):
                    continue
                findings.append(
                    Finding(rel, i + 1, "no-stdout",
                            "library code must not write to stdout "
                            "(return strings or take an std::ostream&)"))
    return findings


def check_include_cycles(root: str) -> list[Finding]:
    graph: dict[str, list[tuple[str, int]]] = {}
    for path in iter_files(root, LIB_DIR, SOURCE_EXTS):
        rel = relpath(root, path)
        edges = []
        for i, line in enumerate(
                open(path, encoding="utf-8").read().splitlines()):
            m = INCLUDE_RE.match(line)
            if m:
                target = os.path.join(LIB_DIR, m.group(1))
                edges.append((target, i + 1))
        graph[rel] = edges

    findings = []
    WHITE, GREY, BLACK = 0, 1, 2
    color = {node: WHITE for node in graph}
    stack: list[str] = []

    def dfs(node: str) -> None:
        color[node] = GREY
        stack.append(node)
        for target, line in graph.get(node, ()):
            if target not in graph:
                continue  # system or generated header
            if color.get(target, WHITE) == GREY:
                cycle = stack[stack.index(target):] + [target]
                # Report on every member so the cycle is visible from any
                # of the files a developer happens to have open.
                for member in cycle[:-1]:
                    findings.append(
                        Finding(member, line if member == node else 1,
                                "include-cycle",
                                "#include cycle: " + " -> ".join(cycle)))
            elif color.get(target, WHITE) == WHITE:
                dfs(target)
        stack.pop()
        color[node] = BLACK

    for node in sorted(graph):
        if color[node] == WHITE:
            dfs(node)
    return findings


def check_header_hygiene(root: str) -> list[Finding]:
    findings = []
    for path in iter_files(root, LIB_DIR, HEADER_EXTS):
        rel = relpath(root, path)
        lines = open(path, encoding="utf-8").read().splitlines()
        if not any(PRAGMA_ONCE_RE.match(l) for l in lines):
            findings.append(
                Finding(rel, 1, "header-hygiene",
                        "header is missing `#pragma once`"))
        first = next((l for l in lines if l.strip()), "")
        if not (first.lstrip().startswith("//")
                or first.lstrip().startswith("/*")):
            findings.append(
                Finding(rel, 1, "header-hygiene",
                        "header must start with a top-of-file comment "
                        "describing what it provides"))
    return findings


def check_naked_thread(root: str) -> list[Finding]:
    findings = []
    for path in iter_files(root, LIB_DIR, SOURCE_EXTS):
        rel = relpath(root, path)
        if rel.startswith(THREAD_ALLOWED_SUBDIR + os.sep):
            continue
        lines = open(path, encoding="utf-8").read().splitlines()
        in_block_comment = False
        for i, raw in enumerate(lines):
            line, in_block_comment = strip_block_comments(raw, in_block_comment)
            code = strip_code_line(line)
            if THREAD_RE.search(code):
                if "naked-thread" in suppressions(lines, i):
                    continue
                findings.append(
                    Finding(rel, i + 1, "naked-thread",
                            "std::thread outside src/parallel; use "
                            "ThreadPool / parallel_for"))
    return findings


def check_raw_binary_io(root: str) -> list[Finding]:
    findings = []
    for path in iter_files(root, LIB_DIR, SOURCE_EXTS):
        rel = relpath(root, path)
        if rel.startswith(RAW_IO_ALLOWED_SUBDIR + os.sep):
            continue
        lines = open(path, encoding="utf-8").read().splitlines()
        in_block_comment = False
        for i, raw in enumerate(lines):
            line, in_block_comment = strip_block_comments(raw, in_block_comment)
            code = strip_code_line(line)
            if RAW_IO_RE.search(code):
                if "raw-binary-io" in suppressions(lines, i):
                    continue
                findings.append(
                    Finding(rel, i + 1, "raw-binary-io",
                            "raw binary I/O outside src/io; persist through "
                            "the snapshot container (src/io/snapshot.hpp, "
                            "docs/FORMATS.md)"))
    return findings


def check_raw_socket(root: str) -> list[Finding]:
    findings = []
    for path in iter_files(root, LIB_DIR, SOURCE_EXTS):
        rel = relpath(root, path)
        if rel.startswith(RAW_SOCKET_ALLOWED_SUBDIR + os.sep):
            continue
        if rel in RAW_SOCKET_EXEMPT_FILES:
            continue
        lines = open(path, encoding="utf-8").read().splitlines()
        in_block_comment = False
        for i, raw in enumerate(lines):
            line, in_block_comment = strip_block_comments(raw, in_block_comment)
            code = strip_code_line(line)
            for m in RAW_SOCKET_RE.finditer(code):
                if "::" not in m.group(0):
                    decl = RAW_SOCKET_DECL_PREFIX_RE.search(code[:m.start()])
                    if decl and decl.group(1) not in RAW_SOCKET_NON_TYPE_TOKENS:
                        continue  # a declaration borrowing a POSIX name
                if "raw-socket" in suppressions(lines, i):
                    continue
                findings.append(
                    Finding(rel, i + 1, "raw-socket",
                            "BSD socket call outside src/net; speak the "
                            "framed, CRC-checked channel "
                            "(src/net/channel.hpp, docs/FORMATS.md)"))
                break
    return findings


def check_raw_mutex(root: str) -> list[Finding]:
    findings = []
    for path in iter_files(root, LIB_DIR, SOURCE_EXTS):
        rel = relpath(root, path)
        if rel in RAW_MUTEX_EXEMPT_FILES:
            continue
        lines = open(path, encoding="utf-8").read().splitlines()
        in_block_comment = False
        for i, raw in enumerate(lines):
            line, in_block_comment = strip_block_comments(raw, in_block_comment)
            code = strip_code_line(line)
            if RAW_MUTEX_RE.search(code):
                if "raw-mutex" in suppressions(lines, i):
                    continue
                findings.append(
                    Finding(rel, i + 1, "raw-mutex",
                            "std sync primitive outside src/util/sync.hpp; "
                            "use the annotated hgp::Mutex / MutexLock / "
                            "CondVar wrappers"))
    return findings


def check_orphan_module(root: str) -> list[Finding]:
    includers: dict[str, set[str]] = {}
    for subdir in ORPHAN_CALLER_DIRS:
        for path in iter_files(root, subdir, SOURCE_EXTS):
            rel = relpath(root, path)
            for line in open(path, encoding="utf-8").read().splitlines():
                m = INCLUDE_RE.match(line)
                if m:
                    target = os.path.join(LIB_DIR, m.group(1))
                    includers.setdefault(target, set()).add(rel)
    findings = []
    for path in iter_files(root, LIB_DIR, HEADER_EXTS):
        rel = relpath(root, path)
        own_cpp = os.path.splitext(rel)[0] + ".cpp"
        if includers.get(rel, set()) - {own_cpp}:
            continue
        lines = open(path, encoding="utf-8").read().splitlines()
        if lines and "orphan-module" in suppressions(lines, 0):
            continue
        findings.append(
            Finding(rel, 1, "orphan-module",
                    "no file under src/, tools/, bench/, examples/ or "
                    "perfbench/src/ includes this header (its own .cpp "
                    "and tests do not count); delete the module or give "
                    "it a caller"))
    return findings


def strip_block_comments(line: str, in_block: bool) -> tuple[str, bool]:
    """Removes /* ... */ content, tracking state across lines."""
    out = []
    i = 0
    while i < len(line):
        if in_block:
            end = line.find("*/", i)
            if end == -1:
                return "".join(out), True
            i = end + 2
            in_block = False
        else:
            start = line.find("/*", i)
            if start == -1:
                out.append(line[i:])
                break
            out.append(line[i:start])
            i = start + 2
            in_block = True
    return "".join(out), in_block


RULES = [
    check_throw_policy,
    check_no_stdout,
    check_include_cycles,
    check_header_hygiene,
    check_naked_thread,
    check_raw_binary_io,
    check_raw_socket,
    check_raw_mutex,
    check_orphan_module,
]


def run_lint(root: str) -> list[Finding]:
    findings: list[Finding] = []
    for rule in RULES:
        findings.extend(rule(root))
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


# -------------------------------------------------------------- self-test


FIXTURES = {
    # Each entry: path -> (contents, set of rules that must fire on it).
    "src/bad/throws.cpp": (
        '// bad throws\n'
        '#include <stdexcept>\n'
        'void f() { throw std::runtime_error("boom"); }\n'
        'void g() { throw 42; }\n'
        'void ok1() { throw SolveError(code, "fine"); }\n'
        'void ok2() { throw hgp::CheckError("fine"); }\n'
        'void ok3() { try { f(); } catch (...) { throw; } }\n'
        '// the string below must not trip the scanner\n'
        'const char* s = "throw std::logic_error";\n'
        'void sup() { throw std::logic_error("x"); }  // hgp-lint: allow(throw-policy)\n',
        {"throw-policy"},
    ),
    "src/bad/prints.cpp": (
        '// bad prints\n'
        '#include <cstdio>\n'
        '#include <iostream>\n'
        'void a() { std::cout << "hi"; }\n'
        'void b() { printf("hi"); }\n'
        'void c() { std::fprintf(stdout, "hi"); }\n'
        'void d() { std::fprintf(stderr, "fine"); }\n'
        '// hgp-lint: allow(no-stdout)\n'
        'void e() { std::puts("suppressed"); }\n'
        '// std::cout in a comment must not fire\n',
        {"no-stdout"},
    ),
    "src/bad/cycle_a.hpp": (
        '// half of an include cycle\n'
        '#pragma once\n'
        '#include "bad/cycle_b.hpp"\n',
        {"include-cycle"},
    ),
    "src/bad/cycle_b.hpp": (
        '// other half of the cycle\n'
        '#pragma once\n'
        '#include "bad/cycle_a.hpp"\n',
        {"include-cycle"},
    ),
    "src/bad/no_pragma.hpp": (
        '// commented but not guarded\n'
        'int x;\n',
        {"header-hygiene"},
    ),
    "src/bad/no_comment.hpp": (
        '#pragma once\n'
        'int y;\n',
        {"header-hygiene"},
    ),
    "src/bad/spawns.cpp": (
        '// naked thread\n'
        '#include <thread>\n'
        'void run() { std::thread t([] {}); t.join(); }\n'
        'void fine() { std::this_thread::yield(); }\n',
        {"naked-thread"},
    ),
    "src/parallel/pool.cpp": (
        '// thread pool home — std::thread allowed here\n'
        '#include <thread>\n'
        'void spawn() { std::thread t([] {}); t.join(); }\n',
        set(),
    ),
    "src/bad/rawio.cpp": (
        '// raw binary I/O outside src/io\n'
        '#include <cstdio>\n'
        'void a(FILE* f, const Header& h) { fwrite(&h, sizeof h, 1, f); }\n'
        'void b(FILE* f, Header& h) { fread(&h, sizeof h, 1, f); }\n'
        'void c(std::ostream& os, const Header& h) {\n'
        '  os.write(reinterpret_cast<const char*>(&h), sizeof h);\n'
        '}\n'
        'void d(int fd, void* p, long n) { ::read(fd, p, n); }\n'
        'long e(Writer& w) { return w.write_file("fine: not POSIX"); }\n'
        'void sup(FILE* f) { fwrite("x", 1, 1, f); }  // hgp-lint: allow(raw-binary-io)\n',
        {"raw-binary-io"},
    ),
    "src/io/blob.cpp": (
        '// serialization home: raw binary I/O is allowed under src/io\n'
        '#include <cstdio>\n'
        'void w(FILE* f, const char* p, long n) { fwrite(p, 1, n, f); }\n',
        set(),
    ),
    "src/bad/sockets.cpp": (
        '// raw socket calls outside src/net\n'
        '#include <sys/socket.h>\n'
        'int a() { return socket(AF_UNIX, SOCK_STREAM, 0); }\n'
        'long b(int fd, const void* p, long n) { return ::send(fd, p, n, 0); }\n'
        'long c(int fd, void* p, long n) { return recv(fd, p, n, 0); }\n'
        'int d(int fd) { return ::listen(fd, 8); }\n'
        'int e(int* fds) { return socketpair(AF_UNIX, SOCK_STREAM, 0, fds); }\n'
        'void fine(Channel& ch, Frame f) { ch.send(f); }\n'
        'void fine2(Log* log) { log->send("x"); }\n'
        'void fine3(Checkpoint& c, const Key& k) { c.bind(k); }\n'
        'Socket fine4() { return Socket::connect_unix("/s"); }\n'
        '// a comment saying connect() must not fire\n'
        'const char* s = "socket(AF_INET)";\n'
        'int sup(int fd) { return ::accept(fd, 0, 0); }  '
        '// hgp-lint: allow(raw-socket)\n',
        {"raw-socket"},
    ),
    "src/net/socket.cpp": (
        '// socket layer home — the one place the BSD surface is spoken\n'
        '#include <sys/socket.h>\n'
        'int open_unix() { return ::socket(AF_UNIX, SOCK_STREAM, 0); }\n',
        set(),
    ),
    "src/obs/introspect.cpp": (
        '// audited per-file exemption: the scrape endpoint predates src/net\n'
        '#include <sys/socket.h>\n'
        'long pump(int fd, void* p, long n) { return ::recv(fd, p, n, 0); }\n',
        set(),
    ),
    "src/bad/locks.cpp": (
        '// raw sync primitives outside the annotated layer\n'
        '#include <mutex>\n'
        'std::mutex m;\n'
        'std::shared_mutex sm;\n'
        'void f() { const std::lock_guard<std::mutex> l(m); }\n'
        'std::condition_variable cv;\n'
        'std::unique_lock<std::mutex> u(m);  // hgp-lint: allow(raw-mutex)\n'
        '// std::mutex in a comment must not fire\n'
        'void fine(hgp::Mutex& mu) { const hgp::MutexLock lock(mu); }\n',
        {"raw-mutex"},
    ),
    "src/util/sync.hpp": (
        '// annotated sync layer — the one home of the std primitives\n'
        '#pragma once\n'
        '#include <mutex>\n'
        'namespace hgp { class Mutex { std::mutex mu_; }; }\n',
        set(),
    ),
    "src/good/clean.hpp": (
        '// a perfectly fine header\n'
        '#pragma once\n'
        'namespace x { int f(); }\n',
        set(),
    ),
    "tools/fixture_main.cpp": (
        '// a tool: its includes give the headers below a caller\n'
        '#include "good/clean.hpp"\n'
        '#include "util/sync.hpp"\n'
        '#include "orphan/used_by_tool.hpp"\n',
        set(),
    ),
    "src/orphan/unused.hpp": (
        '// included by nothing at all\n'
        '#pragma once\n',
        {"orphan-module"},
    ),
    "src/orphan/own_only.hpp": (
        '// included only by its own .cpp and by a test\n'
        '#pragma once\n',
        {"orphan-module"},
    ),
    "src/orphan/own_only.cpp": (
        '// the own translation unit of a module is not a caller\n'
        '#include "orphan/own_only.hpp"\n',
        set(),
    ),
    "tests/test_own_only.cpp": (
        '// tests are not callers either\n'
        '#include "orphan/own_only.hpp"\n',
        set(),
    ),
    "src/orphan/used_by_tool.hpp": (
        '// a tool includes it\n'
        '#pragma once\n'
        '#include "orphan/used_by_header.hpp"\n',
        set(),
    ),
    "src/orphan/used_by_header.hpp": (
        '// another src header includes it\n'
        '#pragma once\n',
        set(),
    ),
    "src/orphan/used_by_perfbench.hpp": (
        '// the benchmark harness includes it\n'
        '#pragma once\n',
        set(),
    ),
    "perfbench/src/fixture_bench.cpp": (
        '// benchmark harness source\n'
        '#include "orphan/used_by_perfbench.hpp"\n',
        set(),
    ),
    "src/orphan/kept.hpp": (
        '// deliberately unused  // hgp-lint: allow(orphan-module)\n'
        '#pragma once\n',
        set(),
    ),
    "src/obs/trace.cpp": (
        '// telemetry exporter — the sanctioned direct-write sink\n'
        '#include <cstdio>\n'
        'void export_now() { std::printf("{}"); }\n',
        set(),
    ),
    "src/obs/flight_recorder.cpp": (
        '// flight-recorder emitter — registered by file, like every sink\n'
        '#include <cstdio>\n'
        'void dump_now() { std::printf("{}"); }\n',
        set(),
    ),
    "src/obs/not_registered.cpp": (
        '// lives under src/obs but is NOT in NO_STDOUT_EXEMPT_FILES: the\n'
        '// exemption is per registered file, not an obs-directory blanket\n'
        '#include <cstdio>\n'
        'void leak() { std::printf("{}"); }\n',
        {"no-stdout"},
    ),
}


def self_test() -> int:
    failures = 0
    with tempfile.TemporaryDirectory(prefix="hgp_lint_fixture_") as root:
        for rel, (contents, _) in FIXTURES.items():
            path = os.path.join(root, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as f:
                f.write(contents)
        findings = run_lint(root)
        fired: dict[str, set[str]] = {}
        for f in findings:
            fired.setdefault(f.path.replace(os.sep, "/"), set()).add(f.rule)
        for rel, (_, expected) in FIXTURES.items():
            got = fired.get(rel, set())
            if expected - got:
                print(f"SELF-TEST MISS: {rel}: expected {sorted(expected)}, "
                      f"got {sorted(got)}")
                failures += 1
            if not expected and got:
                print(f"SELF-TEST FALSE POSITIVE: {rel}: fired {sorted(got)}")
                failures += 1
        # `throw std::logic_error` suppressed on line 10 must NOT be counted:
        throw_hits = [f for f in findings
                      if f.rule == "throw-policy" and "throws.cpp" in f.path]
        if sorted(f.line for f in throw_hits) != [3, 4]:
            print("SELF-TEST MISS: throw-policy should fire exactly on lines "
                  f"3 and 4, got {sorted(f.line for f in throw_hits)}")
            failures += 1
        rawio_hits = [f for f in findings
                      if f.rule == "raw-binary-io" and "rawio.cpp" in f.path]
        if sorted(f.line for f in rawio_hits) != [3, 4, 6, 8]:
            print("SELF-TEST MISS: raw-binary-io should fire exactly on lines "
                  f"3, 4, 6 and 8, got {sorted(f.line for f in rawio_hits)}")
            failures += 1
        stdout_hits = [f for f in findings
                       if f.rule == "no-stdout" and "prints.cpp" in f.path]
        if sorted(f.line for f in stdout_hits) != [4, 5, 6]:
            print("SELF-TEST MISS: no-stdout should fire exactly on lines "
                  f"4, 5 and 6, got {sorted(f.line for f in stdout_hits)}")
            failures += 1
        socket_hits = [f for f in findings
                       if f.rule == "raw-socket" and "sockets.cpp" in f.path]
        if sorted(f.line for f in socket_hits) != [3, 4, 5, 6, 7]:
            print("SELF-TEST MISS: raw-socket should fire exactly on lines "
                  f"3-7, got {sorted(f.line for f in socket_hits)}")
            failures += 1
        mutex_hits = [f for f in findings
                      if f.rule == "raw-mutex" and "locks.cpp" in f.path]
        if sorted(f.line for f in mutex_hits) != [3, 4, 5, 6]:
            print("SELF-TEST MISS: raw-mutex should fire exactly on lines "
                  f"3, 4, 5 and 6, got {sorted(f.line for f in mutex_hits)}")
            failures += 1
        orphan_hits = sorted(
            f.path.replace(os.sep, "/") for f in findings
            if f.rule == "orphan-module" and "/orphan/" in f.path + "/")
        if orphan_hits != ["src/orphan/own_only.hpp", "src/orphan/unused.hpp"]:
            print("SELF-TEST MISS: orphan-module should fire exactly on "
                  "src/orphan/own_only.hpp and src/orphan/unused.hpp, got "
                  f"{orphan_hits}")
            failures += 1
        if any(f.rule == "orphan-module" and f.line != 1 for f in findings):
            print("SELF-TEST MISS: orphan-module must report on line 1")
            failures += 1
    if failures:
        print(f"hgp_lint self-test: {failures} failure(s)")
        return 1
    print("hgp_lint self-test: all rules detect their fixture violations")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=None,
                        help="repository root (default: the repo containing "
                             "this script)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the fixture-based rule tests")
    args = parser.parse_args()

    if args.self_test:
        return self_test()

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isdir(os.path.join(root, LIB_DIR)):
        print(f"hgp_lint: no {LIB_DIR}/ under {root}", file=sys.stderr)
        return 2

    findings = run_lint(root)
    for f in findings:
        print(f)
    if findings:
        print(f"hgp_lint: {len(findings)} violation(s)")
        return 1
    print("hgp_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
