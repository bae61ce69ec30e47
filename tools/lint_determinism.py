#!/usr/bin/env python3
"""Determinism lint for the StableShard tree.

The simulator's core contract is bit-identical results across worker
counts and platforms (see docs/determinism.md and
`bench/parallel_rounds --check`). The compiler cannot see the class of
bug that breaks it: iterating a hash container in an order that feeds
messages or results, calling the C runtime's global RNG, or branching on
wall-clock time. This lint catches those patterns statically:

  unordered-iteration  A range-for over a name declared as a
                       std::unordered_{map,set,multimap,multiset}
                       (declaration and lookup are fine — only iteration
                       order is platform-defined). The symbol table is
                       built from every scanned file, so a member
                       declared in a header is flagged when a .cc
                       iterates it; `auto x = Fn(...)` counts when Fn is
                       declared in the same file returning an unordered
                       container.
  raw-rand             std::rand / srand / random_device / direct
                       std::mt19937 construction anywhere outside
                       src/common/rng.* — all randomness must flow
                       through common::Rng's seeded SplitMix64.
  wall-clock           system_clock / high_resolution_clock / time() /
                       gettimeofday / clock_gettime in simulation code.
                       Timing telemetry is legitimate but must be
                       annotated so a reviewer confirms no simulation
                       decision reads it.
  pointer-key          std::map / std::set — ordered or unordered — keyed
                       on a pointer type: iteration over (or hashing of)
                       addresses is allocation-order-dependent, which
                       varies run to run. Recovery maps rebuilt during
                       WAL replay are the classic offender.
  time-type            C time types and formatters (time_t, timeval,
                       timespec, localtime, gmtime, strftime, asctime,
                       mktime). A wall-clock timestamp inside a WAL
                       record or checkpoint makes two runs of the same
                       simulation produce different durable bytes, which
                       breaks the replay bit-identity contract.
  dir-iteration        directory enumeration (std::filesystem::
                       directory_iterator / recursive_directory_iterator,
                       readdir, scandir, opendir). Directory order is
                       filesystem-defined; replay / checkpoint discovery
                       must use explicit ordered indexes, never "whatever
                       the directory lists first".
  py-nondeterminism    (.py files only) wall-clock reads (time.time,
                       datetime.now/utcnow, date.today) or unseeded
                       randomness (module-level random.* calls,
                       os.urandom, uuid.uuid1/uuid4, secrets.*) in
                       in-tree Python tooling. Trace/fixture generators
                       must be pure functions of their command line —
                       seeded random.Random(seed) instances are the
                       sanctioned source of randomness.

Escapes: a finding is suppressed by
    // lint:allow(<rule>): <reason>     (C++)
    # lint:allow(<rule>): <reason>      (Python)
on the same line or the immediately preceding line. The reason is
mandatory — an allow without one is itself reported (`bare-allow`).

Usage:
    lint_determinism.py <file-or-dir>...   scan, exit 1 on findings
    lint_determinism.py --self-test        run over tools/lint_fixtures
Exit codes: 0 clean, 1 findings (or self-test failure), 2 usage error.
"""

import os
import re
import sys

CPP_RULES = ("unordered-iteration", "raw-rand", "wall-clock", "pointer-key",
             "time-type", "dir-iteration")
PY_RULES = ("py-nondeterminism",)
RULES = CPP_RULES + PY_RULES

CPP_EXTENSIONS = (".h", ".hpp", ".cc", ".cpp", ".cxx")
SOURCE_EXTENSIONS = CPP_EXTENSIONS + (".py",)

# Files that implement the sanctioned RNG: raw-rand does not apply.
RNG_IMPL = re.compile(r"(^|/)common/rng\.(h|cc)$")

ALLOW = re.compile(r"(?://|#)\s*lint:allow\(([a-z-]+)\)\s*(:\s*(\S.*))?")

UNORDERED_DECL = re.compile(
    r"\bunordered_(?:map|set|multimap|multiset)\s*<")
# `std::unordered_map<K, V> Fn(args)` — a function returning an unordered
# container; `auto x = Fn(...)` then taints x.
RANGE_FOR = re.compile(r"\bfor\s*\(")
AUTO_FROM_CALL = re.compile(
    r"\b(?:const\s+)?auto&?&?\s+(\w+)\s*=\s*(\w+)\s*\(")

RAW_RAND = re.compile(
    r"\bstd::rand\b|[^\w.]s?rand\s*\(|\brandom_device\b"
    r"|\bstd::mt19937(?:_64)?\b|\bdrand48\b|\blrand48\b")
WALL_CLOCK = re.compile(
    r"\bsystem_clock\b|\bhigh_resolution_clock\b|\bsteady_clock\b"
    r"|\bgettimeofday\b|\bclock_gettime\b|[^\w.]time\s*\(\s*(?:NULL|nullptr|0)?\s*\)")
POINTER_KEY = re.compile(
    r"\bstd::(?:unordered_)?(?:map|set|multimap|multiset)"
    r"\s*<\s*(?:const\s+)?[\w:]+\s*\*")
# `time_point` is fine (steady_clock durations are covered by wall-clock);
# the C time types and formatters below embed host wall time by design.
TIME_TYPE = re.compile(
    r"\btime_t\b|\btimeval\b|\btimespec\b|\blocaltime(?:_r)?\b"
    r"|\bgmtime(?:_r)?\b|\bstrftime\b|\basctime(?:_r)?\b|\bmktime\b")
DIR_ITERATION = re.compile(
    r"\brecursive_directory_iterator\b|\bdirectory_iterator\b"
    r"|\breaddir(?:_r)?\b|\bscandir\b|\bopendir\b")
# Python: wall clock and unseeded randomness. Module-level `random.*` is
# flagged (the global RNG is implicitly seeded from the OS); instances of
# `random.Random(seed)` are the sanctioned source, so `random.Random` is
# excluded and attribute calls on instances (`rng.random()`) don't match
# the lookbehind.
PY_NONDETERMINISM = re.compile(
    r"(?<![\w.])time\.(?:time|time_ns|monotonic|monotonic_ns|perf_counter"
    r"|perf_counter_ns|clock)\s*\("
    r"|\bdatetime\.now\b|\bdatetime\.utcnow\b|\bdate\.today\b"
    r"|\bos\.urandom\b|\buuid\.uuid1\b|\buuid\.uuid4\b"
    r"|(?<![\w.])secrets\.\w"
    r"|(?<![\w.])random\.(?!Random\b)\w")


def strip_strings(line):
    """Blank out string and char literals so their contents never match."""
    out = []
    i, n = 0, len(line)
    while i < n:
        c = line[i]
        if c in "\"'":
            quote = c
            out.append(quote)
            i += 1
            while i < n:
                if line[i] == "\\":
                    out.append("..")
                    i += 2
                    continue
                if line[i] == quote:
                    out.append(quote)
                    i += 1
                    break
                out.append(" ")
                i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def split_code_comment(line):
    """Return (code, comment) for one line (block comments are handled by
    the caller, which blanks them before this runs)."""
    stripped = strip_strings(line)
    pos = stripped.find("//")
    if pos < 0:
        return stripped, ""
    return stripped[:pos], stripped[pos:]


def blank_block_comments(text):
    """Replace /* ... */ spans with spaces, preserving newlines."""

    def repl(match):
        return re.sub(r"[^\n]", " ", match.group(0))

    return re.sub(r"/\*.*?\*/", repl, text, flags=re.DOTALL)


def declared_names(code_line):
    """Identifiers declared with an unordered container type on this line.

    Handles members, locals, and parameters: after the matching `>` that
    closes the template argument list, the next identifier is the declared
    name (or a function name, detected by a following `(`).
    """
    names = []
    functions = []
    for match in UNORDERED_DECL.finditer(code_line):
        depth = 1
        i = match.end()
        while i < len(code_line) and depth > 0:
            if code_line[i] == "<":
                depth += 1
            elif code_line[i] == ">":
                depth -= 1
            i += 1
        if depth != 0:
            continue  # template args continue on the next line; skip
        rest = code_line[i:]
        name_match = re.match(r"\s*&?\s*(\w+)\s*(\(?)", rest)
        if not name_match:
            continue
        if name_match.group(2) == "(":
            functions.append(name_match.group(1))
        else:
            names.append(name_match.group(1))
    return names, functions


def range_expr_tail(code_line):
    """For each range-for on the line, the final identifier of the range
    expression (`state.active` -> `active`, `users` -> `users`)."""
    tails = []
    for match in RANGE_FOR.finditer(code_line):
        depth = 1
        i = match.end()
        colon = -1
        while i < len(code_line) and depth > 0:
            c = code_line[i]
            if c == "(":
                depth += 1
            elif c == ")":
                depth -= 1
            elif c == ":" and depth == 1 and colon < 0:
                # skip `::` qualifiers
                if i + 1 < len(code_line) and code_line[i + 1] == ":":
                    i += 2
                    continue
                if i > 0 and code_line[i - 1] == ":":
                    i += 1
                    continue
                colon = i
            i += 1
        if colon < 0:
            continue
        expr = code_line[colon + 1:i - 1] if depth == 0 else code_line[colon + 1:]
        expr = expr.strip()
        if expr.endswith(")"):
            continue  # call expression: handled via AUTO_FROM_CALL taint
        tail = re.search(r"(\w+)\s*$", expr)
        if tail:
            tails.append(tail.group(1))
    return tails


def split_code_comment_py(line):
    """Python flavor of split_code_comment: '#' opens the comment."""
    stripped = strip_strings(line)
    pos = stripped.find("#")
    if pos < 0:
        return stripped, ""
    return stripped[:pos], stripped[pos:]


class File:
    def __init__(self, path):
        self.path = path
        self.is_python = path.endswith(".py")
        with open(path, "r", encoding="utf-8", errors="replace") as fh:
            text = fh.read()
            if not self.is_python:
                text = blank_block_comments(text)
        self.lines = text.splitlines()
        self.code = []
        self.allows = {}  # line number (1-based) -> set of rules
        self.bare_allows = []
        split = split_code_comment_py if self.is_python else split_code_comment
        for number, line in enumerate(self.lines, start=1):
            code, comment = split(line)
            self.code.append(code)
            # The comment text is read from the original line so the
            # reason survives string-blanking.
            original_comment = line[len(code):] if comment else ""
            for match in ALLOW.finditer(original_comment):
                rule, reason = match.group(1), match.group(3)
                if rule not in RULES:
                    self.bare_allows.append(
                        (number, "unknown rule '%s' in lint:allow" % rule))
                    continue
                if not reason:
                    self.bare_allows.append(
                        (number,
                         "lint:allow(%s) without a reason" % rule))
                    continue
                self.allows.setdefault(number, set()).add(rule)

    def allowed(self, number, rule):
        return (rule in self.allows.get(number, ()) or
                rule in self.allows.get(number - 1, ()))


HEADER_EXTENSIONS = (".h", ".hpp")


def collect_symbols(files):
    """Two-tier symbol table: names declared with unordered container
    types in a *header* (typically members) taint every scanned file —
    the .cc that iterates a member sees only the header declaration.
    Names declared in a .cc (locals, statics) taint that file alone, so
    a vector local in one file is not confused with a same-named
    unordered local elsewhere."""
    header_taint = set()
    local_taint = {}  # path -> set of names
    for file in files:
        if file.is_python:
            continue
        is_header = file.path.endswith(HEADER_EXTENSIONS)
        functions = set()
        names_here = set()
        for code in file.code:
            names, fns = declared_names(code)
            names_here.update(names)
            functions.update(fns)
        # auto locals initialized from an unordered-returning function
        for code in file.code:
            for match in AUTO_FROM_CALL.finditer(code):
                if match.group(2) in functions:
                    names_here.add(match.group(1))
        if is_header:
            header_taint.update(names_here)
        else:
            local_taint[file.path] = names_here
    return header_taint, local_taint


def scan(paths):
    files = []
    for path in paths:
        if os.path.isdir(path):
            for root, _dirs, names in sorted(os.walk(path)):
                for name in sorted(names):
                    if name.endswith(SOURCE_EXTENSIONS):
                        files.append(File(os.path.join(root, name)))
        elif os.path.isfile(path):
            files.append(File(path))
        else:
            print("lint_determinism: no such path: %s" % path,
                  file=sys.stderr)
            sys.exit(2)

    header_taint, local_taint = collect_symbols(files)
    findings = []

    for file in files:
        if file.is_python:
            for number, code in enumerate(file.code, start=1):
                if PY_NONDETERMINISM.search(code):
                    if not file.allowed(number, "py-nondeterminism"):
                        findings.append(
                            (file.path, number, "py-nondeterminism",
                             "wall-clock or unseeded randomness in Python "
                             "tooling — trace/fixture generation must be a "
                             "pure function of its command line (use a "
                             "seeded random.Random instance)"))
            for number, message in file.bare_allows:
                findings.append((file.path, number, "bare-allow", message))
            continue
        tainted = header_taint | local_taint.get(file.path, set())
        rng_impl = RNG_IMPL.search(file.path.replace(os.sep, "/"))
        for number, code in enumerate(file.code, start=1):
            for tail in range_expr_tail(code):
                if tail in tainted and not file.allowed(
                        number, "unordered-iteration"):
                    findings.append(
                        (file.path, number, "unordered-iteration",
                         "range-for over unordered container '%s' — "
                         "iteration order is platform-defined" % tail))
            if not rng_impl and RAW_RAND.search(code):
                if not file.allowed(number, "raw-rand"):
                    findings.append(
                        (file.path, number, "raw-rand",
                         "raw randomness outside common::Rng — seed it "
                         "through the simulation's Rng instead"))
            if WALL_CLOCK.search(code):
                if not file.allowed(number, "wall-clock"):
                    findings.append(
                        (file.path, number, "wall-clock",
                         "wall-clock read in simulation code — results "
                         "must not depend on host time"))
            if POINTER_KEY.search(code):
                if not file.allowed(number, "pointer-key"):
                    findings.append(
                        (file.path, number, "pointer-key",
                         "container keyed by pointer — address order "
                         "varies run to run (recovery maps must key on "
                         "stable ids)"))
            if TIME_TYPE.search(code):
                if not file.allowed(number, "time-type"):
                    findings.append(
                        (file.path, number, "time-type",
                         "C wall-time type/formatter — a host timestamp "
                         "in a WAL record or checkpoint breaks replay "
                         "bit-identity"))
            if DIR_ITERATION.search(code):
                if not file.allowed(number, "dir-iteration"):
                    findings.append(
                        (file.path, number, "dir-iteration",
                         "directory enumeration — listing order is "
                         "filesystem-defined; replay discovery must use "
                         "an explicit ordered index"))
        for number, message in file.bare_allows:
            findings.append((file.path, number, "bare-allow", message))

    return findings


def self_test():
    fixtures = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "lint_fixtures")
    failures = []

    # The C++ fixtures: good.cc scans clean, bad.cc trips every C++ rule
    # plus the bare-allow meta-rule (CI relies on this as the negative
    # proof that the lint still bites).
    for name in ("good.cc", "good.py"):
        findings = scan([os.path.join(fixtures, name)])
        if findings:
            failures.append("%s should be clean, found: %r" %
                            (name, findings))

    bad_findings = scan([os.path.join(fixtures, "bad.cc")])
    found_rules = {finding[2] for finding in bad_findings}
    expected = set(CPP_RULES) | {"bare-allow"}
    missing = expected - found_rules
    if missing:
        failures.append("bad.cc should trip %s" % ", ".join(sorted(missing)))

    # The Python fixture: bad.py trips the py rule (and only that rule —
    # the C++ patterns must not run on Python sources).
    bad_py_rules = {f[2] for f in scan([os.path.join(fixtures, "bad.py")])}
    if bad_py_rules != {"py-nondeterminism"}:
        failures.append("bad.py should trip exactly py-nondeterminism, "
                        "got %s" % ", ".join(sorted(bad_py_rules)) or "none")

    if failures:
        for failure in failures:
            print("SELF-TEST FAIL: %s" % failure)
        return 1
    print("self-test passed: good.cc/good.py clean, bad.cc trips %s, "
          "bad.py trips py-nondeterminism" % ", ".join(sorted(found_rules)))
    return 0


def main(argv):
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    if argv[1] == "--self-test":
        return self_test()
    findings = scan(argv[1:])
    for path, number, rule, message in findings:
        print("%s:%d: [%s] %s" % (path, number, rule, message))
    if findings:
        print("%d finding(s). Suppress intentional ones with "
              "// lint:allow(<rule>): <reason>" % len(findings))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
