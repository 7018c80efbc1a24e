"""Correctness gate: answer digests plus oracles that do not call laminal.

An analyze item's answer is its exit code and stdout; an audit item's
answer is the fields of its ``RelationAuditReport``.  Each answer is hashed
with SHA-256 and, on the default seed, compared with the digest recorded at
the baseline commit.  Independently of digests, the oracles re-check what
the answer claims with the benchmark's own integer arithmetic.
"""

from __future__ import annotations

import hashlib

from .arith import integer_rows, parse_text, partition_is_free
from .generator import Item

# The paper's example1 lattice (admissible eps), the benchmark's own copy.
EX1_MAXIMAL = frozenset({"1,2|3,4|5,6|7", "1,3|2,4|5,6|7"})
EX1_MINIMAL = frozenset({"1,2,3,4,5,6,7", "1,2,3,4,5,6|7", "1,2,3,4,7|5,6",
                         "1,2,3,4|5,6,7", "1,2,3,4|5,6|7"})
EX1_LAMINAL = "1,2,3,4|5,6|7"
ONE_THETA_ANCILLARIES = 203  # Bell(6): with one theta every partition is ancillary


def analyze_digest(code: int, stdout: str) -> str:
    return hashlib.sha256(f"exit {code}\n{stdout}".encode()).hexdigest()


def audit_digest(report) -> str:
    fields = (report.relation_name, report.corpus_size, report.reflexive_failures,
              report.symmetric_failures, report.transitive_failures,
              report.containment_checks)
    return hashlib.sha256(repr(fields).encode()).hexdigest()


def combined_digest(digests) -> str:
    """One digest over a sequence of item digests, in order."""
    h = hashlib.sha256()
    for d in digests:
        h.update(d.encode())
    return h.hexdigest()


def report_sections(stdout: str) -> dict[str, list[str]]:
    """Section title -> lines of a rendered laminal report."""
    lines = stdout.split("\n")
    sections: dict[str, list[str]] = {}
    i = 3  # title, underline, blank
    while i + 1 < len(lines):
        if lines[i] and set(lines[i + 1]) == {"-"} and len(lines[i + 1]) == len(lines[i]):
            title, body = lines[i], []
            i += 2
            while i < len(lines) and lines[i]:
                body.append(lines[i])
                i += 1
            sections[title] = body
        i += 1
    return sections


def _parse_blocks(text: str, labels: list[str]) -> list[list[int]]:
    index = {lab: j for j, lab in enumerate(labels)}
    return [[index[tok] for tok in group.split(",")] for group in text.split("|")]


def check_analyze(item: Item, code: int, stdout: str) -> list[str]:
    """Oracle failures for an analyze answer (empty when it checks out)."""
    if code != 0:
        return [f"exit code {code}"]
    sec = report_sections(stdout)
    try:
        count_line = sec["ancillaries"][0]
        maximal = sec["maximal ancillaries"]
        minimal = sec["minimal ancillaries"]
        lam = sec["laminal ancillary"][0]
        stable = sec["stable ancillaries"]
        witnesses = sec["instability witnesses (one per non-stable ancillary)"]
    except (KeyError, IndexError):
        return ["report is missing a section"]
    problems = []
    _, samples, rows = parse_text(item.texts[0])
    irows = integer_rows(rows)
    for text in (*maximal, lam):
        try:
            blocks = _parse_blocks(text, samples)
        except KeyError:
            problems.append(f"unparsable partition {text!r}")
            continue
        if sorted(j for b in blocks for j in b) != list(range(len(samples))):
            problems.append(f"{text} is not a partition of the sample space")
        elif not partition_is_free(irows, blocks):
            problems.append(f"{text} is reported ancillary but is not parameter-free")
    if item.kind == "one-theta":
        if not count_line.startswith(f"count: {ONE_THETA_ANCILLARIES} "):
            problems.append(f"one-theta ancillary count: {count_line}")
        if len(stable) != ONE_THETA_ANCILLARIES:
            problems.append(f"one-theta stable count {len(stable)}")
        if witnesses != ["none; every ancillary is stable"]:
            problems.append("one-theta model reports instability witnesses")
    if item.kind == "example1":
        if set(maximal) != EX1_MAXIMAL:
            problems.append(f"example1 maximal ancillaries {maximal}")
        if set(minimal) != EX1_MINIMAL:
            problems.append(f"example1 minimal ancillaries {minimal}")
        if lam != EX1_LAMINAL:
            problems.append(f"example1 laminal {lam}")
    return problems


def check_audit(item: Item, report) -> list[str]:
    """Oracle failures for an ``audit_relation(corpus, "sc")`` answer."""
    problems = []
    if report.corpus_size != len(item.texts):
        problems.append(f"corpus size {report.corpus_size} != {len(item.texts)}")
    if not report.is_equivalence:
        problems.append("sc is not an equivalence relation on the corpus")
    if report.containment_failures:
        problems.append(f"containment failures {report.containment_failures[:3]}")
    checks = {pair: (in_s, in_sc) for pair, in_s, in_sc in report.containment_checks}
    for pair in item.planted:
        if checks.get(pair) != (True, True):
            problems.append(f"planted pair {pair} not related under both s and sc")
    return problems
