"""The parity corpus: CLI commands whose output is pinned by digest.

Each command runs in-process through ``laminal.cli.main`` in a directory
holding the model files below, and is recorded in ``parity.json`` with its
exit code and the SHA-256 of its stdout and of its stderr.
``test_parity.py`` reruns every command and compares, so a change to any
report byte fails tier-1.  CI checks the same digests again through the
installed ``laminal`` script, under an ASCII locale, in a directory that
``write_models`` fills.  After a deliberate output change, regenerate the
digests and say which commands changed and why::

    PYTHONPATH=src python tests/parity.py

The commands avoid argparse's own error messages, whose wording differs
between Python versions.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
from fractions import Fraction as F
from pathlib import Path

import laminal as L
from laminal.cli import main
from laminal.corpus import _random_mixture, random_models

DIGESTS = Path(__file__).with_name("parity.json")


def one_theta(n: int) -> L.FiniteModel:
    return L.FiniteModel(("t",), tuple(str(i + 1) for i in range(n)),
                         [[F(i + 1, n * (n + 1) // 2) for i in range(n)]], f"flat{n}")


def models() -> dict[str, L.FiniteModel]:
    """File name -> model, each written with ``format_model``."""
    out = {
        "ex1_100.model": L.example1_model(F(1, 100)),
        "ex1_224.model": L.example1_model(F(1, 224)),
        "ex2.model": L.example2_model(),
        "mix10.model": _random_mixture(random.Random(401), 2, 10, "mix10"),
    }
    out.update((f"flat{n}.model", one_theta(n)) for n in range(1, 8))
    for seed in (5, 11):
        for i, m in enumerate(random_models(seed, 12)):
            out[f"rand{seed}_{i}.model"] = m
    return out


# Files that are not models as format_model writes them.
RAW_FILES = {
    "bad.model": b"model bad\nthetas a b\nsamples x y\na 1/2 1/2\nb 1/3 1/3\n",
    "bom.model": b"\xef\xbb\xbfmodel m\nthetas a b\nsamples x y z\na 1/2 1/4 1/4\nb 1/4 1/2 1/4\n",
    # Example 2 with non-ASCII labels, a byte order mark and CRLF line ends.
    "utf8.model": "\ufeffmodel mod\u00e8le\r\nthetas \u03b8\u2081 \u03b8\u2082\r\n"
                  "samples \u03b1 \u03b2 \u03b3 \u03b4\r\n"
                  "\u03b8\u2081 1/6 1/6 2/6 2/6\r\n\u03b8\u2082 1/12 3/12 5/12 3/12\r\n"
                  .encode("utf-8"),
}


def commands() -> list[list[str]]:
    cmds: list[list[str]] = [["reproduce", "all"],
                             ["reproduce", "all", "--epsilon", "1/80"],
                             ["reproduce", "all", "--epsilon", "1/224"],
                             ["reproduce", "all", "--epsilon", "1/50"],
                             ["reproduce", "example3", "--epsilon", "1/224"]]
    for name, m in models().items():
        first, last = m.sample_labels[0], m.sample_labels[-1]
        cmds += [["analyze", name], ["analyze", name, "--no-within-mss"],
                 ["evidence", name, "--observed", first, "--function", "ms"],
                 ["evidence", name, "--observed", last, "--function", "sc"]]
        cmds += [["compare", name, name, "--observed1", first, "--observed2", last,
                  "--relation", r] for r in ("s", "sc")]
    for seed in ("1", "2"):
        cmds += [["audit", "--relation", r, "--corpus-seed", seed] for r in ("s", "sc", "c")]
    cmds += [
        ["analyze", "bad.model"],
        ["analyze", "missing.model"],
        ["evidence", "ex2.model", "--observed", "nowhere"],
        ["compare", "ex2.model", "flat4.model", "--observed1", "1", "--observed2", "1"],
        ["analyze", "ex1_100.model", "--cap", "1"],
        ["audit", "--relation", "c", "--cap", "1"],
        ["analyze", "bom.model"],
        ["analyze", "utf8.model"],
        ["evidence", "utf8.model", "--observed", "\u03b1"],
        ["compare", "utf8.model", "utf8.model", "--observed1", "\u03b1", "--observed2", "\u03b4"],
    ]
    return cmds


def write_models(directory: Path) -> None:
    for name, m in models().items():
        (directory / name).write_text(L.format_model(m), encoding="utf-8")
    for name, data in RAW_FILES.items():
        (directory / name).write_bytes(data)


def run(argv: list[str]) -> dict:
    """Exit code and output digests of one in-process command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))

    def digest(s: io.StringIO) -> str:
        return hashlib.sha256(s.getvalue().encode("utf-8")).hexdigest()

    return {"argv": argv, "exit": code, "stdout": digest(out), "stderr": digest(err)}


def run_all(directory: Path) -> list[dict]:
    """Every command's record, run with ``directory`` as the working directory."""
    write_models(directory)
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        return [run(argv) for argv in commands()]
    finally:
        os.chdir(cwd)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        records = run_all(Path(tmp))
    DIGESTS.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(records)} records to {DIGESTS}", file=sys.stderr)
