"""Every command of the parity corpus gives its recorded exit code and bytes."""

import hashlib
import json

import pytest

import parity
from laminal.cli import main


def test_every_command_matches_its_recorded_digests(tmp_path):
    recorded = json.loads(parity.DIGESTS.read_text(encoding="utf-8"))
    assert [r["argv"] for r in recorded] == parity.commands()
    changed = [got["argv"] for got, want in zip(parity.run_all(tmp_path), recorded)
               if got != want]
    assert changed == []


# SHA-256 of every file that ``reproduce ... --out`` writes: the parity
# corpus pins stdout and stderr only, not figure1.csv.
OUT_DIGESTS = {
    ("all", "--epsilon", "1/100"): {
        "figure1.csv": "13e9d3b9e6a664527f7960818a182a032de181da61f1be1c3aafa371eb1a529d",
        "report.txt": "971a1eb302b67ed8e8c5fc2073572a656088d7a89b6438b1fc39e4382251f222",
    },
    ("all", "--epsilon", "1/80"): {
        "figure1.csv": "b6fdf2b49903372a07034803973428ee0461ef8fc082c92d19a6065738f3b561",
        "report.txt": "852600f318852cfbd14ece3fa6eedf5f717b163bade127b66a0bc05476471d26",
    },
    ("example3", "--epsilon", "1/224"): {
        "figure1.csv": "d65d0b9c9c27eea435aeb283f6c0223d495a205dc6246603d6cacce7154491d6",
        "report.txt": "d3b3aa0417d651a45b76ffddf070cb6f5cfa84824a73d5486ced63291b6b6ae8",
    },
}


@pytest.mark.parametrize("argv", OUT_DIGESTS, ids=" ".join)
def test_reproduce_out_files_match_their_recorded_digests(argv, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["reproduce", *argv, "--out", str(out)]) == 0
    got = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in out.iterdir()}
    assert got == OUT_DIGESTS[argv]
