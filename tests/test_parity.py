"""Every command of the parity corpus gives its recorded exit code and bytes."""

import json

import parity


def test_every_command_matches_its_recorded_digests(tmp_path):
    recorded = json.loads(parity.DIGESTS.read_text(encoding="utf-8"))
    assert [r["argv"] for r in recorded] == parity.commands()
    changed = [got["argv"] for got, want in zip(parity.run_all(tmp_path), recorded)
               if got != want]
    assert changed == []
