"""tools/digest.py: ``--against`` names the entries that differ from an earlier ``--list`` output."""
from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("digest", ROOT / "tools" / "digest.py")
digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(digest)

LINES = {
    "transforms": [json.dumps([0, 1, "haar_integrate", ["0x1p+0"], []]),
                   json.dumps([0, 2, "fourier_popa", ["2j"], []])],
    "cli-session": [json.dumps([["group", "circle", "--rho", "1", "--", "1", "1"], 0, "3\n", ""])],
}


def listing(lines: dict) -> str:
    return "".join(f"{name} {line}\n" for name, group in lines.items() for line in group)


def test_an_unchanged_listing_has_no_differences():
    assert digest.differences(LINES, listing(LINES)) == []


def test_each_moved_entry_is_named_with_its_old_and_new_output():
    old = {"transforms": [json.dumps([0, 1, "haar_integrate", ["0x1.8p+0"], []])],
           "cli-session": [json.dumps([["group", "circle", "--rho", "1", "--", "1", "1"], 0, "4\n", ""])],
           "grids": [json.dumps([1, 5, "goldie_sum", ["0x0p+0"], []])]}
    assert digest.differences(LINES, listing(old)) == [
        ("transforms", "seed 0 jid 1", '["haar_integrate", ["0x1.8p+0"], []]', '["haar_integrate", ["0x1p+0"], []]'),
        ("transforms", "seed 0 jid 2", "absent", '["fourier_popa", ["2j"], []]'),
        ("cli-session", "group circle --rho 1 -- 1 1", '[0, "4\\n", ""]', '[0, "3\\n", ""]'),
        ("grids", "seed 1 jid 5", '["goldie_sum", ["0x0p+0"], []]', "absent"),
    ]


def test_against_exits_1_where_an_entry_moved(tmp_path):
    run = lambda *args: subprocess.run([sys.executable, str(ROOT / "tools" / "digest.py"), *args],
                                       capture_output=True, text=True, timeout=300)
    listed = run("--list")
    assert listed.returncode == 0
    (tmp_path / "same.txt").write_text(listed.stdout)
    same = run("--against", str(tmp_path / "same.txt"))
    assert (same.returncode, same.stdout) == (0, f"0 entries differ from {tmp_path / 'same.txt'}\n")
    first, rest = listed.stdout.split("\n", 1)
    name, _, entry = first.partition(" ")
    moved = json.loads(entry)
    moved[3] = ["moved"]
    (tmp_path / "moved.txt").write_text(f"{name} {json.dumps(moved)}\n{rest}")
    out = run("--against", str(tmp_path / "moved.txt"))
    assert out.returncode == 1 and out.stdout.splitlines()[-1] == f"1 entries differ from {tmp_path / 'moved.txt'}"
    assert out.stdout.startswith(f"{name} seed {moved[0]} jid {moved[1]}: ")
