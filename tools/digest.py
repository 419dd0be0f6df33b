"""Parity digest: one SHA-256 per group of regvar's outputs, to check that two trees, or two Pythons, give the
same bits.

    python3 tools/digest.py [TREE] [--list | --against LISTING]

regvar is imported from TREE/src and the job lists from TREE/perfbench, TREE being this checkout by default.  The
groups and their entries:

  transforms, grids  every job of the library workloads for seeds 0-5: float.hex of its digest, or its error, and
                     the texts of the warnings it raised;
  cli-session        every argv of the workload for seeds 1-10, through regvar.cli.main: exit code, stdout and
                     stderr, with the temporary directory named <work>;
  readme             the same for every ``$ regvar`` example of README.md.

``--list`` prints the entries in place of the hashes.  ``--against LISTING`` compares the entries with LISTING, the
``--list`` output of an earlier tree or Python: it prints the first 20 entries that differ, each named by its group and
its seed and job id or its argv, with the old and the new output, and exits 1 if any differ.  Only the standard
library is used.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import shlex
import sys
import tempfile
import warnings
from pathlib import Path


def library_entries(workloads, workload: str) -> list:
    entries = []
    for seed in range(6):
        for job in workloads.build(workload, seed):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    out = [v.hex() if isinstance(v, float) else repr(v) for v in job.digest(job.call(job.fns))]
                except Exception as exc:  # noqa: BLE001 - an error is an output too
                    out = f"{type(exc).__name__}: {exc}"
            entries.append([seed, job.jid, job.kind, out, [f"{w.category.__name__}: {w.message}" for w in caught]])
    return entries


def cli_entries(cli_jobs, argvs) -> list:
    return [[argv, *cli_jobs.run_in_process(argv)] for argv in argvs]


def differences(lines: dict, listing: str) -> list:
    """The entries of ``lines`` (group -> JSON lines) that differ from those of ``listing``, position by position,
    as (group, key, old output, new output); the output of an entry that one side lacks is ``absent``."""
    old = {name: [] for name in lines}
    for line in listing.splitlines():
        name, _, entry = line.partition(" ")
        old.setdefault(name, []).append(entry)
    out = []
    for name, was in old.items():
        now = lines.get(name, [])
        for k in range(max(len(was), len(now))):
            a, b = (json.loads(side[k]) if k < len(side) else None for side in (was, now))
            if a != b:
                # a CLI entry starts with its argv, a library entry with its seed and job id
                cut = 1 if name in ("cli-session", "readme") else 2
                head = (a or b)[:cut]
                key = shlex.join(head[0]) if cut == 1 else f"seed {head[0]} jid {head[1]}"
                out.append((name, key, *(json.dumps(e[cut:]) if e else "absent" for e in (a, b))))
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree", nargs="?", type=Path, default=Path(__file__).resolve().parents[1])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--list", action="store_true", help="print the entries, not the hashes")
    mode.add_argument("--against", type=Path, metavar="LISTING", help="compare the entries with a --list output")
    args = parser.parse_args()
    tree = args.tree.resolve()
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import cli_jobs
    import workloads

    groups = {name: library_entries(workloads, name) for name in ("transforms", "grids")}
    with tempfile.TemporaryDirectory() as tmp:
        argvs = [job.params["argv"] for seed in range(1, 11) for job in cli_jobs.build_cli(seed, Path(tmp) / str(seed))]
        groups["cli-session"] = json.loads(json.dumps(cli_entries(cli_jobs, argvs)).replace(tmp, "<work>"))
    readme = (tree / "README.md").read_text(encoding="utf-8").splitlines()
    groups["readme"] = cli_entries(cli_jobs, [shlex.split(line)[2:] for line in readme if line.startswith("$ regvar ")])
    lines = {name: [json.dumps(entry) for entry in entries] for name, entries in groups.items()}
    if args.against:
        moved = differences(lines, args.against.read_text(encoding="utf-8"))
        for name, key, old, new in moved[:20]:
            print(f"{name} {key}: {old} -> {new}")
        print(f"{len(moved)} entries differ from {args.against}")
        return 1 if moved else 0
    for name, group in lines.items():
        if args.list:
            print("\n".join(f"{name} {line}" for line in group))
        else:
            print(name, len(group), hashlib.sha256("\n".join(group).encode()).hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
