"""Parity digest: one SHA-256 per group of regvar's outputs, to check that two trees, or two Pythons, give the
same bits.

    python3 tools/digest.py [TREE] [--list]

regvar is imported from TREE/src and the job lists from TREE/perfbench, TREE being this checkout by default.  The
groups and their entries:

  transforms, grids  every job of the library workloads for seeds 0-5: float.hex of its digest, or its error, and
                     the texts of the warnings it raised;
  cli-session        every argv of the workload for seeds 1-10, through regvar.cli.main: exit code, stdout and
                     stderr, with the temporary directory named <work>;
  readme             the same for every ``$ regvar`` example of README.md.

``--list`` prints the entries in place of the hashes.  Only the standard library is used.
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


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree", nargs="?", type=Path, default=Path(__file__).resolve().parents[1])
    parser.add_argument("--list", action="store_true", help="print the entries, not the hashes")
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
    for name, entries in groups.items():
        lines = [json.dumps(entry) for entry in entries]
        if args.list:
            print("\n".join(f"{name} {line}" for line in lines))
        else:
            print(name, len(lines), hashlib.sha256("\n".join(lines).encode()).hexdigest())


if __name__ == "__main__":
    main()
