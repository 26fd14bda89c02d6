"""Golden SHA-256 of the CLI's output files: every byte of nine runs is pinned.

The nine commands of RUNS write 30 files (manifests excluded, since they
hold a time stamp).  `golden_outputs.json` holds each file's SHA-256, one
byte of the SHA-256 of each of its lines, each command's exit code
(`selftest --quick` exits 1, on criterion 6) and the numpy, scipy and BLAS
versions the table was recorded with.  A mismatch names the file and shows
its first line whose byte moved (a moved line keeps its byte with chance
1/256, and then a later moved line is shown).  A change that moves any
file re-records the table with

    PYTHONPATH=src python3 tests/test_golden_outputs.py --record

and names in CHANGES.md each file that moved and by how much.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import scipy

from kpztail.cli import main

TABLE = Path(__file__).with_name("golden_outputs.json")
HIT = ["hitting-time", "--t", "1", "--x", "1", "--lambda", "4", "--paths", "20000"]
SHAPE = ["limit-shape", "--lambda", "8", "--delta", "0.5"]
RUNS = {
    "selftest_quick": ["selftest", "--quick"],
    "selftest_criteria": ["selftest", "--criteria", "1,2,3,4,5,7,9"],
    "figure1": ["figure1"],
    "hitting_time": HIT,
    "limit_shape_pde": SHAPE,
    "limit_shape_mc": [*SHAPE, "--backend", "mc", "--paths", "2000"],
    "rate": ["rate", "--lambda", "4"],
    "spectral": ["spectral"],
    "fk": ["fk", "--duration", "4"],
}


def _line_digests(data: bytes) -> str:
    return "".join(hashlib.sha256(ln).hexdigest()[:2] for ln in data.splitlines())


def versions() -> dict:
    blas = {name: mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            for name, mod in (("numpy", np), ("scipy", scipy))}
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            **{f"{name}_blas": f"{b['name']} {b['version']}" for name, b in blas.items()}}


def run_all(root: Path) -> dict:
    """Run every command of RUNS into its own directory under root; the
    exit codes and, per output file, its SHA-256 and line digests."""
    codes, files = {}, {}
    for name, argv in RUNS.items():
        codes[name] = main([*argv, "--out", str(root / name)])
        for path in sorted((root / name).rglob("*")):
            if path.is_file() and path.name != "manifest.json":
                data = path.read_bytes()
                files[path.relative_to(root).as_posix()] = {
                    "sha256": hashlib.sha256(data).hexdigest(),
                    "lines": _line_digests(data),
                }
    return {"versions": versions(), "exit_codes": codes, "files": files}


def _first_moved_line(root: Path, rel: str, want: dict) -> str:
    data = (root / rel).read_bytes()
    lines, digests, recorded = data.splitlines(), _line_digests(data), want["lines"]
    for i, line in enumerate(lines):
        if digests[2 * i:2 * i + 2] != recorded[2 * i:2 * i + 2]:
            return f"{rel}: line {i + 1} moved, now {line.decode(errors='replace')!r}"
    return f"{rel}: lost its lines {len(lines) + 1} to {len(recorded) // 2}"


def test_a_moved_line_is_named_and_shown(tmp_path):
    (tmp_path / "a.csv").write_bytes(b"x,y\n0,1\n")
    want = {"lines": _line_digests(b"x,y\n0,1.000000000001\n")}
    assert _first_moved_line(tmp_path, "a.csv", want) == "a.csv: line 2 moved, now '0,1'"
    want = {"lines": _line_digests(b"x,y\n0,1\n2,3\n")}
    assert _first_moved_line(tmp_path, "a.csv", want) == "a.csv: lost its lines 3 to 3"


def test_outputs_match_the_golden_table(tmp_path):
    table = json.loads(TABLE.read_text())
    got = run_all(tmp_path)
    problems = [f"{name} exited {code}, recorded {table['exit_codes'].get(name)}"
                for name, code in got["exit_codes"].items() if code != table["exit_codes"].get(name)]
    problems += [f"{rel}: missing" for rel in table["files"] if rel not in got["files"]]
    problems += [f"{rel}: not in the table" for rel in got["files"] if rel not in table["files"]]
    problems += [_first_moved_line(tmp_path, rel, want) for rel, want in table["files"].items()
                 if rel in got["files"] and got["files"][rel]["sha256"] != want["sha256"]]
    if problems and got["versions"] != table["versions"]:
        problems.append(f"versions differ: recorded {table['versions']}, now {got['versions']}")
    assert not problems, "\n".join(problems)


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python3 tests/test_golden_outputs.py --record")
    with tempfile.TemporaryDirectory() as tmp:
        table = run_all(Path(tmp))
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(table['files'])} files in {TABLE}")
