"""Byte digest of the ``hsolo`` command line over a fixed set of commands.

Usage::

    python tools/cli_digest.py SRC_DIR

Runs 62 ``python -m hsolo`` commands, in order, in a fresh temporary
directory, with ``SRC_DIR`` (a checkout's ``src``) first on ``PYTHONPATH``
and ``COLUMNS=80``, so help text wraps the same in any terminal.
Prints one line per command: a sha256 over its stdout, stderr, exit code and
the files it wrote or changed, then the command. Input files come from the
``generate`` commands and from files this script writes: header-only,
point-only, unflagged, flagged with no inliers, a 3-row one, and one with
extreme byproduct rows. Paths are relative to the temporary directory, so two
checkouts give the same lines exactly when their command-line bytes agree::

    diff <(python tools/cli_digest.py OLD/src) <(python tools/cli_digest.py src)
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

HEADER = "hsolo-corr v1\n"

COMMANDS = [
    "generate a.csv --n 500 --w 0.1 --seed 1",
    "generate b.csv --n 2000 --w 0.05 --seed 2 --pixel-noise 0.5 --scale-noise 0.05 --angle-noise 0.05",
    "generate c.csv --n 200 --w 0.3 --seed 3 --truth 1,0,25,0,1,-10,0,0,1",
    "generate d.csv --n 300 --w 0.2 --seed 4 --width 4000 --height 3000",
    "generate e.csv --truth 1,0,0,2,0,0,0,0,1",
    "generate m.csv --n 300 --w 0.2 --seed 5 --truth=-1,0,640,0,1,0,0,0,1",
    "generate x.csv --width inf",
    "solve a.csv",
    "solve a.csv --method ransac",
    "solve b.csv",
    "solve b.csv --method ransac --seed 3",
    "solve c.csv --nf 20 --epsilon-r 10",
    "solve d.csv",
    "solve d.csv --method ransac",
    "solve m.csv",
    "solve m.csv --method ransac",
    "solve a.csv -o result.txt --seed 5",
    "solve a.csv --epsilon nan",
    "solve a.csv --epsilon-r 1e-300",
    "solve a.csv --epsilon-r inf",
    "solve a.csv --method ransac --nf 3",
    "solve points.csv --method ransac",
    "solve points.csv",
    "solve extreme.csv",
    "solve empty.csv --method ransac",
    "solve empty.csv",
    "solve missing.csv",
    "calibrate-epsilon-r a.csv",
    "calibrate-epsilon-r b.csv --nf 20",
    "calibrate-epsilon-r unflagged.csv",
    "calibrate-epsilon-r points.csv",
    "calibrate-epsilon-r three.csv",
    "calibrate-epsilon-r empty.csv",
    "calibrate-epsilon-r a.csv --nf 3",
    "calibrate-epsilon-r c.csv",
    "bench --trials 3 --n 200 --w 0.05,0.2 --workers 1",
    "bench --trials 3 --n 200 --w 0.05,0.2 --workers 2",
    "bench --trials 2 --n 200 --w 0.05,0.4 --pixel-noise 0.5 --scale-noise 0.05 --angle-noise 0.05"
    " --max-iterations 10000 --workers 2",
    "bench --trials 2 --n 500 --w 0.03,0.05 --methods ransac --max-iterations 10000"
    " --pixel-noise 0.5 --scale-noise 0.05 --angle-noise 0.05",
    "bench --input a.csv --trials 4 --records-out records.tsv",
    "bench --input unflagged.csv --trials 4",
    "bench --input unflagged.csv --trials 12 --max-iterations 10000",
    "bench --input a.csv --trials 4 --workers 2",
    "bench --input unflagged.csv --trials 12 --max-iterations 10000 --workers 2",
    "bench --input points.csv --methods ransac --trials 2",
    "bench --input points.csv --trials 2",
    "bench --input empty.csv --methods ransac --trials 2",
    "bench --input empty.csv --trials 2",
    "bench --input zero.csv --methods ransac --trials 2 --max-iterations 2000",
    "bench --input a.csv --methods ransac --trials 2 --pixel-noise -1 --max-iterations 200",
    "bench --trials 2 --n 200 --w 0.05,0.3 --methods ransac,hsolo",
    "bench --trials 2 --n 200 --w 0.05,0.3 --methods hsolo,hsolo,ransac",
    "bench --trials 1 --n 100 --w nan",
    "bench --workers 0 --trials 1 --n 100 --w 0.2",
    "bench --pixel-noise -1 --workers 2 --trials 2 --n 100 --w 0.2",
    "bench --n 5 --trials 1 --w 0.2",
    "bench --width 0 --trials 1 --n 100 --w 0.2",
    "bench --angle-noise nan --trials 1 --n 100 --w 0.2 --workers 2",
    "theory",
    "theory --w 0.01,0.1 --n-values 4,7",
    "generate --help",
    "bench --help",
]
FIRST_SOLVE = "solve a.csv"


def _write_inputs(work: Path) -> None:
    """The header-only and point-only files."""
    (work / "empty.csv").write_text(HEADER)
    rows = [f"{i * 7.5!r},{i * 3.25!r},{i * 7.5 + 12.0!r},{i * 3.25 - 7.0!r}" for i in range(30)]
    rows += ["5.0,400.0,300.0,20.0", "600.0,10.0,40.0,470.0", "320.0,240.0,100.0,100.0"]
    (work / "points.csv").write_text(HEADER + "\n".join(rows) + "\n")


def _write_derived_inputs(work: Path) -> None:
    """Files made from a.csv, written after the generate commands have run."""
    lines = (work / "a.csv").read_text().splitlines()[1:]
    rows = [ln.rsplit(",", 1)[0] for ln in lines]
    (work / "unflagged.csv").write_text(HEADER + "\n".join(rows) + "\n")
    (work / "zero.csv").write_text(HEADER + "".join(row + ",0\n" for row in rows))
    (work / "three.csv").write_text(HEADER + "\n".join(rows[:3]) + "\n")
    # an overflowing sketch and a singular one (a 1/200 scale ratio)
    extreme = rows[:200] + [
        "100.0,120.0,1e-200,0.3,300.0,200.0,1e+200,-0.2",
        "100.0,120.0,40.0,0.3,300.0,200.0,0.2,-0.2",
    ]
    (work / "extreme.csv").write_text(HEADER + "\n".join(extreme + rows[200:]) + "\n")


def _snapshot(work: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(work.iterdir()) if p.is_file()}


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    src = Path(argv[0]).resolve()
    if not (src / "hsolo" / "__init__.py").is_file():
        print(f"no hsolo package under {src}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(src)] + [p for p in [env.get("PYTHONPATH")] if p])
    env["COLUMNS"] = "80"
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        _write_inputs(work)
        for command in COMMANDS:
            if command == FIRST_SOLVE:
                _write_derived_inputs(work)
            before = _snapshot(work)
            proc = subprocess.run(
                [sys.executable, "-m", "hsolo", *command.split()],
                cwd=work, env=env, capture_output=True, timeout=600,
            )
            digest = hashlib.sha256()
            for part in (proc.stdout, proc.stderr, str(proc.returncode).encode()):
                digest.update(len(part).to_bytes(8, "little") + part)
            for name, data in _snapshot(work).items():
                if before.get(name) != data:
                    digest.update(name.encode() + b"\0" + len(data).to_bytes(8, "little") + data)
            print(f"{digest.hexdigest()}  {command}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
