#!/usr/bin/env python3
"""Compare the paper_preset outputs of two hcps checkouts.

    python3 bench/compare_outputs.py <parent root> <change root>

Runs `gate`, `validate`, `coeffs`, `sweep`, `lindblad` and `gate
--trajectory` with `--config paper_preset` on each checkout, strictly one
process after another, with OPENBLAS_NUM_THREADS=1, that checkout's src/
on PYTHONPATH and a scratch --out directory per command.  It prints each
command's exit codes and whether the stdouts match once the output
directory is masked, and when they do not, the differing lines (at most
STDOUT_DIFF_LINES of them), then compares every file the two runs wrote: a file
is byte-identical, or its structure (CSV header, row and column counts,
text cells; JSON key set, note codes, text values) and the largest
absolute difference over its numbers are printed.

Exits 1 when an exit code or any structure differs, else 0.  Numeric
differences are reported, not judged.
"""

from __future__ import annotations

import argparse
import difflib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

RUNS = {command: [command] for command in ("gate", "validate", "coeffs", "sweep", "lindblad")}
RUNS["gate_trajectory"] = ["gate", "--trajectory"]
STDOUT_DIFF_LINES = 20


def run_cli(root: Path, args: list[str], out_dir: Path) -> tuple[int, str]:
    """(exit code, stdout with out_dir masked) of one `hcps <args>` on paper_preset."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, "-m", "hcps.cli", *args, "--config", "paper_preset",
         "--out", str(out_dir)], cwd=root, env=env, capture_output=True, text=True)
    return done.returncode, done.stdout.replace(str(out_dir), "<out>")


def stdout_diff(a: str, b: str, limit: int = STDOUT_DIFF_LINES) -> list[str]:
    """The lines only one of two stdouts has, "- " parent and "+ " change,
    in order; past `limit` of them, one line counts the rest."""
    lines = [line for line in difflib.ndiff(a.splitlines(), b.splitlines())
             if line.startswith(("- ", "+ "))]
    if len(lines) > limit:
        lines[limit:] = [f"... {len(lines) - limit} more differing lines"]
    return lines


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def compare_csv(a: str, b: str) -> tuple[bool, str]:
    """(structure matches, summary) of two CSV texts."""
    rows_a = [line.split(",") for line in a.splitlines()]
    rows_b = [line.split(",") for line in b.splitlines()]
    if rows_a[:1] != rows_b[:1]:
        return False, "header differs"
    if len(rows_a) != len(rows_b):
        return False, f"row counts differ: {len(rows_a) - 1} vs {len(rows_b) - 1}"
    worst, text_diffs = 0.0, 0
    for ra, rb in zip(rows_a[1:], rows_b[1:]):
        if len(ra) != len(rb):
            return False, "column counts differ"
        for ca, cb in zip(ra, rb):
            xa, xb = _number(ca), _number(cb)
            if xa is None or xb is None:
                text_diffs += ca != cb
            else:
                worst = max(worst, abs(xa - xb))
    summary = f"header and {len(rows_a) - 1} rows match, max |diff| {worst:.3g}"
    if text_diffs:
        return False, f"{summary}; {text_diffs} text cells differ"
    return True, summary


def compare_json(a: str, b: str) -> tuple[bool, str]:
    """(structure matches, summary) of two gate_report.json texts."""
    ja, jb = json.loads(a), json.loads(b)
    if set(ja) != set(jb):
        return False, f"key sets differ: {sorted(set(ja) ^ set(jb))}"
    codes_a = [note["code"] for note in ja.get("discrepancy_notes", [])]
    codes_b = [note["code"] for note in jb.get("discrepancy_notes", [])]
    if codes_a != codes_b:
        return False, f"note codes differ: {codes_a} vs {codes_b}"
    parts, ok = [f"keys and note codes {codes_a} match"], True
    for key in sorted(ja):
        va, vb = ja[key], jb[key]
        if isinstance(va, (int, float)) and isinstance(vb, (int, float)):
            parts.append(f"{key} diff {abs(va - vb):.3g}")
        elif key != "discrepancy_notes" and va != vb:
            parts.append(f"{key} differs")
            ok = False
    return ok, "; ".join(parts)


def compare_file(a: Path, b: Path) -> tuple[bool, str]:
    """(structure matches, summary) of two output files."""
    if a.read_bytes() == b.read_bytes():
        return True, "byte-identical"
    compare = compare_json if a.suffix == ".json" else compare_csv
    return compare(a.read_text(encoding="utf-8"), b.read_text(encoding="utf-8"))


def compare_dirs(a: Path, b: Path, label: str = "") -> int:
    """Print one line per file written in either directory; 1 if any structure differs."""
    status = 0
    for name in sorted({p.name for p in a.iterdir()} | {p.name for p in b.iterdir()}):
        if not ((a / name).is_file() and (b / name).is_file()):
            ok, summary = False, "written by one side only"
        else:
            ok, summary = compare_file(a / name, b / name)
        print(f"  {label}{name}: {summary}")
        status |= not ok
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="root of the parent checkout")
    parser.add_argument("change", type=Path, help="root of the changed checkout")
    args = parser.parse_args(argv)
    roots = (args.parent.resolve(), args.change.resolve())
    status = 0
    with tempfile.TemporaryDirectory() as scratch:
        for key, cli_args in RUNS.items():
            outs = [Path(scratch) / side / key for side in ("parent", "change")]
            results = []
            for root, out in zip(roots, outs):
                out.mkdir(parents=True)
                results.append(run_cli(root, cli_args, out))
            (code_a, stdout_a), (code_b, stdout_b) = results
            same = "stdout identical" if stdout_a == stdout_b else "stdout differs"
            print(f"hcps {' '.join(cli_args)}: exit {code_a} -> {code_b}, {same}")
            for line in stdout_diff(stdout_a, stdout_b):
                print(f"    {line}")
            status |= code_a != code_b
            status |= compare_dirs(*outs)
    print("structure matches" if status == 0 else "structure differs")
    return status


if __name__ == "__main__":
    sys.exit(main())
