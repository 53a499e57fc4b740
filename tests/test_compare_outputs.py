"""The file comparison of bench/compare_outputs.py, on hand-made output trees."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "bench" / "compare_outputs.py"

HEADER = "t_ns,A_oracle,residual"
ROWS = ["0.5,0.125,1e-12", "1,0.25,2e-12"]
REPORT = {"fidelity_avg": 0.99, "relabeling": "swap_ge",
          "discrepancy_notes": [{"code": "closed_form_A_vanishes", "detail": "A = 0"}]}


def _script():
    spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


compare_outputs = _script()


def _tree(root: Path, header=HEADER, rows=ROWS, report=REPORT) -> Path:
    root.mkdir()
    (root / "coefficients.csv").write_text("\n".join([header, *rows]) + "\n")
    (root / "gate_report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return root


def test_identical_trees_compare_clean(tmp_path, capsys):
    status = compare_outputs.compare_dirs(_tree(tmp_path / "a"), _tree(tmp_path / "b"))
    assert status == 0
    out = capsys.readouterr().out
    assert "coefficients.csv: byte-identical" in out
    assert "gate_report.json: byte-identical" in out


def test_a_moved_cell_is_reported_not_judged(tmp_path, capsys):
    moved = [ROWS[0], f"1,{0.25 + 1e-15!r},2e-12"]
    status = compare_outputs.compare_dirs(_tree(tmp_path / "a"), _tree(tmp_path / "b", rows=moved))
    assert status == 0
    line = next(s for s in capsys.readouterr().out.splitlines() if "coefficients.csv" in s)
    assert "header and 2 rows match" in line
    assert float(line.rsplit("max |diff| ", 1)[1]) == pytest.approx(1e-15, rel=0.2)


@pytest.mark.parametrize("change", [
    {"header": "t_ns,A_oracle,resid"},
    {"rows": ROWS[:1]},
    {"report": {**REPORT, "discrepancy_notes": []}},
    {"report": {k: v for k, v in REPORT.items() if k != "relabeling"}},
])
def test_a_structural_change_fails(tmp_path, change):
    status = compare_outputs.compare_dirs(_tree(tmp_path / "a"), _tree(tmp_path / "b", **change))
    assert status == 1


def _fake_checkout(root: Path, verdict: str) -> Path:
    # an hcps.cli that names its --out directory and prints 30 verdict lines
    (root / "src" / "hcps").mkdir(parents=True)
    (root / "src" / "hcps" / "__init__.py").write_text("")
    (root / "src" / "hcps" / "cli.py").write_text(
        "import sys\n"
        "print('wrote', sys.argv[sys.argv.index('--out') + 1] + '/table.csv')\n"
        f"for i in range(30):\n    print(f'check {{i}}: {verdict}')\n")
    return root


def test_differing_stdouts_print_their_lines_masked_and_capped(tmp_path, capsys):
    status = compare_outputs.main([str(_fake_checkout(tmp_path / "a", "PASS")),
                                   str(_fake_checkout(tmp_path / "b", "FAIL"))])
    assert status == 0
    out = capsys.readouterr().out.splitlines()
    head = out.index("hcps validate: exit 0 -> 0, stdout differs")
    shown = out[head + 1:head + 2 + compare_outputs.STDOUT_DIFF_LINES]
    assert shown[:2] == ["    - check 0: PASS", "    + check 0: FAIL"]
    assert shown[-1] == f"    ... {60 - compare_outputs.STDOUT_DIFF_LINES} more differing lines"
    assert not any("wrote" in line for line in out)     # the masked out dirs agree
