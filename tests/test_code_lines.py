"""The code-line count of bench/code_lines.py, on hand-made modules."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "bench" / "code_lines.py"


def _script():
    spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


code_lines = _script()

SOURCE = '''"""Module docstring,
over two lines."""

import math   # a trailing comment leaves the line code

# a comment line


class Thing:
    """Class docstring."""

    def area(self, r):
        """Function docstring,

        with a blank line inside."""
        text = """a string that is
not a docstring"""
        return math.pi * r * r, text
'''


def test_docstrings_comments_and_blank_lines_are_not_code():
    # import, class, def, the two lines of the string assignment and the return
    assert code_lines.code_lines(SOURCE) == 6
    assert SOURCE.count("\n") == 18


def _checkout(root: Path, modules: dict[str, str]) -> Path:
    package = root / "src" / "hcps"
    package.mkdir(parents=True)
    for name, text in modules.items():
        (package / name).write_text(text)
    return root


def test_two_checkouts_print_each_side_and_the_change(tmp_path, capsys):
    parent = _checkout(tmp_path / "a", {"shapes.py": SOURCE, "gone.py": "x = 1\n"})
    change = _checkout(tmp_path / "b", {"shapes.py": SOURCE.replace("# a comment line\n", ""),
                                        "new.py": "y = 2\nz = 3\n"})
    assert code_lines.main([str(parent), str(change)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows[0] == ["module", "code", "code'", "change", "wc", "-l", "wc", "-l'", "change"]
    assert rows[1:] == [["gone.py", "1", "0", "-1", "1", "0", "-1"],
                        ["new.py", "0", "2", "+2", "0", "2", "+2"],
                        ["shapes.py", "6", "6", "+0", "18", "17", "-1"],
                        ["total", "7", "8", "+1", "19", "19", "+0"]]


def test_one_checkout_prints_its_counts(tmp_path, capsys):
    assert code_lines.main([str(_checkout(tmp_path / "a", {"shapes.py": SOURCE}))]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows[1:] == [["shapes.py", "6", "18"], ["total", "6", "18"]]
