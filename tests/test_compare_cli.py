"""Smoke test of tools/compare_cli.py, on the corpus entry z2 only: the
source tree compared with itself shows no difference, and a difference
planted in a copy of it is reported, for exactly the commands it
touches."""

import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "compare_cli.py"
SRC = ROOT / "src"


def compare(old, new):
    return subprocess.run(
        [sys.executable, str(TOOL), str(old), str(new), "--entries", "z2"],
        capture_output=True, text=True, timeout=600)


def test_compare_cli_reports_only_planted_differences(tmp_path):
    same = compare(SRC, SRC)
    assert same.returncode == 0, same.stdout + same.stderr
    summary = same.stdout.splitlines()[-1]
    assert summary.startswith("compare_cli: ") and " 0 differ, " in summary

    planted = tmp_path / "src"
    shutil.copytree(SRC, planted,
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = planted / "qhopf" / "cli.py"
    text = cli.read_text(encoding="utf-8")
    assert text.count('"derived elements of %s"') == 1
    cli.write_text(text.replace('"derived elements of %s"',
                                '"derived elements on %s"'),
                   encoding="utf-8")
    diff = compare(SRC, planted)
    assert diff.returncode == 1, diff.stdout + diff.stderr
    lines = diff.stdout.splitlines()
    assert [line.split(":")[0] for line in lines
            if line.startswith("DIFFERS ")] == [
        "DIFFERS Q/derive/z2", "DIFFERS GF7/derive/z2"]
    assert sum(line.startswith("    file out.json line ")
               for line in lines) == 2
    assert " 2 differ, 0 skipped " in lines[-1]
