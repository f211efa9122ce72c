"""Golden bundles: every file each case of `record_golden.CONFIGS` writes,
compared byte for byte with the committed `tests/golden/<case>/`.

A refactor must leave every `summary.json`, `series.csv` and `plot.svg`
byte-identical.  The files were recorded with Python 3.11 and numpy 2.4.6
on x86-64; a numpy or libm whose transcendental functions round
differently changes them.  A mismatch prints a unified diff per changed
file; a file missing from or extra to the run fails the case.  A change
meant to move a bundle re-records them with `tests/record_golden.py`.
"""

import difflib

import pytest

from record_golden import CONFIGS, GOLDEN, bundle_files


def _diff(name: str, file_name: str, want: bytes, got: bytes) -> str:
    path = f"golden/{name}/{file_name}"
    return "".join(difflib.unified_diff(
        want.decode().splitlines(keepends=True),
        got.decode().splitlines(keepends=True),
        fromfile=path, tofile=f"{path} (this run)"))


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_bundle_bytes_unchanged(name, tmp_path):
    got = bundle_files(name, tmp_path)
    want = {path.name: path.read_bytes()
            for path in sorted((GOLDEN / name).glob("*"))}
    assert sorted(got) == sorted(want), (
        f"files missing from the run: {sorted(set(want) - set(got))}; "
        f"extra files: {sorted(set(got) - set(want))}")
    diffs = [_diff(name, file_name, want[file_name], data)
             for file_name, data in got.items() if data != want[file_name]]
    if diffs:
        pytest.fail("\n".join(diffs), pytrace=False)


def test_every_golden_case_has_a_config():
    assert sorted(path.name for path in GOLDEN.iterdir()) == sorted(CONFIGS)
