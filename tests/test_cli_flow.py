"""tools/cli_flow.py, whose artifacts CI compares byte for byte across
hash seeds, Pythons and the base commit: importing it changes no process
state, and its two short sets stay the files they are."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_importing_the_script_leaves_sys_as_it_is(tmp_path):
    code = ("import sys\n"
            "state = lambda: repr((sys.path, sys.dont_write_bytecode))\n"
            "before = state()\n"
            "import cli_flow\n"
            "print(before)\n"
            "print(state())\n")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(ROOT / "tools"),
                                           str(ROOT / "bench")]),
               PYTHONPYCACHEPREFIX=str(tmp_path))  # no bytecode in tools/
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    before, after = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, check=True).stdout.splitlines()
    assert before.endswith(", False)")
    assert after == before


@pytest.mark.parametrize("insert,digests", [
    (False, {"train": "cecec845a6919828c758cb1df6f19a7c"
                      "87cfc85244a24ca6b606a0f8542a5713",
             "test": "3bf0ca9af9becbaf2035d0fec171ff9a"
                     "2a4a7e88a3a5092ad032c37fab51a776"}),
    (True, {"train": "936817f8723563645031cda1587ad826"
                     "9502cff029d06c87b582b7ac8fa7f2e2",
            "test": "f780b533ca7ab616b47469297a4efd0d"
                    "10940842f9d7d2d3c1ce8e2c2591867b"}),
])
def test_short_sets_are_the_same_files(bench, tmp_path, insert, digests):
    paths = bench.cli_flow.write_short_set(tmp_path, insert)
    assert {split: hashlib.sha256(path.read_bytes()).hexdigest()
            for split, path in paths.items()} == digests
