"""The README's examples run as written against the package."""

import json
import re
import shlex
from pathlib import Path

from quadbin.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)


def test_command_block_runs_in_order(capsys, tmp_path, monkeypatch):
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    lines = "".join(blocks).replace("\\\n", " ").splitlines()
    commands = [shlex.split(line) for line in lines if line.startswith("quadbin ")]
    assert len(commands) == 12
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        code = main(argv[1:])
        captured = capsys.readouterr()
        assert code == 0, (argv, captured.err)
        assert captured.err == ""
        out = captured.out.splitlines()
        assert len(out) == 1 and isinstance(json.loads(out[0]), dict), argv
