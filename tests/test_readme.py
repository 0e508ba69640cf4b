"""The README's CLI block runs as written, on fewer rows."""

import re
import shlex
import time
from pathlib import Path

from somalloc.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _cli_section() -> str:
    text = README.read_text(encoding="utf-8")
    return text[text.index("## CLI\n"):text.index("## File formats")]


def _fenced(section: str, lang: str) -> str:
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def _commands(block: str) -> list[list[str]]:
    """Each ``somalloc`` command of a shell block, continuation lines joined."""
    joined = block.replace("\\\n", " ")
    return [
        shlex.split(line, comments=True)[1:]
        for line in joined.splitlines()
        if line.strip().startswith("somalloc ")
    ]


def test_readme_cli_block_runs(tmp_path, monkeypatch):
    section = _cli_section()
    commands = _commands(_fenced(section, "bash"))
    assert [c[0] for c in commands] == [
        "synth", "select-vars", "train", "label", "describe", "fit", "allocate",
        "label", "evaluate", "run",
    ]
    monkeypatch.chdir(tmp_path)
    Path("config.json").write_text(_fenced(section, "json"), encoding="utf-8")
    t0 = time.perf_counter()
    for argv in commands:
        if argv[0] == "synth":
            argv = [*argv, "--n", "1200"]
        assert main(argv) == 0, argv
    assert time.perf_counter() - t0 < 10.0
    # the chain's files are run's, byte for byte
    for path in Path("out").iterdir():
        if path.name != "report.json":
            assert (Path("chain") / path.name).read_bytes() == path.read_bytes(), path.name
