"""The README's command block and library quick start run as documented."""

import re
from pathlib import Path

from finitejj.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(heading: str, language: str) -> str:
    """The first ``language`` code block after ``heading``."""
    section = README[README.index(heading):]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def test_command_block_runs_as_documented(tmp_path, monkeypatch, capsys):
    """Each ``finitejj`` line exits 0, and each ``# -> `` line after one is in its summary."""
    monkeypatch.chdir(tmp_path)
    commands, documented = 0, []
    for line in _block("## Command line", "bash").splitlines():
        if line.startswith("finitejj "):
            assert main(line.split()[1:]) == 0, line
            out = capsys.readouterr().out
            commands += 1
        elif line.startswith("# -> "):
            expected = line[len("# -> "):].removesuffix(" ...")
            assert expected in out
            documented.append(expected)
    assert commands == 8
    assert documented == ["transmon-shift: numeric -8.0058 kHz, analytic -8.0000 kHz",
                          "validity (aluminum): N_min = 1.045e+04"]


def test_library_quick_start_prints_as_documented(capsys):
    code = _block("## Library quick start", "python")
    assert "# -8.006 kHz" in code and "# 4.6348..." in code
    exec(compile(code, "README.md", "exec"), {})
    shift, chi = capsys.readouterr().out.splitlines()
    assert shift == "-8.006 kHz"
    assert chi.startswith("4.6348")
