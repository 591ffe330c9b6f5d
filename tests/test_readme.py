"""The README's Python and config blocks run as written.

Every ```python block is executed; every ```cfg block is parsed and echoed by
`noma-ggn print-config <file>`, whose output must parse back to the same
configuration. No block runs Monte Carlo.
"""

import pathlib
import re

import pytest

from noma_ggn.cli import main, parse_config

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```(\w+)\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
PYTHON = [body for lang, body in BLOCKS if lang == "python"]
CONFIGS = [body for lang, body in BLOCKS if lang == "cfg"]


def test_readme_has_blocks():
    assert PYTHON and CONFIGS


@pytest.mark.parametrize("index", range(len(PYTHON)))
def test_python_block_runs(index, capsys):
    exec(compile(PYTHON[index], f"README.md python block {index}", "exec"), {})
    assert capsys.readouterr().out


@pytest.mark.parametrize("index", range(len(CONFIGS)))
def test_config_block_parses_and_prints(index, tmp_path, capsys):
    params = parse_config(CONFIGS[index])
    path = tmp_path / "readme.cfg"
    path.write_text(CONFIGS[index], encoding="utf-8")
    assert main(["print-config", str(path)]) == 0
    assert parse_config(capsys.readouterr().out) == params
