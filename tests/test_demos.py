"""Every demo runs to the end with its draw counts made small."""

import importlib.util
import pathlib

import pytest

DEMOS = sorted((pathlib.Path(__file__).resolve().parent.parent / "demos").glob("*.py"))
# module constants that set a demo's Monte Carlo trials or sampler draws
SMALL = {"TRIALS": 2000, "N_DRAWS": 20000}


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_main_runs(path, capsys):
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    for name, value in SMALL.items():
        if hasattr(module, name):
            setattr(module, name, value)
    module.main()
    assert capsys.readouterr().out.strip()
