"""``scripts/seed_sweep.py`` refuses a seed count below 1 before any pinned run."""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "seed_sweep.py"


def load_script():
    spec = importlib.util.spec_from_file_location("seed_sweep", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seeds", ["0", "-3"])
def test_a_seed_count_below_1_exits_2_with_one_error_line_and_runs_nothing(seeds, monkeypatch, capsys):
    module = load_script()
    runs = []
    monkeypatch.setattr(module, "pinned_run", runs.append)
    monkeypatch.setattr("sys.argv", ["seed_sweep.py", "--seeds", seeds])
    with pytest.raises(SystemExit) as exit_info:
        module.main()
    out, err = capsys.readouterr()
    assert exit_info.value.code == 2 and runs == [] and out == ""
    assert [line for line in err.splitlines() if "error:" in line] == [
        f"seed_sweep.py: error: --seeds must be at least 1, got {seeds}"]


def test_each_seed_gets_one_pinned_run(monkeypatch, capsys):
    module = load_script()
    runs = []

    def pinned_run(seed):
        runs.append(seed)
        return SimpleNamespace(metrics=[{"loss": 1.0, "train_acc": 0.25}, {"loss": 0.1, "train_acc": 1.0}])

    monkeypatch.setattr(module, "pinned_run", pinned_run)
    monkeypatch.setattr("sys.argv", ["seed_sweep.py", "--seeds", "2"])
    module.main()
    assert runs == [0, 1]
    assert capsys.readouterr().out.splitlines()[-1] == "passed 2/2; mean loss over the last 20 steps 0.5500"
