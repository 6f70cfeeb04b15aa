"""``scripts/bench_extra.py`` prints every measurement, then exits 1 if one of them failed."""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_extra.py"
MEASUREMENTS = ("m48_load", "import_time", "tier1", "pinned_run", "s12_b8_serving", "gradcheck_tiny")
PASSING = {
    "m48_load": {"measurement": "checkpoint.load M48"},
    "import_time": {"measurement": "import metaformer"},
    "tier1": {"measurement": "tier1", "passed": 3, "failed": 0, "exit_code": 0},
    "pinned_run": {"measurement": "criterion 9 pinned 300-step run", "loss_ratio": 0.0628},
    "s12_b8_serving": {"measurement": "S12 batch-8 graph-free serving"},
    "gradcheck_tiny": {"measurement": "gradcheck tiny config seed 0", "exit_codes": [0]},
}


def load_script():
    spec = importlib.util.spec_from_file_location("bench_extra", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CASES = [
    (None, {}, 0),
    ("pinned_run", {"loss_ratio": 0.9}, 0),  # the pinned run's loss ratio does not gate
    ("tier1", {"failed": 2}, 1),
    ("tier1", {"exit_code": 4}, 1),
    ("gradcheck_tiny", {"exit_codes": [0, 2]}, 1),
]


def test_bench_extra_prints_every_line_and_exits_1_when_a_measurement_failed(monkeypatch, capsys):
    module = load_script()
    for name, override, code in CASES:
        results = {key: dict(value, **(override if key == name else {})) for key, value in PASSING.items()}
        for key in MEASUREMENTS:
            monkeypatch.setattr(module, key, lambda key=key: results[key])
        assert module.main() == code, (name, override)
        lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert lines == [results[key] for key in MEASUREMENTS]
