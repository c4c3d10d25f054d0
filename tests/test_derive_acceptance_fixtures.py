"""scripts/derive_acceptance_fixtures.py prints the derived document and
writes no file: the frozen fixture changes only by a deliberate redirect."""

import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "tests" / "fixtures" / "acceptance_thresholds.json"


def test_main_prints_the_derived_document_and_writes_nothing(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(
        "derive_acceptance_fixtures", ROOT / "scripts" / "derive_acceptance_fixtures.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    stub = {"density_bias": {"sampled_count": 1}, "end_to_end": {"reference_iou": 0.5}}
    monkeypatch.setattr(module, "derive", lambda: stub)
    monkeypatch.chdir(tmp_path)
    before = FIXTURE.read_bytes()

    module.main()

    assert json.loads(capsys.readouterr().out) == stub
    assert FIXTURE.read_bytes() == before
    assert not any(tmp_path.iterdir())
