"""scripts/generate_fixture.py reproduces the bundled data byte for byte."""

import importlib.util
from pathlib import Path

from jobsignal.datasets import bundled_indicators_path, bundled_sites_path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "generate_fixture.py"


def test_regenerates_bundled_fixture(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("generate_fixture", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "OUT_DIR", tmp_path)
    module.main()
    for bundled in (bundled_sites_path(), bundled_indicators_path()):
        assert (tmp_path / bundled.name).read_bytes() == bundled.read_bytes(), bundled.name
