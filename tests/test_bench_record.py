"""The benches' shared ``BENCH_<name>.json`` writer (``benchmarks/_record.py``)."""

import importlib.util
import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _record_module():
    path = os.path.join(ROOT, "benchmarks", "_record.py")
    spec = importlib.util.spec_from_file_location("bench_record", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_out_is_the_directory_records_land_in(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_BENCH_OUT", str(tmp_path))
    record = _record_module()
    path = record.write_record("demo", {"speedup": 2.5})
    assert path == str(tmp_path / "BENCH_demo.json")
    assert os.listdir(tmp_path) == ["BENCH_demo.json"]  # no temp file left
    with open(path) as handle:
        assert json.load(handle) == {"speedup": 2.5}
    assert record.read_record("demo") == {"speedup": 2.5}


def test_bench_out_directory_is_created_when_missing(tmp_path, monkeypatch):
    out = tmp_path / "new" / "records"
    monkeypatch.setenv("REPRO_BENCH_OUT", str(out))
    path = _record_module().write_record("demo", {"speedup": 2.5})
    assert path == str(out / "BENCH_demo.json")
    assert os.listdir(out) == ["BENCH_demo.json"]


def test_records_default_to_the_repo_root(monkeypatch):
    monkeypatch.delenv("REPRO_BENCH_OUT", raising=False)
    assert _record_module().record_path("demo") == os.path.join(ROOT, "BENCH_demo.json")
