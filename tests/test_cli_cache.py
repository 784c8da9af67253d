"""Tests for the CLI cache flags (--cache-dir / --no-cache / --json)."""

import json

import pytest

from repro.cli import build_parser, main
from repro.obs.metrics import METRICS
from repro.pipeline import CACHE_DIR_ENV, CACHE_DISABLE_ENV, clear_memory_cache
from repro.sweep.cache import COMPUTATION_CACHE


@pytest.fixture(autouse=True)
def isolated_caches(monkeypatch):
    """Keep global cache state from leaking between CLI invocations.

    ``main()`` propagates ``--cache-dir``/``--no-cache`` to the environment
    (so sweep workers inherit them), which would otherwise leak across
    in-process tests.
    """
    import os

    monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
    monkeypatch.delenv(CACHE_DISABLE_ENV, raising=False)
    COMPUTATION_CACHE.clear()
    clear_memory_cache()
    METRICS.reset("pipeline.stage.")
    yield
    os.environ.pop(CACHE_DIR_ENV, None)
    os.environ.pop(CACHE_DISABLE_ENV, None)
    COMPUTATION_CACHE.clear()
    clear_memory_cache()
    METRICS.reset("pipeline.stage.")


COMPILE_ARGS = ["compile", "--program", "QFT", "--qubits", "8", "--qpus", "2", "--grid-size", "5"]


class TestParser:
    def test_compile_accepts_cache_flags(self):
        args = build_parser().parse_args(
            COMPILE_ARGS + ["--cache-dir", "/tmp/c", "--no-cache", "--json"]
        )
        assert args.cache_dir == "/tmp/c"
        assert args.no_cache is True
        assert args.json is True

    def test_sweep_accepts_cache_flags(self):
        args = build_parser().parse_args(
            ["sweep", "--grid", "table3", "--out", "x", "--no-cache", "--json"]
        )
        assert args.no_cache is True
        assert args.json is True


class TestCompileCache:
    def test_text_output_reports_cache_counts(self, capsys):
        assert main(COMPILE_ARGS) == 0
        output = capsys.readouterr().out
        assert "cache: 0 hits, 5 misses" in output

    def test_json_output_carries_manifest(self, capsys):
        assert main(COMPILE_ARGS + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["name"] == "qft_8"
        stages = [record["stage"] for record in payload["pipeline"]["stages"]]
        assert stages == ["translate", "compgraph", "partition", "qpu_mapping", "scheduling"]
        assert payload["pipeline"]["executions"] == 5

    def test_cache_dir_populates_and_serves_artifacts(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "artifacts")
        assert main(COMPILE_ARGS + ["--cache-dir", cache_dir, "--json"]) == 0
        cold = json.loads(capsys.readouterr().out)
        assert cold["pipeline"]["executions"] == 5
        assert len(list((tmp_path / "artifacts").glob("*.pkl"))) == 5

        clear_memory_cache()  # fresh process simulation: only disk survives

        assert main(COMPILE_ARGS + ["--cache-dir", cache_dir, "--json"]) == 0
        warm = json.loads(capsys.readouterr().out)
        assert warm["pipeline"]["executions"] == 0
        assert warm["pipeline"]["cache_hits"] == 5
        assert warm["summary"] == cold["summary"]

    def test_no_cache_writes_nothing(self, tmp_path, capsys, monkeypatch):
        cache_dir = tmp_path / "artifacts"
        monkeypatch.setenv(CACHE_DIR_ENV, str(cache_dir))
        assert main(COMPILE_ARGS + ["--no-cache", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pipeline"]["executions"] == 5
        assert not list(cache_dir.glob("*.pkl"))


class TestSweepCache:
    def test_sweep_json_reports_cache_counts(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "artifacts")
        argv = [
            "sweep",
            "--grid",
            "table3",
            "--scale",
            "smoke",
            "--cache-dir",
            cache_dir,
            "--json",
        ]
        assert main(argv + ["--out", str(tmp_path / "cold")]) == 0
        cold = json.loads(capsys.readouterr().out)
        assert cold["summary"]["completed"] == 4
        assert cold["cache"]["misses"] > 0

        COMPUTATION_CACHE.clear()
        clear_memory_cache()

        assert main(argv + ["--out", str(tmp_path / "warm")]) == 0
        warm = json.loads(capsys.readouterr().out)
        assert warm["summary"]["completed"] == 4
        assert warm["cache"]["misses"] == 0
        assert warm["cache"]["hits"] == cold["cache"]["misses"]

    def test_no_cache_sweep_bypasses_in_process_caches_too(self, tmp_path, capsys):
        """--no-cache must defeat the memo/computation caches, not just disk
        — otherwise cold-timing sweeps silently measure the cache."""
        argv = ["sweep", "--grid", "table3", "--scale", "smoke", "--json"]
        assert main(argv + ["--out", str(tmp_path / "first")]) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["cache"]["misses"] > 0

        # In-process caches are now warm; a --no-cache rerun must not use them.
        assert main(argv + ["--no-cache", "--out", str(tmp_path / "second")]) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["cache"]["hits"] == 0
        assert second["cache"]["misses"] == first["cache"]["misses"]
