"""Tests for the Pipeline pass-manager: caching, invalidation, provenance."""

import pickle

import pytest

import repro.pipeline.pipeline as pipeline_module
from repro.compiler.compgraph import computation_graph_from_pattern
from repro.core.compiler import DCMBQCCompiler
from repro.core.config import DCMBQCConfig
from repro.mbqc.translate import circuit_to_pattern
from repro.obs.metrics import MetricsRegistry
from repro.pipeline import (
    ArtifactStore,
    LRUCache,
    Pipeline,
    Stage,
    single_qpu_stages,
)
from repro.pipeline.stages import distributed_stages, initial_program_state
from repro.programs import build_benchmark
from repro.utils.errors import CompilationError


def qft(num_qubits=6, seed=0):
    return build_benchmark("QFT", num_qubits, seed=seed)


def fresh_pipeline(tmp_path=None, grid_size=5, seed=0, **kwargs):
    """A pipeline with private memo/metrics so tests are order-independent."""
    store = ArtifactStore(tmp_path) if tmp_path is not None else None
    return Pipeline(
        single_qpu_stages(grid_size=grid_size, seed=seed, **kwargs),
        store=store,
        memo=LRUCache(maxsize=16),
        metrics=MetricsRegistry(),
    )


def stage_keys(run):
    return {record.stage: record.key for record in run.records}


def count_pickles(monkeypatch):
    """Record the type of every object ``pickle.dumps`` serialises from now on."""
    calls = []
    dumps = pickle.dumps

    def counting_dumps(value, *args, **kwargs):
        calls.append(type(value).__name__)
        return dumps(value, *args, **kwargs)

    monkeypatch.setattr(pickle, "dumps", counting_dumps)
    return calls


def count_content_hashes(monkeypatch):
    """Record the artifact type of every content hash the pipeline takes."""
    calls = []
    content_hash = pipeline_module.content_hash

    def counting_content_hash(artifact):
        calls.append(type(artifact).__name__)
        return content_hash(artifact)

    monkeypatch.setattr(pipeline_module, "content_hash", counting_content_hash)
    return calls


class TestEntryPoints:
    def test_circuit_pattern_and_graph_entries_agree(self):
        circuit = qft()
        pattern = circuit_to_pattern(circuit)
        computation = computation_graph_from_pattern(pattern)
        from_circuit = fresh_pipeline().run({"circuit": circuit})
        from_pattern = fresh_pipeline().run({"pattern": pattern})
        from_graph = fresh_pipeline().run({"computation": computation})
        summaries = [
            run.state["schedule"].summary()
            for run in (from_circuit, from_pattern, from_graph)
        ]
        assert summaries[0] == summaries[1] == summaries[2]
        statuses = [record.status for record in from_graph.records]
        assert statuses == ["skipped", "provided", "executed"]

    def test_missing_input_raises(self):
        with pytest.raises(CompilationError, match="missing inputs"):
            fresh_pipeline().run({})

    def test_rejects_duplicate_stage_names(self):
        stage = Stage("dup", lambda circuit: circuit, inputs=("circuit",), output="a")
        other = Stage("dup", lambda a: a, inputs=("a",), output="b")
        with pytest.raises(CompilationError, match="duplicate"):
            Pipeline([stage, other])


class TestCaching:
    def test_warm_run_short_circuits_every_stage(self, tmp_path):
        pipeline = fresh_pipeline(tmp_path)
        cold = pipeline.run(initial_program_state(qft()))
        assert cold.executions == 3 and cold.cache_hits == 0
        warm = pipeline.run(initial_program_state(qft()))
        assert warm.executions == 0 and warm.cache_hits == 3
        assert [record.status for record in warm.records] == ["memory-hit"] * 3

    def test_disk_hits_survive_a_fresh_memory_cache(self, tmp_path):
        fresh_pipeline(tmp_path).run(initial_program_state(qft()))
        warm = fresh_pipeline(tmp_path).run(initial_program_state(qft()))
        assert [record.status for record in warm.records] == ["disk-hit"] * 3

    def test_cache_hit_schedule_equals_cold_schedule(self, tmp_path):
        cold = fresh_pipeline(tmp_path).run(initial_program_state(qft()))
        warm = fresh_pipeline(tmp_path).run(initial_program_state(qft()))
        cold_schedule = cold.state["schedule"]
        warm_schedule = warm.state["schedule"]
        assert cold_schedule.summary() == warm_schedule.summary()
        assert [layer.node_cells for layer in cold_schedule.layers] == [
            layer.node_cells for layer in warm_schedule.layers
        ]
        assert cold_schedule.fusee_pairs == warm_schedule.fusee_pairs

    def test_disk_hit_run_pickles_nothing(self, tmp_path, monkeypatch):
        """A disk hit memoises the bytes the store read instead of re-pickling."""
        cold = fresh_pipeline(tmp_path).run(initial_program_state(qft()))
        pickles = count_pickles(monkeypatch)
        pipeline = fresh_pipeline(tmp_path)
        warm = pipeline.run(initial_program_state(qft()))
        assert pickles == []
        assert [record.status for record in warm.records] == ["disk-hit"] * 3
        assert stage_keys(warm) == stage_keys(cold)
        again = pipeline.run(initial_program_state(qft()))
        assert [record.status for record in again.records] == ["memory-hit"] * 3
        assert stage_keys(again) == stage_keys(cold)

    def test_use_cache_false_always_executes(self, tmp_path):
        store = ArtifactStore(tmp_path)
        pipeline = Pipeline(
            single_qpu_stages(grid_size=5),
            store=store,
            use_cache=False,
            memo=LRUCache(maxsize=16),
            metrics=MetricsRegistry(),
        )
        first = pipeline.run(initial_program_state(qft()))
        second = pipeline.run(initial_program_state(qft()))
        assert first.executions == second.executions == 3
        assert len(store) == 0  # nothing written when caching is off


class TestInvalidation:
    """Changing any upstream parameter must change the downstream keys."""

    def test_unchanged_parameters_reproduce_identical_keys(self):
        a = stage_keys(fresh_pipeline().run(initial_program_state(qft())))
        b = stage_keys(fresh_pipeline().run(initial_program_state(qft())))
        assert a == b

    def test_circuit_change_invalidates_every_downstream_stage(self):
        a = stage_keys(
            fresh_pipeline().run(
                initial_program_state(build_benchmark("QAOA", 6, seed=1))
            )
        )
        b = stage_keys(
            fresh_pipeline().run(
                initial_program_state(build_benchmark("QAOA", 6, seed=2))
            )
        )
        assert a["translate"] != b["translate"]
        assert a["compgraph"] != b["compgraph"]
        assert a["grid_mapping"] != b["grid_mapping"]

    def test_mapping_parameter_change_only_invalidates_mapping(self):
        a = stage_keys(fresh_pipeline(grid_size=5).run(initial_program_state(qft())))
        b = stage_keys(fresh_pipeline(grid_size=6).run(initial_program_state(qft())))
        assert a["translate"] == b["translate"]
        assert a["compgraph"] == b["compgraph"]
        assert a["grid_mapping"] != b["grid_mapping"]

    def test_seed_change_invalidates_mapping(self):
        a = stage_keys(fresh_pipeline(seed=0).run(initial_program_state(qft())))
        b = stage_keys(fresh_pipeline(seed=1).run(initial_program_state(qft())))
        assert a["grid_mapping"] != b["grid_mapping"]

    def test_stage_version_bump_invalidates(self):
        stage = Stage("s", lambda circuit: circuit, inputs=("circuit",), output="o")
        bumped = Stage(
            "s", lambda circuit: circuit, inputs=("circuit",), output="o", version="2"
        )
        assert stage.key(["h"]) != bumped.key(["h"])

    def test_unchanged_parameters_produce_byte_identical_artifacts(self, tmp_path):
        """Two cold runs into separate stores write the same bytes per key."""
        store_a = tmp_path / "a"
        store_b = tmp_path / "b"
        fresh_pipeline(store_a).run(initial_program_state(qft()))
        fresh_pipeline(store_b).run(initial_program_state(qft()))
        names_a = sorted(path.name for path in store_a.glob("*.pkl"))
        names_b = sorted(path.name for path in store_b.glob("*.pkl"))
        assert names_a == names_b and len(names_a) == 3
        for name in names_a:
            assert (store_a / name).read_bytes() == (store_b / name).read_bytes()


class TestDistributedPipeline:
    def test_compile_run_manifest_and_equality(self, tmp_path):
        config = DCMBQCConfig(num_qpus=2, grid_size=5)
        store = ArtifactStore(tmp_path)
        compiler = DCMBQCCompiler(config)
        cold_result, cold_run = compiler.compile_run(qft(), store=store)
        stages = [record.stage for record in cold_run.records]
        assert stages == [
            "translate",
            "compgraph",
            "partition",
            "qpu_mapping",
            "scheduling",
        ]
        warm_result, warm_run = compiler.compile_run(qft(), store=store)
        assert warm_run.executions == 0
        assert warm_run.cache_hits == 5
        assert warm_result.summary() == cold_result.summary()

    def test_distributed_config_change_invalidates_scheduling_only(self, tmp_path):
        base = DCMBQCConfig(num_qpus=2, grid_size=5, connection_capacity=2)
        other = base.with_updates(connection_capacity=4)
        _, run_a = DCMBQCCompiler(base).compile_run(qft())
        _, run_b = DCMBQCCompiler(other).compile_run(qft())
        keys_a = {record.stage: record.key for record in run_a.records}
        keys_b = {record.stage: record.key for record in run_b.records}
        # K_max only affects the scheduling stage: partition and mapping
        # artifacts are shared across the sensitivity sweep.
        assert keys_a["partition"] == keys_b["partition"]
        assert keys_a["qpu_mapping"] == keys_b["qpu_mapping"]
        assert keys_a["scheduling"] != keys_b["scheduling"]


class TestOncePerKey:
    """Each artifact is hashed and pickled at most once per key per process."""

    K_MAX_SWEEP = (1, 2, 4, 8)

    @staticmethod
    def sweep_point(k_max, memo):
        """Compile QFT-12 on 4 QPUs at one connection capacity."""
        compiler = DCMBQCCompiler(
            DCMBQCConfig(num_qpus=4, grid_size=5, connection_capacity=k_max)
        )
        pipeline = Pipeline(
            distributed_stages(compiler), memo=memo, metrics=MetricsRegistry()
        )
        return pipeline.run(initial_program_state(qft(12)))

    def test_kmax_sweep_hashes_only_the_circuit_at_warm_points(self, monkeypatch):
        memo = LRUCache(maxsize=16)
        self.sweep_point(self.K_MAX_SWEEP[0], memo)
        hashes = count_content_hashes(monkeypatch)
        for k_max in self.K_MAX_SWEEP[1:]:
            hashes.clear()
            run = self.sweep_point(k_max, memo)
            assert [record.status for record in run.records] == [
                "memory-hit", "memory-hit", "memory-hit", "memory-hit", "executed"
            ]
            # The circuit is the only artifact hashed by content; the other
            # call is the scheduling result's first execution at this key,
            # whose unknown type falls back to the provenance key.
            assert hashes == ["QuantumCircuit", "DistributedCompilationResult"]

    def test_kmax_sweep_records_equal_fresh_memo_runs(self):
        memo = LRUCache(maxsize=16)
        for index, k_max in enumerate(self.K_MAX_SWEEP):
            swept = self.sweep_point(k_max, memo)
            fresh = self.sweep_point(k_max, LRUCache(maxsize=16))
            assert stage_keys(swept) == stage_keys(fresh)
            assert [record.status for record in fresh.records] == ["executed"] * 5
            expected = ["executed"] * 5 if index == 0 else ["memory-hit"] * 4 + ["executed"]
            assert [record.status for record in swept.records] == expected
            assert swept.artifact.summary() == fresh.artifact.summary()

    def test_over_cap_key_reexecutes_without_pickling(self, monkeypatch):
        monkeypatch.setattr(pipeline_module, "MEMO_MAX_ENTRY_BYTES", 16)
        pipeline = fresh_pipeline()
        first = pipeline.run(initial_program_state(qft()))
        assert [record.status for record in first.records] == ["executed"] * 3
        pickles = count_pickles(monkeypatch)
        hashes = count_content_hashes(monkeypatch)
        second = pipeline.run(initial_program_state(qft()))
        assert [record.status for record in second.records] == ["executed"] * 3
        assert pickles == []
        assert hashes == ["QuantumCircuit"]
        assert stage_keys(second) == stage_keys(first)

    def test_over_cap_key_still_reaches_the_store(self, monkeypatch, tmp_path):
        monkeypatch.setattr(pipeline_module, "MEMO_MAX_ENTRY_BYTES", 16)
        pipeline = fresh_pipeline(tmp_path)
        first = pipeline.run(initial_program_state(qft()))
        pipeline.store.clear()
        second = pipeline.run(initial_program_state(qft()))
        assert [record.status for record in second.records] == ["executed"] * 3
        assert sorted(pipeline.store.keys()) == sorted(stage_keys(first).values())
