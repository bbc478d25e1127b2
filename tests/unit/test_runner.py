"""Unit tests for the runner subsystem: cache, registry, pool, artifacts."""

import json


import repro.runner.cache as cache_module
from repro.runner.artifacts import ARTIFACT_SCHEMA, build_artifact
from repro.runner.cache import ResultCache
from repro.runner.metrics import format_summary, summarize
from repro.runner.pool import run_jobs
from repro.runner.registry import REGISTRY, ExperimentSpec, JobSpec, build_jobs
from repro.util.artifact import write_json


def _job(func: str, kwargs: dict | None = None, experiment: str = "t") -> JobSpec:
    """A JobSpec pointing at the in-package self-test functions."""
    return JobSpec(
        experiment=experiment,
        title=f"T — {experiment}",
        module="tests.runner_jobs",
        func=func,
        kwargs=kwargs or {},
    )


class TestResultCache:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("fig3", {"n": 4}) is None
        cache.put("fig3", {"n": 4}, "report text", 1.5)
        entry = cache.get("fig3", {"n": 4})
        assert entry is not None
        assert entry.output == "report text"
        assert entry.compute_time_s == 1.5

    def test_kwargs_change_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("fig3", {"n": 4}, "x", 0.0)
        assert cache.get("fig3", {"n": 5}) is None
        assert cache.get("other", {"n": 4}) is None

    def test_key_is_canonical_in_kwarg_order(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.key_for("e", {"a": 1, "b": 2}) == cache.key_for("e", {"b": 2, "a": 1})

    def test_version_in_key(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        before = cache.key_for("e", {})
        monkeypatch.setattr(cache_module, "__version__", "99.0.0")
        assert cache.key_for("e", {}) != before

    def test_source_digest_change_is_a_miss(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path)
        cache.put("fig3", {"n": 4}, "x", 0.0)
        assert cache.get("fig3", {"n": 4}) is not None
        monkeypatch.setattr(cache_module, "source_digest", lambda: "0" * 64)
        assert cache.get("fig3", {"n": 4}) is None

    def test_source_digest_is_hashed_once(self):
        digest = cache_module.source_digest()
        assert len(digest) == 64 and int(digest, 16) >= 0
        assert cache_module.source_digest() is digest

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        path = cache.put("fig3", {}, "x", 0.0)
        path.write_text("{not json", encoding="utf-8")
        assert cache.get("fig3", {}) is None


class TestRegistry:
    def test_build_jobs_expands_in_order(self):
        jobs = build_jobs(list(REGISTRY.values()))
        assert [j.experiment for j in jobs] == list(REGISTRY)
        assert all(j.kwargs == {} and (j.index, j.count) == (0, 1) for j in jobs)

    def test_missing_module_fails_only_its_job(self):
        ghost = ExperimentSpec("ghost", "EX — ghost", "repro.runner._no_such_module")
        good = ExperimentSpec("good", "EX — good", "repro.experiments.fig12_layout")
        jobs = build_jobs([good, ghost, good])  # imports nothing, so cannot raise
        assert [j.experiment for j in jobs] == ["good", "ghost", "good"]
        results = run_jobs(jobs, retries=0)
        assert [r.ok for r in results] == [True, False, True]
        assert "ModuleNotFoundError" in results[1].error


class TestRunJobsInline:
    def test_success_and_metrics(self):
        results = run_jobs([_job("ok", {"text": "hello"})])
        assert len(results) == 1
        assert results[0].ok and results[0].output == "hello"
        assert results[0].attempts == 1 and not results[0].cache_hit

    def test_failure_is_isolated(self):
        jobs = [_job("ok", experiment="a"), _job("boom", experiment="b"),
                _job("ok", experiment="c")]
        results = run_jobs(jobs, retries=0)
        assert [r.ok for r in results] == [True, False, True]
        assert "RuntimeError: boom" in results[1].error
        assert results[1].error_summary == "RuntimeError: boom"

    def test_retry_recovers_flaky_job(self, tmp_path):
        results = run_jobs([_job("flaky", {"marker_dir": str(tmp_path)})], retries=1)
        assert results[0].ok and results[0].output == "recovered"
        assert results[0].attempts == 2

    def test_no_retries_means_one_attempt(self, tmp_path):
        results = run_jobs([_job("flaky", {"marker_dir": str(tmp_path)})], retries=0)
        assert not results[0].ok and results[0].attempts == 1

    def test_cache_hit_skips_execution(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = _job("boom")  # would fail if actually executed
        cache.put(job.experiment, job.kwargs, "canned", 0.25)
        results = run_jobs([job], cache=cache)
        assert results[0].ok and results[0].cache_hit
        assert results[0].output == "canned"
        assert results[0].compute_time_s == 0.25

    def test_results_are_cached_for_next_run(self, tmp_path):
        cache = ResultCache(tmp_path)
        first = run_jobs([_job("ok")], cache=cache)
        second = run_jobs([_job("ok")], cache=cache)
        assert not first[0].cache_hit and second[0].cache_hit
        assert first[0].output == second[0].output

    def test_failures_are_not_cached(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_jobs([_job("boom")], cache=cache, retries=0)
        assert cache.get("t", {}) is None

    def test_on_result_streams_in_order(self):
        seen = []
        jobs = [_job("ok", {"text": str(i)}, experiment=f"e{i}") for i in range(4)]
        run_jobs(jobs, on_result=lambda r: seen.append(r.experiment))
        assert seen == ["e0", "e1", "e2", "e3"]


class TestRunJobsParallel:
    def test_pool_runs_all_jobs_in_order(self):
        jobs = [_job("ok", {"text": str(i)}, experiment=f"e{i}") for i in range(5)]
        results = run_jobs(jobs, workers=2)
        assert [r.output for r in results] == ["0", "1", "2", "3", "4"]
        assert all(r.ok and not r.cache_hit for r in results)

    def test_pool_isolates_failures(self):
        jobs = [_job("ok", experiment="a"), _job("boom", experiment="b"),
                _job("ok", experiment="c")]
        results = run_jobs(jobs, workers=2, retries=0)
        assert [r.ok for r in results] == [True, False, True]
        assert "RuntimeError: boom" in results[1].error

    def test_pool_retry_recovers_flaky_job(self, tmp_path):
        jobs = [_job("flaky", {"marker_dir": str(tmp_path)}),
                _job("ok", experiment="other")]
        results = run_jobs(jobs, workers=2, retries=1)
        assert results[0].ok and results[0].output == "recovered"
        assert results[0].attempts == 2
        assert results[1].ok

    def test_pool_timeout_watchdog(self):
        jobs = [_job("sleepy", {"seconds": 1.5}, experiment="slow"),
                _job("ok", experiment="fast")]
        results = run_jobs(jobs, workers=2, timeout=0.2, retries=0)
        assert results[0].status == "timeout" and not results[0].ok
        assert "timed out after" in results[0].error
        assert results[1].ok

    def test_pool_uses_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        jobs = [_job("ok", {"text": str(i)}, experiment=f"e{i}") for i in range(3)]
        run_jobs(jobs, workers=2, cache=cache)
        warm = run_jobs(jobs, workers=2, cache=cache)
        assert all(r.cache_hit for r in warm)


class TestMetricsAndArtifacts:
    def _results(self, tmp_path):
        cache = ResultCache(tmp_path)
        jobs = [_job("ok", {"text": "x"}, experiment="a"), _job("boom", experiment="b")]
        return run_jobs(jobs, cache=cache, retries=0)

    def test_summarize(self, tmp_path):
        totals = summarize(self._results(tmp_path))
        assert totals["jobs"] == 2 and totals["experiments"] == 2
        assert totals["ok"] == 1 and totals["failed"] == 1
        assert totals["cache_hits"] == 0

    def test_format_summary_mentions_counts(self, tmp_path):
        line = format_summary(self._results(tmp_path))
        assert "2 job(s)" in line and "1 failure(s)" in line

    def test_artifact_schema(self, tmp_path):
        document = build_artifact(self._results(tmp_path), workers=2, cache_dir="c")
        assert document["schema"] == ARTIFACT_SCHEMA
        assert document["workers"] == 2 and document["cache_dir"] == "c"
        ok, failed = document["results"]
        assert ok["status"] == "ok" and len(ok["output_sha256"]) == 64
        assert ok["output_chars"] == 1 and ok["error"] is None
        assert failed["status"] == "failed" and failed["output_sha256"] is None
        assert "RuntimeError" in failed["error"]

    def test_write_artifact(self, tmp_path):
        path = write_json(tmp_path / "out" / "run.json", build_artifact(self._results(tmp_path)))
        loaded = json.loads(path.read_text(encoding="utf-8"))
        assert loaded["schema"] == ARTIFACT_SCHEMA
        assert len(loaded["results"]) == 2

    def test_artifact_is_json_stable_across_identical_runs(self, tmp_path):
        cache = ResultCache(tmp_path)
        jobs = [_job("ok", {"text": "x"}, experiment="a")]
        one = build_artifact(run_jobs(jobs, cache=cache))
        two = build_artifact(run_jobs(jobs, cache=cache))
        def strip(d):
            return [
                {k: v for k, v in r.items() if k != "wall_time_s"} | {"cache_hit": None, "attempts": None}
                for r in d["results"]
            ]

        assert strip(one) == strip(two)
        assert one["results"][0]["output_sha256"] == two["results"][0]["output_sha256"]
