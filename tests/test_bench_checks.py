"""Every benchmark job, run once at seeds 7 and 211 through
``oredim.cli.main``, passes the benchmark's own output and cross-job
checks, so a change that breaks them fails here rather than only when the
benchmark runs.  The second seed draws other trial points and fields for
the ranks that are not certified."""
import contextlib
import importlib.util
import io
import json
import os
import sys
from pathlib import Path

import pytest

from oredim import cli

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load(name):
    # registered before it runs, as dataclasses look their module up
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def bench():
    # checker and workloads import the bench's algebra module by its name
    sys.path.insert(0, str(BENCH))
    try:
        yield load("checker"), load("workloads")
    finally:
        sys.path.remove(str(BENCH))


@pytest.mark.parametrize("seed", (7, 211))
@pytest.mark.parametrize("workload", ("fp-tables", "laurent-targets", "q-tables"))
def test_bench_jobs_pass_the_bench_checks(workload, seed, bench, tmp_path):
    checker, workloads = bench
    jobs = workloads.jobs(workload, seed)
    paths = []
    for k, job in enumerate(jobs):
        path = tmp_path / f"job{k:03d}.json"
        path.write_text(json.dumps(job.input))
        paths.append(str(path))
    src = str(Path(cli.__file__).resolve().parents[1])
    checker.fill_expectations(jobs, paths, str(tmp_path), dict(os.environ, PYTHONPATH=src))
    outputs = []
    for job, path in zip(jobs, paths):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli.main(job.argv(path)) == 0, job.command
        outputs.append(buf.getvalue())
    wrong = {k: why for k, (job, text) in enumerate(zip(jobs, outputs))
             if (why := checker.check_output(job, text))}
    assert wrong == {}
    assert checker.check_properties(jobs, outputs) == {}
