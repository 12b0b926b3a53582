"""Smoke tests: every example script, and README.md's Quickstart
block, must run to completion and print its headline output.  (Each
example also asserts its own invariants internally.)"""

import importlib.util
import io
import re
from contextlib import redirect_stdout
from pathlib import Path


ROOT = Path(__file__).resolve().parent.parent
EXAMPLES_DIR = ROOT / "examples"


def run_example(name: str) -> str:
    path = EXAMPLES_DIR / name
    spec = importlib.util.spec_from_file_location(f"example_{name[:-3]}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    out = io.StringIO()
    with redirect_stdout(out):
        module.main()
    return out.getvalue()


def test_quickstart_example():
    out = run_example("quickstart.py")
    assert "remote write (issue)" in out
    assert "remote read" in out
    assert "Paper reference points" in out


def test_streaming_pipeline_example():
    out = run_example("streaming_pipeline.py")
    assert "consumers hold replicas" in out
    assert "cut the consumer read latency" in out


def test_parallel_reduction_example():
    out = run_example("parallel_reduction.py")
    assert "[host]" in out and "[nic]" in out
    assert out.count("global sum") == 2


def test_remote_paging_example():
    out = run_example("remote_paging.py")
    assert "paged in" in out
    assert "faster" in out


def test_hotspot_profiling_example():
    out = run_example("hotspot_profiling.py")
    assert "access profile" in out
    assert "alarm: page 0" in out


def test_trace_driven_study_example():
    out = run_example("trace_driven_study.py")
    assert "Data-alignment sensitivity" in out
    assert "Cluster report" in out


def quickstart_block() -> str:
    """The first fenced ``python`` block under README.md's
    ``## Quickstart`` heading."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Quickstart\n", 1)[1]
    match = re.search(r"^```python\n(.*?)^```$", section, re.S | re.M)
    assert match, "README.md's Quickstart has no python block"
    return match.group(1)


def test_readme_quickstart_runs():
    out = io.StringIO()
    with redirect_stdout(out):
        exec(compile(quickstart_block(), "README.md#quickstart", "exec"), {})
    # The block prints the per-node remote-write counts: node 0's one
    # store.
    assert out.getvalue().strip() == "{'node=0': 1, 'node=1': 0}"
