"""The benchmark's own tests: failure accounting, seeds, counts, tracing.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import collections
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run as bench  # noqa: E402
from tracing import SESSION, Span, TraceAccountingError, Tracer, check_nesting  # noqa: E402
from workloads import WORKLOADS, Op, OpSpec  # noqa: E402

#: per-layer counts that must repeat exactly for one seed
DETERMINISTIC = (
    "core.codegen_c.bytes",
    "runtime.engine.chunks_per_op",
    "native.recoveries_per_op",
    "runtime.profile.writes_per_op",
    "core.batch.exact_fix_share",
)


class _Fixed:
    """A workload over hand-made ops (no set-up)."""

    name = "fixed"
    seed = 0

    def __init__(self, ops):
        self._ops = ops

    def order(self, ops, rng):
        return list(ops)

    def kernels(self):
        return []

    def teardown(self):
        pass


def _spec(name: str) -> OpSpec:
    return OpSpec("test", name, (), "none", "none")


def test_corrupted_output_and_raising_op_are_counted(tmp_path):
    def boom():
        raise RuntimeError("injected")

    ops = [
        Op(_spec("good"), run=lambda: 1, check=lambda out: out == 1),
        Op(_spec("corrupt"), run=lambda: 2, check=lambda out: out == 1),
        Op(_spec("raises"), run=boom, check=lambda out: True),
    ]
    run = bench.Run(_Fixed(ops), tmp_path, trace=False)
    run.ops = ops
    run.timed(seconds=0, min_ops=6)  # two whole rounds
    verdicts = run.check()
    assert verdicts == {ops[0].spec.label: True, ops[1].spec.label: False, ops[2].spec.label: False}
    assert len(run.op_configs) == 6
    assert bench.failures(run.op_configs, run.raised, verdicts) == 4


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seeds_keep_the_op_mix(name):
    def histogram(seed):
        workload = WORKLOADS[name](seed)
        specs = workload.specs()
        return collections.Counter((s.kind, s.backend, s.schedule) for s in specs), specs

    first, first_specs = histogram(1)
    second, second_specs = histogram(2)
    assert first == second
    assert histogram(1)[1] == first_specs  # same seed, same inputs
    if name in ("plan_cold", "engine_recover"):
        assert first_specs != second_specs  # sizes and nests come from the seed


def test_round_order_is_a_permutation_of_the_multiset():
    import random

    workload = WORKLOADS["run_small"](3)
    ops = [Op(spec, run=lambda: None, check=lambda out: True) for spec in workload.specs()]
    ordered = workload.order(ops, random.Random(3))
    assert sorted(id(op) for op in ordered) == sorted(id(op) for op in ops)
    assert [op.spec.backend for op in ordered[:4]] == ["hybrid", "native", "hybrid", "native"]


def test_spans_plus_unattributed_equal_the_op_time():
    tracer = Tracer()

    def layer(name, fn=lambda: None):
        return tracer.call(name, fn, (), {})

    def op():
        def session():
            layer("kernels.make_data")
            layer("runtime.engine.execute", lambda: layer("runtime.plan.chunks"))
            sum(range(1000))  # the session's own, unattributed work
        layer(SESSION, session)

    for _ in range(3):
        tracer.run_op(op)
    attributed = sum(
        tracer.layer_ns[name] for name in ("kernels.make_data", "runtime.engine.execute")
    )
    assert tracer.ops == 3
    assert attributed + tracer.unattributed_ns == sum(tracer.op_ns)


def test_overlapping_spans_are_rejected():
    root = Span("op", 0, None)
    root.end = 100
    first, second = Span("a", 10, root), Span("b", 40, root)
    first.end, second.end = 50, 60
    root.children = [first, second]
    with pytest.raises(TraceAccountingError):
        check_nesting(root)


def _traced(name, seed, scratch):
    run = bench.Run(WORKLOADS[name](seed), scratch, trace=True)
    try:
        run.setup_once(0)
        rounds = len(run.ops) * bench.TRACE_EVERY  # one traced round
        run.timed(seconds=0, min_ops=rounds)
        verdicts = run.check()
    finally:
        run.workload.teardown()
    assert bench.failures(run.op_configs, run.raised, verdicts) == 0
    return bench.layer_metrics(run.tracer, run.latencies_ms, cc_calls=0)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_counts_repeat_for_one_seed(name, tmp_path):
    first = _traced(name, 5, tmp_path / "a")
    second = _traced(name, 5, tmp_path / "b")
    for key in DETERMINISTIC:
        assert first[key] == second[key], key
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert declared <= set(first)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    result = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "run_small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert result.returncode != 0
    assert '"correct"' not in result.stdout
