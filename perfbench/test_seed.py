"""The benchmark's inputs are a pure function of its seed.

Run with ``python3 -m pytest perfbench/test_seed.py``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import repro  # noqa: E402
from repro.binpacking import pack_sliding_window  # noqa: E402
from repro.io import instance_from_dict, instance_to_dict  # noqa: E402

import binpack  # noqa: E402
import daemon_rpc  # noqa: E402
import srj_solve  # noqa: E402
import sweep_srt  # noqa: E402
from harness import completion_digest  # noqa: E402


def inputs(seed: int) -> dict:
    """Every input the four workloads generate for *seed*, as JSON text
    per workload."""
    doc = {
        "srj_solve": [instance_to_dict(inst)
                      for inst in srj_solve.make_inputs(seed)],
        "binpack": [[k, [str(item.size) for item in items]]
                    for items, k in binpack.make_inputs(seed)],
        "sweep_srt": [sweep_srt.grid(seed, index) for index in range(3)],
        "daemon_rpc": daemon_rpc.make_requests(seed),
    }
    return {name: json.dumps(value, sort_keys=True)
            for name, value in doc.items()}


def answer_digests(seed: int) -> list:
    """Answers to one input of each workload."""
    instance = srj_solve.make_inputs(seed)[0]
    result = repro.solve_srj(instance, backend="int")
    items, k = binpack.make_inputs(seed)[0]
    request = daemon_rpc.make_requests(seed)[5]
    daemon_answer = repro.solve_srj(
        instance_from_dict(request["params"]["instance"]), backend="int")
    return [
        [result.makespan, completion_digest(result.completion_times)],
        pack_sliding_window(items, k, backend="int").num_bins,
        sweep_srt.solve_point(sweep_srt.point_params(seed, 0)),
        completion_digest(daemon_answer.completion_times),
    ]


def test_same_seed_same_inputs_and_answers():
    assert inputs(7) == inputs(7)
    assert answer_digests(7) == answer_digests(7)


def test_other_seed_other_inputs():
    first, second = inputs(7), inputs(8)
    for name in first:
        assert first[name] != second[name], name


def test_daemon_gets_only_inline_instances():
    for request in daemon_rpc.make_requests(7):
        params = request["params"]
        assert set(params) == {"instance", "backend"}
        assert set(params["instance"]) == {"m", "jobs"}
        assert request["method"] in ("solve", "stats")


def test_sweep_ops_overlap_by_half():
    previous, current = sweep_srt.grid(7, 4), sweep_srt.grid(7, 5)
    assert previous[sweep_srt.STRIDE:] == current[:sweep_srt.STRIDE]
    assert not set(map(json.dumps, previous[:sweep_srt.STRIDE])) & set(
        map(json.dumps, current[sweep_srt.STRIDE:]))
