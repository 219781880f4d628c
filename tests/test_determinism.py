"""Determinism regression suite: the invariant the results cache rests on.

Re-running the same :class:`~repro.experiments.runner.RunSpec` must
reproduce the *entire* observable outcome bit-for-bit — makespan,
per-thread completion times, and the full stat dump (counters and
histograms).  If any of these tests fails, serving cached results is no
longer sound and :data:`repro.results_cache.CODE_VERSION` semantics are
moot: fix the nondeterminism, don't bump the version.
"""

import json

import pytest

from repro.experiments.runner import RunSpec, clear_run_memo, execute_spec

#: one cheap tiny-size spec per mechanism, plus the CPU baseline and the
#: special corners the cache also covers (DL-opt flow, fault injection).
SPECS = {
    "cpu": RunSpec(config="4D-2C", workload="pagerank", size="tiny", kind="cpu", mechanism="cpu"),
    "mcn": RunSpec(config="4D-2C", workload="pagerank", size="tiny", mechanism="mcn"),
    "aim": RunSpec(config="4D-2C", workload="pagerank", size="tiny", mechanism="aim"),
    "abc": RunSpec(config="4D-2C", workload="spmv_bc", size="tiny", mechanism="abc"),
    "dimm_link": RunSpec(config="4D-2C", workload="pagerank", size="tiny", mechanism="dimm_link"),
    "dl_opt": RunSpec(config="4D-2C", workload="pagerank", size="tiny", kind="optimized"),
    "faulted": RunSpec(
        config="8D-4C",
        workload="uniform_random",
        size="tiny",
        seed=11,
        mechanism="dimm_link",
        fault_fraction=0.67,
    ),
}


@pytest.mark.parametrize("label", sorted(SPECS))
def test_rerunning_a_spec_is_bit_deterministic(label, simulations):
    spec = SPECS[label]
    first = execute_spec(spec)
    clear_run_memo()  # the second run must simulate, not replay the first
    second = execute_spec(spec)
    assert len(simulations) == 2

    assert first.time_ps == second.time_ps
    assert first.thread_end_ps == second.thread_end_ps
    assert first.bus_occupancy == second.bus_occupancy
    assert first.profile_ps == second.profile_ps
    # the full stat dump: every counter and histogram, exact values
    assert first.stats.to_json_dict() == second.stats.to_json_dict()


@pytest.mark.parametrize("label", ("cpu", "dimm_link"))
def test_serialized_reruns_are_byte_identical(label, simulations):
    spec = SPECS[label]
    first = json.dumps(execute_spec(spec).to_json_dict(), sort_keys=True)
    clear_run_memo()
    second = json.dumps(execute_spec(spec).to_json_dict(), sort_keys=True)
    assert len(simulations) == 2
    assert first == second


def test_different_seeds_are_observably_different():
    # the converse sanity check: the seed really feeds the workload, so
    # distinct specs don't silently alias to one simulation
    base = RunSpec(config="4D-2C", workload="uniform_random", size="tiny", seed=1)
    other = RunSpec(config="4D-2C", workload="uniform_random", size="tiny", seed=2)
    assert execute_spec(base).stats.to_json_dict() != execute_spec(other).stats.to_json_dict()
