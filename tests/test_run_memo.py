"""The per-process run memo behind ``execute_spec``.

The memo holds the process's last NMP run, and the next spec whose
simulation is identical shares it: a DL-opt spec whose Algorithm 1
placement is natural replays DL-base.  A hit must be indistinguishable
from simulating, a spec whose simulation differs must never be served
another's result, and the spec that simulated the held run simulates
again when it is rerun.
"""

import dataclasses
import json

import pytest

from repro.config import SystemConfig
from repro.experiments.common import optimized_placement, threads_for
from repro.experiments.runner import (
    RUN_MEMO_SPEC_FIELDS,
    RunSpec,
    build_spec_workload,
    clear_run_memo,
    execute_spec,
    run_memo_key,
)
from repro.nmp.system import NMPSystem

BASE = RunSpec(config="4D-2C", workload="pagerank", size="tiny")

#: RunSpec fields the key does not read as given, and why that is sound.
RESOLVED_BEFORE_KEYING = {
    "kind": "becomes the placement; the profiling charge is added after the lookup",
    "mechanism": "keyed as the mechanism the built system resolved",
    "polling": "keyed as the polling strategy the built system resolved",
    "placement": "keyed as the resolved thread placement",
    "placement_seed": "keyed as the resolved thread placement",
    "fault_fraction": "an installed fault schedule bypasses the memo",
    "data_placement": "a page table bypasses the memo",
}


def canonical(result):
    return json.dumps(result.to_json_dict(), sort_keys=True)


def fresh(spec):
    clear_run_memo()
    return execute_spec(spec)


def test_every_spec_field_feeds_the_key_or_is_resolved_first():
    fields = {f.name for f in dataclasses.fields(RunSpec)}
    # a new RunSpec field fails here until someone classifies it
    assert set(RUN_MEMO_SPEC_FIELDS).isdisjoint(RESOLVED_BEFORE_KEYING)
    assert set(RUN_MEMO_SPEC_FIELDS) | set(RESOLVED_BEFORE_KEYING) == fields

    config = SystemConfig.named(BASE.config)
    system = NMPSystem(config)
    natural = system.natural_placement(threads_for(config))
    key = run_memo_key(BASE, system, natural)
    variants = {
        "config": "8D-4C",
        "topology": "ring",
        "link_gbps": 64.0,
        "workload": "bfs",
        "size": "small",
        "seed": 43,
        "params": "n=60",
        "sync_mode": "central",
    }
    assert set(variants) == set(RUN_MEMO_SPEC_FIELDS)
    for field, value in variants.items():
        changed = dataclasses.replace(BASE, **{field: value})
        assert run_memo_key(changed, system, natural) != key, field
    assert run_memo_key(BASE, system, natural[::-1]) != key
    # the first two differ only in polling, the last two only in mechanism
    resolved = [("dimm_link", None), ("dimm_link", "baseline"), ("mcn", "baseline")]
    systems = [NMPSystem(config, idc=m, polling=p) for m, p in resolved]
    keys = {run_memo_key(BASE, other, natural) for other in systems}
    assert len(keys) == len(resolved)


def test_dl_opt_on_the_natural_placement_replays_dl_base(simulations):
    opt = dataclasses.replace(BASE, kind="optimized")
    base = execute_spec(BASE)
    served = execute_spec(opt)
    assert len(simulations) == 1
    assert served.profile_ps > 0 and base.profile_ps == 0
    assert canonical(served) == canonical(fresh(opt))
    assert execute_spec(BASE).profile_ps == 0  # the charge stays on the copy
    assert len(simulations) == 2


def test_dl_opt_that_moves_threads_still_simulates(simulations):
    base = dataclasses.replace(BASE, workload="nw")
    config = SystemConfig.named(base.config)
    threads = threads_for(config)
    moved = optimized_placement(config, build_spec_workload(base), threads)
    assert moved != NMPSystem(config).natural_placement(threads)
    execute_spec(base)
    execute_spec(dataclasses.replace(base, kind="optimized"))
    assert len(simulations) == 2


def test_rerunning_the_spec_that_simulated_the_held_run_simulates(simulations):
    execute_spec(BASE)
    execute_spec(BASE)
    assert len(simulations) == 2


def test_mutating_a_returned_result_leaves_the_next_hit_unchanged(simulations):
    alias = dataclasses.replace(BASE, polling="proxy")
    seen = []
    for spec in (BASE, alias, alias):  # a miss, then two hits
        result = execute_spec(spec)
        seen.append(canonical(result))
        result.profile_ps += 1
        result.thread_end_ps[0] += 1
        result.stats.add("idc.local_bytes", 1.0)
        result.stats.histogram("dl.packet_ns").record(3.0)
    assert seen == seen[:1] * 3
    assert len(simulations) == 1


@pytest.mark.parametrize(
    "spec",
    [
        dataclasses.replace(BASE, fault_fraction=0.5),
        RunSpec(
            config="4D-2C", workload="hotpage", size="tiny", data_placement="next_touch"
        ),
    ],
    ids=["faulted", "paged"],
)
def test_faulted_and_paged_runs_bypass_the_memo(spec, simulations):
    # the default run resolves to the same key: neither may serve the other
    default = dataclasses.replace(spec, fault_fraction=0.0, data_placement="static")
    for each in (spec, default, spec):
        execute_spec(each)
    assert len(simulations) == 3


@pytest.mark.parametrize(
    "default, alias",
    [
        (BASE, dataclasses.replace(BASE, polling="proxy")),
        (
            RunSpec(config="4D-2C", workload="spmv_bc", size="tiny", mechanism="abc"),
            RunSpec(
                config="4D-2C",
                workload="spmv_bc",
                size="tiny",
                mechanism="abc",
                fault_fraction=0.34,
            ),
        ),
    ],
    ids=["proxy_polling", "bridgeless_faults"],
)
def test_specs_resolving_to_the_default_run_share_it(default, alias, simulations):
    execute_spec(default)
    served = execute_spec(alias)
    assert len(simulations) == 1
    assert canonical(served) == canonical(fresh(alias))
