"""Differential harness for the workload suite (dlrm + apsp).

Three layers of byte-level pinning:

* **Pinned results** — every new spec kind's :class:`RunResult` and its
  trace streams hash to the digests recorded when these checks still
  compared the epoch fast-forward loop with the per-event loop; the
  single event loop that replaced both must reproduce them byte for
  byte.
* **Scheduler differential** — a mixed dlrm+apsp grid run with
  ``jobs=2`` serializes byte-identically to ``jobs=1``.
* **Cache-key goldens** — the new spec kinds' SHA-256 keys are pinned,
  and the ``params`` field is proven hash-compatible: an empty params
  leaves every pre-existing spec's payload (and key) untouched.

Plus the satellite regressions: ``parse_params`` parsing/canonicalization
and the stat suffix-matching that keeps ``dlrm.*`` / ``apsp.*`` from
aliasing other namespaces.
"""

import hashlib
import json

import pytest

from repro.errors import ConfigError
from repro.experiments.runner import (
    RunSpec,
    SweepRunner,
    clear_run_memo,
    execute_spec,
    parse_params,
)
from repro.experiments.trace_run import run_traced
from repro.sim.stats import StatRegistry

# -- shared fixtures -----------------------------------------------------------------

#: small-but-real specs covering every mechanism label of both suites.
DLRM_SPECS = [
    RunSpec(
        config="4D-2C",
        workload="dlrm",
        size="tiny",
        kind=kind,
        mechanism=mechanism,
        params="batch_size=4",
    )
    for kind, mechanism in (
        ("cpu", "cpu"),
        ("nmp", "mcn"),
        ("nmp", "dimm_link"),
        ("optimized", "dimm_link"),
    )
]
APSP_SPECS = [
    RunSpec(
        config="4D-2C",
        workload="apsp",
        size="tiny",
        kind=kind,
        mechanism=mechanism,
        params="block=12,n=24",
    )
    for kind, mechanism in (
        ("cpu", "cpu"),
        ("nmp", "abc"),
        ("nmp", "dimm_link"),
        ("optimized", "dimm_link"),
    )
]


def result_bytes(spec):
    return json.dumps(execute_spec(spec).to_json_dict(), sort_keys=True)


def serialize(results):
    return json.dumps([r.to_json_dict() for r in results], sort_keys=True)


def sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


# -- pinned against the two-loop kernel ----------------------------------------------

#: sha256 of ``result_bytes(spec)``, recorded while the epoch and legacy
#: loops were still proven equal on these specs.
RESULT_SHA = {
    "dlrm-cpu-cpu": "1903120555f6badded97758ff44c607923209d1ce9286a06eb9f33cea61d9782",
    "dlrm-nmp-mcn": "1827bc930e97fa9f0843aa7f84be918f2be44a7d1e33971544fbd6aef0bef7aa",
    "dlrm-nmp-dimm_link": "6c4df8834d83a57140a75f4f9f6e49c9e7fd601dc20d3b8a43e94aa08338d225",
    "dlrm-optimized-dimm_link": "b880dbd2cd1dc955c67bcb64edb5e47ddd711f931d8c700a8756ff13d169a20a",
    "apsp-cpu-cpu": "c8dceab626c9be1d010eb24dbb1debedb394bbaae7a15d96450eba0e96db67fe",
    "apsp-nmp-abc": "c2f62fb47826d010b4b6efb6c7c60f3c8c764b5f679d45e8ac7446301d2adb5e",
    "apsp-nmp-dimm_link": "768fe80fa65b4b990df51e8d5a67315ab15d6e942d4e5f7ecff0af7585907ace",
    "apsp-optimized-dimm_link": "a0bed23302db5357c841d2e131827f4c6b524ae4862bffc6e49d415075827b1c",
}

#: sha256 of the ``repr`` of each traced run's span and instant streams,
#: and of its result JSON.
TRACE_SHA = {
    "dlrm": {
        "spans": "7fa3f75987b8550d6e8f436002a60d649b93f454f951c99705164417c7bb31bf",
        "instants": "0a3bae862128e94d96297c97bd1690cc2cf098d68e627b075d9c2083fba20fca",
        "result": "7671706b8f726707a555a560169d80e32fed179a4463cdbe38758e1b83e9ba45",
    },
    "apsp": {
        "spans": "e2e0bc72034acf64dfb31eab64b5636e244b36fd10a595ddd473b41549caef2e",
        "instants": "2ac453fc64094f593b9091b5e23270826e2b8ef8df8add38d3242c98c74a54ca",
        "result": "84003fee9d77d3bd0ef7759b866b8d5b83d48b358948336af3592e357f732a2e",
    },
}


@pytest.mark.parametrize(
    "spec", DLRM_SPECS + APSP_SPECS, ids=lambda s: f"{s.workload}-{s.kind}-{s.mechanism}"
)
def test_epoch_and_legacy_loops_agree_byte_for_byte(spec):
    label = f"{spec.workload}-{spec.kind}-{spec.mechanism}"
    assert sha(result_bytes(spec)) == RESULT_SHA[label]


@pytest.mark.parametrize("experiment", ["dlrm", "apsp"])
def test_trace_streams_identical_under_both_loops(experiment):
    traced = run_traced(experiment, size="tiny")
    digests = {
        "spans": sha(repr(traced["recorder"].spans)),
        "instants": sha(repr(traced["recorder"].instants)),
        "result": sha(json.dumps(traced["result"].to_json_dict(), sort_keys=True)),
    }
    assert digests == TRACE_SHA[experiment]


# -- parallel scheduler --------------------------------------------------------------


def test_mixed_workload_grid_is_parallelism_invariant():
    grid = [DLRM_SPECS[0], APSP_SPECS[2], DLRM_SPECS[2], APSP_SPECS[0]]
    serial = SweepRunner(jobs=1).run(grid)
    clear_run_memo()  # forked workers must simulate, not replay the parent
    parallel = SweepRunner(jobs=2).run(grid)
    assert serialize(parallel) == serialize(serial)
    assert [r.workload for r in parallel] == [s.workload for s in grid]


# -- golden cache keys ---------------------------------------------------------------

#: pinned content hashes for the new spec kinds.  These only change when
#: the spec payload or CODE_VERSION changes — both deliberate, reviewed
#: events.  If one of these fails, every previously cached dlrm/apsp
#: result is silently invalid: bump CODE_VERSION instead of repinning
#: unless the payload change was intentional.
GOLDEN_KEYS = {
    "dlrm_cpu": (
        RunSpec(
            config="4D-2C", workload="dlrm", size="tiny",
            kind="cpu", mechanism="cpu", params="batch_size=4",
        ),
        "e0d49e25758ead20ce1cfe9d9d7e984732612bf188ce22f144be5c757d5c53b7",
    ),
    "dlrm_dimm_link": (
        RunSpec(
            config="4D-2C", workload="dlrm", size="tiny",
            kind="nmp", mechanism="dimm_link", params="batch_size=4",
        ),
        "2c50bd49bfe7305f10708717950396736886d072bffd7cb552954dcb81c6ffeb",
    ),
    "dlrm_opt": (
        RunSpec(
            config="4D-2C", workload="dlrm", size="tiny",
            kind="optimized", mechanism="dimm_link", params="batch_size=4",
        ),
        "796bf6b3c567a9aa22b4c9df01756e8e600bd84009dfbeb2735d966b08b8b97f",
    ),
    "apsp_mcn": (
        RunSpec(
            config="4D-2C", workload="apsp", size="tiny",
            kind="nmp", mechanism="mcn", params="block=12,n=48",
        ),
        "0f424ad7f1432ac9f3b86338420514dc536b9c6ad202b845a19714d8e5527d0e",
    ),
    "apsp_dimm_link": (
        RunSpec(
            config="4D-2C", workload="apsp", size="tiny",
            kind="nmp", mechanism="dimm_link", params="block=12,n=48",
        ),
        "6379cb6e1d47986eb4bc99312724d14fbb6e71b93451a8b432c3dba2ea8ae40b",
    ),
    "apsp_no_params": (
        RunSpec(
            config="4D-2C", workload="apsp", size="tiny",
            kind="nmp", mechanism="dimm_link",
        ),
        "00f9e03cc9185c54b3185e8a18be88da43517520c186700eb903426ffea65560",
    ),
}


@pytest.mark.parametrize("label", sorted(GOLDEN_KEYS))
def test_golden_cache_keys_for_new_spec_kinds(label):
    spec, expected = GOLDEN_KEYS[label]
    assert spec.cache_key() == expected


# -- params field: hash compatibility ------------------------------------------------


def test_empty_params_is_absent_from_the_hashed_payload():
    spec = RunSpec(config="4D-2C", workload="pagerank", size="tiny")
    assert "params" not in spec.to_json_dict()
    # non-empty params does appear (and in canonical form)
    sized = RunSpec(config="4D-2C", workload="apsp", params="n=24,block=12")
    assert sized.to_json_dict()["params"] == "block=12,n=24"


def test_legacy_spec_dicts_without_params_still_reconstruct():
    spec = RunSpec(config="4D-2C", workload="kmeans", size="tiny")
    legacy_payload = spec.to_json_dict()
    assert "params" not in legacy_payload  # what pre-params records hold
    rebuilt = RunSpec(**legacy_payload)
    assert rebuilt == spec
    assert rebuilt.cache_key() == spec.cache_key()


def test_params_canonicalization_makes_equal_overrides_hash_equal():
    a = RunSpec(config="4D-2C", workload="apsp", params="n=60, block=12")
    b = RunSpec(config="4D-2C", workload="apsp", params="block=12,n=60")
    assert a.params == b.params == "block=12,n=60"
    assert a.cache_key() == b.cache_key()


# -- parse_params --------------------------------------------------------------------


def test_parse_params_coerces_int_float_string():
    assert parse_params("n=48,density=0.25,order=col_first") == {
        "n": 48,
        "density": 0.25,
        "order": "col_first",
    }


def test_parse_params_rejects_malformed_and_duplicate_pairs():
    with pytest.raises(ConfigError):
        parse_params("n48")  # no separator
    with pytest.raises(ConfigError):
        parse_params("=48")  # empty key
    with pytest.raises(ConfigError):
        parse_params("n=48,n=60")  # duplicate


def test_spec_rejects_bad_params_at_construction():
    with pytest.raises(ConfigError):
        RunSpec(config="4D-2C", workload="apsp", params="n:48")


def test_unknown_override_key_fails_at_workload_build():
    for workload, params in (("apsp", "edges=9"), ("sync_interval", "rounds=3")):
        spec = RunSpec(config="4D-2C", workload=workload, size="tiny", params=params)
        with pytest.raises(ConfigError, match=f"unknown {workload} parameter"):
            execute_spec(spec)


def test_params_on_non_parameterized_workloads_fail_loudly():
    for workload in ("pagerank", "uniform_random"):
        spec = RunSpec(
            config="4D-2C", workload=workload, size="tiny", params="n=48"
        )
        with pytest.raises(ConfigError):
            execute_spec(spec)
        # so does an unknown size, which must never alias the small run
        with pytest.raises(ConfigError):
            execute_spec(RunSpec(config="4D-2C", workload=workload, size="huge"))


# -- stat suffix matching: the dlrm.*/apsp.* aliasing regression ---------------------


def test_sum_suffix_never_aliases_across_namespaces():
    stats = StatRegistry()
    stats.add("dimm0.apsp.bytes", 100.0)
    stats.add("dimm1.apsp.bytes", 10.0)
    stats.add("dimm0.sp.bytes", 1.0)
    # whole-component matching: "sp.bytes" must not absorb "apsp.bytes"
    assert stats.sum_suffix("sp.bytes") == 1.0
    assert stats.sum_suffix("apsp.bytes") == 110.0
    # exact key (no scope prefix) still matches itself
    stats.add("apsp.bytes", 1000.0)
    assert stats.sum_suffix("apsp.bytes") == 1110.0


def test_histograms_suffix_uses_whole_component_matching():
    stats = StatRegistry()
    stats.histogram("dimm0.core0.dlrm.batch_ps").record(5.0)
    stats.histogram("dimm1.core0.dlrm.batch_ps").record(7.0)
    stats.histogram("dimm0.core0.rm.batch_ps").record(11.0)
    matched = stats.histograms_suffix("dlrm.batch_ps")
    assert sorted(matched) == [
        "dimm0.core0.dlrm.batch_ps",
        "dimm1.core0.dlrm.batch_ps",
    ]
    assert sum(h.count for h in matched.values()) == 2
