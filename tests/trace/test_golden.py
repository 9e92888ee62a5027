"""Golden-trace regression tests: one digest per (ES, DS) combination.

Each test runs the canonical 50-job workload (``golden_config``) with one
algorithm pair, fingerprints the full domain-event stream, and compares
against the committed digest in ``tests/trace/golden/digests.json``.  Any
behavioural drift — different site choice, different transfer order, a
replication firing at a different count — fails the affected combos with
a first-divergence report.  A second family (``health/*``) runs six-site
health configs (``health_golden_configs``) and locks the failure
detector's event order, ties on the beat lattice included.  A third
(``site/*``, ``site_golden_configs``) locks the site execution engine:
both ways of getting a processor, queue deadlines, speculation losers,
outages and remote reads.

Regenerate intentionally changed baselines with::

    PYTHONPATH=src python -m pytest tests/trace/test_golden.py --regen-golden
"""

import json
from pathlib import Path

import pytest

from repro.scheduling.registry import ALL_DS, ALL_ES
from repro.trace.golden import (
    describe_divergence,
    fingerprint,
    health_golden_configs,
    run_golden,
    site_golden_configs,
)

GOLDEN_PATH = Path(__file__).parent / "golden" / "digests.json"
COMBOS = [(es, ds) for es in ALL_ES for ds in ALL_DS]
HEALTH_CONFIGS = health_golden_configs()
SITE_CONFIGS = site_golden_configs()

# Session-local memo of golden runs, so the digest-uniqueness test reuses
# the streams already produced by the per-combo tests.
_RUNS = {}


def _golden_records(es, ds):
    key = (es, ds)
    if key not in _RUNS:
        _RUNS[key] = run_golden(es, ds)
    return _RUNS[key]


def _load_digests():
    if not GOLDEN_PATH.exists():
        return {}
    return json.loads(GOLDEN_PATH.read_text())


def _store_digest(key, fp):
    digests = _load_digests()
    digests[key] = fp
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(
        json.dumps(digests, indent=2, sort_keys=True) + "\n")


def _check_golden(key, records, request):
    assert records, "golden run produced an empty trace"
    fp = fingerprint(records)
    if request.config.getoption("--regen-golden"):
        _store_digest(key, fp)
        return
    stored = _load_digests().get(key)
    assert stored is not None, (
        f"no golden digest for {key}; generate with "
        f"pytest tests/trace/test_golden.py --regen-golden")
    assert (fp["digest"], fp["count"]) == (stored["digest"],
                                           stored["count"]), \
        describe_divergence(stored, records)


@pytest.mark.parametrize("es,ds", COMBOS,
                         ids=[f"{es}-{ds}" for es, ds in COMBOS])
def test_golden_trace(es, ds, request):
    _check_golden(f"{es}/{ds}", _golden_records(es, ds), request)


@pytest.mark.parametrize("name", sorted(HEALTH_CONFIGS))
def test_health_golden_trace(name, request):
    config, es, ds = HEALTH_CONFIGS[name]
    _check_golden(f"health/{name}", run_golden(es, ds, config), request)


@pytest.mark.parametrize("name", sorted(SITE_CONFIGS))
def test_site_golden_trace(name, request):
    config, es, ds = SITE_CONFIGS[name]
    _check_golden(f"site/{name}", run_golden(es, ds, config), request)


def test_all_combo_digests_are_distinct():
    """Each of the 12 combinations must leave a distinguishable trace.

    If two combos ever hash identically, the golden harness has lost the
    power to localize a regression to an algorithm pair (and the canonical
    workload is too small to exercise the schedulers).
    """
    digests = _load_digests()
    missing = [f"{es}/{ds}" for es, ds in COMBOS
               if f"{es}/{ds}" not in digests]
    assert not missing, (
        f"golden digests missing for {missing}; run --regen-golden")
    seen = {}
    for key in (f"{es}/{ds}" for es, ds in COMBOS):
        digest = digests[key]["digest"]
        assert digest not in seen, (
            f"{key} and {seen[digest]} produced identical traces")
        seen[digest] = key


def test_perturbation_fails_only_affected_combos(request, monkeypatch):
    """Changing one scheduler's behaviour must fail exactly its combos."""
    if request.config.getoption("--regen-golden"):
        pytest.skip("baselines are being regenerated")
    digests = _load_digests()
    if not digests:
        pytest.skip("no golden digests committed yet")

    from repro.scheduling.external import JobLeastLoaded

    def first_site(self, job, grid):
        return grid.info.site_names[0]

    monkeypatch.setattr(JobLeastLoaded, "select_site", first_site)

    perturbed = fingerprint(run_golden("JobLeastLoaded", "DataDoNothing"))
    stored = digests["JobLeastLoaded/DataDoNothing"]
    assert perturbed["digest"] != stored["digest"], (
        "perturbing JobLeastLoaded did not change its golden trace")

    unaffected = fingerprint(run_golden("JobLocal", "DataDoNothing"))
    stored_local = digests["JobLocal/DataDoNothing"]
    assert (unaffected["digest"], unaffected["count"]) == (
        stored_local["digest"], stored_local["count"]), \
        describe_divergence(stored_local, _golden_records(
            "JobLocal", "DataDoNothing"))


def test_divergence_report_is_readable():
    """A tampered baseline yields a pointable first-divergence window."""
    records = _golden_records("JobLocal", "DataDoNothing")
    fp = fingerprint(records)
    tampered = dict(fp)
    tampered["checkpoints"] = list(fp["checkpoints"])
    if tampered["checkpoints"]:
        tampered["checkpoints"][1] = "0" * 64
    tampered["digest"] = "0" * 64
    report = describe_divergence(tampered, records)
    assert "diverges from golden" in report
    assert "--regen-golden" in report
    assert "#" in report  # record lines from the diverging window
