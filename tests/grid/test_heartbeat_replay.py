"""Heartbeat cursors against the eager heartbeat loop they replace.

The monitor replays each site's beats on demand instead of running one
kernel process per site.  The reference below keeps the old loop, as a
process per site, and every run here must leave the same trace and the
same :class:`HealthStats` under both.  Beats that land on the same
instant as a detector tick, a probe or a fault step are the hard part:
the kernel runs a bucket's events in the order their timeouts were
created, and the replay has to reproduce that order.
"""

import math
import random
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.grid.health as health_module
from repro.experiments.config import SimulationConfig
from repro.experiments.runner import build_grid, make_workload
from repro.faults.plan import (
    FaultPlan,
    NetworkPartition,
    OutageGroup,
    SiteOutage,
)
from repro.grid.health import HealthMonitor, HealthStats
from repro.sim.trace import Tracer
from repro.trace.golden import fingerprint, golden_config

SITES = [f"site{i:02d}" for i in range(6)]
BEAT_S = 20.0


class EagerHeartbeats(HealthMonitor):
    """The monitor before beat cursors: one heartbeat process per site.

    No cursor is ever created, so every replay is a no-op and the kernel
    delivers each beat as a timeout of its own.
    """

    def _start_heartbeats(self):
        for name in sorted(self.grid.sites):
            site_rng = random.Random(self.rng.randrange(2 ** 62))
            self.sim.process(self._heartbeat_loop(name, site_rng),
                             name=f"health:beat:{name}")

    def _heartbeat_loop(self, site, rng):
        interval = self.policy.heartbeat_interval_s
        jitter = self.policy.heartbeat_jitter
        while True:
            wait = interval
            if jitter > 0:
                wait *= 1.0 + jitter * (2.0 * rng.random() - 1.0)
            yield self.sim.timeout(wait)
            if not self._reachable(site):
                continue  # the beat is lost on the wire
            now = self.sim.now
            last = self._last_beat.get(site)
            if last is not None and now > last:
                self._intervals[site].append(now - last)
            self._last_beat[site] = now


def run(config, es="JobLeastLoaded", ds="DataRandom", eager=False):
    """(trace records, health stats) of one run, cursors or eager loop."""
    tracer = Tracer()
    monitor = EagerHeartbeats if eager else HealthMonitor
    with mock.patch.object(health_module, "HealthMonitor", monitor):
        _, grid = build_grid(config, es, ds, make_workload(config),
                             tracer=tracer)
        assert type(grid.health) is monitor
        grid.run()
    stats = {name: getattr(grid.health.stats, name)
             for name in HealthStats.__slots__}
    return tracer.records, stats


def assert_matches_eager(config, es="JobLeastLoaded", ds="DataRandom"):
    records, stats = run(config, es, ds)
    eager_records, eager_stats = run(config, es, ds, eager=True)
    health = [r for r in records if r.kind.startswith("health.")]
    eager_health = [r for r in eager_records
                    if r.kind.startswith("health.")]
    assert health == eager_health
    assert stats == eager_stats
    assert fingerprint(records) == fingerprint(eager_records)


def six_sites(plan, **health):
    """The canonical golden workload on six sites with 20 s beats."""
    knobs = dict(health_heartbeat_s=BEAT_S)
    knobs.update(health)
    return golden_config().with_(fault_plan=plan, **knobs)


def suspicions(records, site):
    return [r.time for r in records
            if r.kind == "health.suspect" and r.detail["site"] == site]


# -- pinned ties ---------------------------------------------------------------


def test_outage_on_the_beat_lattice_silences_the_beat_at_its_start():
    """The outage step at 100 s was scheduled at install, before the beat
    due at 100 s (scheduled at 80 s), so the kernel takes the site down
    first and that beat is lost.  Replaying every beat due at or before
    the step would see it and suspect the site 20 s late."""
    config = six_sites(FaultPlan(site_outages=(
        SiteOutage("site01", 100.0, 200.0),)), health_phi_threshold=2.0)
    records, _ = run(config)
    assert suspicions(records, "site01")[0] == 120.0
    assert_matches_eager(config)


def test_recovery_sweep_partition_cell():
    """The CI recovery-sweep cell JobLeastLoaded + DataDoNothing, phi 2,
    no MTBF, partition on: the partition starts at 1800 s, on the 30 s
    beat lattice, so the beat due then is lost and detection reads 30 s
    (60 s if that beat were replayed before the cut)."""
    config = SimulationConfig.paper().with_(
        n_users=4, n_sites=4, n_datasets=8, n_jobs=16, watchdog=True,
        health_heartbeat_s=30.0, health_phi_threshold=2.0,
        fault_plan=FaultPlan(partitions=(
            NetworkPartition(("site00",), 1800.0, 3600.0),)))
    records, stats = run(config, "JobLeastLoaded", "DataDoNothing")
    assert suspicions(records, "site00")[0] == 1830.0
    assert stats["detection_latency_total_s"] / stats["detections"] == 30.0
    assert_matches_eager(config, "JobLeastLoaded", "DataDoNothing")


def test_one_beat_outage_ends_before_the_beat_scheduled_beside_it():
    """The outage 140-160 s schedules its end at 140 s, the instant the
    beat due at 160 s is scheduled too.  The fault step's timeout was
    created first (faults install before health), so the site is back up
    when that beat arrives and the detector's window holds a 40 s gap,
    not a 60 s one.  The smaller mean trips phi 2.5 one tick earlier in
    the second outage."""
    config = six_sites(FaultPlan(site_outages=(
        SiteOutage("site05", 140.0, 160.0),
        SiteOutage("site05", 300.0, 500.0))), health_phi_threshold=2.5)
    records, _ = run(config)
    assert suspicions(records, "site05")[0] == 340.0
    assert_matches_eager(config)


def test_beat_scheduled_before_an_outage_group_ends_runs_first():
    """The group outage 110-120 s schedules its end at 110 s, after the
    beat due at 120 s was scheduled (at 100 s), so that beat runs first
    and is lost: the window holds a 40 s gap, and phi 2 trips one tick
    later in the second outage than with every beat at 20 s."""
    config = six_sites(FaultPlan(
        outage_groups=(OutageGroup(("site03", "site04"), 110.0, 120.0),),
        site_outages=(SiteOutage("site03", 300.0, 500.0),)),
        health_phi_threshold=2.0)
    records, _ = run(config)
    assert suspicions(records, "site03")[0] == 340.0
    assert_matches_eager(config)


def test_jittered_beat_scheduled_before_the_recovery_step_runs_first():
    """A jittered beat that lands exactly on an outage's end: the beat's
    timeout was created at the previous beat, before the outage began
    and scheduled its end, so the kernel delivers the beat first and it
    is lost.  The outage silences beat k + 1 only, chosen so that the
    detector ticks before beat k + 2 arrives: at phi 1.5 that one lost
    beat is a suspicion."""
    config = six_sites(None, health_heartbeat_jitter=0.1,
                       health_phi_threshold=1.5)
    _, grid = build_grid(config, "JobLeastLoaded", "DataRandom",
                         make_workload(config))
    cursor = grid.health._beats["site01"]
    rng = random.Random()
    rng.setstate(cursor.rng.getstate())
    beats = [cursor.due]
    while len(beats) < 40:
        beats.append(beats[-1] + grid.health._beat_wait(rng))
    for k in range(len(beats) - 2):
        # The first tick after beat k + 1 must come before beat k + 2 and
        # find a silence of phi 1.5 over the largest jittered mean.
        tick = BEAT_S * math.ceil(beats[k + 1] / BEAT_S)
        if tick - beats[k] >= 1.5 * 1.1 * BEAT_S and tick < beats[k + 2]:
            break
    start = (beats[k] + beats[k + 1]) / 2.0
    end = beats[k + 1]
    while start + (end - start) != beats[k + 1]:  # the kernel's instant
        end = math.nextafter(end, 2 * end - (start + (end - start)))
    config = config.with_(fault_plan=FaultPlan(site_outages=(
        SiteOutage("site01", start, end),)))
    records, _ = run(config)
    assert suspicions(records, "site01")[0] == tick
    assert_matches_eager(config)


def test_lattice_windows_with_probes_on_the_lattice():
    """Outage, partition and outage group on the beat lattice, with
    probes every 20 s and observed-only detection."""
    config = six_sites(FaultPlan(
        site_outages=(SiteOutage("site01", 100.0, 200.0),),
        partitions=(NetworkPartition(("site02",), 240.0, 400.0),),
        outage_groups=(OutageGroup(("site03", "site04"), 300.0, 460.0),),
    ), health_probe_interval_s=BEAT_S, health_observed_only=True)
    assert_matches_eager(config, "JobDataPresent", "DataLeastLoaded")


# -- the property --------------------------------------------------------------

#: Fault times on the 20 s beat lattice or off it.
instants = st.one_of(st.integers(1, 60).map(lambda k: BEAT_S * k),
                     st.integers(2, 2400).map(lambda k: k / 2.0))
durations = st.one_of(st.integers(1, 10).map(lambda k: BEAT_S * k),
                      st.integers(1, 400).map(lambda k: k / 2.0))
site_sets = st.lists(st.sampled_from(SITES), min_size=1, max_size=3,
                     unique=True)


@st.composite
def fault_plans(draw):
    outages, busy = [], set()
    for site, start, length in draw(st.lists(
            st.tuples(st.sampled_from(SITES), instants, durations),
            max_size=3)):
        if site not in busy:  # one scripted window per site
            busy.add(site)
            outages.append(SiteOutage(site, start, start + length))
    groups = [OutageGroup(tuple(sites), start, start + length)
              for sites, start, length in draw(st.lists(
                  st.tuples(site_sets, instants, durations), max_size=1))
              if busy.isdisjoint(sites)]
    partitions = [NetworkPartition(tuple(sites), start, start + length)
                  for sites, start, length in draw(st.lists(
                      st.tuples(site_sets, instants, durations),
                      max_size=2))]
    flap = draw(st.none() | st.sampled_from(SITES))
    return FaultPlan(
        site_outages=tuple(outages),
        outage_groups=tuple(groups),
        partitions=tuple(partitions),
        site_mtbf_s=draw(st.sampled_from([0.0, 1500.0])),
        site_mttr_s=300.0,
        flap_sites=() if flap is None else (flap,),
        flap_mtbf_s=0.0 if flap is None else 400.0,
        flap_mttr_s=60.0,
        seed=draw(st.integers(0, 3)),
    )


@given(plan=fault_plans(),
       jitter=st.sampled_from([0.0, 0.1]),
       probe=st.sampled_from([BEAT_S, 30.0]),
       phi=st.sampled_from([2.0, 3.0]),
       observed=st.booleans())
@settings(max_examples=40, deadline=None)
def test_cursors_replay_the_eager_loop(plan, jitter, probe, phi, observed):
    """Scripted outages, outage groups, partitions, flaps and MTBF churn,
    on and off the beat lattice: the trace and the health stats equal
    the eager loop's, bit for bit."""
    if plan.is_null:
        plan = None
    config = six_sites(plan, health_heartbeat_jitter=jitter,
                       health_probe_interval_s=probe,
                       health_phi_threshold=phi,
                       health_observed_only=observed,
                       n_jobs=30)
    assert_matches_eager(config)
