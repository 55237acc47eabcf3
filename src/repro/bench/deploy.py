"""Deployment experiments: pull/run breakdowns for all three systems.

"The process of deploying a container has two phases: pull (i.e.,
downloading the Docker images or Gear indexes) and run (i.e., running the
container)" (§V-E).  Each helper deploys one image on a prepared testbed,
drives its startup trace, and returns a :class:`DeploymentResult` with
the phase breakdown and traffic accounting the figures need.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence, Tuple

from repro.baselines.slacker import SlackerDriver
from repro.bench.environment import Testbed
from repro.common.clock import Process, SimScheduler
from repro.common.errors import ClientCrash
from repro.gear.journal import FETCH_BEGIN
from repro.gear.prefetch import TraceRecorder
from repro.gear.recovery import RecoveryReport
from repro.net.faults import CrashPlan
from repro.workloads.corpus import GeneratedImage
from repro.workloads.tasks import task_for_category


@dataclass(frozen=True)
class DeploymentResult:
    """One container deployment, broken down by phase."""

    system: str
    reference: str
    pull_s: float
    run_s: float
    network_bytes: int
    network_requests: int
    files_fetched: int
    cache_hits: int
    #: Resilience accounting (nonzero only under a fault plan).
    retries: int = 0
    errors: int = 0
    degraded: bool = False
    #: Virtual seconds from deploy start until the startup read set was
    #: fully satisfied (the service is *ready*; the figures' ready-vs-
    #: pull-complete distinction).  Always ``<= total_s``.
    ready_s: float = 0.0

    @property
    def total_s(self) -> float:
        return self.pull_s + self.run_s


def _endpoint_stats(testbed: Testbed, *names: str):
    """Snapshot (retries, errors) summed across the named endpoints."""
    retries = 0
    errors = 0
    for name in names:
        if not testbed.transport.has_endpoint(name):
            continue
        stats = testbed.transport.endpoint(name).stats
        retries += stats.retries
        errors += stats.errors
    return retries, errors


def _measure(
    testbed: Testbed,
    generated: GeneratedImage,
    system: str,
    endpoints: Sequence[str],
    pull: Callable[[], Any],
    start: Callable[[Any], Tuple[Any, Any]],
    counts: Callable[[Any, Any], Tuple[int, int, bool]],
    spawn: Optional[Callable[[Any, Callable[[], Any]], Process]] = None,
) -> DeploymentResult:
    """Deploy ``generated`` once and measure it: pull, then run (§V-E).

    The one spelling of the protocol every system is held to; a caller
    supplies only what differs.  ``pull()`` downloads the image or index
    and returns its report, ``start(report)`` the started ``(container,
    mount)``, and ``counts(report, mount)`` reads ``(files_fetched,
    cache_hits, degraded)`` once the task is done; retries and errors
    are summed over ``endpoints``.  The startup task runs inline, unless
    ``spawn(container, startup)`` runs it as a scheduler process beside
    other work and returns that process, finished.
    """
    clock = testbed.clock
    link_log = testbed.link.log
    bytes_before = link_log.total_bytes
    requests_before = link_log.total_requests
    retries_before, errors_before = _endpoint_stats(testbed, *endpoints)

    def startup():
        with clock.span("task", category=generated.category):
            return task.run(clock, mount, generated.trace)

    with clock.span("deploy", system=system, ref=generated.reference):
        pull_timer = clock.timer()
        report = pull()
        pull_s = pull_timer.elapsed()

        run_timer = clock.timer()
        container, mount = start(report)
        task = task_for_category(generated.category)
        if spawn is None:
            begun = clock.now
            task_result = startup()
            ended = clock.now
        else:
            process = spawn(container, startup)
            begun, ended = process.started_at, process.finished_at
            task_result = process.result
    files_fetched, cache_hits, degraded = counts(report, mount)
    retries_after, errors_after = _endpoint_stats(testbed, *endpoints)

    return DeploymentResult(
        system=system,
        reference=generated.reference,
        pull_s=pull_s,
        # The container is "up" when its own startup task completes; a
        # spawned neighbour running past that point is background work.
        run_s=ended - run_timer.start,
        network_bytes=link_log.total_bytes - bytes_before,
        network_requests=link_log.total_requests - requests_before,
        files_fetched=files_fetched,
        cache_hits=cache_hits,
        retries=retries_after - retries_before,
        errors=errors_after - errors_before,
        degraded=degraded,
        # Ready is the instant the startup read set is satisfied, not
        # when pulling completes: the metric prefetch is judged against.
        ready_s=begun + task_result.ready_s - pull_timer.start,
    )


def deploy_with_docker(testbed: Testbed, generated: GeneratedImage) -> DeploymentResult:
    """Vanilla Docker: download the whole image, then run the task."""
    daemon, reference = testbed.daemon, generated.reference

    def pull():
        with testbed.clock.span("pull_image", ref=reference):
            return daemon.pull(reference)

    def start(report):
        container = daemon.run(reference)
        return container, container.mount

    def counts(report, mount):
        return report.layers_downloaded, report.layers_reused, False

    return _measure(
        testbed, generated, "docker", ("docker-registry",), pull, start, counts
    )


def _deploy_gear(
    testbed: Testbed,
    generated: GeneratedImage,
    system: str,
    clear_cache: bool,
    spawn: Optional[Callable[..., Process]] = None,
) -> DeploymentResult:
    """Both Gear variants: pull the index, start, fault files in while
    the task runs (inline, or spawned by ``spawn``)."""
    driver = testbed.gear_driver
    reference = generated.gear_reference
    if clear_cache:
        driver.pool.clear()

    def start(report):
        container = driver.create_container(reference)
        driver.start_container(container)
        return container, container.mount

    def counts(report, mount):
        stats = mount.fault_stats
        degraded = report.degraded or stats.degraded_fetches > 0
        return stats.remote_fetches, stats.cache_hits, degraded

    result = _measure(
        testbed, generated, system, ("docker-registry", "gear-registry"),
        lambda: driver.pull_index(reference), start, counts, spawn,
    )
    driver.deploy_report(reference).ready_s = result.ready_s
    return result


def deploy_with_gear(
    testbed: Testbed,
    generated: GeneratedImage,
    *,
    clear_cache: bool = False,
) -> DeploymentResult:
    """Gear: pull the index, start, fault files in while running.

    ``clear_cache`` reproduces the paper's no-local-cache scenario ("the
    Gear's local cache is emptied before each deployment", §V-D).
    """
    return _deploy_gear(testbed, generated, "gear", clear_cache)


def deploy_with_gear_overlapped(
    testbed: Testbed,
    generated: GeneratedImage,
    recorder: TraceRecorder,
    *,
    clear_cache: bool = False,
) -> DeploymentResult:
    """Gear with trace-driven prefetch *overlapping* the startup task.

    The sequential prefetch ablation replays the profile before the task
    runs; here the profile replay and the startup trace execute as two
    concurrent scheduler processes sharing the link, so profiled files
    stream in while the container computes.  The pool's single-flight
    registry coalesces races on the same file, keeping total bytes equal
    to the demand-only deployment.

    It attaches its own scheduler for the run phase, so call it outside
    one.
    """
    def spawn(container, startup):
        profile = recorder.profile_for(generated.gear_reference)
        with SimScheduler(testbed.clock) as scheduler:
            if profile is not None:
                testbed.gear_driver.spawn_prefetch(container, profile)
            process = scheduler.spawn(
                startup, name=f"startup:{generated.reference}"
            )
            # Drain everything (prefetch tail included) so the link has
            # no half-finished flows when the scheduler detaches.
            scheduler.run()
        return process

    return _deploy_gear(
        testbed, generated, "gear+overlap", clear_cache, spawn=spawn
    )


@dataclass(frozen=True)
class ResumableDeployment:
    """A (possibly crash-interrupted) Gear deployment with recovery stats.

    When the armed plan never fires, ``crashed`` is False and ``result``
    is an ordinary deployment; otherwise ``result`` describes the
    *resumed* deployment that ran against the fsck-repaired store, and
    the crash/recovery fields account for everything the interruption
    cost.
    """

    #: The successful deployment (the resumed one after a crash).
    result: DeploymentResult
    crashed: bool
    crash_point: str = ""
    #: Which occurrence of the crash point fired (resolved op index).
    crash_op: int = 0
    #: Virtual time of death.
    crash_at_s: float = 0.0
    #: Virtual seconds the crashed attempt burned before dying.
    crashed_run_s: float = 0.0
    #: Wire bytes the crashed attempt consumed (work at risk).
    crashed_network_bytes: int = 0
    recovery: Optional[RecoveryReport] = None
    #: Virtual seconds the fsck pass took.
    recovery_s: float = 0.0
    #: Pool files already committed when the client died.
    committed_before_crash: int = 0
    #: Files the resumed run re-fetched although recovery had already
    #: committed them — the golden invariant demands this be zero.
    refetched_committed: int = 0
    #: Logical-content digest of the deployed container fs (golden
    #: equivalence: crash+resume must match an uncrashed control run).
    fs_digest: str = ""


def viewer_fs_digest(viewer) -> str:
    """Logical-content digest of a bare viewer mount's filesystem
    (a container's is ``container.mount.fs_digest()``): chunked and
    whole-file mounts of one fully-read image digest identically, and a
    crash+fsck+resume run as an uncrashed one."""
    return viewer.fs_digest()


def deploy_with_gear_resumable(
    testbed: Testbed,
    generated: GeneratedImage,
    plan: Optional[CrashPlan],
) -> ResumableDeployment:
    """Deploy with Gear under a crash plan; recover and resume if it fires.

    The crash-consistency experiment in one call: arm the plan, deploy,
    and — when the injected crash kills the client mid-admission — run
    :meth:`~repro.gear.driver.GearDriver.recover` (the journal-driven
    fsck) and deploy again against the repaired store.  The resumed run
    re-fetches only identities recovery could not save; files the journal
    had committed before the crash are served from the pool.
    """
    driver = testbed.gear_driver
    if plan is not None:
        driver.arm_crash(plan)
    link_log = testbed.link.log
    bytes_before = link_log.total_bytes
    crash: Optional[ClientCrash] = None
    committed_before_crash = 0
    crashed_timer = testbed.clock.timer()
    try:
        result = deploy_with_gear(testbed, generated)
    except ClientCrash as exc:
        crash = exc
        committed_before_crash = driver.pool.file_count
    finally:
        driver.disarm_crash()

    if crash is None:
        container = driver.containers()[-1]
        return ResumableDeployment(
            result=result,
            crashed=False,
            fs_digest=container.mount.fs_digest(),
        )

    crashed_run_s = crashed_timer.elapsed()
    crashed_network_bytes = link_log.total_bytes - bytes_before
    recovery = driver.recover()
    # Everything the repaired pool holds must survive into the resumed
    # run without touching the wire again.
    held = set(driver.pool.identities())

    result = deploy_with_gear(testbed, generated)
    # The journal was compacted by fsck, so its records are exactly the
    # resumed run's admissions.
    refetched = sum(
        1
        for record in driver.journal.records
        if record.op == FETCH_BEGIN and record.identity in held
    )
    report = driver.deploy_report(generated.gear_reference)
    if report is not None:
        report.crashed = True
        report.crash_point = crash.point
        report.crash_at_s = crash.at_s
        report.resumed = True
        report.recovery_s = recovery.fsck_s
        report.recovered_files = recovery.rolled_forward + recovery.salvaged
    container = driver.containers()[-1]
    return ResumableDeployment(
        result=result,
        crashed=True,
        crash_point=crash.point,
        crash_op=crash.op_index,
        crash_at_s=crash.at_s,
        crashed_run_s=crashed_run_s,
        crashed_network_bytes=crashed_network_bytes,
        recovery=recovery,
        recovery_s=recovery.fsck_s,
        committed_before_crash=committed_before_crash,
        refetched_committed=refetched,
        fs_digest=container.mount.fs_digest(),
    )


def deploy_with_slacker(
    driver: SlackerDriver, testbed: Testbed, generated: GeneratedImage
) -> DeploymentResult:
    """Slacker: clone a device snapshot, fetch blocks while running."""
    if not driver.has_image(generated.reference):
        driver.provision_image(generated)
    return _measure(
        testbed, generated, "slacker", (),
        lambda: driver.deploy(generated.reference),
        lambda mount: (None, mount),  # a Slacker clone has no container
        lambda mount, _: (mount.slacker_stats.files_fetched, 0, False),
    )
