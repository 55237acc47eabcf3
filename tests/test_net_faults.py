"""The fault-injection network layer and client resilience machinery.

Covers the four fault kinds (drop, corruption, latency spike, outage),
the retry/backoff policy the transport applies against them, integrity
quarantine-and-refetch, degraded-mode deployment, and — critically —
determinism: the same seed and the same fault plan must produce
byte-identical transfer logs and deploy timings on every run.
"""

import pytest

from repro.blob import Blob
from repro.common.clock import SimClock, SimScheduler
from repro.common.errors import (
    CorruptPayloadError,
    IntegrityError,
    TimeoutError,
    TransportError,
    UnavailableError,
)
from repro.bench.deploy import deploy_with_gear
from repro.bench.environment import make_testbed, publish_images
from repro.gear.gearfile import GearFile
from repro.net.faults import FaultPlan, FaultyLink, OutageWindow, lossy_plan
from repro.net.link import Link
from repro.net.resilience import RetryPolicy
from repro.net.transport import RpcEndpoint, RpcTransport


def make_faulty_transport(plan, *, retry=None, bandwidth_mbps=8.0):
    clock = SimClock()
    link = FaultyLink(clock, plan, bandwidth_mbps=bandwidth_mbps)
    transport = RpcTransport(link, retry_policy=retry)
    endpoint = RpcEndpoint("svc")
    endpoint.register("echo", lambda value: (value, 1000))
    transport.bind(endpoint)
    return clock, link, transport, endpoint


class TestFaultPlan:
    def test_rates_validated(self):
        with pytest.raises(ValueError):
            FaultPlan(drop_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(corrupt_detect_rate=-0.1)
        with pytest.raises(ValueError):
            FaultPlan(spike_factor=0.5)
        with pytest.raises(ValueError):
            OutageWindow(start_s=-1, duration_s=1)

    def test_targeting(self):
        plan = FaultPlan(targets=("gear-registry",))
        assert plan.applies_to("gear-registry")
        assert not plan.applies_to("docker-registry")
        assert not plan.applies_to(None)
        assert FaultPlan().applies_to("anything")

    def test_null_plan(self):
        assert FaultPlan().is_null
        assert not lossy_plan().is_null
        assert not FaultPlan(outages=(OutageWindow(0, 1),)).is_null


class TestFaultyLink:
    def test_unscoped_transfers_never_fault(self):
        plan = FaultPlan(drop_rate=1.0)
        clock = SimClock()
        link = FaultyLink(clock, plan)
        # Raw (non-RPC) transfers bypass fault injection entirely.
        assert link.transfer(1000) > 0
        assert link.log.total_requests == 1

    def test_drop_charges_timeout_and_raises(self):
        plan = FaultPlan(drop_rate=1.0, timeout_s=2.5)
        clock, link, transport, _ = make_faulty_transport(plan)
        with pytest.raises(TimeoutError):
            transport.call("svc", "echo", 1)
        # The failed attempt cost the full client timeout...
        assert clock.now == pytest.approx(2.5)
        # ...and never completed, so it is not in the transfer log.
        assert link.log.total_requests == 0
        assert link.fault_stats.drops == 1

    def test_outage_applies_only_inside_window(self):
        plan = FaultPlan(
            outages=(OutageWindow(start_s=0.0, duration_s=5.0),),
            outage_stall_s=0.25,
        )
        clock, link, transport, _ = make_faulty_transport(plan)
        with pytest.raises(UnavailableError):
            transport.call("svc", "echo", 1)
        assert clock.now == pytest.approx(0.25)
        # Walk the clock past the window: the endpoint recovers.
        clock.advance(10.0)
        assert transport.call("svc", "echo", 7) == 7
        assert link.fault_stats.outage_rejections == 1

    def test_outage_windows_relative_to_arming(self):
        plan = FaultPlan(outages=(OutageWindow(start_s=0.0, duration_s=5.0),))
        clock, link, transport, _ = make_faulty_transport(plan)
        clock.advance(100.0)
        link.arm()
        with pytest.raises(UnavailableError):
            transport.call("svc", "echo", 1)

    def test_spike_slows_but_succeeds(self):
        clean = FaultPlan()
        spiky = FaultPlan(spike_rate=1.0, spike_factor=4.0)
        _, _, clean_transport, _ = make_faulty_transport(clean)
        clock, link, transport, _ = make_faulty_transport(spiky)
        assert transport.call("svc", "echo", 1) == 1
        assert clean_transport.call("svc", "echo", 1) == 1
        assert clock.now > clean_transport.link.clock.now
        assert link.fault_stats.spikes >= 1
        assert link.log.total_requests == 2  # both transfers completed

    def test_detected_corruption_raises(self):
        plan = FaultPlan(corrupt_rate=1.0, corrupt_detect_rate=1.0)
        _, link, transport, _ = make_faulty_transport(plan)
        with pytest.raises(CorruptPayloadError):
            transport.call("svc", "echo", 1)
        assert link.fault_stats.corruptions == 1
        assert link.fault_stats.corruptions_detected == 1

    def test_undetected_corruption_tampers_gear_files(self):
        plan = FaultPlan(corrupt_rate=1.0, corrupt_detect_rate=0.0)
        clock = SimClock()
        link = FaultyLink(clock, plan)
        transport = RpcTransport(link)
        blob = Blob.from_bytes(b"the real content")
        endpoint = RpcEndpoint("svc")
        endpoint.register(
            "download", lambda: (GearFile.from_blob(blob), blob.size)
        )
        transport.bind(endpoint)
        fetched = transport.call("svc", "download")
        assert fetched.identity == blob.fingerprint
        assert fetched.blob.fingerprint != blob.fingerprint  # tampered

    def test_undetected_corruption_of_untamperable_payload_is_detected(self):
        # Booleans and manifests cannot carry silent damage to the app
        # layer; the framing checksum catches them instead.
        plan = FaultPlan(corrupt_rate=1.0, corrupt_detect_rate=0.0)
        _, _, transport, _ = make_faulty_transport(plan)
        with pytest.raises(CorruptPayloadError):
            transport.call("svc", "echo", 1)

    def test_fault_decisions_deterministic_across_runs(self):
        def run():
            plan = FaultPlan(seed="det", drop_rate=0.3, spike_rate=0.2)
            clock, link, transport, _ = make_faulty_transport(plan)
            outcomes = []
            for i in range(40):
                try:
                    transport.call("svc", "echo", i)
                    outcomes.append("ok")
                except TransportError as error:
                    outcomes.append(type(error).__name__)
            return outcomes, clock.now, link.fault_stats.drops

        assert run() == run()

    @pytest.mark.parametrize("generator_calls", ["good", "bad"])
    def test_scope_travels_with_the_call_not_the_thread(self, generator_calls):
        """Two interleaved callers — one generator process, one call
        process — on one link whose plan targets one endpoint: faults
        land on that endpoint's calls only.  (Scopes used to be keyed by
        thread; both callers' legs are stepped on the loop thread.)"""
        plan = FaultPlan(
            seed="scope", drop_rate=1.0, timeout_s=0.05, targets=("bad",)
        )
        clock, link, transport, _ = make_faulty_transport(plan)
        for name in ("good", "bad"):
            endpoint = RpcEndpoint(name)
            endpoint.register("echo", lambda value: (value, 20_000))
            transport.bind(endpoint)
        outcomes = {"good": [], "bad": []}

        def caller_gen(name):
            for i in range(6):
                try:
                    value = yield from transport.call_gen(name, "echo", i)
                except TimeoutError:
                    value = "dropped"
                outcomes[name].append((value, clock.now))

        def caller_call(name):
            for i in range(6):
                try:
                    value = transport.call(name, "echo", i)
                except TimeoutError:
                    value = "dropped"
                outcomes[name].append((value, clock.now))

        other = "bad" if generator_calls == "good" else "good"
        with SimScheduler(clock) as scheduler:
            scheduler.spawn(caller_gen, generator_calls, name="gen")
            scheduler.spawn(caller_call, other, name="call")
            scheduler.run()
        assert [value for value, _ in outcomes["good"]] == list(range(6))
        assert [value for value, _ in outcomes["bad"]] == ["dropped"] * 6
        assert link.fault_stats.drops == 6
        # The two callers really did overlap in time.
        assert outcomes["bad"][0][1] < outcomes["good"][-1][1]
        assert outcomes["good"][0][1] < outcomes["bad"][-1][1]
        # One draw per in-scope transfer, in transfer order: the stream
        # is where six draws leave a fresh one.
        fresh = FaultyLink(SimClock(), plan)
        for _ in range(6):
            fresh._rng.random()
        assert link._rng.getstate() == fresh._rng.getstate()


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_backoff_s=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_backoff_s=2.0, max_backoff_s=1.0)

    def test_backoff_bounded_and_deterministic(self):
        a = RetryPolicy(seed="x")
        b = RetryPolicy(seed="x")
        prev = None
        for _ in range(50):
            sleep_a = a.next_backoff(prev)
            sleep_b = b.next_backoff(prev)
            assert sleep_a == sleep_b
            assert a.base_backoff_s <= sleep_a <= a.max_backoff_s
            prev = sleep_a

    def test_only_transport_faults_are_retryable(self):
        policy = RetryPolicy()
        assert policy.is_retryable(TimeoutError("x"))
        assert policy.is_retryable(UnavailableError("x"))
        assert policy.is_retryable(CorruptPayloadError("x"))
        assert not policy.is_retryable(TransportError("x"))
        assert not policy.is_retryable(KeyError("x"))

    def test_budget_exhaustion_stops_retries(self):
        policy = RetryPolicy(budget_s=0.0)
        assert not policy.should_retry(
            TimeoutError("x"), attempt=1, elapsed_s=0.0
        )

    def test_deadline_stops_retries(self):
        policy = RetryPolicy(deadline_s=1.0)
        assert policy.should_retry(TimeoutError("x"), attempt=1, elapsed_s=0.5)
        assert not policy.should_retry(
            TimeoutError("x"), attempt=1, elapsed_s=1.5
        )


class TestTransportRetries:
    def test_retry_rides_out_an_outage(self):
        # Outage shorter than the retry budget: attempts fail, back off,
        # and the call eventually lands — the caller never notices.
        plan = FaultPlan(
            outages=(OutageWindow(start_s=0.0, duration_s=1.0),),
            outage_stall_s=0.4,
        )
        policy = RetryPolicy(
            max_attempts=8, base_backoff_s=0.2, max_backoff_s=1.0,
            deadline_s=None, budget_s=None,
        )
        clock, link, transport, endpoint = make_faulty_transport(
            plan, retry=policy
        )
        assert transport.call("svc", "echo", 5) == 5
        assert endpoint.stats.retries >= 1
        assert endpoint.stats.errors >= 1
        assert endpoint.stats.giveups == 0
        assert endpoint.stats.calls == 1
        assert clock.now > 1.0  # rode past the window

    def test_giveup_past_budget(self):
        plan = FaultPlan(drop_rate=1.0, timeout_s=0.1)
        policy = RetryPolicy(max_attempts=3)
        _, _, transport, endpoint = make_faulty_transport(plan, retry=policy)
        with pytest.raises(TimeoutError):
            transport.call("svc", "echo", 1)
        assert endpoint.stats.errors == 3
        assert endpoint.stats.retries == 2
        assert endpoint.stats.giveups == 1
        assert endpoint.stats.calls == 0

    def test_handler_errors_not_retried_but_counted(self):
        clock = SimClock()
        transport = RpcTransport(
            Link(clock), retry_policy=RetryPolicy(max_attempts=5)
        )
        endpoint = RpcEndpoint("svc")
        calls = []

        def boom():
            calls.append(1)
            raise KeyError("nope")

        endpoint.register("boom", boom)
        transport.bind(endpoint)
        with pytest.raises(KeyError):
            transport.call("svc", "boom")
        assert len(calls) == 1  # no retry of application errors
        assert endpoint.stats.errors == 1
        assert endpoint.stats.retries == 0
        assert endpoint.stats.calls == 0

    def test_stats_count_failed_calls(self):
        # Satellite: benchmarks must not under-report traffic — failed
        # calls show up in `errors` even without a retry policy.
        clock = SimClock()
        transport = RpcTransport(Link(clock))
        endpoint = RpcEndpoint("svc")
        endpoint.register("missing", lambda: (_ for _ in ()).throw(KeyError()))
        transport.bind(endpoint)
        with pytest.raises(KeyError):
            transport.call("svc", "missing")
        assert endpoint.stats.errors == 1
        assert endpoint.stats.calls == 0

    def test_no_policy_single_attempt(self):
        plan = FaultPlan(drop_rate=1.0)
        _, _, transport, endpoint = make_faulty_transport(plan, retry=None)
        with pytest.raises(TimeoutError):
            transport.call("svc", "echo", 1)
        assert endpoint.stats.errors == 1
        assert endpoint.stats.retries == 0
        assert endpoint.stats.giveups == 0  # no policy to give up on


FAULTY = FaultPlan(
    seed="e2e", drop_rate=0.05, corrupt_rate=0.05, corrupt_detect_rate=0.5,
    timeout_s=0.2, targets=("gear-registry",),
)


def deploy_first_nginx(testbed, corpus):
    publish_images(testbed, corpus.images, convert=True)
    testbed.arm_faults()
    generated = corpus.get("nginx:v1")
    result = deploy_with_gear(testbed, generated)
    return generated, result


class TestDeterministicDeploys:
    def test_same_plan_same_seed_identical_logs_and_timings(self, small_corpus):
        def run():
            testbed = make_testbed(fault_plan=FAULTY)
            _, result = deploy_first_nginx(testbed, small_corpus)
            records = [
                (r.start, r.duration, r.payload_bytes, r.label)
                for r in testbed.link.log.records
            ]
            return records, testbed.clock.now, result.retries, result.errors

        first = run()
        second = run()
        assert first == second

    def test_zero_rate_plan_matches_seed_behaviour_exactly(self, small_corpus):
        # A FaultyLink with an all-zero plan plus an (unused) RetryPolicy
        # must be byte-identical to the plain seed testbed: same transfer
        # log, same virtual timings.
        plain = make_testbed()
        nulled = make_testbed(fault_plan=FaultPlan())
        _, plain_result = deploy_first_nginx(plain, small_corpus)
        _, nulled_result = deploy_first_nginx(nulled, small_corpus)
        assert plain_result.pull_s == nulled_result.pull_s
        assert plain_result.run_s == nulled_result.run_s
        assert plain_result.retries == nulled_result.retries == 0
        assert plain.clock.now == nulled.clock.now
        plain_records = [
            (r.start, r.duration, r.payload_bytes, r.label)
            for r in plain.link.log.records
        ]
        nulled_records = [
            (r.start, r.duration, r.payload_bytes, r.label)
            for r in nulled.link.log.records
        ]
        assert plain_records == nulled_records


class TestFaultyDeployEndToEnd:
    def test_lossy_deploy_completes_verified(self, small_corpus):
        testbed = make_testbed(fault_plan=FAULTY)
        generated, result = deploy_first_nginx(testbed, small_corpus)
        # Acceptance: the deploy completed, showed nonzero retries, and
        # every trace path reads back fingerprint-verified content.
        assert result.retries > 0
        assert testbed.link.fault_stats.total_faults > 0
        # Faults are paid for in virtual time, never in correctness.
        _, clean = deploy_first_nginx(make_testbed(), small_corpus)
        assert result.total_s > clean.total_s
        container = testbed.gear_driver.containers()[0]
        index = testbed.gear_driver.get_index("nginx.gear:v1")
        for path in generated.trace.paths:
            blob = container.mount.read_blob(path)
            entry = index.entries.get(path)
            if entry is not None and not entry.identity.startswith("uid-"):
                assert blob.fingerprint == entry.identity
        # Zero corrupted payloads cached: every pooled inode hashes to
        # its identity.
        pool = testbed.gear_driver.pool
        for identity in list(pool.identities()):
            inode = pool.get(identity)
            if not identity.startswith("uid-"):
                assert inode.blob.fingerprint == identity

    def test_pool_insert_rejects_poison(self):
        from repro.gear.pool import SharedFilePool

        pool = SharedFilePool()
        poison = GearFile(identity="a" * 32, blob=Blob.from_bytes(b"junk"))
        with pytest.raises(IntegrityError):
            pool.insert(poison)
        assert len(pool) == 0

    def test_quarantine_then_refetch_serves_good_copy(self):
        # A registry whose first download is corrupt and second is good:
        # the viewer quarantines, refetches, and caches only the good copy.
        from repro.gear.index import GearIndex
        from repro.gear.pool import SharedFilePool
        from repro.gear.viewer import GearFileViewer
        from repro.vfs.tree import FileSystemTree

        clock = SimClock()
        transport = RpcTransport(Link(clock))
        blob = Blob.from_bytes(b"good content")
        identity = blob.fingerprint
        served = []

        def download(requested):
            if not served:
                served.append("bad")
                return GearFile(
                    identity=identity, blob=Blob.from_bytes(b"flipped bits")
                ), 12
            return GearFile(identity=identity, blob=blob), blob.size

        endpoint = RpcEndpoint("gear-registry")
        endpoint.register("download", download)
        transport.bind(endpoint)

        root = FileSystemTree()
        root.write_file("/app/bin", blob, parents=True)
        index = GearIndex.from_tree("img", "v1", root)
        pool = SharedFilePool()
        viewer = GearFileViewer(index, pool, transport=transport)
        assert viewer.read_bytes("/app/bin") == b"good content"
        assert viewer.fault_stats.integrity_failures == 1
        assert viewer.fault_stats.refetches == 1
        assert pool.contains(identity)
        assert pool.get(identity).blob.fingerprint == identity


class TestDegradedMode:
    OUTAGE = FaultPlan(
        seed="outage",
        outages=(OutageWindow(start_s=0.0, duration_s=10_000.0),),
        targets=("gear-registry",),
    )

    def test_outage_falls_back_to_docker_pull(self, small_corpus):
        # The outage targets only the Gear registry; the index pull and
        # the fallback layer pull go through the healthy Docker registry.
        policy = RetryPolicy(max_attempts=2, deadline_s=5.0, budget_s=10.0)
        testbed = make_testbed(fault_plan=self.OUTAGE, retry_policy=policy)
        generated, result = deploy_first_nginx(testbed, small_corpus)
        assert result.degraded
        container = testbed.gear_driver.containers()[0]
        stats = container.mount.fault_stats
        assert stats.degraded_fetches > 0
        # Content is still correct — served from the regular layer pull.
        for path in generated.trace.paths:
            assert container.mount.read_blob(path).size >= 0
        report = testbed.gear_driver.deploy_report("nginx.gear:v1")
        assert report is not None and report.degraded
        assert report.degraded_fetches == stats.degraded_fetches
        assert report.fallback_pull_s > 0

    def test_cached_files_served_stale_during_outage(self, small_corpus):
        # Deploy once cleanly to warm the pool, then the registry dies:
        # a second container of the same image keeps working from the
        # level-1 cache without a single degraded fetch.
        policy = RetryPolicy(max_attempts=2, deadline_s=5.0, budget_s=10.0)
        testbed = make_testbed(fault_plan=self.OUTAGE, retry_policy=policy)
        testbed.disarm_faults()  # clean warm-up first
        publish_images(testbed, small_corpus.images, convert=True)
        generated = small_corpus.get("nginx:v1")
        container, _ = testbed.gear_driver.deploy("nginx.gear:v1")
        for path in generated.trace.paths:
            container.mount.read_bytes(path)
        assert container.mount.fault_stats.degraded_fetches == 0
        testbed.arm_faults()  # outage starts now
        second = testbed.gear_driver.create_container("nginx.gear:v1")
        for path in generated.trace.paths:
            second.mount.read_bytes(path)
        assert second.mount.fault_stats.degraded_fetches == 0
        assert second.mount.fault_stats.remote_fetches == 0

    def test_total_blackout_still_surfaces_unavailable(self, small_corpus):
        # Both registries down: degraded fallback cannot help, the typed
        # outage error reaches the caller.
        plan = FaultPlan(
            seed="blackout",
            outages=(OutageWindow(start_s=0.0, duration_s=10_000.0),),
            targets=None,  # everything
        )
        policy = RetryPolicy(max_attempts=2, deadline_s=5.0, budget_s=10.0)
        testbed = make_testbed(fault_plan=plan, retry_policy=policy)
        testbed.disarm_faults()  # clean publish + deploy first
        publish_images(testbed, small_corpus.images, convert=True)
        container, _ = testbed.gear_driver.deploy("nginx.gear:v1")
        testbed.arm_faults()
        path = small_corpus.get("nginx:v1").trace.paths[0]
        with pytest.raises(UnavailableError):
            container.mount.read_bytes(path)
