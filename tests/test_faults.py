"""Unit tests for :mod:`repro.faults`: injection, retry, breakers.

The fault machinery itself must be deterministic and honest — a flaky
injector or a retry loop that quietly heals simulated process deaths
would make every chaos drill in ``test_chaos.py`` meaningless. These
tests pin the contracts: seeded schedules reproduce exactly, error
classification matches the documented table (ENOSPC is fatal, EIO is
transient), exhaustion is typed, and breakers walk
closed → open → half-open → closed with backoff doubling.
"""

from __future__ import annotations

import errno
import threading
from dataclasses import replace

import pytest

from repro.errors import DegradedError, DurabilityError
from repro.faults import (
    BOUNDARIES,
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
    ErrorInjector,
    FaultSpec,
    InjectedCrash,
    NO_RETRY,
    RetryPolicy,
    default_classifier,
    enospc,
    eio,
    fire,
    flaky,
    slow,
)
from repro.obs import Telemetry
from repro.replica import LogSegment, MailboxTransport
from repro.replica.transport import InProcessTransport
from repro.stream import add


def segment(first=1, n=3):
    ops = tuple(add(100 + i, f"p{i}").with_seq(first + i) for i in range(n))
    return LogSegment(
        first, first + n - 1, ops, primary_seq=first + n - 1, shipped_at=1.0
    )


# ---------------------------------------------------------------------------
# ErrorInjector / FaultSpec
# ---------------------------------------------------------------------------
class TestErrorInjector:
    def test_fire_is_inert_without_an_active_injector(self):
        fire("oplog.append", "/nowhere")  # must not raise

    def test_unknown_boundary_fails_fast(self):
        with pytest.raises(ValueError, match="unknown fault boundary"):
            FaultSpec("oplog.frobnicate", error=errno.EIO)

    def test_empty_spec_fails_fast(self):
        with pytest.raises(ValueError, match="injects nothing"):
            FaultSpec("oplog.append")

    def test_persistent_error_until_lifted(self):
        with ErrorInjector(enospc("oplog.append")) as inj:
            for _ in range(3):
                with pytest.raises(OSError) as caught:
                    fire("oplog.append", "/log")
                assert caught.value.errno == errno.ENOSPC
            inj.lift("oplog.append")  # "the operator freed disk space"
            fire("oplog.append", "/log")
        assert inj.injected_total() == 3
        assert inj.hits["oplog.append"] == 4

    def test_lift_without_boundary_disarms_everything(self):
        with ErrorInjector(enospc("oplog.append"), eio("ship.publish")) as inj:
            inj.lift()
            fire("oplog.append")
            fire("ship.publish")
        assert inj.injected_total() == 0

    def test_fail_times_makes_the_fault_transient(self):
        with ErrorInjector(eio("ship.publish", fail_times=2)):
            for _ in range(2):
                with pytest.raises(OSError):
                    fire("ship.publish")
            fire("ship.publish")  # healed
            fire("ship.publish")

    def test_after_skips_the_first_hits(self):
        with ErrorInjector(FaultSpec("oplog.fsync", error=errno.EIO, after=2)):
            fire("oplog.fsync")
            fire("oplog.fsync")
            with pytest.raises(OSError):
                fire("oplog.fsync")

    def test_path_substring_confines_the_blast_radius(self):
        spec = enospc("checkpoint.save", path_substring="tenants/b/")
        with ErrorInjector(spec) as inj:
            fire("checkpoint.save", "/root/tenants/a/checkpoints/ckpt-1")
            with pytest.raises(OSError):
                fire("checkpoint.save", "/root/tenants/b/checkpoints/ckpt-1")
        assert [action for _, _, action in inj.trace] == ["ok", "error"]

    def test_flaky_schedule_is_seeded_and_deterministic(self):
        def run(seed):
            actions = []
            with ErrorInjector(flaky("ship.poll", 0.5), seed=seed):
                for _ in range(20):
                    try:
                        fire("ship.poll")
                        actions.append("ok")
                    except OSError:
                        actions.append("error")
            return actions

        assert run(3) == run(3)
        assert run(3) != run(4)
        assert "ok" in run(3) and "error" in run(3)

    def test_latency_uses_the_injected_sleep(self):
        slept = []
        with ErrorInjector(slow("ship.publish", 0.25), sleep=slept.append):
            fire("ship.publish")
            fire("ship.publish")
        assert slept == [0.25, 0.25]

    def test_crash_at_raises_injected_crash_on_the_nth_hit(self):
        with ErrorInjector(FaultSpec("oplog.fsync", crash_at=3)) as inj:
            fire("oplog.fsync")
            fire("oplog.fsync")
            with pytest.raises(InjectedCrash):
                fire("oplog.fsync")
        assert inj.trace[-1][2] == "crash"
        # InjectedCrash must never be catchable as an Exception.
        assert not isinstance(InjectedCrash("x"), Exception)

    def test_injections_land_on_the_obs_counter(self):
        telemetry = Telemetry()
        with ErrorInjector(eio("oplog.append"), obs=telemetry):
            with pytest.raises(OSError):
                fire("oplog.append")
        snap = telemetry.snapshot()["metrics"]["faultinject_errors_total"]
        assert snap == {"boundary=oplog.append": 1}

    def test_injectors_nest_innermost_wins(self):
        with ErrorInjector(enospc("oplog.append")):
            with ErrorInjector(eio("ship.publish")) as inner:
                fire("oplog.append")  # outer injector is shadowed
                with pytest.raises(OSError):
                    fire("ship.publish")
            assert inner.hits == {"oplog.append": 1, "ship.publish": 1}
            with pytest.raises(OSError):
                fire("oplog.append")

    def test_boundary_registry_names_every_seam(self):
        assert {
            "oplog.append",
            "oplog.fsync",
            "oplog.compact",
            "checkpoint.save",
            "checkpoint.load",
            "ship.publish",
            "ship.poll",
            "replica.bootstrap",
        } == set(BOUNDARIES)


# ---------------------------------------------------------------------------
# RetryPolicy
# ---------------------------------------------------------------------------
def make_policy(**kwargs):
    kwargs.setdefault("seed", 0)
    kwargs.setdefault("sleep", lambda s: None)
    return RetryPolicy(**kwargs)


class TestRetryPolicy:
    def test_classifier_table(self):
        assert default_classifier(OSError(errno.EIO, "io"))
        assert default_classifier(OSError(errno.EAGAIN, "again"))
        assert default_classifier(ConnectionError("reset"))
        assert default_classifier(TimeoutError("slow"))
        assert not default_classifier(OSError(errno.ENOSPC, "full"))
        assert not default_classifier(ValueError("bug"))

    def test_transient_then_ok_heals_in_place(self):
        calls = []

        def flaky_fn():
            calls.append(1)
            if len(calls) < 3:
                raise OSError(errno.EIO, "injected")
            return "done"

        assert make_policy(max_attempts=3).run(flaky_fn, boundary="ship.publish") == "done"
        assert len(calls) == 3

    def test_exhaustion_is_typed_and_chained(self):
        def always_fails():
            raise OSError(errno.EIO, "injected")

        with pytest.raises(DurabilityError) as caught:
            make_policy(max_attempts=3).run(always_fails, boundary="oplog.append")
        err = caught.value
        assert err.boundary == "oplog.append"
        assert err.attempts == 3
        assert isinstance(err.__cause__, OSError)
        assert err.__cause__.errno == errno.EIO

    def test_non_retryable_reraises_unchanged(self):
        calls = []

        def full_disk():
            calls.append(1)
            raise OSError(errno.ENOSPC, "full")

        with pytest.raises(OSError) as caught:
            make_policy().run(full_disk, boundary="oplog.append")
        assert caught.value.errno == errno.ENOSPC
        assert len(calls) == 1  # no pointless retries against a full disk

    def test_injected_crash_sails_through(self):
        def dies():
            raise InjectedCrash("simulated death")

        with pytest.raises(InjectedCrash):
            make_policy().run(dies, boundary="oplog.fsync")

    def test_backoff_is_seeded_jitter_within_the_envelope(self):
        import random

        policy = RetryPolicy(base_delay_s=0.01, max_delay_s=0.25)
        draws = [policy.backoff_s(n, random.Random(7)) for n in range(1, 8)]
        again = [policy.backoff_s(n, random.Random(7)) for n in range(1, 8)]
        assert draws == again
        for attempt, delay in enumerate(draws, start=1):
            assert 0.0 <= delay <= min(0.25, 0.01 * 2 ** (attempt - 1))

    @pytest.mark.parametrize("seed", [0, 7, 12345])
    def test_seeded_policy_sleeps_the_same_delays(self, seed):
        # The delays a seeded policy sleeps are the draws of one
        # random.Random(seed), backoff by backoff, in attempt order.
        import random

        slept = []

        def always_fails():
            raise OSError(errno.EIO, "injected")

        policy = RetryPolicy(
            max_attempts=6,
            base_delay_s=0.01,
            max_delay_s=0.05,
            seed=seed,
            sleep=slept.append,
        )
        with pytest.raises(DurabilityError):
            policy.run(always_fails, boundary="ship.publish")
        rng = random.Random(seed)
        assert slept == [policy.backoff_s(n, rng) for n in range(1, 6)]
        again = []
        with pytest.raises(DurabilityError):
            replace(policy, sleep=again.append).run(
                always_fails, boundary="ship.publish"
            )
        assert again == slept

    def test_first_try_success_builds_no_rng(self, monkeypatch):
        import random

        from repro.faults import retry as retry_module

        built = []

        class CountingRandom(random.Random):
            def __init__(self, *args, **kwargs):
                built.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(retry_module.random, "Random", CountingRandom)
        for policy in (RetryPolicy(), RetryPolicy(seed=3), NO_RETRY):
            assert policy.run(lambda: "ok", boundary="oplog.append") == "ok"
        assert built == []
        # Non-retryable and single-attempt failures sleep nothing either.
        with pytest.raises(OSError):
            RetryPolicy().run(
                lambda: (_ for _ in ()).throw(OSError(errno.ENOSPC, "full")),
                boundary="oplog.append",
            )
        with pytest.raises(DurabilityError):
            NO_RETRY.run(
                lambda: (_ for _ in ()).throw(OSError(errno.EIO, "io")),
                boundary="oplog.append",
            )
        assert built == []
        # The first backoff builds it, once per call.
        calls = []

        def flaky_fn():
            calls.append(1)
            if len(calls) < 3:
                raise OSError(errno.EIO, "injected")
            return "done"

        make_policy(max_attempts=3).run(flaky_fn, boundary="oplog.append")
        assert len(built) == 1

    def test_deadline_stops_before_the_sleep_that_would_cross_it(self):
        now = [0.0]

        def clock():
            return now[0]

        def sleep(s):
            now[0] += s

        def always_fails():
            raise OSError(errno.EIO, "injected")

        policy = RetryPolicy(
            max_attempts=100,
            base_delay_s=1.0,
            max_delay_s=1.0,
            deadline_s=2.5,
            seed=1,
            sleep=sleep,
            clock=clock,
        )
        with pytest.raises(DurabilityError):
            policy.run(always_fails, boundary="ship.poll")
        assert now[0] <= 2.5

    def test_outcome_counters_on_the_obs_substrate(self):
        telemetry = Telemetry()
        calls = []

        def flaky_fn():
            calls.append(1)
            if len(calls) < 2:
                raise OSError(errno.EIO, "injected")

        make_policy().run(flaky_fn, boundary="ship.publish", obs=telemetry)
        snap = telemetry.snapshot()["metrics"]["retry_attempts_total"]
        assert snap["boundary=ship.publish,outcome=retried"] == 1
        assert snap["boundary=ship.publish,outcome=ok"] == 1

    def test_no_retry_still_types_exhaustion(self):
        def always_fails():
            raise OSError(errno.EIO, "injected")

        with pytest.raises(DurabilityError) as caught:
            NO_RETRY.run(always_fails, boundary="checkpoint.save")
        assert caught.value.attempts == 1

    def test_invalid_policies_fail_fast(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(base_delay_s=-1)


# ---------------------------------------------------------------------------
# CircuitBreaker
# ---------------------------------------------------------------------------
class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestCircuitBreaker:
    def test_walks_closed_open_half_open_closed(self):
        clock = FakeClock()
        breaker = CircuitBreaker("t", base_backoff_s=1.0, clock=clock)
        assert breaker.state == CLOSED and breaker.allow()

        breaker.record_failure(OSError(errno.ENOSPC, "full"))
        assert breaker.state == OPEN
        assert not breaker.allow()
        assert breaker.retry_after_s() == pytest.approx(1.0)

        clock.now = 1.0  # backoff elapsed: one trial write is admitted
        assert breaker.allow()
        assert breaker.state == HALF_OPEN
        breaker.record_success()
        assert breaker.state == CLOSED and breaker.retry_after_s() is None

    def test_backoff_doubles_per_consecutive_failure_capped(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            "t", base_backoff_s=1.0, max_backoff_s=4.0, clock=clock
        )
        for expected in (1.0, 2.0, 4.0, 4.0):
            breaker.record_failure("still down")
            assert breaker.retry_after_s() == pytest.approx(expected)

    def test_maybe_probe_runs_at_most_once_per_window(self):
        clock = FakeClock()
        probes = []

        def probe():
            probes.append(clock.now)
            raise OSError(errno.ENOSPC, "still full")

        breaker = CircuitBreaker("t", probe=probe, base_backoff_s=1.0, clock=clock)
        breaker.record_failure("full")
        for _ in range(5):
            breaker.maybe_probe()  # backoff not elapsed: no probe runs
        assert probes == []
        clock.now = 1.0
        for _ in range(5):
            breaker.maybe_probe()
        assert probes == [1.0]  # one probe; its failure re-armed the backoff

    def test_probe_success_closes(self):
        clock = FakeClock()
        breaker = CircuitBreaker("t", probe=lambda: None, base_backoff_s=1.0, clock=clock)
        breaker.record_failure("blip")
        clock.now = 1.0
        assert breaker.maybe_probe()
        assert breaker.state == CLOSED

    def test_health_check_severity_and_recovery(self):
        clock = FakeClock()
        healthy = []
        breaker = CircuitBreaker(
            "t", probe=lambda: healthy.append(1), base_backoff_s=1.0, clock=clock
        )
        check = breaker.health_check("degraded")
        assert check().status == "ok"

        breaker.record_failure(OSError(errno.ENOSPC, "full"))
        result = check()
        assert result.status == "degraded"
        assert "full" in result.detail
        assert result.data["retry_after_s"] == pytest.approx(1.0)

        clock.now = 1.0  # the next scrape doubles as the recovery probe
        assert check().status == "ok"
        assert healthy == [1]

        failing_check = CircuitBreaker("s", clock=clock).health_check("failing")
        assert failing_check().status == "ok"

    def test_transitions_are_counted(self):
        telemetry = Telemetry()
        clock = FakeClock()
        breaker = CircuitBreaker("oplog", clock=clock, obs=telemetry)
        breaker.record_failure("x")
        breaker.record_success()
        snap = telemetry.snapshot()["metrics"]["breaker_transitions_total"]
        assert snap == {"name=oplog,state=closed": 1, "name=oplog,state=open": 1}


# ---------------------------------------------------------------------------
# Typed errors
# ---------------------------------------------------------------------------
class TestTypedErrors:
    def test_degraded_error_carries_the_quota_shape(self):
        err = DegradedError("acme", "checkpoint.save", "disk full", retry_after_s=2.0)
        assert (err.tenant, err.reason, err.retry_after_s) == (
            "acme",
            "checkpoint.save",
            2.0,
        )
        shared = DegradedError(None, "oplog.append", "shared log down")
        assert shared.tenant is None and shared.retry_after_s is None

    def test_durability_error_names_the_boundary(self):
        err = DurabilityError("ship.publish", 3, "gave up")
        assert (err.boundary, err.attempts) == ("ship.publish", 3)


# ---------------------------------------------------------------------------
# Transport hardening (satellites)
# ---------------------------------------------------------------------------
class TestInProcessTransportRace:
    def test_poll_drains_by_popping_not_snapshot_then_clear(self):
        """Artifacts published while a poll drains must survive into the
        next poll — the old ``list(queue); queue.clear()`` dropped them."""
        transport = InProcessTransport()
        stop = threading.Event()
        published = []

        def publisher():
            i = 0
            while not stop.is_set():
                transport.publish(i)
                published.append(i)
                i += 1

        thread = threading.Thread(target=publisher)
        thread.start()
        drained = []
        try:
            while len(published) < 2000:
                drained.extend(transport.poll())
        finally:
            stop.set()
            thread.join()
        drained.extend(transport.poll())
        assert drained == published  # nothing dropped, order preserved

    def test_poll_empty_is_empty(self):
        assert InProcessTransport().poll() == []


class TestQuarantineCounter:
    def test_quarantine_lands_on_the_obs_counter(self, tmp_path):
        telemetry = Telemetry()
        spool = tmp_path / "mail"
        transport = MailboxTransport(spool)
        transport.obs = telemetry
        transport.publish(segment())
        (path,) = transport.pending()
        path.write_text("{not json", encoding="utf-8")
        assert transport.poll() == []
        assert transport.quarantined == 1
        snap = telemetry.snapshot()["metrics"]
        assert snap["transport_quarantined_total"] == 1
