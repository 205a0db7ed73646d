"""Tests for the shared-resource primitives."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Environment
from tests.oracles.dataplane import Request, Resource, Store


class TestResource:
    def test_invalid_capacity(self):
        with pytest.raises(SimulationError):
            Resource(Environment(), capacity=0)

    def test_immediate_grant_under_capacity(self):
        env = Environment()
        resource = Resource(env, capacity=2)
        first, second = resource.request(), resource.request()
        assert first.triggered and second.triggered
        assert resource.in_use == 2

    def test_queueing_over_capacity(self):
        env = Environment()
        resource = Resource(env, capacity=1)
        first = resource.request()
        second = resource.request()
        assert first.triggered
        assert not second.triggered
        assert resource.queued == 1
        resource.release(first)
        assert second.triggered
        assert resource.queued == 0

    def test_fifo_granting(self):
        env = Environment()
        resource = Resource(env, capacity=1)
        order = []

        def worker(name, hold):
            request = resource.request()
            yield request
            order.append((name, env.now))
            yield env.timeout(hold)
            resource.release(request)

        for i in range(3):
            env.process(worker(f"w{i}", 2))
        env.run()
        assert order == [("w0", 0.0), ("w1", 2.0), ("w2", 4.0)]

    def test_release_of_ungranted_request_rejected(self):
        env = Environment()
        resource = Resource(env, capacity=1)
        resource.request()
        queued = resource.request()
        with pytest.raises(SimulationError):
            resource.release(queued)

    def test_release_of_foreign_request_rejected(self):
        env = Environment()
        a, b = Resource(env), Resource(env)
        granted = a.request()
        with pytest.raises(SimulationError):
            b.release(granted)

    def test_double_release_rejected(self):
        env = Environment()
        resource = Resource(env)
        request = resource.request()
        resource.release(request)
        with pytest.raises(SimulationError):
            resource.release(request)

    def test_serialisation_with_capacity_two(self):
        env = Environment()
        resource = Resource(env, capacity=2)
        finished = []

        def worker(name):
            request = resource.request()
            yield request
            yield env.timeout(3)
            resource.release(request)
            finished.append((name, env.now))

        for i in range(4):
            env.process(worker(i))
        env.run()
        assert [t for _, t in finished] == [3.0, 3.0, 6.0, 6.0]


class TestStore:
    def test_invalid_capacity(self):
        with pytest.raises(SimulationError):
            Store(Environment(), capacity=0)

    def test_put_then_get(self):
        env = Environment()
        store = Store(env)
        store.put("a")
        store.put("b")

        def consumer():
            first = yield store.get()
            second = yield store.get()
            return (first, second)

        assert env.run(until=env.process(consumer())) == ("a", "b")

    def test_get_blocks_until_put(self):
        env = Environment()
        store = Store(env)
        got = []

        def consumer():
            item = yield store.get()
            got.append((item, env.now))

        def producer():
            yield env.timeout(5)
            store.put("late")

        env.process(consumer())
        env.process(producer())
        env.run()
        assert got == [("late", 5.0)]

    def test_bounded_put_blocks(self):
        env = Environment()
        store = Store(env, capacity=1)
        events = []

        def producer():
            yield store.put("first")
            events.append(("put-first", env.now))
            yield store.put("second")
            events.append(("put-second", env.now))

        def consumer():
            yield env.timeout(4)
            yield store.get()

        env.process(producer())
        env.process(consumer())
        env.run()
        assert events == [("put-first", 0.0), ("put-second", 4.0)]

    def test_len_counts_buffered(self):
        env = Environment()
        store = Store(env)
        store.put(1)
        store.put(2)
        assert len(store) == 2

    def test_direct_handoff_to_waiting_getter(self):
        env = Environment()
        store = Store(env, capacity=1)
        results = []

        def consumer():
            item = yield store.get()
            results.append(item)

        env.process(consumer())
        env.run()  # consumer is now blocked
        store.put("handoff")
        env.run()
        assert results == ["handoff"]
        assert len(store) == 0
