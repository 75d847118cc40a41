"""Tests for seeded random-stream management."""

import pytest

from repro.simcore.random import RngHub


class TestRngHub:
    def test_same_name_same_generator_object(self):
        hub = RngHub(1)
        assert hub.stream("a") is hub.stream("a")

    def test_deterministic_across_hubs(self):
        first = RngHub(42).stream("jitter").random(10)
        second = RngHub(42).stream("jitter").random(10)
        assert (first == second).all()

    def test_different_names_differ(self):
        hub = RngHub(42)
        a = hub.stream("a").random(10)
        b = hub.stream("b").random(10)
        assert not (a == b).all()

    def test_different_seeds_differ(self):
        a = RngHub(1).stream("x").random(10)
        b = RngHub(2).stream("x").random(10)
        assert not (a == b).all()

    def test_fresh_restarts_sequence(self):
        hub = RngHub(7)
        first = hub.fresh("s").random(5)
        second = hub.fresh("s").random(5)
        assert (first == second).all()

    def test_fresh_independent_of_stream_consumption(self):
        hub = RngHub(7)
        hub.stream("s").random(100)
        a = hub.fresh("s").random(5)
        b = RngHub(7).fresh("s").random(5)
        assert (a == b).all()

    def test_adding_consumer_does_not_perturb_existing(self):
        hub1 = RngHub(9)
        a_only = hub1.stream("a").random(5)
        hub2 = RngHub(9)
        hub2.stream("b").random(5)  # new consumer first
        a_with_b = hub2.stream("a").random(5)
        assert (a_only == a_with_b).all()

    def test_rejects_non_int_seed(self):
        with pytest.raises(TypeError):
            RngHub("not-an-int")  # type: ignore[arg-type]

    def test_seed_property(self):
        assert RngHub(5).seed == 5

    def test_repr_lists_streams(self):
        hub = RngHub(0)
        hub.stream("alpha")
        assert "alpha" in repr(hub)
