"""Tests for allocation checkpointing and digests."""

import json
import math

import pytest

from repro.core.params import TxAlloParams
from repro.core.persistence import (
    AllocationCheckpoint,
    allocation_digest,
    load_allocation,
    save_allocation,
)
from repro.errors import AllocationError, DataError

MAPPING = {"0xaa": 0, "0xbb": 1, "0xcc": 0}
PARAMS = TxAlloParams(k=2, eta=2.0, lam=100.0, epsilon=0.001, tau1=3, tau2=9)


class TestDigest:
    def test_stable_across_insertion_order(self):
        forward = dict(sorted(MAPPING.items()))
        backward = dict(sorted(MAPPING.items(), reverse=True))
        assert allocation_digest(forward) == allocation_digest(backward)

    def test_sensitive_to_assignment(self):
        changed = dict(MAPPING, **{"0xaa": 1})
        assert allocation_digest(changed) != allocation_digest(MAPPING)

    def test_sensitive_to_membership(self):
        smaller = {k: v for k, v in MAPPING.items() if k != "0xcc"}
        assert allocation_digest(smaller) != allocation_digest(MAPPING)

    def test_empty_mapping(self):
        assert len(allocation_digest({})) == 64

    def test_no_separator_ambiguity(self):
        """('ab', 1) must not collide with ('a', 'b1'-ish encodings)."""
        d1 = allocation_digest({"ab": 1})
        d2 = allocation_digest({"a": 1, "b": 1})
        assert d1 != d2


class TestRoundTrip:
    def test_save_and_load(self, tmp_path):
        path = tmp_path / "alloc.json"
        digest = save_allocation(path, MAPPING, PARAMS, block_height=42)
        mapping, params, height = load_allocation(path)
        assert mapping == MAPPING
        assert params == PARAMS
        assert height == 42
        assert digest == allocation_digest(mapping)

    def test_infinite_capacity_roundtrips(self, tmp_path):
        path = tmp_path / "alloc.json"
        params = TxAlloParams(k=2)
        save_allocation(path, MAPPING, params)
        _, loaded, _ = load_allocation(path)
        assert math.isinf(loaded.lam)

    def test_checkpoint_class(self, tmp_path):
        path = tmp_path / "alloc.json"
        cp = AllocationCheckpoint(mapping=MAPPING, params=PARAMS, block_height=7)
        cp.save(path)
        loaded = AllocationCheckpoint.load(path)
        assert loaded.mapping == cp.mapping
        assert loaded.digest == cp.digest
        assert loaded.block_height == 7


class TestCorruption:
    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_allocation(tmp_path / "nope.json")

    def test_not_json(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{{{")
        with pytest.raises(DataError):
            load_allocation(path)

    def test_wrong_format_marker(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(DataError):
            load_allocation(path)

    def test_tampered_mapping_detected(self, tmp_path):
        path = tmp_path / "alloc.json"
        save_allocation(path, MAPPING, PARAMS)
        payload = json.loads(path.read_text())
        payload["mapping"]["0xaa"] = 1  # flip a shard without re-digesting
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match="digest mismatch"):
            load_allocation(path)

    def test_out_of_range_shard_detected(self, tmp_path):
        path = tmp_path / "alloc.json"
        bad = dict(MAPPING, extra=5)
        save_allocation(path, bad, PARAMS)
        with pytest.raises(AllocationError):
            load_allocation(path)

    def test_malformed_params(self, tmp_path):
        path = tmp_path / "alloc.json"
        save_allocation(path, MAPPING, PARAMS)
        payload = json.loads(path.read_text())
        del payload["params"]["k"]
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError):
            load_allocation(path)


#: A checkpoint as written by builds that still carried the
#: ``TxAlloParams.workers`` knob and the ``"parallel"`` backend tier.
WORKERS_CHECKPOINT = {
    "block_height": 12,
    "digest": "7274e2082d24253c16725e17aade2d04e0163b8aea674ccad6d831cc0e3fbbef",
    "format": "txallo-allocation-v1",
    "mapping": MAPPING,
    "params": {
        "backend": "fast",
        "epsilon": 0.001,
        "eta": 2.0,
        "k": 2,
        "lam": 100.0,
        "tau1": 3,
        "tau2": 9,
        "workers": 4,
    },
}


class TestOlderCheckpoints:
    def test_workers_field_is_ignored(self, tmp_path):
        path = tmp_path / "alloc.json"
        path.write_text(json.dumps(WORKERS_CHECKPOINT, indent=1, sort_keys=True))
        checkpoint = AllocationCheckpoint.load(path)
        assert checkpoint.mapping == MAPPING
        assert checkpoint.params == PARAMS
        assert checkpoint.block_height == 12
        assert checkpoint.digest == WORKERS_CHECKPOINT["digest"]

    def test_new_checkpoints_carry_no_workers_field(self, tmp_path):
        path = tmp_path / "alloc.json"
        save_allocation(path, MAPPING, PARAMS, block_height=12)
        payload = json.loads(path.read_text())
        assert "workers" not in payload["params"]
        expected = dict(WORKERS_CHECKPOINT["params"])
        del expected["workers"]
        assert payload["params"] == expected
        assert payload["digest"] == WORKERS_CHECKPOINT["digest"]

    # Tiers removed since: "parallel" (shard-parallel A-TxAllo) and
    # "vector" (numpy kernels).  No alias maps them onto a live tier.
    @pytest.mark.parametrize("backend", ["parallel", "vector"])
    def test_unregistered_backend_names_the_backend(self, tmp_path, backend):
        payload = json.loads(json.dumps(WORKERS_CHECKPOINT))
        payload["params"]["backend"] = backend
        path = tmp_path / "alloc.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(DataError, match=f"unknown backend '{backend}'"):
            load_allocation(path)


class TestMinerAgreement:
    def test_two_miners_same_digest(self, small_workload):
        """The determinism story end to end: independent G-TxAllo runs
        yield the same digest, so miners can agree by exchanging 32
        bytes instead of the full mapping."""
        from repro.core.gtxallo import g_txallo

        params = TxAlloParams.with_capacity_for(
            len(small_workload["sets"]), k=4, eta=2.0
        )
        d1 = allocation_digest(
            g_txallo(small_workload["graph"], params).allocation.mapping()
        )
        d2 = allocation_digest(
            g_txallo(small_workload["graph"].copy(), params).allocation.mapping()
        )
        assert d1 == d2
