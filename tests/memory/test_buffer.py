"""Tests for the per-engine SRAM buffer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory import BufferOverflowError, EngineBuffer, make_buffers


class TestStoreRelease:
    def test_store_and_query(self):
        b = EngineBuffer(capacity_bytes=1000)
        b.store("a", 300)
        assert b.contains("a")
        assert b.size_of("a") == 300
        assert b.used_bytes == 300
        assert b.free_bytes == 700

    def test_release_returns_size(self):
        b = EngineBuffer(capacity_bytes=1000)
        b.store("a", 300)
        assert b.release("a") == 300
        assert not b.contains("a")

    def test_release_missing_raises(self):
        b = EngineBuffer(capacity_bytes=1000)
        with pytest.raises(KeyError):
            b.release("ghost")

    def test_release_if_present(self):
        b = EngineBuffer(capacity_bytes=1000)
        assert b.release_if_present("ghost") == 0
        b.store("a", 10)
        assert b.release_if_present("a") == 10

    def test_restore_replaces_size(self):
        b = EngineBuffer(capacity_bytes=1000)
        b.store("a", 300)
        b.store("a", 500)
        assert b.used_bytes == 500

    def test_clear(self):
        b = EngineBuffer(capacity_bytes=100)
        b.store("a", 50)
        b.clear()
        assert b.used_bytes == 0


class TestCapacity:
    def test_overflow_raises(self):
        b = EngineBuffer(capacity_bytes=100)
        b.store("a", 80)
        with pytest.raises(BufferOverflowError):
            b.store("b", 30)
        assert not b.contains("b")

    def test_entry_larger_than_buffer_rejected(self):
        b = EngineBuffer(capacity_bytes=100)
        with pytest.raises(ValueError):
            b.store("a", 101)

    def test_exact_fit_allowed(self):
        b = EngineBuffer(capacity_bytes=100)
        b.store("a", 100)
        assert b.free_bytes == 0

    def test_fits(self):
        b = EngineBuffer(capacity_bytes=100)
        b.store("a", 60)
        assert b.fits(40) and not b.fits(41)

    def test_non_positive_sizes_rejected(self):
        b = EngineBuffer(capacity_bytes=100)
        with pytest.raises(ValueError):
            b.store("a", 0)


class TestMakeBuffers:
    def test_creates_indexed_buffers(self):
        bufs = make_buffers(4, 1024)
        assert len(bufs) == 4
        assert [b.engine_index for b in bufs] == [0, 1, 2, 3]
        assert all(b.capacity_bytes == 1024 for b in bufs)

    def test_buffers_independent(self):
        bufs = make_buffers(2, 100)
        bufs[0].store("a", 50)
        assert not bufs[1].contains("a")


_keys = st.sampled_from(["a", "b", "c", ("w", 1, 0), ("w", 1, 1), 7])
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("store"), _keys, st.integers(-5, 130)),
        st.tuples(st.just("release"), _keys, st.just(0)),
        st.tuples(st.just("release_if_present"), _keys, st.just(0)),
        st.tuples(st.just("clear"), st.just(None), st.just(0)),
    ),
    max_size=60,
)


class TestRunningOccupancy:
    """The running ``used_bytes`` counter against a shadow dict."""

    @given(_ops, st.integers(1, 300))
    @settings(max_examples=300, deadline=None)
    def test_counter_tracks_entries(self, ops, probe):
        buf = EngineBuffer(capacity_bytes=128)
        shadow: dict = {}
        for op, key, size in ops:
            if op == "store":
                delta = size - shadow.get(key, 0)
                if size <= 0 or size > 128:
                    with pytest.raises(ValueError):
                        buf.store(key, size)
                elif delta > 128 - sum(shadow.values()):
                    with pytest.raises(BufferOverflowError):
                        buf.store(key, size)
                else:
                    buf.store(key, size)
                    shadow[key] = size
            elif op == "release":
                if key in shadow:
                    assert buf.release(key) == shadow.pop(key)
                else:
                    with pytest.raises(KeyError):
                        buf.release(key)
            elif op == "release_if_present":
                assert buf.release_if_present(key) == shadow.pop(key, 0)
            else:
                buf.clear()
                shadow.clear()
            used = sum(shadow.values())
            assert buf.used_bytes == used
            assert buf.free_bytes == 128 - used
            assert buf.fits(probe) == (probe <= 128 - used)
            assert dict(buf.entries) == shadow

    def test_prefilled_entries_are_counted(self):
        buf = EngineBuffer(capacity_bytes=100, _entries={"a": 30, "b": 20})
        assert buf.used_bytes == 50
        assert buf.fits(50) and not buf.fits(51)
