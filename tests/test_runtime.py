"""Tests for the real-file HVAC runtime (threads + directories)."""

import os

import pytest

from repro.runtime import RuntimeDeployment, RuntimeServer, interposed_open


@pytest.fixture
def pfs(tmp_path):
    """A fake 'PFS' directory with a small dataset."""
    root = tmp_path / "pfs"
    root.mkdir()
    for i in range(12):
        (root / f"sample-{i:03d}.bin").write_bytes(bytes([i % 256]) * (1000 + i))
    return str(root)


class TestRuntimeServer:
    def test_miss_then_hit(self, pfs, tmp_path):
        srv = RuntimeServer(0, pfs, str(tmp_path / "cache0"))
        try:
            data1 = srv.submit("sample-000.bin").result()
            data2 = srv.submit("sample-000.bin").result()
            assert data1 == data2 == b"\x00" * 1000
            assert srv.stats.misses == 1
            assert srv.stats.hits == 1
            assert srv.contains("sample-000.bin")
        finally:
            srv.shutdown()

    def test_cache_file_on_disk(self, pfs, tmp_path):
        cache = tmp_path / "cache0"
        srv = RuntimeServer(0, pfs, str(cache))
        try:
            srv.submit("sample-001.bin").result()
            assert len(list(cache.iterdir())) == 1
        finally:
            srv.shutdown()

    def test_missing_file_propagates_error(self, pfs, tmp_path):
        srv = RuntimeServer(0, pfs, str(tmp_path / "c"))
        try:
            with pytest.raises(FileNotFoundError):
                srv.submit("ghost.bin").result()
        finally:
            srv.shutdown()

    def test_lru_eviction_under_budget(self, pfs, tmp_path):
        srv = RuntimeServer(0, pfs, str(tmp_path / "c"), capacity_bytes=2500)
        try:
            for i in range(4):
                srv.submit(f"sample-{i:03d}.bin").result()
            assert srv.used_bytes <= 2500
            assert srv.stats.evictions > 0
            assert not srv.contains("sample-000.bin")  # oldest went first
        finally:
            srv.shutdown()

    def test_oversized_file_served_without_caching(self, pfs, tmp_path):
        srv = RuntimeServer(0, pfs, str(tmp_path / "c"), capacity_bytes=100)
        try:
            data = srv.submit("sample-000.bin").result()
            assert len(data) == 1000
            assert srv.cached_files == 0
        finally:
            srv.shutdown()

    def test_shutdown_purges(self, pfs, tmp_path):
        cache = tmp_path / "c"
        srv = RuntimeServer(0, pfs, str(cache))
        srv.submit("sample-000.bin").result()
        srv.shutdown()
        assert not cache.exists()
        with pytest.raises(RuntimeError):
            srv.submit("sample-001.bin")

    def test_nested_path_and_flat_lookalike_keep_their_own_bytes(self, tmp_path):
        pfs = tmp_path / "pfs"
        (pfs / "a").mkdir(parents=True)
        (pfs / "a" / "b").write_bytes(b"nested")
        (pfs / "a__b").write_bytes(b"flat")
        srv = RuntimeServer(0, str(pfs), str(tmp_path / "c"))
        try:
            assert srv.submit(os.path.join("a", "b")).result() == b"nested"
            assert srv.submit("a__b").result() == b"flat"
            assert srv.submit(os.path.join("a", "b")).result() == b"nested"
            assert srv.stats.hits == 1
        finally:
            srv.shutdown()

    def test_evicting_one_lookalike_keeps_the_other(self, tmp_path):
        pfs = tmp_path / "pfs"
        (pfs / "a").mkdir(parents=True)
        (pfs / "a" / "b").write_bytes(b"n" * 600)
        (pfs / "a__b").write_bytes(b"f" * 600)
        (pfs / "c").write_bytes(b"c" * 600)
        srv = RuntimeServer(0, str(pfs), str(tmp_path / "c"), capacity_bytes=1200)
        try:
            srv.submit(os.path.join("a", "b")).result()
            srv.submit("a__b").result()
            srv.submit("c").result()  # evicts a/b, the coldest
            assert not srv.contains(os.path.join("a", "b"))
            assert srv.submit("a__b").result() == b"f" * 600
            assert srv.stats.hits == 1
        finally:
            srv.shutdown()


class TestRuntimeDeployment:
    def test_reads_match_source(self, pfs):
        with RuntimeDeployment(pfs, n_servers=3) as dep:
            for i in range(12):
                path = os.path.join(pfs, f"sample-{i:03d}.bin")
                assert dep.client.read_file(path) == open(path, "rb").read()

    def test_files_spread_across_servers(self, pfs):
        with RuntimeDeployment(pfs, n_servers=3) as dep:
            for i in range(12):
                dep.client.read_file(os.path.join(pfs, f"sample-{i:03d}.bin"))
            populated = sum(1 for s in dep.servers if s.cached_files > 0)
            assert populated >= 2

    def test_second_epoch_all_hits(self, pfs):
        with RuntimeDeployment(pfs, n_servers=2) as dep:
            paths = [os.path.join(pfs, f"sample-{i:03d}.bin") for i in range(12)]
            for p in paths:
                dep.client.read_file(p)
            assert dep.hit_rate == 0.0
            for p in paths:
                dep.client.read_file(p)
            assert dep.hit_rate == pytest.approx(0.5)
            assert dep.total_hits == 12

    def test_outside_dataset_rejected(self, pfs, tmp_path):
        other = tmp_path / "other.bin"
        other.write_bytes(b"x")
        with RuntimeDeployment(pfs, n_servers=1) as dep:
            with pytest.raises(ValueError):
                dep.client.read_file(str(other))

    def test_missing_pfs_dir(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            RuntimeDeployment(str(tmp_path / "nope"))

    def test_placement_shared_with_simulator(self, pfs):
        """One hash function, two execution modes."""
        from repro.core.hashing import ModuloPlacement

        with RuntimeDeployment(pfs, n_servers=4) as dep:
            assert isinstance(dep.placement, ModuloPlacement)
            rel = "sample-000.bin"
            home = dep.placement.home(rel)
            dep.client.read_file(os.path.join(pfs, rel))
            assert dep.servers[home].cached_files == 1


class TestInterposedOpen:
    def test_transparent_redirection(self, pfs):
        """Unmodified application code; dataset reads go through HVAC."""

        def application(paths):  # knows nothing about HVAC
            return [open(p, "rb").read() for p in paths]

        paths = [os.path.join(pfs, f"sample-{i:03d}.bin") for i in range(4)]
        expected = [open(p, "rb").read() for p in paths]
        with RuntimeDeployment(pfs, n_servers=2) as dep:
            with interposed_open(dep):
                got = application(paths)
            assert got == expected
            assert dep.total_misses == 4

    def test_non_dataset_files_untouched(self, pfs, tmp_path):
        side = tmp_path / "config.txt"
        side.write_text("hello")
        with RuntimeDeployment(pfs, n_servers=1) as dep:
            with interposed_open(dep):
                assert open(str(side)).read() == "hello"
            assert dep.total_misses == 0

    def test_text_mode_reads(self, pfs, tmp_path):
        text_file = os.path.join(pfs, "labels.txt")
        with open(text_file, "w") as fh:
            fh.write("cat\ndog\n")
        with RuntimeDeployment(pfs, n_servers=1) as dep:
            with interposed_open(dep):
                assert open(text_file).read() == "cat\ndog\n"

    def test_write_mode_passthrough(self, pfs):
        target = os.path.join(pfs, "new-file.bin")
        with RuntimeDeployment(pfs, n_servers=1) as dep:
            with interposed_open(dep):
                with open(target, "wb") as fh:
                    fh.write(b"written")
        assert open(target, "rb").read() == b"written"

    def test_open_restored_after_exit(self, pfs):
        import builtins

        original = builtins.open
        with RuntimeDeployment(pfs, n_servers=1) as dep:
            with interposed_open(dep):
                assert builtins.open is not original
            assert builtins.open is original

    def test_nested_interposition_rejected(self, pfs):
        with RuntimeDeployment(pfs, n_servers=1) as dep:
            with interposed_open(dep):
                with pytest.raises(RuntimeError):
                    with interposed_open(dep):
                        pass
