"""Unit tests for the virtual POSIX layer."""

import pytest

from repro.cluster import TESTING
from repro.posix import MountTable, Namespace, PosixError, ProcessView
from repro.simcore import Environment
from repro.storage import GPFS


def make_stack(n_nodes=2):
    env = Environment()
    ns = Namespace()
    mounts = MountTable()
    pfs = GPFS(env, TESTING.pfs, n_nodes, TESTING.network.nic_bandwidth)
    mounts.mount("/gpfs", pfs)
    return env, ns, mounts, pfs


class TestNamespace:
    def test_add_and_size(self):
        ns = Namespace()
        ns.add_file("/gpfs/a", 100)
        assert ns.size_of("/gpfs/a") == 100
        assert ns.exists("/gpfs/a")
        assert len(ns) == 1

    def test_missing_raises(self):
        ns = Namespace()
        with pytest.raises(PosixError):
            ns.size_of("/nope")

    def test_remove(self):
        ns = Namespace()
        ns.add_file("/a", 1)
        ns.remove_file("/a")
        assert not ns.exists("/a")
        with pytest.raises(PosixError):
            ns.remove_file("/a")

    def test_bulk_add(self):
        ns = Namespace()
        ns.add_files(["/a", "/b"], [1, 2])
        assert ns.size_of("/b") == 2

    def test_negative_size_rejected(self):
        ns = Namespace()
        with pytest.raises(ValueError):
            ns.add_file("/a", -1)


class TestMountTable:
    def test_longest_prefix_wins(self):
        env, ns, mounts, pfs = make_stack()
        pfs2 = GPFS(env, TESTING.pfs, 2, 1e9)
        mounts.mount("/gpfs/special", pfs2)
        assert mounts.resolve("/gpfs/special/x") is pfs2
        assert mounts.resolve("/gpfs/other") is pfs

    def test_no_false_prefix_match(self):
        env, ns, mounts, pfs = make_stack()
        with pytest.raises(PosixError):
            mounts.resolve("/gpfsX/file")  # /gpfs must not match /gpfsX

    def test_unmount(self):
        env, ns, mounts, pfs = make_stack()
        mounts.unmount("/gpfs")
        with pytest.raises(PosixError):
            mounts.resolve("/gpfs/x")
        with pytest.raises(ValueError):
            mounts.unmount("/gpfs")

    def test_duplicate_mount_rejected(self):
        env, ns, mounts, pfs = make_stack()
        with pytest.raises(ValueError):
            mounts.mount("/gpfs", pfs)

    def test_relative_prefix_rejected(self):
        mounts = MountTable()
        with pytest.raises(ValueError):
            mounts.mount("relative", None)

    def test_root_mount_catches_all(self):
        env, ns, mounts, pfs = make_stack()
        root_fs = GPFS(env, TESTING.pfs, 2, 1e9)
        mounts.mount("/", root_fs)
        assert mounts.resolve("/anything/else") is root_fs


class TestProcessView:
    def test_open_read_close(self):
        env, ns, mounts, pfs = make_stack()
        ns.add_file("/gpfs/data/f", 500)
        view = ProcessView(env, ns, mounts, node_id=0)
        got = []

        def proc():
            fd = yield from view.open("/gpfs/data/f")
            assert fd >= 3
            n = yield from view.read(fd)
            yield from view.close(fd)
            got.append(n)

        env.run(env.process(proc()))
        assert got == [500]
        assert view.open_fds == 0

    def test_read_file_transaction(self):
        env, ns, mounts, pfs = make_stack()
        ns.add_file("/gpfs/f", 123)
        view = ProcessView(env, ns, mounts, node_id=1)

        def proc():
            n = yield from view.read_file("/gpfs/f")
            return n

        assert env.run(env.process(proc())) == 123

    def test_open_missing_file(self):
        env, ns, mounts, pfs = make_stack()
        view = ProcessView(env, ns, mounts, node_id=0)

        def proc():
            yield from view.open("/gpfs/ghost")

        with pytest.raises(PosixError):
            env.run(env.process(proc()))

    def test_bad_fd(self):
        env, ns, mounts, pfs = make_stack()
        view = ProcessView(env, ns, mounts, node_id=0)

        def proc():
            yield from view.read(42)

        with pytest.raises(PosixError):
            env.run(env.process(proc()))

    def test_double_close_is_ebadf(self):
        env, ns, mounts, pfs = make_stack()
        ns.add_file("/gpfs/f", 10)
        view = ProcessView(env, ns, mounts, node_id=0)

        def proc():
            fd = yield from view.open("/gpfs/f")
            yield from view.close(fd)
            yield from view.close(fd)

        with pytest.raises(PosixError):
            env.run(env.process(proc()))

    def test_stat(self):
        env, ns, mounts, pfs = make_stack()
        ns.add_file("/gpfs/f", 77)
        view = ProcessView(env, ns, mounts, node_id=0)
        assert view.stat("/gpfs/f") == 77

    def test_fds_are_unique(self):
        env, ns, mounts, pfs = make_stack()
        ns.add_file("/gpfs/a", 1)
        ns.add_file("/gpfs/b", 1)
        view = ProcessView(env, ns, mounts, node_id=0)

        def proc():
            fd1 = yield from view.open("/gpfs/a")
            fd2 = yield from view.open("/gpfs/b")
            return fd1, fd2

        fd1, fd2 = env.run(env.process(proc()))
        assert fd1 != fd2

