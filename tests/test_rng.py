"""The stream contract: addressing, equality of the two draw paths, isolation."""

import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from branchvi.rng import RngStream


def test_streams_that_share_seed_and_stream_differ():
    # The CLI splits with RngStream(s, 1).child(i) and trains with
    # RngStream(s, 1).child(t).child(j): one key, so only the path separates them.
    root = RngStream(7, 1)
    draws = {}
    for i in range(4):
        draws[(i,)] = root.child(i).normal(16)
        for j in range(3):
            draws[(i, j)] = root.child(i).child(j).normal(16)
    keys = list(draws)
    for a in range(len(keys)):
        for b in range(a + 1, len(keys)):
            assert not np.array_equal(draws[keys[a]], draws[keys[b]]), (keys[a], keys[b])
    assert not np.array_equal(root.child(5).normal(16), root.child(5).child(0).normal(16))
    assert not np.array_equal(root.child(5).choice(1000, 10),
                              root.child(5).child(0).choice(1000, 10))


def test_hot_path_equals_a_held_generator_bitwise():
    for s in (RngStream(3), RngStream(3, 2).child(4), RngStream(11, 1).child(0).child(2).child(9),
              RngStream(3).child(2 ** 64 - 2)):
        assert np.array_equal(s.normal((5, 3)), s.generator().standard_normal((5, 3)))
        for n, k in ((10, 10), (2000, 10), (20000, 500), (20000, 5)):
            assert np.array_equal(s.choice(n, k), s.generator().choice(n, size=k, replace=False))


def test_held_generator_is_unaffected_by_other_draws():
    s = RngStream(21, 3).child(1)
    want = s.generator().standard_normal(40)
    held = s.generator()
    got = [held.standard_normal(10)]
    for k in range(3):
        RngStream(21, 3).child(k).normal(100)
        s.normal(7)
        s.child(2).choice(50, 20)
        got.append(held.standard_normal(10))
    assert np.array_equal(np.concatenate(got), want)


def test_threads_drawing_interleaved_streams_get_the_serial_draws():
    streams = [RngStream(31, 1).child(t).child(j) for t in range(20) for j in range(3)]
    serial = [s.normal(64) for s in streams]
    mismatches = []

    def work(offset):
        for r in range(20):
            for k in range(len(streams)):
                k = (k * (offset + 1) + offset + r) % len(streams)
                if not np.array_equal(streams[k].normal(64), serial[k]):
                    mismatches.append((offset, k))

    threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]  # more than cores
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(th.is_alive() for th in threads)
    assert mismatches == []


def test_fresh_process_draws_the_same_bytes():
    script = ("import sys\nfrom branchvi.rng import RngStream\n"
              "s = RngStream(41, 2).child(3).child(1)\n"
              "sys.stdout.write(s.normal(8).tobytes().hex() + s.choice(100, 7).tobytes().hex())\n")
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True).stdout
    s = RngStream(41, 2).child(3).child(1)
    assert out == s.normal(8).tobytes().hex() + s.choice(100, 7).tobytes().hex()


@pytest.mark.parametrize("make", [
    lambda: RngStream(1).child(-1),
    lambda: RngStream(1).child(2 ** 64 - 1),
    lambda: RngStream(1).child(2 ** 64),
    lambda: RngStream(1).child(0).child(1).child(2).child(3),
], ids=["negative", "all-ones-word", "beyond-a-word", "fourth-level"])
def test_unaddressable_child_raises(make):
    with pytest.raises(ValueError):
        make()
