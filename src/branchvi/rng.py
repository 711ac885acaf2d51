"""Reproducible, splittable random streams, addressed by counter.

A stream is identified by ``(seed, stream)`` plus a split path of at most
three indices. It is a position in the counter-based Philox generator
(Salmon et al. 2011): a 128-bit key and a 256-bit counter of four 64-bit
words.

- The key is ``SeedSequence(entropy=seed, spawn_key=(stream,))``'s first two
  64-bit words, derived once when the root stream is built; ``child`` passes
  it on.
- Counter words 1-3 hold the path, one word per level, each holding
  ``index + 1`` (0 means no level). Word 0, the low word, counts the blocks
  the stream has drawn, from 0.

Streams cannot collide. Distinct ``(seed, stream)`` give distinct keys,
because ``SeedSequence`` hashes its entropy and spawn key into the state.
Distinct paths of depth <= 3 give distinct values of words 1-3, because a
level's word is never 0 and the first 0 word ends the path. A leaf draws
fewer than 2**64 blocks, so its low word never carries into the path words.

``normal`` and ``choice`` are the hot path: they re-position one
thread-local Philox/Generator pair at the stream's (key, counter) and
consume the draw before returning, so no generator is built per draw and no
generator object leaves the call. ``generator`` builds a generator of its
own at the same position, for callers that keep one; its draws equal the hot
path's bit for bit. Identical identifiers give identical draws in every
process and thread.
"""

from __future__ import annotations

import threading

import numpy as np

MAX_DEPTH = 3
_EMPTY_BUFFER = np.zeros(4, dtype=np.uint64)
_local = threading.local()


class RngStream:
    """One position in Philox: (key of (seed, stream), counter of the path)."""

    __slots__ = ("path", "_key")

    def __init__(self, seed: int, stream: int = 0):
        self.path = ()
        self._key = tuple(int(k) for k in np.random.SeedSequence(
            entropy=int(seed), spawn_key=(int(stream),)).generate_state(2, np.uint64))

    def child(self, index: int) -> "RngStream":
        """Derived stream one level down; distinct indices never collide."""
        index = int(index)
        if not 0 <= index < 2 ** 64 - 1:
            raise ValueError(f"stream index must be in [0, 2**64 - 1), got {index}")
        if len(self.path) >= MAX_DEPTH:
            raise ValueError(f"stream paths hold at most {MAX_DEPTH} levels")
        out = object.__new__(RngStream)
        out.path, out._key = self.path + (index,), self._key
        return out

    def _counter(self) -> list:
        words = [0, 0, 0, 0]
        for level, index in enumerate(self.path, start=1):
            words[level] = index + 1
        return words

    def generator(self) -> np.random.Generator:
        """A generator of the caller's own, at this stream's origin."""
        return np.random.Generator(np.random.Philox(
            key=np.array(self._key, dtype=np.uint64),
            counter=np.array(self._counter(), dtype=np.uint64)))

    def _scratch_at_origin(self) -> np.random.Generator:
        """This thread's one generator, set to this stream's origin. It is
        built on the thread's first draw; every draw sets its whole state
        first, so no draw sees what another left."""
        pair = getattr(_local, "pair", None)
        if pair is None:
            bitgen = np.random.Philox()
            pair = _local.pair = (bitgen, np.random.Generator(bitgen))
        bitgen, gen = pair
        bitgen.state = {"bit_generator": "Philox",
                        "state": {"counter": self._counter(), "key": self._key},
                        "buffer": _EMPTY_BUFFER, "buffer_pos": 4, "has_uint32": 0,
                        "uinteger": 0}
        return gen

    def normal(self, shape=()) -> np.ndarray:
        """Standard-normal draw; consumes this stream from its origin."""
        return self._scratch_at_origin().standard_normal(shape)

    def choice(self, n: int, size: int) -> np.ndarray:
        """``size`` of ``range(n)`` without replacement, in draw order;
        consumes this stream from its origin."""
        return self._scratch_at_origin().choice(n, size=size, replace=False)
