"""What a workload is, and the seeded input helpers workloads share.

A workload separates three things the runner times differently:

* :meth:`Workload.generate` turns ``(seed, sizes)`` into plain input data
  (arrays, clips).  The program under test only ever sees these; the
  same seed gives byte-identical inputs (see :func:`digest`).
* :meth:`Workload.build` turns inputs into the running system (index,
  server, cluster) and warms it.  ``generate`` + ``build`` is one
  **set-up**, the thing ``setup_s`` measures.
* :meth:`Workload.clients` yields the closed-loop operations of the
  timed window; :meth:`Workload.verify` checks what they returned;
  :meth:`Workload.trace` replays the operation with spans around each
  layer call and returns the per-layer metrics.
"""

from __future__ import annotations

import dataclasses
import hashlib
import shutil
import tempfile
import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

import numpy as np

from harness import ClientOp
from spans import Recorder

PERF_DIR = Path(__file__).resolve().parent.parent
OUT_DIR = PERF_DIR / "out"

# Independent random streams of one seed; a workload draws each kind of
# input from its own stream so resizing one never perturbs another.
STREAM_CORPUS = 1
STREAM_FILLER = 2
STREAM_QUERIES = 3
STREAM_CLIPS = 4
STREAM_OPS = 5


def stream(seed: int, which: int, lane: int = 0) -> np.random.Generator:
    """The generator of input stream *which* (and client *lane*)."""
    return np.random.default_rng([lane, which, seed])


#: The referenced programmes are the benchmark's dataset, the same for
#: every seed: how textured a procedural programme happens to be moves
#: the work per clip by +-12 % from one random set of eight to the next,
#: which would bury the regressions the bounds exist to catch.  What the
#: program is *asked* — which clips are cut and how they are distorted,
#: the ballast rows, the queries, the order of operations — comes from
#: ``--seed``.
ARCHIVE_SEED = 2005


def reference_corpus(sizes: dict):
    """The referenced programmes with their extracted fingerprints."""
    from repro.corpus import build_reference_corpus

    return build_reference_corpus(
        sizes["programmes"], sizes["frames_per_programme"],
        seed=stream(ARCHIVE_SEED, STREAM_CORPUS),
    )


def digest(inputs: Any) -> str:
    """A content hash of generated inputs (arrays, clips, scalars)."""
    sha = hashlib.sha256()

    def walk(obj: Any) -> None:
        if isinstance(obj, np.ndarray):
            sha.update(str((obj.dtype, obj.shape)).encode())
            sha.update(np.ascontiguousarray(obj).tobytes())
        elif isinstance(obj, dict):
            for key in sorted(obj):
                sha.update(str(key).encode())
                walk(obj[key])
        elif isinstance(obj, (list, tuple)):
            for item in obj:
                walk(item)
        elif dataclasses.is_dataclass(obj):  # FingerprintStore, VideoClip, ...
            walk(vars(obj))
        else:
            sha.update(repr(obj).encode())

    walk(inputs)
    return sha.hexdigest()


@contextmanager
def scratch_dir(prefix: str) -> Iterator[Path]:
    """A temp directory under ``perf/out`` — inside the checkout, since
    the benchmark may write nowhere else — removed on exit."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=f"tmp-{prefix}-", dir=OUT_DIR))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


@contextmanager
def timed(sink: dict, key: str) -> Iterator[None]:
    """Add the block's wall seconds to ``sink[key]``."""
    start = time.perf_counter()
    try:
        yield
    finally:
        sink[key] = sink.get(key, 0.0) + time.perf_counter() - start


@dataclass
class Check:
    """Outcome of a workload's answer check."""

    quality: float
    ok: bool
    detail: str


@dataclass
class State:
    """A built system: inputs, live resources, and what set-up measured.

    ``resources`` owns every server, process, pool and temp directory;
    closing it tears all of them down, in reverse order, also when
    set-up failed half-way.
    """

    seed: int
    inputs: dict
    sizes: dict
    resources: ExitStack
    #: per-layer metrics measured while setting up (build times, ...)
    layer: dict = field(default_factory=dict)
    #: whatever the workload's ops and checks need
    live: dict = field(default_factory=dict)


class Workload:
    """Base class; one subclass per module in this package."""

    name = ""
    #: closed-loop client threads/connections (must not exceed nproc)
    num_clients = 1
    #: set-ups per run; ``setup_s`` is their median
    setup_repeats = 3
    #: what one operation is, for the human-readable report
    op = ""

    def sizes(self, smoke: bool) -> dict:
        raise NotImplementedError

    def generate(self, seed: int, sizes: dict, layer: dict) -> dict:
        raise NotImplementedError

    def build(self, state: State) -> None:
        """Construct and warm the system into ``state.live``, registering
        every resource on ``state.resources``."""
        raise NotImplementedError

    def clients(self, state: State) -> list[ClientOp]:
        raise NotImplementedError

    def verify(self, state: State) -> Check:
        raise NotImplementedError

    def trace(self, state: State, rec: Recorder, seconds: float) -> dict:
        """Run the traced window; return per-layer metric values."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    def setup(self, seed: int, sizes: dict) -> State:
        """One full set-up: generate inputs, build, warm."""
        layer: dict = {}
        inputs = self.generate(seed, sizes, layer)
        with ExitStack() as stack:
            state = State(seed, inputs, sizes, stack, layer)
            self.build(state)
            state.resources = stack.pop_all()
        return state

    def teardown(self, state: State) -> None:
        state.resources.close()
