"""Launch and heal one detection server per shard replica.

The supervisor owns the lifecycle of every replica in a planned cluster
directory: it starts one :class:`~repro.serve.server.DetectionServer`
per replica, waits for readiness (the v3 ``health`` op distinguishes a
listening-but-loading server from a ready one), and — in its monitor
thread — respawns any replica whose process dies, **on the same port**,
so the router's endpoint table stays valid across a SIGKILL heal.

Two modes:

* ``process`` (production, and the smoke test): each replica is a
  ``python -m repro.cli serve`` child with stdout/stderr captured to a
  log next to its directory.  The bound port is discovered through
  ``--port-file`` on first launch and pinned on respawn (the asyncio
  listener sets ``SO_REUSEADDR``, so rebinding the port straight after
  a kill succeeds).
* ``thread`` (fast tests): each replica is a
  :class:`~repro.serve.runner.ServerThread` in-process.  Kills are
  graceful stops rather than SIGKILL, which still exercises the
  router's failover path: in-flight requests fail with
  ``shutting_down`` / closed connections, both failover triggers.

Either way a replica runs the supervisor's ``serve_config`` with its own
host and port.  A thread gets that config as is; a child gets it as the
``serve`` flags of :func:`serve_argv`, which refuses a setting the
command has no flag for rather than dropping it.

A killed replica's healed copy replays only its own WAL — rows
ingested through *other* replicas of the shard while it was down are
not recovered (replicas do not sync with each other).  The documented
remedy is re-planning from the source index; the acceptance smoke
keeps its assertions on sealed data plus read-your-ingest via the
surviving replica.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

from ..errors import ConfigurationError, ReproError
from ..serve.client import ServeClient, ServiceUnavailable
from ..serve.runner import ServerThread
from ..serve.server import ServeConfig
from .plan import ClusterManifest

_PORT_FILE_TIMEOUT = 30.0
_READY_TIMEOUT = 60.0

#: Settings ``repro-s3 serve`` has no flag for: :func:`serve_argv`
#: refuses a config that changes one.
NO_SERVE_FLAG = ("depth", "executor", "prefetch")


def serve_flag(name: str) -> str:
    """The ``repro-s3 serve`` flag of :meth:`ServeConfig.settings` *name*."""
    if name == "maintenance":
        return "--no-maintenance"  # the one boolean, on by default
    return "--" + name.replace("_", "-")


def serve_argv(config: ServeConfig) -> list[str]:
    """The ``repro-s3 serve`` flags that rebuild *config*.

    Only settings off their defaults are spelled out.  Raises
    :class:`~repro.errors.ConfigurationError` for a changed setting in
    :data:`NO_SERVE_FLAG`.
    """
    defaults = ServeConfig().settings()
    argv: list[str] = []
    for name, value in config.settings().items():
        if value == defaults[name]:
            continue
        if name in NO_SERVE_FLAG:
            raise ConfigurationError(
                f"serve_config sets {name}={value!r}, which `repro-s3 "
                "serve` has no flag for; a process-mode replica cannot "
                "run it (thread mode can)"
            )
        flag = serve_flag(name)
        argv += [flag] if isinstance(value, bool) else [flag, str(value)]
    return argv


@dataclass
class ReplicaHandle:
    """One running (or healing) replica server."""

    shard: int
    replica: int
    directory: Path
    host: str = "127.0.0.1"
    port: int = 0  # pinned after first launch
    process: Optional[subprocess.Popen] = None
    thread: Optional[ServerThread] = None
    restarts: int = 0
    log_path: Optional[Path] = None

    @property
    def name(self) -> str:
        return f"shard-{self.shard:03d}/replica-{self.replica:02d}"

    @property
    def alive(self) -> bool:
        if self.process is not None:
            return self.process.poll() is None
        if self.thread is not None:
            return self.thread._thread is not None \
                and self.thread._thread.is_alive()
        return False


class ClusterSupervisor:
    """Start, watch, heal and stop every replica of a planned cluster."""

    def __init__(
        self,
        cluster_dir,
        mode: str = "process",
        serve_config: Optional[ServeConfig] = None,
        heal: bool = True,
        poll_interval: float = 0.25,
        extra_serve_args: Optional[list[str]] = None,
    ):
        if mode not in ("process", "thread"):
            raise ConfigurationError(
                f"mode must be 'process' or 'thread', got {mode!r}"
            )
        self.cluster_dir = Path(cluster_dir)
        self.manifest = ClusterManifest.load(self.cluster_dir)
        self.mode = mode
        self.serve_config = serve_config or ServeConfig(port=0)
        if mode == "process":
            serve_argv(self.serve_config)  # refuse before spawning
        self.heal = heal
        self.poll_interval = poll_interval
        #: Appended last to each ``repro.cli serve`` child's command line
        #: in process mode; it may only repeat ``serve_config``'s values.
        self.extra_serve_args = list(extra_serve_args or [])
        self.replicas: list[ReplicaHandle] = [
            ReplicaHandle(
                shard=spec.shard,
                replica=r,
                directory=self.cluster_dir / rel,
            )
            for spec in self.manifest.shards
            for r, rel in enumerate(spec.replicas)
        ]
        self._monitor: Optional[threading.Thread] = None
        self._stopping = threading.Event()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def __enter__(self) -> "ClusterSupervisor":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    def start(self) -> "ClusterSupervisor":
        for handle in self.replicas:
            self._launch(handle)
        self.wait_ready()
        if self.heal:
            self._monitor = threading.Thread(
                target=self._monitor_loop,
                name="cluster-monitor",
                daemon=True,
            )
            self._monitor.start()
        return self

    def stop(self) -> None:
        self._stopping.set()
        if self._monitor is not None:
            self._monitor.join(timeout=10.0)
            self._monitor = None
        for handle in self.replicas:
            self._terminate(handle)

    # ------------------------------------------------------------------
    def endpoints(self) -> dict[int, list[tuple[str, int]]]:
        """``shard -> [(host, port), ...]`` for the router."""
        table: dict[int, list[tuple[str, int]]] = {}
        for handle in self.replicas:
            table.setdefault(handle.shard, []).append(
                (handle.host, handle.port)
            )
        return table

    def status(self) -> list[dict]:
        return [
            {
                "replica": h.name,
                "host": h.host,
                "port": h.port,
                "alive": h.alive,
                "restarts": h.restarts,
            }
            for h in self.replicas
        ]

    def kill_replica(self, shard: int, replica: int = 0) -> ReplicaHandle:
        """Abruptly kill one replica (SIGKILL in process mode).

        The monitor heals it afterwards (when ``heal`` is on); callers
        that want it to stay down should construct with ``heal=False``.
        """
        handle = self._handle(shard, replica)
        with self._lock:
            if handle.process is not None:
                handle.process.send_signal(signal.SIGKILL)
                handle.process.wait(timeout=10.0)
            elif handle.thread is not None:
                handle.thread.stop()
                handle.thread = None
        return handle

    def wait_ready(self, timeout: float = _READY_TIMEOUT) -> None:
        """Block until every replica answers ``health`` with ready."""
        deadline = time.monotonic() + timeout
        for handle in self.replicas:
            self._wait_replica_ready(handle, deadline)

    # ------------------------------------------------------------------
    def _handle(self, shard: int, replica: int) -> ReplicaHandle:
        for handle in self.replicas:
            if handle.shard == shard and handle.replica == replica:
                return handle
        raise ConfigurationError(
            f"no such replica: shard {shard} replica {replica}"
        )

    def _launch(self, handle: ReplicaHandle) -> None:
        if self.mode == "process":
            self._launch_process(handle)
        else:
            self._launch_thread(handle)

    def _replica_config(self, handle: ReplicaHandle) -> ServeConfig:
        # Port 0 on first launch, pinned after.
        return replace(self.serve_config, host=handle.host, port=handle.port)

    def _launch_thread(self, handle: ReplicaHandle) -> None:
        from ..index.segmented.lsm import SegmentedS3Index

        config = self._replica_config(handle)
        index = SegmentedS3Index.open(
            handle.directory, auto_compact=False, mmap=True,
            durability=config.durability,
        )
        thread = ServerThread(index, config)
        thread.start()
        handle.thread = thread
        handle.port = thread.port

    def _launch_process(self, handle: ReplicaHandle) -> None:
        import repro

        port_file = handle.directory.parent / (
            f"replica-{handle.replica:02d}.port"
        )
        port_file.unlink(missing_ok=True)
        handle.log_path = handle.directory.parent / (
            f"replica-{handle.replica:02d}.log"
        )
        env = dict(os.environ)
        src_root = str(Path(repro.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = src_root + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        cmd = [
            sys.executable, "-m", "repro.cli", "serve",
            str(handle.directory),
            "--port-file", str(port_file),
            *serve_argv(self._replica_config(handle)),
            *self.extra_serve_args,
        ]
        with open(handle.log_path, "ab") as log:
            handle.process = subprocess.Popen(
                cmd, stdout=log, stderr=log, env=env,
                start_new_session=True,
            )
        if handle.port == 0:
            handle.port = self._read_port_file(handle, port_file)

    def _read_port_file(
        self, handle: ReplicaHandle, port_file: Path
    ) -> int:
        deadline = time.monotonic() + _PORT_FILE_TIMEOUT
        while time.monotonic() < deadline:
            if handle.process is not None \
                    and handle.process.poll() is not None:
                raise ReproError(
                    f"{handle.name} exited with "
                    f"{handle.process.returncode} before binding; see "
                    f"{handle.log_path}"
                )
            try:
                text = port_file.read_text().strip()
                if text:
                    return int(text)
            except (OSError, ValueError):
                pass
            time.sleep(0.05)
        raise ReproError(
            f"{handle.name} did not write its port file within "
            f"{_PORT_FILE_TIMEOUT:.0f}s; see {handle.log_path}"
        )

    def _wait_replica_ready(
        self, handle: ReplicaHandle, deadline: float
    ) -> None:
        client = ServeClient(
            handle.host, handle.port, timeout=5.0, retries=0
        )
        try:
            while time.monotonic() < deadline:
                try:
                    if client.health().get("ready"):
                        return
                except (ServiceUnavailable, ReproError):
                    pass
                time.sleep(0.05)
        finally:
            client.close()
        raise ReproError(
            f"{handle.name} not ready within the timeout"
            + (f"; see {handle.log_path}" if handle.log_path else "")
        )

    def _terminate(self, handle: ReplicaHandle) -> None:
        with self._lock:
            if handle.process is not None:
                if handle.process.poll() is None:
                    handle.process.terminate()
                    try:
                        handle.process.wait(timeout=10.0)
                    except subprocess.TimeoutExpired:
                        handle.process.kill()
                        handle.process.wait(timeout=10.0)
                handle.process = None
            if handle.thread is not None:
                handle.thread.stop()
                handle.thread = None

    def _monitor_loop(self) -> None:
        while not self._stopping.wait(self.poll_interval):
            for handle in self.replicas:
                if self._stopping.is_set():
                    return
                if handle.alive:
                    continue
                with self._lock:
                    if self._stopping.is_set() or handle.alive:
                        continue
                    handle.restarts += 1
                    try:
                        # Same port: the endpoint table stays valid.
                        self._launch(handle)
                    except ReproError:
                        continue  # retried on the next poll tick
                try:
                    self._wait_replica_ready(
                        handle, time.monotonic() + _READY_TIMEOUT
                    )
                except ReproError:
                    pass  # router keeps failing over meanwhile
