"""One route from the supervisor's ``serve_config`` to every replica.

Thread mode hands each replica ``serve_config`` with its own host and
port; process mode spells it as ``repro-s3 serve`` flags
(:func:`~repro.cluster.supervisor.serve_argv`) and refuses a setting the
command has no flag for.  The process-mode tests check the derived
command line directly, without spawning a child.
"""

import asyncio
from dataclasses import replace

import pytest

from repro.cli import build_parser, serve_config_from_args
from repro.cluster import (
    ClusterManifest,
    ClusterRouter,
    ClusterSupervisor,
    RouterConfig,
    plan_cluster,
)
from repro.cluster.supervisor import NO_SERVE_FLAG, serve_argv, serve_flag
from repro.errors import ConfigurationError
from repro.index.options import QueryOptions
from repro.serve import ServeClient, ServeConfig

from .test_plan import make_source

#: Every setting ``repro-s3 serve`` can express, moved off its default.
EVERY_FLAG = ServeConfig(
    host="127.0.0.2",
    port=0,
    alpha=0.7,
    max_batch=16,
    max_wait_ms=1.5,
    queue_limit=512,
    cache="off",
    durability="async",
    maintenance=False,
    options=QueryOptions(alpha=0.7, prefilter="off"),
)


@pytest.fixture(scope="module")
def cluster_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("supervisor")
    make_source(root / "src", rows=4 * 100)
    plan_cluster(root / "src", root / "c", num_shards=2, replicas=2)
    return root / "c"


def _serve_parser():
    (sub,) = build_parser()._subparsers._group_actions
    return sub.choices["serve"]


def _parse_serve(argv):
    return serve_config_from_args(
        build_parser().parse_args(["serve", "index-dir", *argv])
    )


class TestProcessArgv:
    def test_every_flag_round_trips(self):
        defaults = ServeConfig().settings()
        changed = {
            name for name, value in EVERY_FLAG.settings().items()
            if value != defaults[name]
        }
        assert changed == set(defaults) - set(NO_SERVE_FLAG)
        assert _parse_serve(serve_argv(EVERY_FLAG)) == EVERY_FLAG

    def test_defaults_need_no_flags(self):
        assert serve_argv(ServeConfig()) == []
        assert _parse_serve([]) == ServeConfig()

    @pytest.mark.parametrize("options", [
        QueryOptions(depth=6),
        QueryOptions(prefetch="off"),
    ])
    def test_inexpressible_setting_refused(self, cluster_dir, options):
        config = ServeConfig(port=0, options=options)
        with pytest.raises(ConfigurationError, match="no flag"):
            serve_argv(config)
        # Refused at construction: no child is ever spawned with it.
        with pytest.raises(ConfigurationError, match="no flag"):
            ClusterSupervisor(cluster_dir, mode="process", serve_config=config)

    def test_every_setting_has_a_flag_or_is_refused(self):
        option_strings = set(_serve_parser()._option_string_actions)
        for name in ServeConfig().settings():
            reachable = serve_flag(name) in option_strings
            assert reachable != (name in NO_SERVE_FLAG), name


class TestThreadReplicas:
    def test_replicas_run_the_serve_config(self, cluster_dir):
        config = replace(EVERY_FLAG, host="127.0.0.1")
        with ClusterSupervisor(
            cluster_dir, mode="thread", serve_config=config, heal=False
        ) as supervisor:
            for handle in supervisor.replicas:
                with ServeClient(port=handle.port) as client:
                    reported = client.stats()["config"]
                expected = replace(config, port=reported["port"])
                assert reported == expected.settings(), handle.name

    def test_router_refuses_shards_at_another_alpha(self, cluster_dir):
        with ClusterSupervisor(
            cluster_dir, mode="thread",
            serve_config=ServeConfig(port=0, alpha=0.7), heal=False,
        ) as supervisor:
            router = ClusterRouter(
                ClusterManifest.load(cluster_dir),
                supervisor.endpoints(),
                RouterConfig(port=0, alpha=0.8),
            )
            with pytest.raises(
                ConfigurationError, match=r"shard 0 .*0\.7.*0\.8"
            ):
                asyncio.run(router.start())

    def test_router_refuses_shards_at_another_depth(self, cluster_dir):
        manifest = ClusterManifest.load(cluster_dir)
        other = manifest.depth - 1
        with ClusterSupervisor(
            cluster_dir, mode="thread",
            serve_config=ServeConfig(
                port=0, options=QueryOptions(depth=other)
            ),
            heal=False,
        ) as supervisor:
            with ServeClient(port=supervisor.replicas[0].port) as client:
                assert client.health()["depth"] == other
            router = ClusterRouter(
                manifest, supervisor.endpoints(), RouterConfig(port=0),
            )
            with pytest.raises(
                ConfigurationError,
                match=rf"shard 0 .*depth={other}.*depth={manifest.depth}",
            ):
                asyncio.run(router.start())
