"""Command-line interface.

``python -m repro <command>`` exposes the harness from the shell:

- ``run``       — one fixed-load run of a benchmark application
- ``msb``       — maximum-sustainable-bandwidth search
- ``sweep``     — a bandwidth-vs-drop curve
- ``memcached`` — load a memcached server at a fixed request rate
- ``table1``    — print the platform configurations
- ``apps``      — list the registered applications
- ``graph``     — emit a node's wiring graph as Graphviz DOT
- ``checkpoint``— save/restore/info on warm-up checkpoints
- ``fabric``    — multi-node switch fabrics: run/sweep/trace/dot
- ``profile``   — cProfile one fixed-load run and print the hotspots

Every simulation routes through the parallel sweep executor:
``--jobs N`` fans a sweep's points out across N worker processes and
``--cache-dir DIR`` replays unchanged points from an on-disk result
cache (see docs/parallel_sweeps.md).  Results are bit-identical
regardless of ``--jobs`` and cache state.  ``--warmup-cache DIR``
additionally shares warm-up checkpoints between the points of a sweep
(see docs/checkpointing.md): every point of a single-configuration
load sweep restores the same post-warm-up snapshot instead of
re-simulating the warm-up.

Diagnostics (see docs/tracing_and_invariants.md): every run asserts the
registered conservation invariants at completion; ``--check-invariants
strict`` re-checks after every simulated event and ``--trace FILE``
exports a structured JSONL event trace of a single run.

Examples::

    python -m repro run testpmd --size 256 --gbps 20
    python -m repro msb touchfwd --size 1518 --max-gbps 20 --platform altra
    python -m repro sweep testpmd --size 64 --rates 5,10,15,20 --jobs 4
    python -m repro sweep testpmd --size 64 --rates 5,10,15,20 \\
        --jobs 4 --cache-dir ~/.cache/repro-sweeps
    python -m repro memcached --kernel --rps 200000
    python -m repro sweep testpmd --size 64 --rates 5,10,15,20 \\
        --warmup-cache /tmp/warm
    python -m repro checkpoint save testpmd --size 256 -o warm.ckpt
    python -m repro checkpoint info warm.ckpt
    python -m repro checkpoint restore warm.ckpt
    python -m repro fabric run fat-tree-k4 --stack dpdk --pattern incast \\
        --load 0.7 --flows 400
    python -m repro fabric sweep leaf-spine --loads 0.2,0.4,0.6,0.8 --jobs 4
    python -m repro fabric trace fat-tree-k4 --flows 1000 -o flows.txt
    python -m repro fabric dot leaf-spine -o fabric.dot
    python -m repro profile gem5 --app touchfwd --top 15
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.harness.experiments import table1_configs
from repro.harness.msb import bandwidth_sweep
from repro.harness.parallel import (
    SweepExecutor,
    fabric_point,
    fixed_load_point,
    memcached_point,
    msb_point,
)
from repro.harness.report import format_executor_summary, format_table
from repro.harness.runner import APP_REGISTRY
from repro.system.config import SystemConfig
from repro.system.presets import (
    FABRIC_PRESETS,
    altra,
    gem5_baseline,
    gem5_default,
)

PLATFORMS = {
    "gem5": gem5_default,
    "altra": altra,
    "gem5-baseline": gem5_baseline,
}


def _platform(name: str) -> SystemConfig:
    if name not in PLATFORMS:
        raise SystemExit(
            f"unknown platform {name!r}; choose from {sorted(PLATFORMS)}")
    return PLATFORMS[name]()


def _app_options(args) -> Optional[dict]:
    if getattr(args, "proc_time_ns", None) is not None:
        return {"proc_time_ns": args.proc_time_ns}
    return None


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {text!r}")
    return value


def _apply_diagnostics_env(args) -> None:
    """Translate the diagnostics flags into the environment variables the
    simulation layer reads.  Going through the environment (rather than
    plumbing arguments down) means forked sweep workers inherit the same
    settings for free."""
    if getattr(args, "check_invariants", None):
        os.environ["REPRO_CHECK_INVARIANTS"] = args.check_invariants
    if getattr(args, "trace", None):
        # Respect an existing category filter; otherwise trace everything.
        if not os.environ.get("REPRO_TRACE"):
            os.environ["REPRO_TRACE"] = "1"
        os.environ["REPRO_TRACE_PATH"] = args.trace


def _report_trace(args, result) -> None:
    if getattr(args, "trace", None):
        digest = getattr(result, "trace_digest", "")
        print(f"trace written to {args.trace}"
              + (f" (digest {digest[:16]})" if digest else ""))


def _executor_from(args) -> SweepExecutor:
    return SweepExecutor(jobs=getattr(args, "jobs", 1),
                         cache_dir=getattr(args, "cache_dir", None),
                         warmup_cache_dir=getattr(args, "warmup_cache",
                                                  None))


def _report_executor(args, ex: SweepExecutor) -> None:
    """Show what the executor did when the user opted into jobs/cache."""
    if getattr(args, "jobs", 1) > 1 or getattr(args, "cache_dir", None):
        print(format_executor_summary(ex.stats, jobs=ex.jobs))


def _cmd_run(args) -> int:
    ex = _executor_from(args)
    result = ex.run([fixed_load_point(
        _platform(args.platform), args.app, args.size, args.gbps,
        n_packets=args.packets, app_options=_app_options(args),
        seed=args.seed)])[0]
    print(format_table(
        f"{args.app} @ {result.offered_gbps:.2f} Gbps, "
        f"{args.size}B frames ({result.label})",
        ["metric", "value"],
        [["offered Gbps", f"{result.offered_gbps:.3f}"],
         ["service Gbps", f"{result.service_gbps:.3f}"],
         ["drop rate", f"{result.drop_rate * 100:.2f}%"],
         ["CoreDrop", f"{result.drop_breakdown.get('CoreDrop', 0) * 100:.1f}%"],
         ["DmaDrop", f"{result.drop_breakdown.get('DmaDrop', 0) * 100:.1f}%"],
         ["TxDrop", f"{result.drop_breakdown.get('TxDrop', 0) * 100:.1f}%"],
         ["mean RTT us", f"{result.latency_us.get('mean', 0):.1f}"],
         ["p99 RTT us", f"{result.latency_us.get('p99', 0):.1f}"],
         ["LLC miss rate", f"{result.llc_miss_rate:.3f}"]]))
    _report_trace(args, result)
    _report_executor(args, ex)
    return 0


def _cmd_msb(args) -> int:
    ex = _executor_from(args)
    result = ex.run([msb_point(
        _platform(args.platform), args.app, args.size,
        max_gbps=args.max_gbps, app_options=_app_options(args),
        seed=args.seed)])[0]
    print(f"{args.app} {args.size}B on {result.label}: "
          f"MSB = {result.msb_gbps:.2f} Gbps")
    for offered, drop in result.curve:
        print(f"    probe {offered:7.2f} Gbps -> {drop * 100:5.1f}% drop")
    _report_executor(args, ex)
    return 0


def _cmd_sweep(args) -> int:
    rates = [float(r) for r in args.rates.split(",")]
    ex = _executor_from(args)
    points = bandwidth_sweep(
        _platform(args.platform), args.app, args.size, rates_gbps=rates,
        n_packets=args.packets, app_options=_app_options(args),
        seed=args.seed, executor=ex)
    print(format_table(
        f"{args.app} {args.size}B bandwidth vs drop ({args.platform})",
        ["offered Gbps", "drop rate"],
        [[f"{x:.2f}", f"{d * 100:.2f}%"] for x, d in points]))
    _report_executor(args, ex)
    return 0


def _cmd_memcached(args) -> int:
    ex = _executor_from(args)
    result = ex.run([memcached_point(
        _platform(args.platform), kernel=args.kernel, rate_rps=args.rps,
        n_requests=args.requests, seed=args.seed)])[0]
    flavour = "MemcachedKernel" if args.kernel else "MemcachedDPDK"
    print(format_table(
        f"{flavour} @ {args.rps / 1000:.0f} kRPS ({result.label})",
        ["metric", "value"],
        [["achieved RPS", f"{result.achieved_rps:,.0f}"],
         ["drop rate", f"{result.drop_rate * 100:.2f}%"],
         ["mean RTT us", f"{result.latency_us.get('mean', 0):.1f}"],
         ["median RTT us", f"{result.latency_us.get('median', 0):.1f}"],
         ["p99 RTT us", f"{result.latency_us.get('p99', 0):.1f}"],
         ["GET hits/misses", f"{result.get_hits}/{result.get_misses}"]]))
    _report_trace(args, result)
    _report_executor(args, ex)
    return 0


def _cmd_table1(args) -> int:
    rows = table1_configs()
    params = list(next(iter(rows.values())).keys())
    print(format_table(
        "Table I: system configurations",
        ["Parameter"] + list(rows.keys()),
        [[p] + [rows[label][p] for label in rows] for p in params]))
    return 0


def _cmd_graph(args) -> int:
    from repro.harness.runner import build_node

    node = build_node(_platform(args.platform), args.app, seed=args.seed)
    if args.loadgen:
        node.attach_loadgen()
    dot = node.wiring_dot()
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(dot + "\n")
        print(f"wiring graph written to {args.output}")
    else:
        print(dot)
    return 0


def _checkpoint_warm_start(config, app: str, seed: int, packet_size: int,
                           client_options: Optional[dict] = None):
    """The runners' own warm-up for ``app``: ``checkpoint save`` warms
    through it and ``checkpoint restore`` rebuilds the same topology."""
    from repro.harness.runner import (
        fixed_load_warm_start,
        memcached_warm_start,
    )
    from repro.loadgen.memcached_client import MemcachedClientConfig

    if app in ("memcached_dpdk", "memcached_kernel"):
        client = MemcachedClientConfig(**(client_options or {}))
        return memcached_warm_start(config, app == "memcached_kernel",
                                    client.rate_rps, client.n_requests,
                                    client, seed)
    return fixed_load_warm_start(config, app, packet_size, seed=seed)


def _cmd_checkpoint_save(args) -> int:
    from dataclasses import asdict

    from repro.loadgen.memcached_client import MemcachedClientConfig
    from repro.sim.checkpoint import save_checkpoint

    spec = _checkpoint_warm_start(_platform(args.platform), args.app,
                                  args.seed, args.size)
    node = spec.build()
    spec.warm(node)
    extra = {
        "phase": "warmup",
        "platform": args.platform,
        "app_name": args.app,
        "packet_size": args.size,
    }
    if node.memcached_client is not None:
        extra["client"] = asdict(MemcachedClientConfig())
    document = node.checkpoint(extra_meta=extra)
    save_checkpoint(document, args.output)
    print(f"checkpoint written to {args.output} "
          f"(tick {node.sim.now}, digest {document['digest'][:16]})")
    return 0


def _cmd_checkpoint_info(args) -> int:
    from repro.sim.checkpoint import CheckpointError, describe, load_checkpoint

    try:
        document = load_checkpoint(args.file)
    except CheckpointError as exc:
        print(f"invalid checkpoint: {exc}", file=sys.stderr)
        return 1
    print(describe(document))
    return 0


def _cmd_checkpoint_restore(args) -> int:
    """Restore a CLI-saved checkpoint into a freshly built node and
    prove the round trip: re-checkpointing the restored node must
    reproduce the original digest bit-for-bit."""
    from repro.sim.checkpoint import CheckpointError, load_checkpoint

    try:
        document = load_checkpoint(args.file)
    except CheckpointError as exc:
        print(f"invalid checkpoint: {exc}", file=sys.stderr)
        return 1
    meta = document["meta"]
    app = meta.get("app_name")
    platform = meta.get("platform")
    if not app or not platform:
        print("checkpoint was not saved by 'checkpoint save' (no "
              "app_name/platform in meta); cannot rebuild the node",
              file=sys.stderr)
        return 1
    node = _checkpoint_warm_start(
        _platform(platform), app, meta["seed"], meta.get("packet_size", 0),
        client_options=meta.get("client")).build()
    try:
        node.restore(document)
    except CheckpointError as exc:
        print(f"restore failed: {exc}", file=sys.stderr)
        return 1
    extra = {k: meta[k] for k in meta
             if k not in ("label", "app", "seed", "components")}
    replica = node.checkpoint(extra_meta=extra)
    if replica["digest"] != document["digest"]:
        print(f"restore round-trip digest mismatch: "
              f"{replica['digest']} != {document['digest']}",
              file=sys.stderr)
        return 1
    print(f"restored {app} on {platform} at tick {node.sim.now}; "
          f"round-trip digest matches ({document['digest'][:16]})")
    return 0


def _cmd_fabric_run(args) -> int:
    point = fabric_point(
        _platform(args.platform), args.preset, args.stack,
        pattern=args.pattern, load=args.load, n_flows=args.flows,
        size_cdf=args.size_cdf, seed=args.seed)
    if args.shards > 1:
        if args.trace:
            print("--trace is not available with --shards > 1: each shard "
                  "traces its own slice only", file=sys.stderr)
            return 2
        from repro.harness.fabric import run_fabric_sharded
        # Run with the same forked per-point seed the executor path
        # uses, so --shards N reproduces the --shards 1 digest exactly.
        result = run_fabric_sharded(
            point.config, args.preset, args.stack,
            pattern=args.pattern, load=args.load, n_flows=args.flows,
            size_cdf=args.size_cdf, seed=point.effective_seed,
            shards=args.shards)
        ex = None
    else:
        ex = _executor_from(args)
        result = ex.run([point])[0]
    rows = [
        ["flows completed", f"{result.flows_completed}/{result.flows_started}"],
        ["frames sent", f"{result.frames_sent:,}"],
        ["frames delivered", f"{result.frames_delivered:,}"],
        ["drop rate", f"{result.drop_rate * 100:.2f}%"],
        ["mean FCT us", f"{result.fct_us.get('mean', 0):.2f}"],
        ["p50 FCT us", f"{result.fct_us.get('p50', 0):.2f}"],
        ["p95 FCT us", f"{result.fct_us.get('p95', 0):.2f}"],
        ["p99 FCT us", f"{result.fct_us.get('p99', 0):.2f}"],
        ["p999 FCT us", f"{result.fct_us.get('p999', 0):.2f}"],
    ]
    for cause, share in sorted(result.drop_breakdown.items()):
        rows.append([f"drops: {cause}", f"{share * 100:.1f}%"])
    print(format_table(
        f"{args.preset}/{args.stack} {args.pattern} @ load {args.load:g}, "
        f"{args.flows} flows ({result.label})",
        ["metric", "value"], rows))
    if args.switch_drops and result.per_switch_drops:
        print(format_table(
            "per-switch window drops",
            ["switch", "cause", "count"],
            [[name, cause, str(count)]
             for name, causes in sorted(result.per_switch_drops.items())
             for cause, count in sorted(causes.items())]))
    _report_trace(args, result)
    if ex is not None:
        _report_executor(args, ex)
    return 0


def _cmd_fabric_sweep(args) -> int:
    loads = [float(x) for x in args.loads.split(",")]
    ex = _executor_from(args)
    points = [fabric_point(
        _platform(args.platform), args.preset, args.stack,
        pattern=args.pattern, load=load, n_flows=args.flows,
        size_cdf=args.size_cdf, seed=args.seed) for load in loads]
    results = ex.run(points)
    print(format_table(
        f"{args.preset}/{args.stack} {args.pattern} FCT vs load "
        f"({args.platform})",
        ["load", "completed", "drop rate", "p50 us", "p99 us"],
        [[f"{r.offered_load:.2f}",
          f"{r.flows_completed}/{r.flows_started}",
          f"{r.drop_rate * 100:.2f}%",
          f"{r.fct_us.get('p50', 0):.2f}",
          f"{r.fct_us.get('p99', 0):.2f}"] for r in results]))
    _report_executor(args, ex)
    return 0


def _cmd_fabric_trace(args) -> int:
    from repro.harness.fabric import build_fabric_rig
    from repro.loadgen.flowgen import (
        FlowGenConfig,
        plan_flows,
        write_flow_trace,
    )

    fabric = build_fabric_rig(_platform(args.platform), args.preset,
                              args.stack, seed=args.seed)
    config = FlowGenConfig(pattern=args.pattern, load=args.load,
                           n_flows=args.flows, size_cdf=args.size_cdf)
    flows = plan_flows(config, fabric.host_groups(),
                       fabric.config.link_bandwidth_bps, seed=args.seed)
    text = write_flow_trace(flows)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        print(f"{len(flows)} flows written to {args.output}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_fabric_dot(args) -> int:
    from repro.harness.fabric import build_fabric_rig

    fabric = build_fabric_rig(_platform(args.platform), args.preset,
                              args.stack, seed=args.seed)
    dot = fabric.wiring_dot()
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(dot + "\n")
        print(f"fabric wiring graph written to {args.output}")
    else:
        print(dot)
    return 0


def _cmd_profile(args) -> int:
    """cProfile one fixed-load run and print the top-N hotspots.

    The run goes through :func:`repro.harness.runner.run_fixed_load`
    directly (no executor, no worker processes) so the profile covers
    exactly the simulation hot path a sweep point pays for.
    """
    import cProfile
    import pstats
    from io import StringIO

    from repro.harness.runner import run_fixed_load

    config = _platform(args.preset)
    profiler = cProfile.Profile()
    profiler.enable()
    result = run_fixed_load(config, args.app, args.size, args.gbps,
                            n_packets=args.packets, seed=args.seed)
    profiler.disable()

    print(f"{args.app} {args.size}B @ {args.gbps:g} Gbps on "
          f"{result.label}: service {result.service_gbps:.2f} Gbps, "
          f"drop {result.drop_rate * 100:.2f}%")
    stream = StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.strip_dirs().sort_stats(args.sort).print_stats(args.top)
    print(stream.getvalue().rstrip())
    if args.output:
        stats.dump_stats(args.output)
        print(f"raw profile written to {args.output}")
    return 0


def _cmd_apps(args) -> int:
    for name, (node_class, app_class, echoes) in sorted(
            APP_REGISTRY.items()):
        stack = "DPDK" if node_class.__name__ == "DpdkNode" else "kernel"
        echo = "echoes responses" if echoes else "receive-only"
        print(f"  {name:18s} {stack:6s} {app_class.__name__:16s} ({echo})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for the CLI."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Userspace networking in a simulated host "
                    "(ISPASS 2024 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_app=True):
        """Attach the options shared by most subcommands."""
        if with_app:
            p.add_argument("app", choices=sorted(APP_REGISTRY))
            p.add_argument("--size", type=int, default=256,
                           help="frame size in bytes incl. CRC")
            p.add_argument("--proc-time-ns", type=float, default=None,
                           dest="proc_time_ns",
                           help="RXpTX processing interval")
        p.add_argument("--platform", default="gem5",
                       choices=sorted(PLATFORMS))
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--jobs", type=_positive_int,
                       default=int(os.environ.get("REPRO_JOBS", "1")),
                       help="worker processes for independent sweep "
                            "points (default: REPRO_JOBS or 1)")
        p.add_argument("--cache-dir", dest="cache_dir",
                       default=os.environ.get("REPRO_CACHE_DIR") or None,
                       help="on-disk result cache; unchanged points "
                            "replay for free (default: REPRO_CACHE_DIR)")
        p.add_argument("--warmup-cache", dest="warmup_cache",
                       default=os.environ.get("REPRO_WARMUP_CACHE") or None,
                       help="shared warm-up checkpoint cache; points "
                            "differing only in offered load restore one "
                            "post-warm-up snapshot instead of "
                            "re-simulating the warm-up (default: "
                            "REPRO_WARMUP_CACHE)")
        p.add_argument("--check-invariants", dest="check_invariants",
                       choices=("final", "strict", "off"), default=None,
                       help="conservation checking: 'final' asserts at "
                            "the end of each run (default), 'strict' "
                            "re-checks after every event, 'off' disables "
                            "(sets REPRO_CHECK_INVARIANTS)")

    p_run = sub.add_parser("run", help="one fixed-load run")
    common(p_run)
    p_run.add_argument("--gbps", type=float, default=10.0)
    p_run.add_argument("--packets", type=int, default=2000)
    p_run.add_argument("--trace", metavar="FILE", default=None,
                       help="export a structured event trace (JSONL) of "
                            "the run to FILE")
    p_run.set_defaults(func=_cmd_run)

    p_msb = sub.add_parser("msb", help="maximum sustainable bandwidth")
    common(p_msb)
    p_msb.add_argument("--max-gbps", type=float, default=70.0)
    p_msb.set_defaults(func=_cmd_msb)

    p_sweep = sub.add_parser("sweep", help="bandwidth vs drop curve")
    common(p_sweep)
    p_sweep.add_argument("--rates", default="5,15,25,35,45,55,65",
                         help="comma-separated offered rates in Gbps")
    p_sweep.add_argument("--packets", type=int, default=1500)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_mc = sub.add_parser("memcached", help="load a memcached server")
    common(p_mc, with_app=False)
    p_mc.add_argument("--kernel", action="store_true",
                      help="kernel-stack server (default: DPDK)")
    p_mc.add_argument("--rps", type=float, default=200_000.0)
    p_mc.add_argument("--requests", type=int, default=2000)
    p_mc.add_argument("--trace", metavar="FILE", default=None,
                      help="export a structured event trace (JSONL) of "
                           "the run to FILE")
    p_mc.set_defaults(func=_cmd_memcached)

    p_t1 = sub.add_parser("table1", help="print platform configurations")
    p_t1.set_defaults(func=_cmd_table1)

    p_apps = sub.add_parser("apps", help="list registered applications")
    p_apps.set_defaults(func=_cmd_apps)

    p_graph = sub.add_parser(
        "graph", help="emit a node's wiring graph as Graphviz DOT")
    p_graph.add_argument("app", choices=sorted(APP_REGISTRY))
    p_graph.add_argument("--platform", default="gem5",
                         choices=sorted(PLATFORMS))
    p_graph.add_argument("--seed", type=int, default=0)
    p_graph.add_argument("--loadgen", action="store_true",
                         help="include the attached EtherLoadGen")
    p_graph.add_argument("-o", "--output", metavar="FILE", default=None,
                         help="write DOT to FILE instead of stdout")
    p_graph.set_defaults(func=_cmd_graph)

    p_ckpt = sub.add_parser(
        "checkpoint", help="save/restore/info on warm-up checkpoints")
    ckpt_sub = p_ckpt.add_subparsers(dest="checkpoint_command",
                                     required=True)

    p_save = ckpt_sub.add_parser(
        "save", help="warm a node up, drain it, and checkpoint it")
    p_save.add_argument("app", choices=sorted(APP_REGISTRY))
    p_save.add_argument("--size", type=int, default=256,
                        help="frame size for the synthetic warm-up")
    p_save.add_argument("--platform", default="gem5",
                        choices=sorted(PLATFORMS))
    p_save.add_argument("--seed", type=int, default=0)
    p_save.add_argument("-o", "--output", metavar="FILE", required=True,
                        help="checkpoint file to write")
    p_save.set_defaults(func=_cmd_checkpoint_save)

    p_info = ckpt_sub.add_parser(
        "info", help="verify a checkpoint and summarise its contents")
    p_info.add_argument("file")
    p_info.set_defaults(func=_cmd_checkpoint_info)

    p_restore = ckpt_sub.add_parser(
        "restore",
        help="restore a saved checkpoint and verify the round trip")
    p_restore.add_argument("file")
    p_restore.set_defaults(func=_cmd_checkpoint_restore)

    p_fab = sub.add_parser(
        "fabric",
        help="multi-node switch fabrics with flow-level traffic")
    fab_sub = p_fab.add_subparsers(dest="fabric_command", required=True)

    def fabric_common(p, with_load=True):
        p.add_argument("preset", choices=sorted(FABRIC_PRESETS))
        p.add_argument("--stack", default="dpdk",
                       choices=("dpdk", "kernel"),
                       help="host networking stack at the leaves")
        if with_load:
            p.add_argument("--pattern", default="uniform",
                           choices=("uniform", "hotspot", "incast"))
            p.add_argument("--load", type=float, default=0.3,
                           help="offered load as a fraction of host "
                                "link bandwidth")
            p.add_argument("--flows", type=_positive_int, default=200,
                           help="number of flows to offer")
            p.add_argument("--size-cdf", dest="size_cdf", default="smoke",
                           choices=("smoke", "websearch", "datamining"),
                           help="empirical flow-size distribution")

    p_frun = fab_sub.add_parser(
        "run", help="one open-loop flow run through a fabric")
    fabric_common(p_frun)
    common(p_frun, with_app=False)
    p_frun.add_argument("--switch-drops", action="store_true",
                        dest="switch_drops",
                        help="also print per-switch drop causes")
    p_frun.add_argument("--trace", metavar="FILE", default=None,
                        help="export a structured event trace (JSONL) of "
                             "the run to FILE")
    p_frun.add_argument("--shards", type=_positive_int, default=1,
                        help="split the simulation across N processes "
                             "with synchronized virtual time (flow "
                             "digest is identical to --shards 1)")
    p_frun.set_defaults(func=_cmd_fabric_run)

    p_fsweep = fab_sub.add_parser(
        "sweep", help="FCT/drop curve over offered loads")
    fabric_common(p_fsweep)
    common(p_fsweep, with_app=False)
    p_fsweep.add_argument("--loads", default="0.2,0.4,0.6,0.8",
                          help="comma-separated offered load fractions")
    p_fsweep.set_defaults(func=_cmd_fabric_sweep)

    p_ftrace = fab_sub.add_parser(
        "trace", help="emit a flow trace (offline, no simulation)")
    fabric_common(p_ftrace)
    p_ftrace.add_argument("--platform", default="gem5",
                          choices=sorted(PLATFORMS))
    p_ftrace.add_argument("--seed", type=int, default=0)
    p_ftrace.add_argument("-o", "--output", metavar="FILE", default=None,
                          help="write the trace to FILE instead of stdout")
    p_ftrace.set_defaults(func=_cmd_fabric_trace)

    p_fdot = fab_sub.add_parser(
        "dot", help="emit the fabric wiring graph as Graphviz DOT")
    fabric_common(p_fdot, with_load=False)
    p_fdot.add_argument("--platform", default="gem5",
                        choices=sorted(PLATFORMS))
    p_fdot.add_argument("--seed", type=int, default=0)
    p_fdot.add_argument("-o", "--output", metavar="FILE", default=None,
                        help="write DOT to FILE instead of stdout")
    p_fdot.set_defaults(func=_cmd_fabric_dot)

    p_prof = sub.add_parser(
        "profile",
        help="cProfile one fixed-load run and print the hotspots")
    p_prof.add_argument("preset", choices=sorted(PLATFORMS),
                        help="platform preset to profile")
    p_prof.add_argument("--app", choices=sorted(APP_REGISTRY),
                        default="testpmd")
    p_prof.add_argument("--size", type=int, default=256,
                        help="frame size in bytes incl. CRC")
    p_prof.add_argument("--gbps", type=float, default=25.0)
    p_prof.add_argument("--packets", type=int, default=600)
    p_prof.add_argument("--seed", type=int, default=0)
    p_prof.add_argument("--top", type=_positive_int, default=25,
                        help="number of hotspot rows to print")
    p_prof.add_argument("--sort", default="cumulative",
                        choices=("cumulative", "tottime", "calls"))
    p_prof.add_argument("-o", "--output", metavar="FILE", default=None,
                        help="also dump raw pstats data to FILE")
    p_prof.set_defaults(func=_cmd_profile)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    _apply_diagnostics_env(args)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
