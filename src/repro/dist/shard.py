"""Shard one fabric simulation across OS processes.

SimBricks (PAPERS.md) couples independent component simulators through
latency-tolerant message channels with synchronized virtual time.  This
module is that composition for the reproduction's switch fabrics:

- :func:`plan_fabric_shards` partitions a :class:`FabricConfig`'s
  topology into ``n`` shards (pods or leaves stay whole; cores and
  spines stripe round-robin);
- each shard process builds the whole fabric from the real components
  and wires only the links it owns an end of, a boundary link as a
  :class:`~repro.sim.channel.ChannelHalf` end (see
  :meth:`repro.net.fabric.Fabric._link`); the components other shards
  own stay idle.  Each shard runs its own
  :class:`~repro.sim.event_queue.EventQueue`;
- each shard then runs what :func:`repro.harness.fabric.run_fabric`
  runs — warm-up, measured phase, final invariant check — on its
  slice.  The shards drive themselves: ``Fabric.run_us`` exchanges
  per-epoch frame batches with the channel neighbours under the
  conservative quantum bound (quantum <= min link latency), and
  ``Fabric.everywhere`` ANDs each phase decision over all shards;
- the parent only forks the shards and merges their tallies into one
  :class:`FabricRunResult` whose flow digest is **bit-identical** to
  the single-process run — the equivalence the cross-process suite pins
  for the whole 12-case scenario matrix.

Determinism argument (docs/sharding.md has the long form): every shard
runs a full replica of the flow generator — same seed, same fork
labels, same RNG draws — and injects only the flows whose source host
it owns.  ``run(until)`` ends every chunk at its target and all shards
take each phase decision from the same AND, so phases start and stop at
the single-process ticks; channel delivery ticks reproduce
:class:`~repro.nic.phy.EtherLink` arithmetic exactly, and epoch
injection is sorted ``(deliver_at, channel, seq)``, so each shard's
event sequence is the exact projection of the single-process one.

Failure semantics: each shard sends one outcome over its own pipe.  A
shard that raises sends its error; a shard that dies leaves the pipe
closed and empty.  Either way the parent raises a
:class:`ShardCrashError` naming the shard and tears every shard down —
terminate, bounded join, kill stragglers.  A shard stuck between epochs
is named by its peers' bounded receive timeout.  No deadlocked peers,
no orphan processes.
"""

from __future__ import annotations

import queue as queue_lib
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.harness.fabric import (
    FabricRunResult,
    _check_fabric_sanity,
    _fabric_result,
    _measure,
    build_fabric_rig,
    fabric_config_for,
    fabric_warm_start,
    run_fabric,
)
from repro.harness.parallel import _default_context
from repro.loadgen.flowgen import FlowGenConfig, FlowRecord, fct_summary_from
from repro.net.fabric import FabricConfig
from repro.sim.channel import ChannelError, ChannelGroup
from repro.system.config import SystemConfig

#: How long a shard waits for a peer's epoch batch or status flag before
#: naming that peer as dead or stuck.
_PEER_TIMEOUT_S = 60.0


class ShardCrashError(RuntimeError):
    """A shard process died, raised, or stopped responding mid-run."""

    def __init__(self, shard_id: int, message: str) -> None:
        super().__init__(message)
        self.shard_id = shard_id


@dataclass(frozen=True)
class ShardPlan:
    """Who owns what: host index -> shard, logical switch name -> shard.

    Logical switch names are the builder names with the fabric label
    stripped (``pod0.edge1``, ``core3``, ``leaf2``, ``spine0``), so one
    plan applies to any fabric label.
    """

    n_shards: int
    hosts: Tuple[int, ...]
    switches: Dict[str, int]

    def host_shard(self, host_id: int) -> int:
        return self.hosts[host_id]

    def switch_shard(self, logical_name: str) -> int:
        try:
            return self.switches[logical_name]
        except KeyError:
            raise ChannelError(
                f"shard plan has no owner for switch {logical_name!r}; "
                f"plan and builder are out of sync") from None


def plan_fabric_shards(config: FabricConfig, n_shards: int) -> ShardPlan:
    """Partition a fabric topology into ``n_shards`` shards.

    Heuristics (see docs/sharding.md): keep the densest connectivity
    inside a shard and cut only the long links.  Fat-trees keep each pod
    whole (host <-> edge <-> agg traffic never crosses a boundary) and
    stripe core switches round-robin; leaf-spines keep each leaf with
    its hosts and stripe the spines.  Requires the pod/leaf count to
    divide evenly so shards are balanced.
    """
    if n_shards < 1:
        raise ValueError("shard count must be at least 1")
    switches: Dict[str, int] = {}
    if config.topology == "fat_tree":
        k = config.k
        if n_shards > k or k % n_shards:
            raise ValueError(
                f"cannot shard a k={k} fat-tree into {n_shards} shards: "
                f"the shard count must divide the pod count {k}")
        half = k // 2
        pod_owner = [p * n_shards // k for p in range(k)]
        for p in range(k):
            for i in range(half):
                switches[f"pod{p}.edge{i}"] = pod_owner[p]
            for j in range(half):
                switches[f"pod{p}.agg{j}"] = pod_owner[p]
        for c in range(half * half):
            switches[f"core{c}"] = c % n_shards
        hosts_per_pod = half * half
        hosts = tuple(pod_owner[h // hosts_per_pod]
                      for h in range(config.n_hosts))
    else:
        leaves, spines, per_leaf = (config.leaves, config.spines,
                                    config.hosts_per_leaf)
        if n_shards > leaves or leaves % n_shards:
            raise ValueError(
                f"cannot shard a {leaves}-leaf fabric into {n_shards} "
                f"shards: the shard count must divide the leaf count")
        leaf_owner = [li * n_shards // leaves for li in range(leaves)]
        for li in range(leaves):
            switches[f"leaf{li}"] = leaf_owner[li]
        for s in range(spines):
            switches[f"spine{s}"] = s % n_shards
        hosts = tuple(leaf_owner[h // per_leaf]
                      for h in range(leaves * per_leaf))
    return ShardPlan(n_shards=n_shards, hosts=hosts, switches=switches)


class _ShardSync:
    """One shard's link to its peers, installed as ``Fabric.sync``.

    Epoch batches go to channel neighbours only (:meth:`exchange`, the
    :meth:`ChannelGroup.advance` callback).  Status flags go to every
    peer over the full mesh of queues (:meth:`all_true`): two shards
    that share no channel must still take each phase decision together.
    Each message carries its epoch index or the ``"status"`` tag; a
    mismatch is a :class:`ChannelError`.
    """

    def __init__(self, shard_id: int, group: ChannelGroup,
                 send_qs: Dict[int, object],
                 recv_qs: Dict[int, object]) -> None:
        self.shard_id = shard_id
        self.group = group
        self.neighbors = group.neighbors()
        self.send_qs = send_qs
        self.recv_qs = recv_qs

    def _recv(self, peer: int, tag):
        try:
            got, payload = self.recv_qs[peer].get(timeout=_PEER_TIMEOUT_S)
        except queue_lib.Empty:
            raise ShardCrashError(
                peer, f"shard {self.shard_id}: nothing tagged {tag!r} from "
                      f"peer shard {peer} within "
                      f"{_PEER_TIMEOUT_S:.0f}s") from None
        if got != tag:
            raise ChannelError(
                f"shard {self.shard_id}: expected {tag!r} from shard "
                f"{peer}, got {got!r} (sync skew)")
        return payload

    def exchange(self, epoch: int, horizon: int, outgoing) -> list:
        for peer in self.neighbors:
            self.send_qs[peer].put((epoch, outgoing.get(peer, [])))
        incoming = []
        for peer in self.neighbors:
            incoming.extend(self._recv(peer, epoch))
        return incoming

    def all_true(self, flag: bool) -> bool:
        for send_q in self.send_qs.values():
            send_q.put(("status", flag))
        # Hear every peer even once the answer is known, so each queue
        # stays in step.
        flags = [self._recv(peer, "status") for peer in self.recv_qs]
        return flag and all(flags)


def _shard_main(shard_id: int, plan: ShardPlan, config: SystemConfig,
                preset: str, stack: str, seed: int, gen_cfg: FlowGenConfig,
                conn, send_qs: Dict[int, object],
                recv_qs: Dict[int, object]) -> None:
    """One shard process: build the slice, run :func:`run_fabric`'s
    warm-up and measured phase on it, send the tally or the error.

    Returns normally after sending, so process-exit finalizers run.
    """
    try:
        fabric = build_fabric_rig(config, preset, stack, seed=seed,
                                  shard_plan=plan, shard_id=shard_id)
        fabric.sync = _ShardSync(
            shard_id, ChannelGroup(fabric.sim, fabric.channels),
            send_qs, recv_qs)
        # The warm-up itself, not warm_start: a cache would store this
        # slice under the single-process key.
        fabric_warm_start(config, preset, stack, seed).warm(fabric)
        outcome = ("ok", _measure(fabric, gen_cfg)[0])
    except Exception as exc:   # report, then return quietly
        blamed = (exc.shard_id if isinstance(exc, ShardCrashError)
                  else shard_id)
        outcome = ("error", (blamed, f"{type(exc).__name__}: {exc}"))
    conn.send(outcome)
    conn.close()


def _run_shards(plan: ShardPlan, config: SystemConfig, preset: str,
                stack: str, seed: int,
                gen_cfg: FlowGenConfig) -> List[dict]:
    """Fork one process per shard and return their tallies in shard
    order; raise :class:`ShardCrashError` on the first failure."""
    # Imported here so that only sharded runs pay for the import.
    from multiprocessing.connection import wait

    ctx = _default_context()
    n = plan.n_shards
    queues = {(i, j): ctx.Queue()
              for i in range(n) for j in range(n) if i != j}
    procs = []
    pending = {}                     # result pipe -> shard id
    tallies: List[dict] = [{}] * n
    try:
        for i in range(n):
            receiver, sender = ctx.Pipe(duplex=False)
            proc = ctx.Process(
                target=_shard_main, name=f"repro-shard-{i}", daemon=True,
                args=(i, plan, config, preset, stack, seed, gen_cfg, sender,
                      {j: queues[(i, j)] for j in range(n) if j != i},
                      {j: queues[(j, i)] for j in range(n) if j != i}))
            proc.start()
            # Only the shard holds the send end now, so its exit closes
            # the pipe: that EOF is how a crash shows.
            sender.close()
            procs.append(proc)
            pending[receiver] = i
        while pending:
            for receiver in wait(list(pending)):
                shard_id = pending.pop(receiver)
                try:
                    status, payload = receiver.recv()
                except EOFError:
                    proc = procs[shard_id]
                    proc.join(timeout=1.0)
                    raise ShardCrashError(
                        shard_id, f"shard {shard_id} (pid {proc.pid}) died "
                                  f"mid-run with exit code "
                                  f"{proc.exitcode}") from None
                finally:
                    receiver.close()
                if status == "error":
                    blamed, message = payload
                    raise ShardCrashError(
                        blamed, f"shard {shard_id} failed: {message}")
                tallies[shard_id] = payload
    except BaseException:
        # The failed shard's peers may be waiting on it: stop them all.
        for proc in procs:
            proc.terminate()
        raise
    finally:
        for receiver in pending:
            receiver.close()
        for proc in procs:
            proc.join(timeout=5.0)
            if proc.is_alive():
                proc.kill()
                proc.join(timeout=5.0)
    return tallies


def run_fabric_sharded(config: SystemConfig, preset: str, stack: str,
                       pattern: str = "uniform", load: float = 0.3,
                       n_flows: int = 200, size_cdf: str = "smoke",
                       seed: int = 0, shards: int = 2) -> FabricRunResult:
    """Run one fabric flow phase split over ``shards`` processes.

    Same contract as :func:`repro.harness.fabric.run_fabric` — same
    warm-up plan, same phase loop, bit-identical flow digest — with the
    simulation partitioned per :func:`plan_fabric_shards`.  The warm-up
    checkpoint cache is not used in sharded mode (warm-up is simulated
    in the shards every run); the ``shards <= 1`` fallback delegates to
    :func:`run_fabric`.
    """
    if shards <= 1:
        return run_fabric(config, preset, stack, pattern=pattern, load=load,
                          n_flows=n_flows, size_cdf=size_cdf, seed=seed)
    plan = plan_fabric_shards(fabric_config_for(config, preset, stack),
                              shards)
    gen_cfg = FlowGenConfig(pattern=pattern, load=load, n_flows=n_flows,
                            size_cdf=size_cdf)
    tallies = _run_shards(plan, config, preset, stack, seed, gen_cfg)
    # The merged records reproduce the live generator's FCT summary.
    records = [FlowRecord(*r) for t in tallies for r in t["records"]]
    result = _fabric_result(tallies, config, preset, stack, gen_cfg,
                            fct_summary_from(records))
    # Checked in every invariant mode: the shards' own laws cannot see a
    # frame lost between them.
    _check_fabric_sanity(result, tallies, "dist.shard")
    return result
