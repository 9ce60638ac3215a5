"""Flow-level traffic generation for multi-node fabrics.

A datacenter workload is a stream of *flows* — (src host, dst host,
size) triples with open-loop Poisson arrivals — not a fixed packet rate
into one NIC.  This module provides the three pieces the fabric runs
need:

- :class:`FlowSizeCdf`: empirical flow-size distributions sampled by
  inverse transform, with the classic WebSearch (DCTCP) and DataMining
  (VL2) CDFs built in plus a tiny ``smoke`` CDF for tests;
- endpoint-pattern helpers (``uniform`` / ``hotspot`` / ``incast``)
  with an intra-group (pod / leaf) load fraction;
- :class:`FlowTrafficGenerator`: a SimObject that starts flows into a
  fabric at a Poisson rate derived from the offered load, collects
  per-flow completion records, and summarizes them as FCT percentiles
  and a deterministic ``flow_digest``.

The on-disk flow trace format follows the cross-DC generator this is
modeled on: first line is the flow count, then one line per flow of
``<src> <dst> 3 <dst port> <size bytes> <start time s>``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from repro.loadgen.distributions import ExponentialInterArrival
from repro.sim.checkpoint import Stateful
from repro.sim.rng import DeterministicRng
from repro.sim.simobject import SimObject, Simulation
from repro.sim.stats import Distribution
from repro.sim.ticks import TICKS_PER_SEC, ticks_to_us

FLOW_PROTO_TCPISH = 3  # protocol column in the trace format
DEFAULT_DST_PORT = 9000
SRC_PORT_LO = 49152
SRC_PORT_HI = 65535

PATTERNS = ("uniform", "hotspot", "incast")


class FlowSizeCdf:
    """An empirical flow-size CDF sampled by inverse transform.

    ``points`` is a list of ``(size_bytes, cum_prob)`` pairs with sizes
    strictly increasing and probabilities non-decreasing, ending at 1.0.
    Sampling interpolates linearly in size between adjacent points; a
    draw at or below the first point's probability returns the first
    size (the CDF's left edge is a point mass, matching the published
    distributions' "N% of flows are <= the minimum size" shape).
    """

    def __init__(self, points: Sequence[Tuple[float, float]],
                 name: str = "custom") -> None:
        pts = [(float(s), float(p)) for s, p in points]
        if not pts:
            raise ValueError("a flow-size CDF needs at least one point")
        last_s, last_p = 0.0, 0.0
        for s, p in pts:
            if s <= last_s:
                raise ValueError(
                    f"CDF sizes must be strictly increasing ({s} after "
                    f"{last_s})")
            if p < last_p or not 0.0 < p <= 1.0:
                raise ValueError(
                    f"CDF probabilities must be non-decreasing in (0, 1] "
                    f"(got {p} after {last_p})")
            last_s, last_p = s, p
        if abs(last_p - 1.0) > 1e-9:
            raise ValueError(f"CDF must end at probability 1.0, not {last_p}")
        self.name = name
        self.points: List[Tuple[float, float]] = pts

    def sample(self, rng: DeterministicRng) -> int:
        """Draw one flow size in bytes (always >= 1)."""
        u = rng.random()
        prev_s, prev_p = self.points[0]
        if u <= prev_p:
            return max(1, int(round(prev_s)))
        for s, p in self.points[1:]:
            if u <= p:
                if p == prev_p:  # vertical step: take the upper size
                    return max(1, int(round(s)))
                frac = (u - prev_p) / (p - prev_p)
                return max(1, int(round(prev_s + frac * (s - prev_s))))
            prev_s, prev_p = s, p
        return max(1, int(round(self.points[-1][0])))

    def mean(self) -> float:
        """Analytic mean of the interpolated distribution, in bytes."""
        s0, p0 = self.points[0]
        total = s0 * p0  # point mass at the left edge
        prev_s, prev_p = s0, p0
        for s, p in self.points[1:]:
            # linear in u between the points -> mean of the segment is
            # the midpoint size, weighted by its probability mass
            total += (p - prev_p) * (prev_s + s) / 2.0
            prev_s, prev_p = s, p
        return total

    def to_lines(self) -> List[str]:
        return [f"{int(s)} {p:.6f}" for s, p in self.points]

    @classmethod
    def from_lines(cls, lines: Iterable[str],
                   name: str = "custom") -> "FlowSizeCdf":
        points = []
        for line in lines:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            size_s, prob_s = line.split()[:2]
            points.append((float(size_s), float(prob_s)))
        return cls(points, name=name)

    def __repr__(self) -> str:
        return f"<FlowSizeCdf {self.name} ({len(self.points)} points)>"


# Web-search (DCTCP) style: half the flows are short queries, a heavy
# tail of multi-MB responses carries most of the bytes.
WEBSEARCH_CDF = FlowSizeCdf([
    (10_000, 0.15),
    (20_000, 0.20),
    (30_000, 0.30),
    (50_000, 0.40),
    (80_000, 0.53),
    (200_000, 0.60),
    (1_000_000, 0.70),
    (2_000_000, 0.80),
    (5_000_000, 0.90),
    (10_000_000, 0.97),
    (30_000_000, 1.00),
], name="websearch")

# Data-mining (VL2) style: most flows are tiny, the tail reaches 1GB.
DATAMINING_CDF = FlowSizeCdf([
    (100, 0.50),
    (300, 0.60),
    (1_000, 0.70),
    (2_000, 0.75),
    (10_000, 0.80),
    (100_000, 0.85),
    (1_000_000, 0.90),
    (10_000_000, 0.95),
    (100_000_000, 0.98),
    (1_000_000_000, 1.00),
], name="datamining")

# Tiny CDF for tests and CI smoke runs: 1-3 MTU-sized frames per flow,
# so scenario matrices finish in milliseconds of simulated time.
SMOKE_CDF = FlowSizeCdf([
    (256, 0.30),
    (1_024, 0.60),
    (2_048, 0.85),
    (4_096, 1.00),
], name="smoke")

SIZE_CDFS = {
    "websearch": WEBSEARCH_CDF,
    "datamining": DATAMINING_CDF,
    "smoke": SMOKE_CDF,
}


def resolve_size_cdf(cdf) -> FlowSizeCdf:
    """Accept a registry name or an explicit :class:`FlowSizeCdf`."""
    if isinstance(cdf, FlowSizeCdf):
        return cdf
    try:
        return SIZE_CDFS[cdf]
    except KeyError:
        raise ValueError(
            f"unknown flow-size CDF {cdf!r}; choose from "
            f"{sorted(SIZE_CDFS)} or pass a FlowSizeCdf") from None


@dataclass(frozen=True)
class Flow:
    """One flow: who talks to whom, how much, starting when."""

    flow_id: int
    src: int                 # source host index
    dst: int                 # destination host index
    size_bytes: int
    start_tick: int
    src_port: int = SRC_PORT_LO
    dst_port: int = DEFAULT_DST_PORT
    proto: int = FLOW_PROTO_TCPISH

    @property
    def five_tuple(self) -> Tuple[int, int, int, int, int]:
        return (self.src, self.dst, self.proto, self.src_port, self.dst_port)


@dataclass(frozen=True)
class FlowGenConfig:
    """One generation phase: pattern, offered load, and flow count.

    ``load`` is the offered fraction of the aggregate host line rate;
    the Poisson flow arrival rate is ``load * n_hosts * link_rate /
    mean_flow_bits``.  ``intra_group_fraction`` is the probability that
    a uniform-pattern destination shares the source's group (pod for
    fat-trees, leaf for leaf-spine).
    """

    pattern: str = "uniform"
    load: float = 0.3
    n_flows: int = 100
    size_cdf: str = "smoke"
    intra_group_fraction: float = 0.5
    hotspot_fraction: float = 0.6    # fraction of hotspot flows at the sink
    hotspot_hosts: int = 1
    incast_fanin: int = 0            # 0 -> all other hosts fan in

    def __post_init__(self) -> None:
        if self.pattern not in PATTERNS:
            raise ValueError(
                f"unknown traffic pattern {self.pattern!r}; choose from "
                f"{PATTERNS}")
        if not 0.0 < self.load:
            raise ValueError("offered load must be positive")
        if self.n_flows <= 0:
            raise ValueError("n_flows must be positive")
        if not 0.0 <= self.intra_group_fraction <= 1.0:
            raise ValueError("intra_group_fraction must be in [0, 1]")
        resolve_size_cdf(self.size_cdf)


def pick_endpoints(rng: DeterministicRng, groups: Sequence[int],
                   config: FlowGenConfig) -> Tuple[int, int]:
    """Choose (src, dst) host indices for one flow under the pattern."""
    n = len(groups)
    if n < 2:
        raise ValueError("need at least two hosts to generate flows")
    if config.pattern == "incast":
        dst = 0
        others = [h for h in range(n) if h != dst]
        if config.incast_fanin > 0:
            others = others[:config.incast_fanin]
        return rng.choice(others), dst
    if config.pattern == "hotspot" and rng.bernoulli(config.hotspot_fraction):
        hot = list(range(min(config.hotspot_hosts, n - 1)))
        dst = rng.choice(hot)
        src = rng.choice([h for h in range(n) if h != dst])
        return src, dst
    # uniform (also the hotspot background traffic)
    src = rng.randint(0, n - 1)
    same = [h for h in range(n) if h != src and groups[h] == groups[src]]
    if same and rng.bernoulli(config.intra_group_fraction):
        return src, rng.choice(same)
    other = [h for h in range(n) if h != src and groups[h] != groups[src]]
    if not other:
        other = [h for h in range(n) if h != src]
    return src, rng.choice(other)


def _synthesize(rng: DeterministicRng, groups: Sequence[int],
                link_bandwidth_bps: float, config: FlowGenConfig,
                first_flow_id: int, start_tick: int) -> List[Flow]:
    """Draw a full phase of flows from one forked RNG stream.

    Shared by the live generator (which schedules them one arrival at a
    time) and :func:`plan_flows` (which writes them to a trace file), so
    the two agree bit-for-bit for a given seed and fork label.
    """
    cdf = resolve_size_cdf(config.size_cdf)
    rate_fps = (config.load * len(groups) * link_bandwidth_bps
                / (8.0 * cdf.mean()))
    gaps = ExponentialInterArrival(rate_fps, rng)
    flows = []
    tick = start_tick
    for i in range(config.n_flows):
        tick += gaps.next_gap_ticks()
        src, dst = pick_endpoints(rng, groups, config)
        size = cdf.sample(rng)
        sport = rng.randint(SRC_PORT_LO, SRC_PORT_HI)
        flows.append(Flow(flow_id=first_flow_id + i, src=src, dst=dst,
                          size_bytes=size, start_tick=tick,
                          src_port=sport))
    return flows


def plan_flows(config: FlowGenConfig, groups: Sequence[int],
               link_bandwidth_bps: float, seed: int = 0) -> List[Flow]:
    """Synthesize a flow schedule offline (for trace files / the CLI)."""
    rng = DeterministicRng(seed).fork("flowgen.plan.0")
    return _synthesize(rng, groups, link_bandwidth_bps, config,
                       first_flow_id=0, start_tick=0)


def write_flow_trace(flows: Sequence[Flow]) -> str:
    """Render flows in the cross-DC trace format (count, then rows)."""
    lines = [str(len(flows))]
    for f in flows:
        start_s = f.start_tick / TICKS_PER_SEC
        lines.append(f"{f.src} {f.dst} {f.proto} {f.dst_port} "
                     f"{f.size_bytes} {start_s:.9f}")
    return "\n".join(lines) + "\n"


def read_flow_trace(text: str) -> List[Flow]:
    """Parse a trace produced by :func:`write_flow_trace`."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        return []
    count = int(lines[0])
    rows = lines[1:]
    if len(rows) != count:
        raise ValueError(
            f"trace header says {count} flows but {len(rows)} rows follow")
    flows = []
    for i, row in enumerate(rows):
        src_s, dst_s, proto_s, dport_s, size_s, start_s = row.split()
        flows.append(Flow(
            flow_id=i, src=int(src_s), dst=int(dst_s), proto=int(proto_s),
            dst_port=int(dport_s), size_bytes=int(size_s),
            start_tick=int(round(float(start_s) * TICKS_PER_SEC))))
    return flows


@dataclass
class FlowRecord:
    """Completion record for one flow (the digest input)."""

    flow_id: int
    src: int
    dst: int
    size_bytes: int
    start_tick: int
    end_tick: int

    @property
    def fct_us(self) -> float:
        return ticks_to_us(self.end_tick - self.start_tick)

    def as_tuple(self) -> Tuple[int, int, int, int, int, int]:
        return (self.flow_id, self.src, self.dst, self.size_bytes,
                self.start_tick, self.end_tick)


def flow_digest_from(window_started: int, record_tuples: Iterable[Tuple]
                     ) -> str:
    """SHA-256 over a window's completion records (sorted).

    The one digest definition both the live generator and the sharded
    runner's merge use, so a merged multi-process window hashes
    identically to the single-process window it reproduces.
    """
    payload = {
        "started": window_started,
        "records": sorted(tuple(t) for t in record_tuples),
    }
    blob = json.dumps(payload, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def fct_summary_from(records: Iterable[FlowRecord]) -> dict:
    """FCT percentile summary rebuilt from completion records.

    Samples are fed in ``(end_tick, flow_id)`` order — the order the
    completions fired in a single event queue — so the summary of a
    cross-shard merge matches the live generator's bit for bit.
    """
    dist = Distribution("fct_us")
    for r in sorted(records, key=lambda r: (r.end_tick, r.flow_id)):
        dist.sample(r.fct_us)
    summary = dict(dist.summary())
    if dist.count:
        summary["p50"], summary["p999"] = dist.percentiles(50.0, 99.9)
    return summary


class FlowTrafficGenerator(Stateful, SimObject):
    """Open-loop flow source driving a set of fabric hosts.

    Each :meth:`start` forks a fresh child RNG from the simulation
    stream under a phase-numbered label (``<name>.flows.<k>``), so the
    warm-up phase and the measured phase draw independent flow
    schedules while staying fully reproducible from the root seed.
    Hosts report back through :meth:`flow_completed`; the completion
    records feed an exact FCT distribution and the deterministic
    :meth:`flow_digest` the scenario tests and golden fixtures pin.
    """

    def __init__(self, sim: Simulation, name: str, hosts: Sequence,
                 groups: Sequence[int], link_bandwidth_bps: float,
                 flow_filter: Optional[Callable[[Flow], bool]] = None
                 ) -> None:
        super().__init__(sim, name)
        if len(hosts) != len(groups):
            raise ValueError("one group id per host required")
        self.hosts = list(hosts)
        self.groups = list(groups)
        self.link_bandwidth_bps = link_bandwidth_bps
        #: Injection predicate for sharded runs: every shard's replica
        #: synthesizes the identical full schedule (same RNG draws) but
        #: injects only the flows whose source host it owns.
        self._flow_filter = flow_filter
        self.active = False
        self._config: Optional[FlowGenConfig] = None
        self._pending: List[Flow] = []
        self._cursor = 0
        self._starts = 0          # phases started (fork-label counter)
        self._next_flow_id = 0    # per-simulation deterministic flow ids
        self._records: List[FlowRecord] = []
        self._window_started = 0
        self._arrival = self.make_event(self._on_arrival, "arrival")

    # -- generation ----------------------------------------------------------

    def start(self, config: FlowGenConfig) -> None:
        """Begin one open-loop phase of ``config.n_flows`` flows."""
        if self.active:
            raise RuntimeError(f"{self.name} is already generating")
        rng = self.sim.rng.fork(f"{self.name}.flows.{self._starts}")
        self._starts += 1
        self._config = config
        self._pending = _synthesize(rng, self.groups,
                                    self.link_bandwidth_bps, config,
                                    first_flow_id=self._next_flow_id,
                                    start_tick=self.now)
        # Flow ids advance by the FULL schedule before any locality
        # filter, so replicas in different shards stay id-aligned.
        self._next_flow_id += len(self._pending)
        if self._flow_filter is not None:
            self._pending = [f for f in self._pending
                             if self._flow_filter(f)]
        self._cursor = 0
        self.trace("flowgen", "start", pattern=config.pattern,
                   load=config.load, n_flows=config.n_flows)
        if not self._pending:
            # This shard owns none of the phase's sources: the phase is
            # over before it starts (peers still run theirs).
            self.trace("flowgen", "done")
            return
        self.active = True
        self.schedule(self._arrival, self._pending[0].start_tick)

    def _on_arrival(self) -> None:
        flow = self._pending[self._cursor]
        self._cursor += 1
        self._window_started += 1
        self.hosts[flow.src].send_flow(flow)
        if self._cursor < len(self._pending):
            self.schedule(self._arrival, self._pending[self._cursor].start_tick)
        else:
            self.active = False
            self._pending = []
            self._cursor = 0
            self.trace("flowgen", "done")

    def flow_completed(self, meta: dict, end_tick: int) -> None:
        """Called by the destination host when a flow's last frame has
        been serviced."""
        self._records.append(FlowRecord(
            flow_id=meta["flow"], src=meta["src"], dst=meta["dst"],
            size_bytes=meta["size"], start_tick=meta["start"],
            end_tick=end_tick))

    # -- results -------------------------------------------------------------

    @property
    def flows_started(self) -> int:
        return self._window_started

    @property
    def flows_completed(self) -> int:
        return len(self._records)

    def fct_summary(self) -> dict:
        """FCT percentiles of this window (all values in us), computed
        as the sharded merge computes them."""
        return fct_summary_from(self._records)

    def flow_digest(self) -> str:
        """SHA-256 over the sorted completion records of this window.

        Independent of the tracer (which is off by default), wall
        clocks, and the global packet-id counter — the determinism
        anchor for reruns, goldens, and restore-equivalence.
        """
        return flow_digest_from(self._window_started,
                                (r.as_tuple() for r in self._records))

    # -- measurement and checkpoint support ----------------------------------

    measured_fields = ("_records", "_window_started")
    state_fields = ("_starts", "_next_flow_id", "_window_started")

    def serialize_state(self) -> dict:
        state = super().serialize_state()
        state["records"] = [r.as_tuple() for r in self._records]
        return state

    def deserialize_state(self, state: dict) -> None:
        super().deserialize_state(state)
        self._records = [FlowRecord(*row) for row in state["records"]]
