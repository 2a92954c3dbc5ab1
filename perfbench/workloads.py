"""Workload suites, their seeded inputs and the answer oracles.

Graphs are generated here, independently of hyperctrl's own generators, so
a change to the program never changes the benchmark's inputs. The seed
shuffles the edge order and the node order inside each edge of every graph
file; on the ``check`` workload it also relabels the nodes, with the control
nodes mapped through the same relabelling (a rank does not depend on
labels, and neither does the cost of one closure). ``greedy`` and ``exact``
keep the paper's labels: their answers and their cost follow the labels, so
a relabelled suite would time a different search on every seed.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
from dataclasses import dataclass, field

import numpy as np

_MASK64 = (1 << 64) - 1
# Tuples scoring within this distance of the threshold may fall either way.
INGEST_MARGIN = 1e-9


@dataclass(frozen=True)
class GraphInput:
    """One family graph. ``expect`` is the pinned answer: the closed-form
    minimum for ``greedy`` (a lower bound) and ``exact`` (equal), the rank
    for ``check``."""

    name: str
    family: str
    n: int
    k: int
    expect: int
    r: int | None = None
    density: float | None = None
    graph_seed: int | None = None
    controls: tuple = ()


@dataclass(frozen=True)
class SeriesInput:
    """A latent-factor time series scored by ``ingest``."""

    name: str
    channels: int
    samples: int
    factors: int
    order: int
    threshold: float


@dataclass(frozen=True)
class Workload:
    command: str  # greedy | exact | check | ingest
    inputs: tuple
    relabel: bool = False


WORKLOADS = {
    "greedy": Workload("greedy", (
        GraphInput("ring-40-4", "ring", 40, 4, expect=3),
        GraphInput("star-40-3", "star", 40, 3, expect=38),
        GraphInput("chain-60-3", "chain", 60, 3, expect=2),
    )),
    "exact": Workload("exact", (
        GraphInput("star-12-3", "star", 12, 3, expect=10),
        GraphInput("r-ring-12-3-1", "r-ring", 12, 3, expect=6, r=1),
    )),
    "check": Workload("check", (
        GraphInput("chain-80-3", "chain", 80, 3, expect=80, controls=(1, 2)),
        GraphInput("ring-96-3", "ring", 96, 3, expect=96, controls=(1, 2)),
        GraphInput("random-30-4", "random", 30, 4, expect=30, density=0.05,
                   graph_seed=1, controls=(1, 2, 3)),
    ), relabel=True),
    "ingest": Workload("ingest", (
        SeriesInput("series-40x500", 40, 500, 6, order=3, threshold=0.5),
    )),
}

# Same shapes at a size that runs in well under a second; for the self-test.
TINY_WORKLOADS = {
    "greedy": Workload("greedy", (
        GraphInput("ring-8-4", "ring", 8, 4, expect=3),
        GraphInput("star-8-3", "star", 8, 3, expect=6),
        GraphInput("chain-10-3", "chain", 10, 3, expect=2),
    )),
    "exact": Workload("exact", (
        GraphInput("star-6-3", "star", 6, 3, expect=4),
        GraphInput("r-ring-6-3-1", "r-ring", 6, 3, expect=3, r=1),
    )),
    "check": Workload("check", (
        GraphInput("chain-12-3", "chain", 12, 3, expect=12, controls=(1, 2)),
        GraphInput("ring-12-3", "ring", 12, 3, expect=12, controls=(1, 2)),
        GraphInput("random-10-4", "random", 10, 4, expect=10, density=0.5,
                   graph_seed=1, controls=(1, 2, 3)),
    ), relabel=True),
    "ingest": Workload("ingest", (
        SeriesInput("series-8x60", 8, 60, 3, order=3, threshold=0.5),
    )),
}


def all_input_names(table=WORKLOADS) -> list[str]:
    return [inp.name for wl in table.values() for inp in wl.inputs]


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def _splitmix64(seed: int, counter: int) -> int:
    z = (seed + (counter + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def family_edges(spec: GraphInput) -> list[tuple]:
    """Edges of a named family on nodes 1..n, as in the paper."""
    n, k = spec.n, spec.k
    if spec.family == "chain":
        return [tuple(range(j, j + k)) for j in range(1, n - k + 2)]
    if spec.family == "ring":
        return [tuple(sorted((j + t) % n + 1 for t in range(k))) for j in range(n)]
    if spec.family == "star":
        return [tuple(range(1, k)) + (leaf,) for leaf in range(k, n + 1)]
    if spec.family == "r-ring":
        stride = spec.k - spec.r
        return [
            tuple(sorted((i * stride + t) % n + 1 for t in range(k)))
            for i in range(n // stride)
        ]
    if spec.family == "random":
        # Edge kept when a splitmix64 draw on (seed, edge index) is below
        # the density: the paper's random uniform hypergraph, reproducible.
        seed = spec.graph_seed & _MASK64
        return [
            edge
            for counter, edge in enumerate(itertools.combinations(range(1, n + 1), k))
            if (_splitmix64(seed, counter) >> 11) / float(1 << 53) < spec.density
        ]
    raise ValueError(f"unknown family {spec.family!r}")


def latent_series(spec: SeriesInput, seed: int) -> np.ndarray:
    """channels x samples: each channel mixes two of a few shared factors
    plus independent noise, so some tuples correlate and most do not."""
    rng = np.random.default_rng([seed, spec.channels, spec.samples])
    latent = rng.standard_normal((spec.factors, spec.samples))
    loadings = np.zeros((spec.channels, spec.factors))
    for row in loadings:
        picks = rng.choice(spec.factors, size=2, replace=False)
        row[picks] = rng.uniform(0.3, 1.0, size=2)
    noise = rng.standard_normal((spec.channels, spec.samples))
    return loadings @ latent + noise


# ---------------------------------------------------------------------------
# Prepared inputs
# ---------------------------------------------------------------------------

@dataclass
class Prepared:
    """One generated input file and what the oracle needs to judge it."""

    spec: object
    argv: list
    path: str
    digest: str
    edges: list = field(default_factory=list)
    signals: np.ndarray | None = None


def _write(path: str, text: str) -> str:
    data = text.encode()
    with open(path, "wb") as fh:
        fh.write(data)
    return hashlib.sha256(data).hexdigest()


def prepare(workload: Workload, seed: int, workdir: str) -> list[Prepared]:
    """Generate and write every input of the workload for this seed."""
    prepared = []
    for spec in workload.inputs:
        rng = random.Random(f"{seed}/{spec.name}")
        if isinstance(spec, SeriesInput):
            signals = latent_series(spec, seed)
            path = os.path.join(workdir, f"{spec.name}.csv")
            text = "\n".join(",".join(map(repr, row)) for row in signals.tolist())
            digest = _write(path, text + "\n")
            argv = ["ingest", path, "--order", str(spec.order),
                    "--threshold", repr(spec.threshold)]
            prepared.append(Prepared(spec, argv, path, digest, signals=signals))
            continue
        perm = list(range(1, spec.n + 1))
        if workload.relabel:
            rng.shuffle(perm)
        edges = [tuple(perm[j - 1] for j in edge) for edge in family_edges(spec)]
        controls = tuple(perm[j - 1] for j in spec.controls)
        layout = [rng.sample(edge, len(edge)) for edge in edges]
        rng.shuffle(layout)
        path = os.path.join(workdir, f"{spec.name}.json")
        digest = _write(path, json.dumps({"n": spec.n, "edges": layout}))
        if workload.command == "check":
            argv = ["check", path, "--controls", ",".join(map(str, controls))]
        else:
            argv = ["mcn", path, "--method", workload.command]
        prepared.append(Prepared(spec, argv, path, digest, edges=edges))
    return prepared


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

class Oracle:
    """Judges CLI answers for one workload; every check runs untimed.

    ``greedy``: the witness is full-rank under ``verdict``, the value is at
    least the closed form, and it is the same on every pass. ``exact``: the
    value equals the closed form and the witness is full-rank. ``check``: the
    rank equals the pinned value. ``ingest``: every tuple whose
    multi-correlation, computed here from the generated signals, clears the
    threshold by more than ``INGEST_MARGIN`` is an edge, and every tuple
    below it by that margin is not.
    """

    def __init__(self, workload: Workload, prepared: list[Prepared]):
        self.workload = workload
        self.prepared = prepared
        self._first_value: dict = {}
        self._full_rank: dict = {}
        self._ingest_sets: dict = {}

    def judge(self, index: int, rc, stdout: str) -> str | None:
        """None for a right answer, else why it is wrong."""
        item = self.prepared[index]
        if rc != 0:
            return f"{item.spec.name}: exit code {rc}"
        try:
            doc = json.loads(stdout)
        except json.JSONDecodeError as exc:
            return f"{item.spec.name}: output is not JSON ({exc})"
        try:
            return getattr(self, f"_judge_{self.workload.command}")(item, doc)
        except (KeyError, TypeError, ValueError) as exc:
            return f"{item.spec.name}: malformed answer ({exc!r})"

    def _witness_full(self, item: Prepared, witness) -> bool:
        key = (item.spec.name, tuple(witness))
        if key not in self._full_rank:
            from hyperctrl import ControlMatrix, Hypergraph, adjacency_auto, verdict

            graph = Hypergraph(n=item.spec.n, edges=tuple(item.edges))
            result = verdict(adjacency_auto(graph), ControlMatrix(nodes=tuple(witness)))
            self._full_rank[key] = result.full
        return self._full_rank[key]

    def _judge_greedy(self, item, doc):
        name, value, witness = item.spec.name, doc["value"], doc["witness"]
        first = self._first_value.setdefault(name, value)
        if value != first:
            return f"{name}: greedy value {value} differs from {first} on an earlier pass"
        if value is None or value < item.spec.expect:
            return f"{name}: greedy value {value} below the closed form {item.spec.expect}"
        if len(witness) != value or not self._witness_full(item, witness):
            return f"{name}: greedy witness {witness} is not a full-rank control set"
        return None

    def _judge_exact(self, item, doc):
        name, value, witness = item.spec.name, doc["value"], doc["witness"]
        if value != item.spec.expect:
            return f"{name}: exact value {value}, expected {item.spec.expect}"
        if len(witness) != value or not self._witness_full(item, witness):
            return f"{name}: exact witness {witness} is not a full-rank control set"
        return None

    def _judge_check(self, item, doc):
        name = item.spec.name
        if doc["rank"] != item.spec.expect:
            return f"{name}: rank {doc['rank']}, expected {item.spec.expect}"
        if doc["full"] != (item.spec.expect == item.spec.n):
            return f"{name}: full={doc['full']} contradicts rank {doc['rank']}"
        return None

    def _ingest_expected(self, item):
        if item.spec.name not in self._ingest_sets:
            spec = item.spec
            corr = np.corrcoef(item.signals)
            tuples = np.array(
                list(itertools.combinations(range(spec.channels), spec.order)),
                dtype=np.intp,
            )
            minors = corr[tuples[:, :, None], tuples[:, None, :]]
            det = np.clip(np.linalg.det(minors), 0.0, 1.0)
            rho = np.sqrt(1.0 - det)
            one_based = [tuple(int(j) + 1 for j in t) for t in tuples]
            sure_in = {t for t, v in zip(one_based, rho) if v > spec.threshold + INGEST_MARGIN}
            sure_out = {t for t, v in zip(one_based, rho) if v < spec.threshold - INGEST_MARGIN}
            self._ingest_sets[spec.name] = (sure_in, sure_out)
        return self._ingest_sets[item.spec.name]

    def _judge_ingest(self, item, doc):
        name, spec = item.spec.name, item.spec
        if doc["n"] != spec.channels:
            return f"{name}: n={doc['n']}, expected {spec.channels}"
        edges = {tuple(sorted(e)) for e in doc["edges"]}
        if any(len(e) != spec.order for e in edges):
            return f"{name}: an edge does not have {spec.order} nodes"
        sure_in, sure_out = self._ingest_expected(item)
        missing = sure_in - edges
        extra = edges & sure_out
        if missing or extra:
            return (f"{name}: {len(missing)} tuples above the threshold missing, "
                    f"{len(extra)} below it reported")
        return None


def inputs_digest(items: list[Prepared]) -> list[dict]:
    return [
        {"name": p.spec.name, "argv": [os.path.basename(a) if a == p.path else a
                                       for a in p.argv], "sha256": p.digest}
        for p in items
    ]


def closed_form_check(table=WORKLOADS) -> list[str]:
    """Mismatches between the pinned MCN values and hyperctrl.mcn_predicted."""
    from hyperctrl import mcn_predicted

    problems = []
    for wl in table.values():
        if wl.command not in ("greedy", "exact"):
            continue
        for spec in wl.inputs:
            predicted = mcn_predicted(spec.family, spec.n, spec.k, spec.r)
            if predicted != spec.expect:
                problems.append(f"{spec.name}: pinned {spec.expect}, predicted {predicted}")
    return problems
