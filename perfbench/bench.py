"""Workloads, correctness checks and metrics of the CET benchmark.

Every workload drives the library's public entry points in this process:
set-up (``load_triples``/``load_pairs``/``assemble``, ``build_graph``,
``init_params``/``AdamState``), then a closed loop with one caller that waits
for each step before issuing the next. A step is one training batch (from one
``adam_step`` return to the next) or one ``evaluate`` pass over a fixed query
set. Library functions are always looked up as module attributes
(``cet.train.train_epoch``), so the tracer's patches apply to this caller too.

The untraced run has one instrumentation point inside the library: a
``perf_counter`` stamp when ``cet.train.adam_step`` returns. A fixed
reference kernel, timed before every set-up and after every measured pass,
gives the machine's speed during the run; the end-to-end times are scaled
by it (see ``reference_seconds``). The traced run cycles through three kinds
of pass: untraced, timed (every hook in ``HOOKS`` wrapped in a span) and
memory (spans plus ``tracemalloc``). Layer times come
from the timed passes only, because ``tracemalloc`` slows Python-heavy code
far more than BLAS; peak-allocation figures come from the memory passes. The
tracing overhead is measured in the same process.

Metric names and units are read from ``BENCHMARK.json``. A per-layer metric
whose hook, or whose attribute of a result, no longer exists is reported as
missing (``null``), never as 0, and counted in ``trace.missing_hooks``.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import cet.checkpoint
import cet.data
import cet.graph
import cet.optim
import cet.ranking
import cet.train

from spans import Tracer

def candidate_cells(bundle) -> int | None:
    """Scored candidate cells of a ``ScoreBundle``, None if the field is gone."""
    return getattr(getattr(bundle, "candidate_scores", None), "size", None)


# Sparse gradient maps {row id: gradient row} that adam_step receives.
GRAD_ROW_FIELDS = ("entity_rows", "relation_rows", "type_rows")


def sparse_row_count(grads) -> int | None:
    """Rows in the sparse gradient maps, None if grads no longer hold them."""
    rows = [getattr(grads, name, None) for name in GRAD_ROW_FIELDS]
    return sum(map(len, rows)) if all(isinstance(r, dict) for r in rows) else None


HOOKS = [
    ("cet.data", "load_triples", "data.load"),
    ("cet.data", "load_pairs", "data.load"),
    ("cet.data", "assemble", "data.assemble"),
    ("cet.graph", "build_graph", "graph.build"),
    ("cet.optim", "init_params", "optim.init"),
    ("cet.optim", "AdamState", "optim.init"),
    ("cet.train", "train_epoch", "train.epoch"),
    ("cet.train", "adam_step", "optim.adam_step"),
    ("cet.train", "score_all_neighbors", "scoring.call", candidate_cells),
    ("cet.train", "backward", "loss.backward"),
    ("cet.ranking", "evaluate", "ranking.evaluate"),
    ("cet.ranking", "score_all_neighbors", "scoring.call", candidate_cells),
    ("cet.ranking", "rank_one", "ranking.rank_one"),
    ("cet.checkpoint", "save_checkpoint", "checkpoint.save"),
    ("cet.checkpoint", "load_checkpoint", "checkpoint.load"),
]

# eval_mrr is a checked guard, not a bounded metric: across seeds it spreads
# more than any allowed bound (see perfbench/README.md).
SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
MODES = ("plain", "spans", "memory")  # the passes a traced run cycles through

SETUP_REPEATS = 3  # setup_s is the median of this many full set-ups
EVAL_ENTITIES = {"fb15ket": 600, "yago43ket": 60, "tiny": 20}  # fixed query set of fb15ket-eval
GUARD_ENTITIES = {"fb15ket": 200, "yago43ket": 30, "tiny": 20}  # guard query set of *-train
MB = 1024 * 1024

# About the median time of ``reference_seconds`` on a 2-vCPU VM (OpenBLAS
# 0.3.31, one thread). End-to-end times are reported at this machine speed:
# measured value * REFERENCE_NOMINAL_S / the run's median reference time.
REFERENCE_NOMINAL_S = 0.17


@dataclass(frozen=True)
class Workload:
    shape: str
    kind: str  # "train" or "eval"
    beta: float
    pass_batches: int  # batches in one pass over the fixed training subset
    mask_mode: bool = False
    train_ranks: float = 1.0  # share of degree ranks the training subset spans


WORKLOADS = {
    "fb15ket-train": Workload("fb15ket", "train", 4.0, 8),
    "yago43ket-train": Workload("yago43ket", "train", 2.0, 1),
    "fb15ket-eval": Workload("fb15ket", "eval", 4.0, 8),
    # One fixed batch below the top 1% of degrees: mask-mode cost grows with
    # degree, so a hub would make every pass's batch times bimodal.
    "fb15ket-mask-train": Workload("fb15ket", "train", 4.0, 1, mask_mode=True, train_ranks=0.99),
}


def machine_info() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "mem_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // MB,
    }


def tail(values) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with >= 10 samples beyond it.

    With fewer than 20 samples no such percentile lies above the median, so
    the median is reported, at percentile 50.
    """
    n = len(values)
    if n == 0:
        return 0.0, 0.0
    pct = max(50.0, np.floor(1000 * (n - 10) / n) / 10)
    return float(pct), float(np.percentile(values, pct))


def median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


_REF_RNG = np.random.default_rng(0)
_REF_Z = _REF_RNG.standard_normal((1408, 100)).astype(np.float32)  # one FB batch of B*(m+1) rows
_REF_W = _REF_RNG.standard_normal((3584, 100)).astype(np.float32)  # FB-shape classifier


def reference_seconds() -> float:
    """Time a fixed kernel that no change to the library can alter.

    The host's speed drifts by about 20% over minutes, and set-up (pure
    Python) drifts with the batches (BLAS and memory bound), so raw times of
    runs minutes apart differ by as much as the bounds allow. The kernel
    mixes the same kinds of work: a batch-shaped N2T matmul, softmax and
    backward matmul, and a Python dict loop.
    """
    start = time.perf_counter()
    for _ in range(3):
        scores = _REF_Z @ _REF_W.T
        weights = np.exp(scores - scores.max(axis=0))
        weights /= weights.sum(axis=0)
        weights.T @ _REF_Z
    counts: dict[int, int] = {}
    for key in range(100_000):
        counts[key & 1023] = counts.get(key & 1023, 0) + key
    return time.perf_counter() - start


@dataclass
class Model:
    vocab: object
    dataset: object
    graph: object
    params: object
    state: object
    rows_read: int


def warm_start(params, dataset, num_entities: int) -> None:
    """Set each type's bias to the log-odds of its training frequency.

    A trained model's bias ends up near this prior. Starting from it keeps the
    guard ``eval_mrr`` well above the random-ranking floor. The cost of every
    step is independent of the parameter values.
    """
    counts = np.bincount([t for _, t in dataset.train], minlength=len(params.b))
    p = np.clip(counts / num_entities, 1e-6, 1 - 1e-6)
    params.b[:] = np.log(p / (1 - p))


def set_up(corpus: Path, config) -> Model:
    paths = cet.data.default_paths(corpus)
    triples = cet.data.load_triples(paths["triples"])
    splits = [cet.data.load_pairs(paths[name]) for name in ("train", "valid", "test")]
    vocab, dataset = cet.data.assemble(triples, *splits)
    graph = cet.graph.build_graph(vocab, triples, splits[0])
    params = cet.optim.init_params(vocab, config.dim, config.seed)
    warm_start(params, dataset, vocab.num_entities)
    state = cet.optim.AdamState(params, config.lr)
    return Model(vocab, dataset, graph, params, state, len(triples) + sum(map(len, splits)))


@dataclass
class Pass:
    seconds: float
    steps: list[float]  # step durations in seconds
    items: int  # entities trained or queries ranked
    mode: str = "plain"  # one of MODES


def times(spans) -> list[float] | None:
    return None if spans is None else [s.duration for s in spans]


def stat(fn, values, factor: float = 1.0):
    """``fn(values) * factor``: 0 for an idle layer, None for a missing one."""
    if values is None:
        return None
    return fn(values) * factor if len(values) else 0


@dataclass
class Run:
    """One workload at one seed: set-up, guards, then the measured window."""

    name: str
    seed: int
    seconds: float
    trace: bool
    corpus: Path
    work: Path
    failures: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def __post_init__(self):
        self.workload = WORKLOADS[self.name]
        self.record = json.loads((self.corpus / "corpus.json").read_text())
        self.shape = self.record["shape"]
        self.config = cet.train.TrainConfig(
            beta=self.workload.beta, mask_mode=self.workload.mask_mode, seed=self.seed
        )
        self.tracer = Tracer(HOOKS)
        self.stamps: list[float] = []
        self.batch_peaks: list[int] = []
        self.sparse_rows: list[int | None] = []
        self.timing_spans: list = []  # spans of the timed passes
        self.memory_spans: list = []  # spans of the memory passes
        self.checkpoint_bytes = 0
        self.warm_loss: float | None = None
        self.mrr_seen: list[float] = []
        self.reference: list[float] = []  # reference_seconds() samples of this run
        self.missing: list[str] = []  # hooks and result fields that are gone

    def expect(self, ok, what: str) -> bool:
        if not ok:
            self.failures.append(what)
        return bool(ok)

    # -- hooks ------------------------------------------------------------
    def _install_stamp(self) -> None:
        original = self._adam_step = getattr(cet.train, "adam_step", None)
        if not self.expect(original is not None, "cet.train.adam_step is gone, so batches cannot be timed"):
            return

        def adam_step(*args, **kwargs):
            result = original(*args, **kwargs)
            self.stamps.append(time.perf_counter())
            if self.tracer.enabled:
                if tracemalloc.is_tracing():
                    self.batch_peaks.append(self.tracer.interval_peak())
                self.sparse_rows.append(sparse_row_count(args[2]))
            return result

        cet.train.adam_step = adam_step

    # -- phases -----------------------------------------------------------
    def setups(self) -> tuple[Model, list[float]]:
        times = []
        previous = None
        for _ in range(SETUP_REPEATS):
            model = None  # so that set-ups do not overlap in memory
            self.reference.append(reference_seconds())
            start = time.perf_counter()
            model = set_up(self.corpus, self.config)
            times.append(time.perf_counter() - start)
            if previous is not None:
                self.expect(
                    all(np.array_equal(getattr(previous, n), getattr(model.params, n))
                        for n in ("entity_emb", "relation_emb", "W", "b")),
                    "set-up is not deterministic",
                )
            previous = model.params
        return model, times

    def check_corpus(self, model: Model) -> np.ndarray:
        rec = self.record
        vocab = model.vocab
        self.expect(
            (vocab.num_entities, vocab.num_relations, vocab.num_types)
            == (rec["entities"], rec["relations"] + 1, rec["types"]),
            "vocabulary sizes differ from the corpus",
        )
        self.expect(model.dataset.drop_counts == rec["drop_counts"],
                    f"assemble dropped rows: {model.dataset.drop_counts}")
        self.expect(model.graph.num_directed_edges == 2 * (rec["rows"]["triples"] + rec["rows"]["train"]),
                    "graph edge count differs from the corpus")
        degrees = np.array([model.graph.degree(e) for e in range(vocab.num_entities)])
        self.expect(degrees.max() == rec["degree_max"], "graph max degree differs from the corpus")
        return degrees

    def subsets(self, model: Model, queries: dict, ranks: float = 1.0):
        """The fixed training subset and a fixed validation query set.

        Both are entities at evenly spaced degree ranks, so hubs and the tail
        are in them in their population shares and every seed sees the same
        degree profile. ``ranks`` < 1 leaves out the highest-degree queries.
        """
        ds = model.dataset
        degree = model.graph.degree

        def spaced(entities, count: int, top: float = 1.0) -> list[int]:
            by_degree = sorted(entities, key=lambda e: (degree(e), e))
            last = int((len(by_degree) - 1) * top)
            return sorted({by_degree[i] for i in np.linspace(0, last, min(count, len(by_degree))).round().astype(int)})

        chosen = spaced(ds.train_types, self.workload.pass_batches * self.config.batch_size,
                        self.workload.train_ranks)
        train_sub = cet.data.TypingDataset(
            train=ds.train, valid=[], test=[], known_types=ds.known_types,
            train_types={e: ds.train_types[e] for e in chosen},
        )
        valid_entities = {e for e, _ in ds.valid}
        picks = set(spaced(valid_entities, queries[self.shape], ranks))
        eval_sub = cet.data.TypingDataset(
            train=ds.train, valid=[q for q in ds.valid if q[0] in picks], test=[],
            known_types=ds.known_types, train_types=ds.train_types,
        )
        return train_sub, eval_sub, len(valid_entities) / len(picks)

    def train_pass(self, model: Model, sub, rng) -> Pass | None:
        self.stamps = []
        self.tracer.interval_peak()
        start = time.perf_counter()
        try:
            loss = cet.train.train_epoch(model.params, model.state, model.graph, sub, self.config, rng)
        except cet.optim.NumericError as exc:
            self.attempted += len(self.stamps) + 1
            self.failed += 1
            self.expect(False, f"training batch failed: {exc}")
            return None
        end = time.perf_counter()
        batches = -(-len(sub.train_types) // self.config.batch_size)
        self.attempted += len(self.stamps)
        self.expect(len(self.stamps) == batches, f"{len(self.stamps)} adam steps for {batches} batches")
        if not self.expect(np.isfinite(loss), f"non-finite pass loss {loss}"):
            return None
        if self.warm_loss is None:
            self.warm_loss = float(loss)
        return Pass(end - start, np.diff([start] + self.stamps).tolist(), len(sub.train_types))

    def eval_pass(self, model: Model, sub, params=None) -> Pass | None:
        start = time.perf_counter()
        report = cet.ranking.evaluate(
            model.params if params is None else params, model.graph, sub, "valid", self.config.alpha, keep_ranks=True
        )
        end = time.perf_counter()
        ranks = np.array([rank for _, _, rank in report.ranks], dtype=float)
        bad = int((~np.isfinite(ranks) | (ranks < 1) | (ranks > model.vocab.num_types)).sum())
        self.attempted += len(ranks)
        self.failed += bad
        ok = self.expect(bad == 0, f"{bad} ranks outside [1, {model.vocab.num_types}]")
        ok &= self.expect(0 < report.mrr <= 1, f"eval_mrr {report.mrr} outside (0, 1]")
        ok &= self.expect(not self.mrr_seen or report.mrr == self.mrr_seen[0],
                          "evaluation passes over the same parameters disagree")
        self.mrr_seen.append(report.mrr)
        return Pass(end - start, [end - start], len(ranks)) if ok else None

    def checkpoint_round_trips(self, model: Model) -> list[float]:
        path = self.work / "checkpoint.cet"
        times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            cet.checkpoint.save_checkpoint(path, model.params, model.vocab, self.config.to_dict())
            params, vocab, _ = cet.checkpoint.load_checkpoint(path)
            times.append(time.perf_counter() - start)
            self.expect(
                vocab.type_names == model.vocab.type_names
                and all(np.array_equal(getattr(params, n), getattr(model.params, n))
                        for n in ("entity_emb", "relation_emb", "type_emb", "W", "b")),
                "checkpoint round trip changed the parameters",
            )
        self.checkpoint_bytes = path.stat().st_size
        model.params = params  # evaluate what was read back
        return times

    def window(self, model: Model, train_sub, eval_sub, rng) -> list[Pass]:
        """Measured passes until ``seconds`` have passed; traced runs cycle MODES."""
        passes = []
        start = time.perf_counter()
        while True:
            mode = MODES[len(passes) % len(MODES)] if self.trace else "plain"
            with self.phase(mode != "plain", memory=mode == "memory"):
                if self.workload.kind == "train":
                    done = self.train_pass(model, train_sub, rng)
                else:
                    done = self.eval_pass(model, eval_sub)
            if done is None:
                return passes
            self.reference.append(reference_seconds())
            done.mode = mode
            passes.append(done)
            if mode == "spans":
                self.timing_spans += self.tracer.spans
            elif mode == "memory":
                self.memory_spans += self.tracer.spans
            if time.perf_counter() - start >= self.seconds and (not self.trace or len(passes) >= len(MODES)):
                return passes

    # -- the whole run ------------------------------------------------------
    def execute(self) -> dict:
        self._install_stamp()
        try:
            return self._execute()
        finally:
            self.tracer.disable()
            if self._adam_step is not None:
                cet.train.adam_step = self._adam_step

    @contextmanager
    def phase(self, traced: bool, memory: bool = True):
        """One phase of the run; its spans replace those of the last phase.

        ``memory=False`` skips tracemalloc, which slows Python-heavy code
        such as set-up about tenfold.
        """
        self.tracer.clear()
        if traced:
            self.tracer.enable(memory)
        try:
            yield
        finally:
            self.tracer.disable()

    def durations(self, *names: str) -> dict[str, list[float] | None]:
        """Span durations of the last phase by name; None for a missing hook."""
        return {name: times(self.spans(name, self.tracer.spans)) for name in names}

    def spans(self, name: str, pool: list) -> list | None:
        return None if name in self.tracer.missing_spans else [s for s in pool if s.name == name]

    def _execute(self) -> dict:
        kind = self.workload.kind
        with self.phase(self.trace, memory=False):
            model, setup_times = self.setups()
        setup_spans = self.durations("data.load", "data.assemble", "graph.build", "optim.init")
        degrees = self.check_corpus(model)
        train_sub, eval_sub, eval_scale = self.subsets(model, EVAL_ENTITIES)
        self.train_sub_entities = list(train_sub.train_types)
        rng = np.random.default_rng(self.seed)
        info = {"setup_times": setup_times, "checkpoint_times": [], "passes": []}
        failed = {"metrics": {}, "info": info}

        # Warm-up pass: fills caches and gives train_loss, which is fixed by
        # the seed because the subset, the sampling RNG and the start are.
        # A traced run traces it with tracemalloc, so a guard that moved
        # under tracing would show.
        with self.phase(self.trace and kind == "train"):
            warm = self.train_pass(model, train_sub, rng)
        if warm is None:
            return failed
        ckpt_spans: dict[str, list[float] | None] = {}
        if kind == "eval":
            with self.phase(self.trace, memory=False):
                info["checkpoint_times"] = self.checkpoint_round_trips(model)
            ckpt_spans = self.durations("checkpoint.save", "checkpoint.load")
            # Warm-up evaluation pass; it also gives eval_mrr.
            with self.phase(self.trace):
                if self.eval_pass(model, eval_sub) is None:
                    return failed
        else:
            snapshot = model.params.copy()

        self.batch_peaks, self.sparse_rows = [], []
        passes = self.window(model, train_sub, eval_sub, rng)
        info["passes"] = [p.__dict__ for p in passes]
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        self.expect(passes, "no measured pass completed")
        if kind == "train" and passes:
            # Guard evaluation of the parameters after the warm-up pass. It
            # runs after peak_rss_mb is read and leaves out the top 1% of
            # degrees, whose memory belongs to the evaluation workload.
            _, guard_sub, _ = self.subsets(model, GUARD_ENTITIES, ranks=0.99)
            self.eval_pass(model, guard_sub, snapshot)
        if self.failures:
            return failed
        if self.trace:
            metrics = self.layer_metrics(model, degrees, passes, setup_spans, ckpt_spans)
        else:
            metrics = self.end_to_end(model, passes, setup_times, info["checkpoint_times"], eval_scale, info)
        return {"metrics": metrics, "info": info}

    # -- metrics ------------------------------------------------------------
    @staticmethod
    def as_metrics(values: dict, units: dict) -> dict:
        if values.keys() != units.keys():
            raise KeyError(f"computed metrics differ from BENCHMARK.json: {sorted(values.keys() ^ units.keys())}")
        return {k: {"value": values[k], "unit": u} for k, u in units.items()}

    def end_to_end(self, model, passes, setup_times, ckpt_times, eval_scale, info) -> dict:
        steps = [s for p in passes for s in p.steps]
        if self.workload.kind == "train":
            trainable = [e for e in model.dataset.train_types if model.graph.degree(e) > 0]
            full = -(-len(trainable) // self.config.batch_size)
            pass_est = float(np.mean(steps)) * full
            if self.config.mask_mode:
                # Mask-mode cost grows with degree and the subset leaves out
                # the hubs, so scale by mean degree (all trainable ÷ subset).
                mean_degree = lambda es: float(np.mean([model.graph.degree(e) for e in es]))  # noqa: E731
                info["degree_scale"] = mean_degree(trainable) / mean_degree(self.train_sub_entities)
                pass_est *= info["degree_scale"]
        else:
            pass_est = float(np.mean(steps)) * eval_scale
        setup_s = median(setup_times) + (median(ckpt_times) if ckpt_times else 0.0)
        speed = REFERENCE_NOMINAL_S / median(self.reference)  # < 1 while the machine runs slow
        info["reference_s"], info["speed_scale"] = self.reference, speed
        info["unscaled"] = {
            "setup_s": setup_s,
            "step_p50_ms": median(steps) * 1000,
            "examples_per_s": sum(p.items for p in passes) / sum(p.seconds for p in passes),
            "pass_est_s": pass_est,
        }
        values = {name: v / speed if name == "examples_per_s" else v * speed for name, v in info["unscaled"].items()}
        values.update(train_loss=self.warm_loss, peak_rss_mb=self.peak_rss_mb)
        return self.as_metrics(values, END_TO_END)

    def layer_metrics(self, model, degrees, passes, setup_spans, ckpt_spans) -> dict:
        gone = self.tracer.missing_spans
        timed = lambda name: self.spans(name, self.timing_spans)  # noqa: E731

        def per_setup(name):
            return stat(sum, setup_spans[name], 1 / SETUP_REPEATS)

        def ckpt(name):
            return None if name in gone else ckpt_spans.get(name, [])

        def self_time(name, *children):
            """Summed self time of ``name``; None if it or a timed child is gone."""
            if gone & {name, *children}:
                return None
            return sum(s.self_s for s in timed(name))

        adam, backward, scoring = (times(timed(n)) for n in ("optim.adam_step", "loss.backward", "scoring.call"))
        rank_one = times(timed("ranking.rank_one"))
        evaluate = times(timed("ranking.evaluate"))
        score_mem = self.spans("scoring.call", self.memory_spans)
        score_peaks = None if score_mem is None else [s.peak_bytes for s in score_mem]
        cells = None if scoring is None else [s.count for s in timed("scoring.call")]
        if cells is not None and None in cells:
            cells = None
            self.missing.append("scoring.call result field candidate_scores")
        sparse = None if None in self.sparse_rows else median(self.sparse_rows)
        if sparse is None:
            self.missing.append("adam_step gradient fields " + "/".join(GRAD_ROW_FIELDS))
        batches = [s for p in passes if p.mode == "spans" for s in p.steps] if self.workload.kind == "train" else []
        batch_tail_pct, batch_tail = tail(batches)
        dense = model.params.W.nbytes + model.params.b.nbytes
        overhead = {m: median([p.seconds for p in passes if p.mode == m]) for m in MODES}
        values = {
            "data.load_s": per_setup("data.load"),
            "data.assemble_s": per_setup("data.assemble"),
            "data.rows_read": model.rows_read,
            "data.rows_dropped": sum(model.dataset.drop_counts.values()),
            "graph.build_s": per_setup("graph.build"),
            "graph.edges": model.graph.num_directed_edges,
            "graph.degree_p50": float(np.percentile(degrees, 50)),
            "graph.degree_p99": float(np.percentile(degrees, 99)),
            "graph.degree_max": int(degrees.max()),
            "optim.init_s": per_setup("optim.init"),
            "optim.adam_step_p50_ms": stat(median, adam, 1000),
            "optim.adam_step_total_s": stat(sum, adam),
            "optim.sparse_rows_per_step": sparse,
            # Adam reads parameter, gradient and both moments and writes three.
            "optim.dense_bytes_per_step": stat(lambda _: 7 * dense, adam),
            "train.batch_p50_ms": median(batches) * 1000,
            "train.batch_tail_ms": batch_tail * 1000,
            "train.batch_tail_pct": batch_tail_pct,
            "train.batch_samples": len(batches),
            "train.self_s": self_time("train.epoch", "optim.adam_step", "scoring.call", "loss.backward"),
            "train.batch_peak_alloc_mb": max(self.batch_peaks, default=0) / MB,
            "train.cand_cells_per_batch": self.cand_cells_per_batch(model) if batches else 0,
            "loss.backward_p50_ms": stat(median, backward, 1000),
            "loss.backward_total_s": stat(sum, backward),
            "scoring.call_p50_ms": stat(median, scoring, 1000),
            "scoring.call_tail_ms": stat(lambda v: tail(v)[1], scoring, 1000),
            "scoring.calls": stat(len, scoring),
            "scoring.total_s": stat(sum, scoring),
            "scoring.cand_cells": stat(sum, cells),
            "scoring.call_peak_alloc_mb": stat(max, score_peaks, 1 / MB),
            "ranking.evaluate_s": stat(sum, evaluate),
            "ranking.rank_one_total_s": stat(sum, rank_one),
            "ranking.self_s": self_time("ranking.evaluate", "scoring.call", "ranking.rank_one"),
            "ranking.queries": stat(len, rank_one),
            "checkpoint.save_s": stat(median, ckpt("checkpoint.save")),
            "checkpoint.load_s": stat(median, ckpt("checkpoint.load")),
            "checkpoint.bytes": self.checkpoint_bytes,
            "trace.overhead_frac": overhead["spans"] / overhead["plain"] - 1,
            "trace.missing_hooks": len(self.tracer.missing) + len(self.missing),
        }
        self.overhead = {"spans": values["trace.overhead_frac"], "memory": overhead["memory"] / overhead["plain"] - 1}
        return self.as_metrics(values, PER_LAYER)

    def cand_cells_per_batch(self, model) -> float:
        """B * (m + 1) * L: candidate rows times types, per batch (computed)."""
        rows = 1 if self.config.use_agg2t else 0
        if self.config.mask_mode:
            sub = self.train_sub_entities
            m = sum(model.graph.degree(e) for e in sub) / len(sub)
        else:
            m = self.config.sample_size
        return self.config.batch_size * (m + rows) * model.params.num_types
