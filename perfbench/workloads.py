"""The benchmark workloads.

Each workload is a closed loop: one thread of the benchmark process submits one
operation at a time and waits for it. An operation is a flagship job, an append or a
sink read, or one ``parse()`` call. Every operation's output is checked; a
check that fails, or an operation that raises, counts as a failed
operation instead of ending the run.

In the traced run each step is followed by a replay that re-runs the step's
work one span per layer, so every span covers executed work. The replay
calls the program's public functions on the same inputs: its per-shard
kernels in the benchmark process, and its Ray Data stages (``read_sink``,
the ``compat`` parse's stages, ``sink_counts``) materialized inside their
span. The replay runs twice, traced and untraced; the difference is the
tracing overhead.
"""

from __future__ import annotations

import contextlib
import functools
import os
import shutil
import statistics
import subprocess
import time
import traceback
from dataclasses import dataclass
from urllib.parse import unquote

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import gen
from spans import Recorder, bytes_reader

SINK_KEYS = ["role", "tool", "template_id"]

# input sizes: (rows per operation, files); "small" is the self-test size
SIZES = {
    "aggregate_wide_bank": {"full": (300_000, 8), "small": (4_000, 2)},
    # base rows and files of the routed output (one full fragment), then rows
    # and files appended (a new fragment)
    "ingest_and_read": {"full": (96_000, 4, 160_000, 2), "small": (4_000, 4, 1_000, 2)},
    "upstream_drain": {"full": (20_000,), "small": (500,)},
}
WARM_ROWS = 2_000


@dataclass
class Op:
    kind: str  # "job", "append", "read", "parse" or "build"
    seconds: float
    rows: int
    ok: bool
    error: str = ""


def timed(kind: str, rows: int, fn, check):
    """Run ``fn`` timed, then ``check(result)`` untimed; never raises."""
    t0 = time.perf_counter()
    try:
        out = fn()
    except Exception:  # an operation that raises is a failed operation
        return Op(kind, time.perf_counter() - t0, rows, False, traceback.format_exc(limit=3)), None
    dt = time.perf_counter() - t0
    try:
        problem = check(out)
    except Exception:
        problem = traceback.format_exc(limit=3)
    return Op(kind, dt, rows, not problem, problem or ""), out


def bank_of(specs):
    from logparser_ray.core.bank import PatternBank, Template

    return PatternBank([Template.from_string(t, i) for i, (t, *_x) in enumerate(specs)])


def sink_table_counts(table: pa.Table) -> dict[str, int]:
    cols = [table[c].to_pylist() for c in (*SINK_KEYS, "n_turns")]
    return {f"{r}\t{t}\t{i}": int(n) for r, t, i, n in zip(*cols)}


def diff_counts(got: dict, want: dict) -> str:
    if got == want:
        return ""
    bad = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
    return f"{len(bad)} sink counts differ from golden, e.g. {[(k, got.get(k), want.get(k)) for k in bad[:3]]}"


def check_routed(res: dict, golden: dict, rows: int) -> str:
    """Sink counts equal the golden counts and rows_in == rows_written."""
    from logparser_ray.state.manifest import manifests_sink_table

    ms = res["manifests"]
    got = sink_table_counts(manifests_sink_table(ms))
    problems = [diff_counts(got, golden)]
    rin, rout = sum(m.rows_in for m in ms), sum(m.rows_written for m in ms)
    if not rin == rout == rows:
        problems.append(f"rows_in={rin} rows_written={rout} expected {rows}")
    return "; ".join(p for p in problems if p)


class Workload:
    """Base: ``prepare`` generates inputs (before Ray starts), ``warmup``
    is the set-up job, ``start`` builds state before the measured loop (its
    operations are checked but not in any latency), ``step`` runs one
    closed-loop iteration and ``replay`` re-runs it layer by layer."""

    name = ""

    def __init__(self, cache: str, work: str, seed: int, size: str, corrupt_golden: bool):
        self.cache, self.work, self.seed, self.size = cache, work, seed, size
        self.corrupt_golden = corrupt_golden
        self.step_no = 0

    def _golden(self, path: str) -> dict:
        g = gen.load_golden(path)
        if self.corrupt_golden and "sink_counts" in g:
            k = sorted(g["sink_counts"])[0]
            g["sink_counts"][k] += 1
        if self.corrupt_golden and "ok_lines" in g:
            g["ok_lines"] += 1
        return g

    def _transcripts(self, key: str, n: int, files: int, specs) -> None:
        """Generated transcripts, their golden answer and the bank."""
        self.specs, self.rows = specs, n
        self.input = gen.ensure_transcripts(self.cache, key, n, files, self.seed, specs)
        self.warm = gen.ensure_transcripts(self.cache, key, WARM_ROWS, 1, self.seed, specs)
        self.golden = self._golden(self.input)
        self.bank = bank_of(specs)
        in_dir = os.path.join(self.input, "input")
        self.paths = sorted(os.path.join(in_dir, f) for f in os.listdir(in_dir))

    @functools.cached_property
    def kernels(self) -> "ShardKernels":
        return ShardKernels(self.bank)

    def _dir(self, name: str, fresh: bool = True) -> str:
        p = os.path.join(self.work, name)
        if fresh:
            shutil.rmtree(p, ignore_errors=True)
        return p

    def prepare(self) -> None: ...

    def warmup(self) -> None: ...

    def start(self) -> list[Op]:
        return []

    def step(self) -> list[Op]:
        raise NotImplementedError

    def finish(self) -> str:
        """Checks of the final state, made after the loop; a problem fails
        the last write operation."""
        return ""

    def replay(self, rec: Recorder) -> dict[str, float]:
        """Re-run the last step's work in this process, one span per layer;
        returns the layer counters measured along the way."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# shared per-shard replay: read → match → enrich [→ pack/write | partial]
# ---------------------------------------------------------------------------


class ShardKernels:
    def __init__(self, bank):
        from logparser_ray import fixtures
        from logparser_ray.stages.enrich import DimEnricher

        self.compiled = bank.compile()
        self.trie = len(bank) >= type(self.compiled).TRIE_MIN_TEMPLATES
        self.enricher = DimEnricher(
            [
                (fixtures.roles_dim(), "role", ["role_class"]),
                (fixtures.tools_dim(), "tool", ["tool_family", "is_sandboxed"]),
            ]
        )

    def run(self, rec: Recorder, paths: list[str], sink, counters: dict) -> None:
        """``sink(table, shard_index)`` consumes each enriched shard."""
        for i, path in enumerate(paths):
            read = bytes_reader()
            with rec.span("sources.read"):
                tbl = pq.read_table(path)
            add(counters, "sources.bytes_read", read())
            add(counters, "sources.rows_read", tbl.num_rows)
            with rec.span("core.bank.match"):
                tbl = self.compiled.match_table(tbl)
            add(counters, "_fallthrough_rows", pc.sum(pc.equal(tbl["template_id"], gen.FALLTHROUGH_ID)).as_py() or 0)
            with rec.span("stages.enrich.enrich"):
                tbl = self.enricher(tbl)
            add(counters, "_enriched_nulls", sum(tbl[c].null_count for c in ("role_class", "tool_family", "is_sandboxed")))
            sink(tbl, i)
        rows = counters["sources.rows_read"]
        counters["core.bank.fallthrough_frac"] = counters.pop("_fallthrough_rows") / rows
        counters["stages.enrich.null_frac"] = counters.pop("_enriched_nulls") / (3 * rows)
        counters["core.bank.trie_path"] = float(self.trie)


def add(counters: dict, key: str, v: float) -> None:
    counters[key] = counters.get(key, 0) + v


def route_sink(rec: Recorder, out_dir: str, counters: dict):
    """Replay of the fused routed write for one shard."""
    from logparser_ray.stages import route

    def sink(tbl: pa.Table, i: int) -> None:
        with rec.instrument(route, "pack_by_key", "stages.route.pack"), rec.span("stages.route.write"):
            index = route.write_packed_shard(tbl, out_dir, f"pack-s{i:05d}", SINK_KEYS)
        add(counters, "stages.route.bytes_written", os.path.getsize(os.path.join(out_dir, f"pack-s{i:05d}.parquet")))
        add(counters, "stages.route.row_groups", len(index))
        add(counters, "stages.route.files", 1)

    return sink


def sync() -> None:
    """Flush earlier writes so their writeback does not land in a timed op."""
    subprocess.run(["sync"], check=True, timeout=120)


# ---------------------------------------------------------------------------
# aggregate_wide_bank
# ---------------------------------------------------------------------------


class AggregateWideBank(Workload):
    """``run_flagship(out_dir=None)``: read → match → enrich → sink_counts,
    over a seeded ~96-template bank (trie match path)."""

    name = "aggregate_wide_bank"

    def prepare(self) -> None:
        self._transcripts(self.name, *SIZES[self.name][self.size], gen.wide_bank(self.seed))

    @staticmethod
    def _collect(ds) -> pa.Table:
        return pa.Table.from_pandas(ds.to_pandas(), preserve_index=False)

    def warmup(self) -> None:
        from logparser_ray.pipelines.flagship import run_flagship

        self._collect(run_flagship(os.path.join(self.warm, "input"), out_dir=None, bank=self.bank)["sink_counts"])

    def step(self) -> list[Op]:
        from logparser_ray.pipelines.flagship import run_flagship

        op, _ = timed(
            "job",
            self.rows,
            lambda: self._collect(
                run_flagship(os.path.join(self.input, "input"), out_dir=None, bank=self.bank)["sink_counts"]
            ),
            lambda t: diff_counts(sink_table_counts(t), self.golden["sink_counts"]),
        )
        return [op]

    def replay(self, rec: Recorder) -> dict[str, float]:
        import ray

        from logparser_ray.stages.aggregate import SINK_KEYS as KEYS
        from logparser_ray.stages.aggregate import partial_count, sink_counts

        counters: dict = {}
        keys: list[pa.Table] = []
        partial_rows = 0

        def sink(tbl: pa.Table, i: int) -> None:
            nonlocal partial_rows
            keys.append(tbl.select(KEYS))
            partial_rows += partial_count(KEYS)(tbl).num_rows

        self.kernels.run(rec, self.paths, sink, counters)
        counters["stages.aggregate.partial_ratio"] = partial_rows / counters["sources.rows_read"]
        # the combiner and the groupby exchange, as Ray runs them, over the
        # key columns already in the object store
        ds = ray.data.from_arrow(keys).materialize()
        with rec.span("stages.aggregate.groupby"):
            self._collect(sink_counts(ds))
        return counters


# ---------------------------------------------------------------------------
# ingest_and_read
# ---------------------------------------------------------------------------


class IngestAndRead(Workload):
    """Appends to a routed output (``run_flagship(resume=True)``) beside
    consumers reading seeded sinks back with ``read_sink``. Every step
    restores the base output first, so each append and read sees an output
    of the same size and steps do not drift as the run goes on."""

    name = "ingest_and_read"
    READS_PER_STEP = 3
    # shards per fragment: the base output is one full fragment, skipped on
    # resume. Few, large shards keep a sink in few files, so a read is a few
    # Ray tasks rather than one per shard
    FRAG = 4

    def prepare(self) -> None:
        n, files, rows, append_files = SIZES[self.name][self.size]
        self._transcripts(self.name, n, files, gen.FLAT_BANK)
        self.rows = rows
        batch = gen.ensure_transcripts(
            self.cache, f"{self.name}-append", rows, append_files, self.seed + 1_000_000, gen.FLAT_BANK
        )
        self.batch = sorted(os.path.join(batch, "input", f) for f in os.listdir(os.path.join(batch, "input")))
        self.rows_total = n + rows
        self.golden_total = gen.add_counts(self.golden["sink_counts"], self._golden(batch)["sink_counts"])

    def warmup(self) -> None:
        from logparser_ray.pipelines.flagship import run_flagship
        from logparser_ray.state.manifest import read_sink

        out = self._dir("warm")
        res = run_flagship(os.path.join(self.warm, "input"), out_dir=out, bank=self.bank, resume=False)
        rel = next(iter(res["manifests"][0].sink_counts))
        read_sink(out, self._sink(rel)).count()

    @staticmethod
    def _sink(rel: str) -> dict[str, str]:
        return dict((unquote(k), unquote(v)) for k, v in (p.split("=", 1) for p in rel.split("/")))

    def start(self) -> list[Op]:
        from logparser_ray.pipelines.flagship import run_flagship

        self.input, self.out = self._dir("input"), self._dir("out")
        shutil.copytree(os.path.dirname(self.paths[0]), self.input)
        build, _ = timed(
            "build",
            self.rows_total - self.rows,
            lambda: run_flagship(self.input, out_dir=self.out, bank=self.bank, resume=False, files_per_fragment=self.FRAG),
            lambda res: check_routed(res, self.golden["sink_counts"], self.rows_total - self.rows),
        )
        shutil.copytree(self.out, self._dir("base_out"))
        # appended shards sort after the base ones, as new part files do
        self.new_paths = [
            os.path.join(self.input, f"part-{len(self.paths) + i:05d}.parquet") for i in range(len(self.batch))
        ]
        return [build]

    def step(self) -> list[Op]:
        from logparser_ray.pipelines.flagship import run_flagship
        from logparser_ray.state.manifest import list_manifests, read_sink

        self.step_no += 1
        shutil.rmtree(self.out)
        shutil.copytree(self._dir("base_out", fresh=False), self.out)
        for src, dst in zip(self.batch, self.new_paths):
            shutil.copyfile(src, dst)
        sync()
        append, res = timed(
            "append",
            self.rows,
            lambda: run_flagship(self.input, out_dir=self.out, bank=self.bank, resume=True, files_per_fragment=self.FRAG),
            lambda res: check_routed(res, self.golden_total, self.rows_total),
        )
        self.last_result = res
        ops = [append]

        # seeded sinks spread from the smallest to the largest
        counts: dict[str, int] = {}
        for m in list_manifests(self.out):
            for rel, n in m.sink_counts.items():
                counts[rel] = counts.get(rel, 0) + n
        by_size = sorted(counts, key=lambda r: (counts[r], r))
        rng = np.random.default_rng([self.seed, self.step_no])
        picks = np.sort(rng.choice(len(by_size), size=min(self.READS_PER_STEP, len(by_size)), replace=False))
        self.read_sinks = [by_size[i] for i in picks]
        for rel in self.read_sinks:
            read, _ = timed(
                "read",
                counts[rel],
                lambda rel=rel: read_sink(self.out, self._sink(rel)).count(),
                lambda n, rel=rel: "" if n == counts[rel] else f"read_sink {rel}: {n} rows, manifest says {counts[rel]}",
            )
            ops.append(read)
        return ops

    def finish(self) -> str:
        """``audit_fragment`` is ok for the fragment the last append wrote.
        The audit reads one Parquet footer per sink-index entry, so it runs
        once, outside the measured loop."""
        from logparser_ray.state.manifest import audit_fragment, list_manifests

        last = list_manifests(self.out)[-1].fragment
        a = audit_fragment(self.out, last)
        return "" if a["ok"] else f"audit {last}: {a['mismatches']}"

    def replay(self, rec: Recorder) -> dict[str, float]:
        from logparser_ray.state.manifest import RoutedRunner, read_sink

        counters: dict = {}
        self.kernels.run(rec, self.new_paths, route_sink(rec, self._dir("replay"), counters), counters)

        # resume-time validation of every fragment, now all done, as
        # run_flagship(resume=True) forms them: nothing is re-run
        files = sorted(os.path.join(self.input, f) for f in os.listdir(self.input) if f.endswith(".parquet"))
        fragments = {f"f{i // self.FRAG:05d}": files[i : i + self.FRAG] for i in range(0, len(files), self.FRAG)}
        read = bytes_reader()
        with rec.span("state.manifest.validate"):
            RoutedRunner(self.out, None).run(fragments, resume=True)
        counters["state.manifest.manifest_bytes_read"] = read()
        metrics = (self.last_result or {}).get("metrics", {})
        if metrics.get("fragments"):
            counters["state.manifest.skipped_ratio"] = metrics["fragments_skipped"] / metrics["fragments"]

        # the sink reads, executed; bytes read count the Ray worker too
        own = total = 0
        for rel in self.read_sinks:
            read = bytes_reader()
            with rec.span("state.manifest.read_sink"):
                read_sink(self.out, self._sink(rel)).materialize()
            total += read()
            own += self._sink_bytes(rel)
        counters["state.manifest.read_bytes_ratio"] = own / total if total else 0.0
        return counters

    def _sink_bytes(self, rel: str) -> int:
        """Compressed bytes of the sink's own row groups, per the sink index."""
        from logparser_ray.state.manifest import list_manifests

        n = 0
        for m in list_manifests(self.out):
            for fname, rg, _n in m.extra.get("sink_index", {}).get(rel, []):
                md = pq.read_metadata(os.path.join(self.out, f"frag={m.fragment}", fname)).row_group(rg)
                n += sum(md.column(c).total_compressed_size for c in range(md.num_columns))
        return n


# ---------------------------------------------------------------------------
# upstream_drain
# ---------------------------------------------------------------------------


class UpstreamDrain(Workload):
    """The reference's own API: ``compat.Drain.LogParser(...).parse(name)``
    over seeded, labelled HDFS-like raw logs with 2% corrupt lines."""

    name = "upstream_drain"
    PARAMS = {"depth": 4, "st": 0.5}

    def prepare(self) -> None:
        (n,) = SIZES[self.name][self.size]
        self.rows = n
        self.input = gen.ensure_rawlog(self.cache, n, self.seed)
        self.warm = gen.ensure_rawlog(self.cache, 200, self.seed)
        self.golden = self._golden(self.input)
        self.accuracy: list[float] = []

    def _parse(self, indir: str, outdir: str) -> None:
        from logparser_ray.compat import Drain

        Drain.LogParser(gen.LOG_FORMAT, indir, outdir, rex=gen.LOG_REX, **self.PARAMS).parse("hdfs.log")

    def warmup(self) -> None:
        self._parse(os.path.join(self.warm, "input"), self._dir("warm"))

    def _check(self, outdir: str) -> str:
        import pandas as pd

        from logparser_ray.core.evaluator import evaluate_pandas

        df = pd.read_csv(os.path.join(outdir, "hdfs.log_structured.csv"), usecols=["LineId", "EventId"])
        if len(df) != self.golden["ok_lines"]:
            return f"structured CSV has {len(df)} rows, expected {self.golden['ok_lines']} non-corrupt lines"
        labels = self.golden["labels"]
        truth = pd.DataFrame(
            {"LineId": [i + 1 for i, x in enumerate(labels) if x is not None], "event_id": [x for x in labels if x is not None]}
        )
        self.accuracy.append(evaluate_pandas(truth, df.rename(columns={"EventId": "event_id"}), ["LineId"]).accuracy)
        return ""

    def step(self) -> list[Op]:
        out = self._dir("out")
        sync()
        op, _ = timed("parse", self.rows, lambda: self._parse(os.path.join(self.input, "input"), out), lambda _r: self._check(out))
        return [op]

    def replay(self, rec: Recorder) -> dict[str, float]:
        """A real ``parse()`` with its stages instrumented; each stage's
        Dataset is materialized inside its span. ``compat.pandas`` is what
        ``parse()`` does outside them: ``count()``, the ``to_pandas()``
        calls (with the quarantine filter they execute), merge and sort."""
        from logparser_ray import compat
        from logparser_ray.core.bank import CompiledBank
        from logparser_ray.core.drain import Drain
        from logparser_ray.sources import rawlog
        from logparser_ray.stages import mine, parse

        def materialize(ds):
            return ds.materialize()

        reads, fits, merges, matches = [], [], [], []
        read = bytes_reader()
        with contextlib.ExitStack() as stack:
            for owner, attr, name, finish, calls in (
                (rawlog, "read_raw_log", "sources.read", materialize, reads),
                (compat, "_preprocess_stage", "compat.preprocess", materialize, None),
                (mine, "fit_bank", "stages.mine.fit", None, fits),
                (Drain, "merge_bank", "stages.mine.merge", None, merges),
                (parse, "match_stage", "core.bank.match", materialize, matches),
                (rawlog, "write_structured_csv", "compat.csv_write", None, None),
                (rawlog, "write_templates_csv", "compat.csv_write", None, None),
            ):
                stack.enter_context(rec.instrument(owner, attr, name, finish, calls))
            with rec.span("compat.pandas"):
                self._parse(os.path.join(self.input, "input"), self._dir("replay"))
        counters: dict = {"sources.bytes_read": read(), "sources.rows_read": sum(ds.count() for _a, ds in reads)}
        bank = fits[-1][1]
        counters["stages.mine.partial_templates"] = sum(len(a[1]) for a, _r in merges)
        counters["stages.mine.templates"] = len(bank)
        matched = matches[-1][1]
        fallthrough = sum(
            pc.sum(pc.equal(b["template_id"], gen.FALLTHROUGH_ID)).as_py() or 0
            for b in matched.iter_batches(batch_format="pyarrow", batch_size=None)
        )
        counters["core.bank.fallthrough_frac"] = fallthrough / max(1, matched.count())
        counters["core.bank.trie_path"] = float(len(bank) >= CompiledBank.TRIE_MIN_TEMPLATES)
        if self.accuracy:
            counters["stages.mine.grouping_accuracy"] = statistics.median(self.accuracy)
        return counters


WORKLOADS = {w.name: w for w in (AggregateWideBank, IngestAndRead, UpstreamDrain)}

