"""Seeded input generators for the benchmark workloads.

The benchmark owns its inputs: nothing here imports ``logparser_ray``, so a
change to the program's own fixtures cannot silently change a workload.
Every generator is a pure function of ``(size, seed)``; ``ensure_*`` writes
the inputs, the golden answers and the labels into a cache directory keyed
by (workload, size, seed) and returns its path.

Template ids follow the engine's published convention, ``md5(template)[:8]``,
and unmatched rows carry the id ``_fallthrough``.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

FALLTHROUGH_ID = "_fallthrough"
ROLES = ["user", "assistant", "tool"]
TOOLS = ["bash", "python", "read", "write", "edit", "search", "fetch", "ghost"]
BASE_TS_US = int(np.datetime64("2026-01-01T00:00:00", "us").astype(np.int64))

# the flat-path bank: 12 templates, below the engine's trie threshold
# (template, slot vocabularies in slot order, draw weight)
FLAT_BANK: list[tuple[str, list[list[str]], int]] = [
    ("Session started", [], 8),
    ("Heartbeat ok", [], 4),
    ("<*> connected to workspace", [["alice", "bob", "carol", "dave", "erin"]], 6),
    ("User asked about <*>", [["arrow", "ray", "parquet", "shuffles", "actors"]], 14),
    (
        "Tool <*> returned exit code <*> in <*> ms",
        [TOOLS, ["0", "1", "2", "127"], ["3", "12", "48", "250", "1999"]],
        20,
    ),
    ("Retry attempt <*> scheduled", [["1", "2", "3", "4", "5"]], 5),
    ("Agent replied with plan <*>", [["alpha", "beta", "gamma", "delta"]], 7),
    ("Agent replied with task <*>", [["t100", "t200", "t300"]], 6),
    ("Model produced <*> tokens in <*> ms", [["16", "128", "512"], ["9", "87"]], 12),
    ("File <*> written successfully", [["a.txt", "b.py", "c.md", "d.json"]], 8),
    # specialisation before its generalisation: first match wins
    ("Command git finished with status <*>", [["ok", "fail"]], 4),
    ("Command <*> finished with status <*>", [["make", "pytest", "cargo"], ["ok", "fail"]], 6),
]

_WORDS = (
    "alpha beta gamma delta cache queue shard block frame merge split index "
    "scan flush commit token batch plan retry lease epoch route sink probe "
    "mount fetch store sweep trim stage"
).split()
_FILLS = [f"v{i}" for i in range(40)] + ["0", "7", "42", "1999", "ok", "fail"]

# F4-style raw-log header and the HDFS-like content grammar it wraps
LOG_FORMAT = "<Date> <Time> <Pid> <Level> <Component>: <Content>"
LOG_REX = [r"blk_-?\d+", r"(\d+\.){3}\d+(:\d+)?"]
_BLKS = [f"blk_{v}" for v in (884, 1721, -330, 42, 9, 10, 5501, 77)]
_IPS = [f"10.0.0.{h}:500{p}0" for h in (3, 4, 12, 201) for p in (1, 7)]
HDFS_GRAMMAR: list[tuple[str, list[list[str]]]] = [
    ("Receiving block <*> src: <*> dest: <*>", [_BLKS, _IPS, _IPS]),
    ("PacketResponder <*> for block <*> terminating", [["0", "1", "2"], _BLKS]),
    ("Verification succeeded for <*>", [_BLKS]),
    ("Deleting block <*> file /data/current/<*>", [_BLKS, ["f1", "f2", "f3"]]),
    ("Served block <*> to <*>", [_BLKS, _IPS]),
    ("Starting thread to transfer block <*> to <*>", [_BLKS, _IPS]),
    ("BLOCK* NameSystem.allocateBlock: /user/job<*>", [["1", "2", "3", "4"]]),
    ("Exception in receiveBlock for block <*> java.io.IOException", [_BLKS]),
]
_LEVELS = ["INFO", "WARN", "ERROR"]
_COMPONENTS = ["dfs.DataNode", "dfs.FSNamesystem", "dfs.PacketResponder"]


def template_id(template: str) -> str:
    return hashlib.md5(template.encode("utf-8")).hexdigest()[:8]


def wide_bank(seed: int, n_templates: int = 96) -> list[tuple[str, list[list[str]], int]]:
    """A seeded bank of ``n_templates`` with 2–14 tokens each, large enough
    for the engine's trie path. The shape (token counts, slot counts,
    weights) is the same for every seed, so match cost does not drift with
    the seed; the words, slot positions and fills are seeded. Every
    template carries a literal anchor ``evtNNN`` that no other template or
    fill uses, so each rendered line matches exactly one template."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n_templates):
        k = 2 + i % 13
        slots = set(rng.choice(np.arange(1, k), size=(k - 1) * 35 // 100, replace=False).tolist())
        tokens = ["<*>" if j in slots else _WORDS[int(rng.integers(len(_WORDS)))] for j in range(k)]
        tokens[int(rng.choice(sorted(set(range(k)) - slots)))] = f"evt{i:03d}"
        vocabs = [
            [_FILLS[j] for j in rng.choice(len(_FILLS), size=4, replace=False)]
            for _ in slots
        ]
        out.append((" ".join(tokens), vocabs, 1 + i % 19))
    return out


def _render(rng, choice: np.ndarray, grammar) -> np.ndarray:
    """Render ``choice[i]``-th template of ``grammar`` for each row."""
    text = np.empty(choice.size, dtype=object)
    for ti, (tmpl, vocabs, *_rest) in enumerate(grammar):
        rows = np.flatnonzero(choice == ti)
        if rows.size == 0:
            continue
        pieces = tmpl.split("<*>")
        rendered = np.full(rows.size, pieces[0], dtype=object)
        for s, vocab in enumerate(vocabs):
            fills = np.asarray(vocab, dtype=object)[rng.integers(0, len(vocab), rows.size)]
            rendered = rendered + fills + pieces[s + 1]
        text[rows] = rendered
    return text


def make_transcripts(
    n_turns: int, seed: int, bank, fallthrough_frac: float = 0.03
) -> tuple[pa.Table, np.ndarray]:
    """Flagship-shaped transcripts and the true template id of every row.

    Conversation ids are Zipf-skewed (hot conversations), roles are drawn
    from user/assistant/tool, ``tool`` is set only on tool turns, and
    ``fallthrough_frac`` of the texts follow no template.
    """
    rng = np.random.default_rng(seed)
    n_convs = max(8, n_turns // 10)
    conv = (rng.zipf(1.2, size=n_turns).astype(np.int64) - 1) % n_convs
    order = np.argsort(conv, kind="stable")
    first = np.ones(n_turns, dtype=bool)
    first[1:] = conv[order][1:] != conv[order][:-1]
    start = np.maximum.accumulate(np.where(first, np.arange(n_turns), 0))
    turn_idx = np.empty(n_turns, dtype=np.int32)
    turn_idx[order] = np.arange(n_turns) - start

    role = np.asarray(ROLES, dtype=object)[rng.integers(0, 3, n_turns)]
    tool = np.full(n_turns, "", dtype=object)
    is_tool = role == "tool"
    tool[is_tool] = np.asarray(TOOLS, dtype=object)[rng.integers(0, len(TOOLS), int(is_tool.sum()))]

    weights = np.array([w for *_x, w in bank], dtype=np.float64)
    choice = rng.choice(len(bank), size=n_turns, p=weights / weights.sum())
    choice[rng.random(n_turns) < fallthrough_frac] = -1
    text = _render(rng, choice, bank)
    fall = np.flatnonzero(choice < 0)
    text[fall] = [f"free text note {i} without any known shape here" for i in rng.integers(0, 10_000, fall.size)]
    ids = np.array([template_id(t) for t, *_x in bank] + [FALLTHROUGH_ID], dtype=object)
    labels = ids[choice]  # choice == -1 picks the trailing fallthrough id

    ts = BASE_TS_US + rng.integers(0, 86_400_000_000, n_turns)
    table = pa.table(
        {
            "conv_id": pa.array(np.char.add("conv", np.char.zfill(conv.astype("U9"), 9)), pa.string()),
            "turn_idx": pa.array(turn_idx, pa.int32()),
            "role": pa.array(role, pa.string()),
            "text": pa.array(text, pa.string()),
            "tool": pa.array(tool, pa.string()),
            "ts": pa.array(ts, pa.timestamp("us")),
        }
    )
    return table, labels


def sink_counts(table: pa.Table, labels: np.ndarray) -> dict[str, int]:
    """Golden ``{"role\\ttool\\ttemplate_id": n}`` of a transcripts table."""
    agg = (
        pa.table({"role": table["role"], "tool": table["tool"], "tid": pa.array(labels, pa.string())})
        .group_by(["role", "tool", "tid"])
        .aggregate([([], "count_all")])
    )
    return {
        f"{r}\t{t}\t{i}": n
        for r, t, i, n in zip(*(agg[c].to_pylist() for c in ("role", "tool", "tid", "count_all")))
    }


def add_counts(into: dict[str, int], more: dict[str, int]) -> dict[str, int]:
    out = dict(into)
    for k, n in more.items():
        out[k] = out.get(k, 0) + n
    return out


def make_rawlog(n_lines: int, seed: int, corrupt_frac: float = 0.02):
    """HDFS-like raw log lines in the F4 header format.

    Returns ``(lines, labels)``: ``labels[i]`` is the true template id of
    line ``i + 1``, or ``None`` for a corrupt line the header cannot parse.
    """
    rng = np.random.default_rng(seed)
    choice = rng.integers(0, len(HDFS_GRAMMAR), n_lines)
    content = _render(rng, choice, HDFS_GRAMMAR)
    sec = rng.integers(0, 86_400, n_lines)
    pid = rng.integers(1, 5000, n_lines)
    level = rng.integers(0, len(_LEVELS), n_lines)
    comp = rng.integers(0, len(_COMPONENTS), n_lines)
    corrupt = rng.random(n_lines) < corrupt_frac
    ids = [template_id(t) for t, _v in HDFS_GRAMMAR]
    lines, labels = [], []
    for i in range(n_lines):
        if corrupt[i]:
            lines.append(f"!!corrupt frame {i}")
            labels.append(None)
            continue
        s = int(sec[i])
        lines.append(
            f"2026-01-01 {s // 3600:02d}:{s // 60 % 60:02d}:{s % 60:02d} {pid[i]} "
            f"{_LEVELS[level[i]]} {_COMPONENTS[comp[i]]}: {content[i]}"
        )
        labels.append(ids[choice[i]])
    return lines, labels


# ---------------------------------------------------------------------------
# cache: one directory per (workload, size, seed), written atomically
# ---------------------------------------------------------------------------


def _cached(cache_root: str, key: str, build) -> str:
    path = os.path.join(cache_root, key)
    if os.path.exists(os.path.join(path, "golden.json")):
        return path
    tmp = path + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    build(tmp)
    shutil.rmtree(path, ignore_errors=True)
    os.replace(tmp, path)
    return path


def _write_json(path: str, obj) -> None:
    with open(path, "w") as f:
        json.dump(obj, f)


def write_shards(table: pa.Table, in_dir: str, n_files: int) -> None:
    os.makedirs(in_dir, exist_ok=True)
    step = -(-table.num_rows // n_files)
    for i in range(n_files):
        pq.write_table(table.slice(i * step, step), os.path.join(in_dir, f"part-{i:05d}.parquet"))


def ensure_transcripts(
    cache_root: str, workload: str, n_turns: int, n_files: int, seed: int, bank
) -> str:
    """``<dir>/input/part-*.parquet`` + ``golden.json`` (sink counts, rows)."""

    def build(d: str) -> None:
        table, labels = make_transcripts(n_turns, seed, bank)
        write_shards(table, os.path.join(d, "input"), n_files)
        _write_json(
            os.path.join(d, "golden.json"),
            {"rows": n_turns, "sink_counts": sink_counts(table, labels)},
        )

    return _cached(cache_root, f"{workload}-n{n_turns}-f{n_files}-s{seed}", build)


def ensure_rawlog(cache_root: str, n_lines: int, seed: int) -> str:
    """``<dir>/input/hdfs.log`` + ``golden.json`` (labels by LineId)."""

    def build(d: str) -> None:
        lines, labels = make_rawlog(n_lines, seed)
        os.makedirs(os.path.join(d, "input"))
        with open(os.path.join(d, "input", "hdfs.log"), "w") as f:
            f.write("\n".join(lines) + "\n")
        _write_json(
            os.path.join(d, "golden.json"),
            {"rows": n_lines, "ok_lines": sum(x is not None for x in labels), "labels": labels},
        )

    return _cached(cache_root, f"upstream_drain-n{n_lines}-s{seed}", build)


def load_golden(path: str) -> dict:
    with open(os.path.join(path, "golden.json")) as f:
        return json.load(f)
