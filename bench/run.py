#!/usr/bin/env python3
"""Closed-loop benchmark of the ``dmkde`` command-line program.

Run from the repository root::

    python3 bench/run.py --workload bulk_score --seed 1 --seconds 55 --trace 0

One client runs the real CLI commands one after another, each in its own
``python -m dmkde.cli`` child process with ``src`` on ``PYTHONPATH`` and
one BLAS thread, so that a neighbour taking one of a small machine's
CPUs does not stall a threaded kernel.  Inputs are synthetic datasets
drawn from ``--seed`` by the program's own ``generate`` path; the
program sees only those CSVs and a config file.

After set-up and an untimed import that fills the page and bytecode
caches, the command sequence of the workload (a *pass*) repeats.  The
first pass always completes; after it, each command runs only if its
last time still fits in ``--seconds``, so the run ends inside the
window and may end with part of a pass.  A short batch of set-ups runs
before every command, so that ``setup_s`` samples the whole run rather
than its first second; it is the mean of those set-ups (see
``end_to_end``).  Every command's outputs are checked on every
pass (see ``Session.check``), and a command with a nonzero exit or a
failed check counts as failed.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``:
medians over the samples, except for ``setup_s``.  ``--trace 1`` alternates untraced passes with
passes whose commands run under ``bench/tracer.py``, and reports the
per-layer metrics: medians over the complete traced passes, plus the
tracing overhead and the interpreter's import time.  Metrics whose unit ends in
``-computed`` are derived from array shapes, not measured.

Output: a table for people, then one JSON line with the environment,
the workload, every sample, each pass's command times and spans, and
every failed check, then the result line
``{"correct", "attempted", "failed", "metrics"}``.  ``--smoke`` shrinks
every workload to a few hundred rows and a small ``D`` for the
harness's own test.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
TRACER = BENCH_DIR / "tracer.py"

# Children still running this long after the run started are killed, so that
# a run ends within 180 seconds even if a command hangs.
RUN_LIMIT_S = 170
# Set-up repeats until this much time has passed, and at least the given
# number of times: once before measuring, then before every command.
SETUP_FIRST = (0.3, 3)
SETUP_PER_COMMAND = (0.1, 1)
IMPORT_PROBES = 3
# Acceptance criterion 6 requires this agreement with the exact-KDE reference.
ORACLE_MIN_AGREEMENT = 0.95

REPORT_FIELDS = ("schema", "dataset", "config", "split_seed", "split_sizes",
                 "anomaly_rate", "theta", "eval_split", "metrics")
METRIC_FIELDS = ("f1_weighted", "f1_anomaly", "accuracy", "confusion")
SUMMARY_ROW_FIELDS = ("dataset", "status", "sigma", "embed_dim", "use_aff",
                      "val_f1_weighted", "test_f1_weighted")
PREDICTIONS_HEADER = "index,density,label,truth"

# Spans every workload must hit; a workload adds its own in ``Workload.expect``.
COMMON_SPANS = (
    "cli.generate", "cli.fit", "cli.eval", "cli.predict",
    "dataio.load_csv", "dataio.save_csv", "dataio.generate_synthetic",
    "dataio.apply_standardizer", "embedding.embed", "embedding.default_sigma_grid",
    "density.build_density_matrix", "density.DensityMatrix.init",
    "density.estimate_density_batch", "detector.fit", "detector.predict_batch",
    "modelio.save_model", "modelio.load_model",
)


def two_cluster_spec() -> dict:
    """The canonical desk-scale set of ``tests/conftest.py``: 525 rows, d=2."""
    return {
        "name": "two_cluster",
        "components": [{"mean": [-3.0, 0.0], "cov": 0.5, "count": 250},
                       {"mean": [3.0, 0.0], "cov": 2.0, "count": 250}],
        "anomaly_count": 25,
        "box_low": [-9.0, -9.0],
        "box_high": [9.0, 9.0],
        "exclusion_radius": 3.5,
    }


def bulk_spec(per_component: int, anomalies: int) -> dict:
    """Two Gaussian components in d=8 plus uniform anomalies far from both."""
    return {
        "name": "bulk",
        "components": [{"mean": [-2.0] + [0.0] * 7, "cov": 1.0, "count": per_component},
                       {"mean": [2.0, 1.0] + [0.0] * 6, "cov": 1.5, "count": per_component}],
        "anomaly_count": anomalies,
        "box_low": [-10.0] * 8,
        "box_high": [10.0] * 8,
        "exclusion_radius": 6.0,
    }


@dataclass(frozen=True)
class Workload:
    name: str
    spec: dict
    config: dict
    search: bool = False  # run ``dmkde benchmark`` (the sigma grid search) first
    oracle: bool = False  # ``eval --oracle``
    expect: tuple = ()  # spans beyond COMMON_SPANS that must run

    @property
    def rows(self) -> int:
        return sum(c["count"] for c in self.spec["components"]) + self.spec["anomaly_count"]


def workloads(smoke: bool) -> dict[str, Workload]:
    """The two workloads; ``smoke`` keeps their shape at toy sizes.

    The sizes keep one pass between ten and fifteen seconds on 2 CPUs, so
    that a 55-second run holds four to five passes.  AFF refines only the
    model ``fit`` builds: the grid search keeps it off, or it would train
    once per grid point.  AFF uses 1000 pairs rather than the default 10k,
    so that ten epochs fit in a pass.
    """
    bulk_d, wide_d, epochs = (64, 128, 1) if smoke else (1024, 1536, 10)
    bulk = bulk_spec(140, 20) if smoke else bulk_spec(3800, 400)
    return {wl.name: wl for wl in (
        Workload("bulk_score", bulk, {"embed_dim": bulk_d}),
        Workload("wide_search", two_cluster_spec(),
                 {"embed_dim": wide_d, "grid_embed_dim": wide_d, "grid_use_aff": "false",
                  "use_aff": "true", "aff_epochs": epochs, "aff_num_pairs": 1000},
                 search=True, oracle=True,
                 expect=("cli.benchmark", "detector.grid_search",
                         "detector.fit_with_internal_split", "embedding.train_aff",
                         "oracle.reference_classifier", "oracle.kde_exact_batch")),
    )}


def pin_blas_threads() -> int:
    """Pin BLAS threads for this process and its children; call before numpy loads."""
    threads = 1
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def environment(seed: int, pinned: int) -> dict:
    import platform

    import numpy
    import scipy

    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "l2_bytes": _cache_bytes(2),
        "l3_bytes": _cache_bytes(3),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas_version(),
        "blas_threads_pinned": pinned,
        "blas_threads_in_force": _blas_threads_in_force(),
        "seed": seed,
    }


def _cpu_model():
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return None


def _cache_bytes(level: int):
    """Size of the unified or data cache at ``level`` on CPU 0, from sysfs."""
    with contextlib.suppress(OSError, ValueError):
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            if int((index / "level").read_text()) != level:
                continue
            if (index / "type").read_text().strip() == "Instruction":
                continue
            size = (index / "size").read_text().strip()
            factor = {"K": 1024, "M": 1024 ** 2}.get(size[-1], 1)
            return int(size.rstrip("KM")) * factor
    return None


def _blas_threads_in_force():
    """Thread count numpy's bundled OpenBLAS reports, or None when unknown.

    Children inherit this process's environment, so they run with the same count.
    """
    import ctypes

    import numpy

    libs_dir = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs_dir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _openblas_version():
    import numpy

    with contextlib.suppress(AttributeError, KeyError, TypeError):
        return numpy.__config__.CONFIG["Build Dependencies"]["blas"]["version"]
    return None


def _digest(path: Path) -> str:
    h = hashlib.blake2b(digest_size=16)
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _read_predictions(path: Path) -> dict[int, int]:
    """index -> label of a predictions CSV; raises ValueError when malformed."""
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != PREDICTIONS_HEADER:
        raise ValueError(f"{path.name}: header is not {PREDICTIONS_HEADER!r}")
    labels = {}
    for line in lines[1:]:
        index, density, label, truth = line.split(",")
        float(density)
        if label not in ("0", "1") or truth not in ("0", "1"):
            raise ValueError(f"{path.name}: bad label in {line!r}")
        labels[int(index)] = int(label)
    if len(labels) != len(lines) - 1:
        raise ValueError(f"{path.name}: repeated row index")
    return labels


def _check_report(path: Path, eval_split: str, problems: list) -> dict | None:
    """Parse a ``dmkde-report/1`` document and check its documented fields."""
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        problems.append(f"{path.name}: unreadable report ({exc})")
        return None
    missing = [k for k in REPORT_FIELDS if k not in doc]
    missing += [f"metrics.{k}" for k in METRIC_FIELDS if k not in doc.get("metrics", {})]
    if missing:
        problems.append(f"{path.name}: missing fields {missing}")
        return None
    if doc["schema"] != "dmkde-report/1" or doc["eval_split"] != eval_split:
        problems.append(f"{path.name}: schema {doc['schema']!r}, split {doc['eval_split']!r}")
    confusion = doc["metrics"]["confusion"]
    counted = sum(confusion.get(k, 0) for k in ("tp", "fp", "tn", "fn"))
    if counted != doc["split_sizes"].get(eval_split):
        problems.append(f"{path.name}: confusion counts do not sum to the {eval_split} size")
    if not 0.0 <= doc["metrics"]["f1_weighted"] <= 1.0:
        problems.append(f"{path.name}: f1_weighted out of [0, 1]")
    return doc


@dataclass
class Pass:
    traced: bool
    wall: dict = field(default_factory=dict)  # command -> seconds
    rss_kb: dict = field(default_factory=dict)  # command -> ru_maxrss
    spans: list = field(default_factory=list)  # tracer documents, one per command
    complete: bool = True  # False when the window closed before the last command


class Session:
    """One benchmark run: set-up, passes, output checks and metrics."""

    def __init__(self, wl: Workload, seed: int, work: Path):
        self.wl = wl
        self.seed = seed
        self.work = work
        self.data_dir = work / "data"
        self.csv = self.data_dir / f"{wl.spec['name']}.csv"
        self.spec_path = work / "spec.json"
        self.config_path = work / "run.cfg"
        self.model = work / "model.json"
        self.fit_report = work / "fit.report.json"
        self.fit_predictions = work / "fit.predictions.csv"
        self.eval_report = work / "eval.report.json"
        self.eval_predictions = work / "eval.predictions.csv"
        self.predictions = work / "predict.csv"
        self.search_dir = work / "search"
        self.generated = work / "generated.csv"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p)
        self.kill_at = time.perf_counter() + RUN_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}
        self.passes: list[Pass] = []
        self.setup_times: list[float] = []
        self.last_wall: dict[tuple[bool, str], float] = {}
        self.model_bytes = 0
        self.test_f1 = 0.0
        self.oracle_agreement = None
        self.test_size = None

    # -- set-up -----------------------------------------------------------

    def setup(self, min_s: float, min_repeats: int) -> None:
        """Write spec and config, then generate the CSV in-process, timed.

        Repeats for at least ``min_s`` seconds and ``min_repeats`` times;
        every repeat writes the same bytes.
        """
        from dmkde import cli

        started = time.perf_counter()
        repeats = 0
        while repeats < min_repeats or time.perf_counter() - started < min_s:
            repeats += 1
            t0 = time.perf_counter()
            self.data_dir.mkdir(parents=True, exist_ok=True)
            self.spec_path.write_text(json.dumps(self.wl.spec), encoding="utf-8")
            self.config_path.write_text(
                "".join(f"{k} = {v}\n" for k, v in self.wl.config.items()), encoding="utf-8")
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["generate", str(self.spec_path), "--out", str(self.csv),
                                 "--seed", str(self.seed)])
            self.setup_times.append(time.perf_counter() - t0)
            if code != 0:
                raise RuntimeError(f"generate exited with code {code}")
        lines = self.csv.read_text(encoding="utf-8").count("\n")
        if lines != self.wl.rows + 1:
            raise RuntimeError(f"generated CSV has {lines} lines, expected {self.wl.rows + 1}")

    # -- commands ---------------------------------------------------------

    def commands(self, traced: bool) -> list[tuple[str, list[str]]]:
        seed = ["--seed", str(self.seed)]
        cfg = ["--config", str(self.config_path)]
        cmds = []
        if traced:
            cmds.append(("generate", ["generate", str(self.spec_path),
                                      "--out", str(self.generated)] + seed))
        if self.wl.search:
            cmds.append(("benchmark", ["benchmark", str(self.data_dir),
                                       "--out", str(self.search_dir)] + cfg + seed))
        cmds.append(("fit", ["fit", str(self.csv), "--out", str(self.model),
                             "--report", str(self.fit_report),
                             "--predictions", str(self.fit_predictions)] + cfg + seed))
        cmds.append(("eval", ["eval", str(self.csv), "--model", str(self.model),
                              "--report", str(self.eval_report),
                              "--predictions", str(self.eval_predictions)]
                      + (["--oracle"] if self.wl.oracle else []) + cfg + seed))
        cmds.append(("predict", ["predict", str(self.csv), "--model", str(self.model),
                                 "--out", str(self.predictions)]))
        return cmds

    def spawn(self, argv: list[str], log: Path) -> tuple[int, float, int]:
        """Run one child to completion: (exit code, wall seconds, ru_maxrss KiB)."""
        log.parent.mkdir(parents=True, exist_ok=True)
        with open(log.with_suffix(".out"), "wb") as out, open(log.with_suffix(".err"), "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=out, stderr=err)
            watchdog = threading.Timer(max(0.0, self.kill_at - t0), proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss

    def run_pass(self, traced: bool, deadline: float | None) -> Pass:
        """One pass; with a ``deadline``, a command whose last wall time of
        this kind no longer fits before it ends the pass early."""
        result = Pass(traced)
        logs = self.work / "logs"
        for name, args in self.commands(traced):
            last = self.last_wall.get((traced, name), 0.0)
            if deadline is not None and time.perf_counter() + last > deadline:
                result.complete = False
                break
            self.setup(*SETUP_PER_COMMAND)
            spans_path = self.work / f"spans.{name}.json"
            prefix = ([sys.executable, str(TRACER), "--spans", str(spans_path), "--"] if traced
                      else [sys.executable, "-m", "dmkde.cli"])
            code, wall, rss = self.spawn(prefix + args, logs / name)
            self.attempted += 1
            result.wall[name], result.rss_kb[name] = wall, rss
            self.last_wall[traced, name] = wall
            problems = [f"exit code {code}"] if code != 0 else self.check(name)
            if traced and code == 0:
                try:
                    result.spans.append(json.loads(spans_path.read_text(encoding="utf-8")))
                except (OSError, ValueError) as exc:
                    problems.append(f"unreadable spans ({exc})")
            if problems:
                self.failed += 1
                self.problems += [f"{name}: {p}" for p in problems]
        self.passes.append(result)
        return result

    # -- output checks ----------------------------------------------------

    def check(self, name: str) -> list[str]:
        """Problems with the outputs ``name`` just wrote; empty when all hold."""
        problems: list[str] = []
        try:
            getattr(self, f"_check_{name}")(problems)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems.append(f"malformed output ({exc!r})")
        return problems

    def _same_as_first_pass(self, path: Path, problems: list) -> None:
        """Seeded commands must rewrite byte-identical files on every pass."""
        digest = _digest(path)
        if self.digests.setdefault(path.name, digest) != digest:
            problems.append(f"{path.name} differs from the first pass")

    def _check_generate(self, problems: list) -> None:
        if self.generated.read_bytes() != self.csv.read_bytes():
            problems.append("CLI generate wrote another CSV than set-up did")

    def _check_benchmark(self, problems: list) -> None:
        summary = json.loads((self.search_dir / "summary.json").read_text(encoding="utf-8"))
        rows = summary.get("datasets", [])
        if summary.get("schema") != "dmkde-benchmark/1" or len(rows) != 1:
            problems.append("summary.json: bad schema or dataset count")
            return
        row = rows[0]
        if row.get("status") != "ok" or any(k not in row for k in SUMMARY_ROW_FIELDS):
            problems.append(f"summary.json: row is {row}")
            return
        name = row["dataset"]
        doc = _check_report(self.search_dir / f"{name}.report.json", "test", problems)
        if doc is not None:
            preds = _read_predictions(self.search_dir / f"{name}.predictions.csv")
            if len(preds) != doc["split_sizes"]["test"]:
                problems.append("search predictions do not cover the test split")
        for path in (self.search_dir / "summary.json", self.search_dir / f"{name}.report.json"):
            self._same_as_first_pass(path, problems)

    def _check_fit(self, problems: list) -> None:
        doc = _check_report(self.fit_report, "val", problems)
        if doc is None:
            return
        sizes = doc["split_sizes"]
        if sum(sizes.values()) != self.wl.rows:
            problems.append(f"split sizes {sizes} do not add up to {self.wl.rows} rows")
        if len(_read_predictions(self.fit_predictions)) != sizes["val"]:
            problems.append("fit predictions do not cover the validation split")
        self.test_size = sizes["test"]
        self.model_bytes = self.model.stat().st_size
        for path in (self.fit_report, self.fit_predictions, self.model):
            self._same_as_first_pass(path, problems)

    def _check_eval(self, problems: list) -> None:
        doc = _check_report(self.eval_report, "test", problems)
        if doc is None:
            return
        if doc["split_sizes"]["test"] != self.test_size:
            problems.append("eval test split differs from fit's")
        if len(_read_predictions(self.eval_predictions)) != doc["split_sizes"]["test"]:
            problems.append("eval predictions do not cover the test split")
        self.test_f1 = doc["metrics"]["f1_weighted"]
        if self.wl.oracle:
            oracle = doc.get("oracle") or {}
            self.oracle_agreement = oracle.get("label_agreement")
            if not {"kde_sigma", "label_agreement", "spearman"} <= oracle.keys():
                problems.append(f"oracle block incomplete: {oracle}")
            elif self.oracle_agreement < ORACLE_MIN_AGREEMENT:
                problems.append(f"oracle label agreement {self.oracle_agreement} "
                                f"< {ORACLE_MIN_AGREEMENT}")
        for path in (self.eval_report, self.eval_predictions):
            self._same_as_first_pass(path, problems)

    def _check_predict(self, problems: list) -> None:
        labels = _read_predictions(self.predictions)
        if sorted(labels) != list(range(self.wl.rows)):
            problems.append(f"predict wrote {len(labels)} rows, expected {self.wl.rows}")
            return
        evaluated = _read_predictions(self.eval_predictions)
        wrong = sum(labels[i] != label for i, label in evaluated.items())
        if wrong:
            problems.append(f"{wrong} test rows labelled differently by predict and eval")
        self._same_as_first_pass(self.predictions, problems)

    # -- measurement loop -------------------------------------------------

    def measure(self, seconds: float, traced: bool) -> None:
        """Run passes until the window of ``seconds`` closes; untraced and
        traced passes alternate when ``traced``, with one complete pass of
        each kind first."""
        deadline = time.perf_counter() + seconds
        kinds = [False, True] if traced else [False]
        for i in itertools.count():
            first = i < len(kinds)
            done = self.run_pass(kinds[i % len(kinds)], None if first else deadline)
            if i + 1 >= len(kinds) and (not done.complete or time.perf_counter() >= deadline):
                return

    def warm_up(self) -> None:
        """Import the program once, untimed, to fill the bytecode and page caches."""
        code, _, _ = self.spawn([sys.executable, "-c", "import dmkde.cli"],
                                self.work / "logs" / "warmup")
        if code != 0:
            raise RuntimeError(f"import dmkde.cli exited with code {code}")

    def import_time(self) -> list[float]:
        """Seconds to ``import dmkde.cli`` in fresh interpreters."""
        times = []
        for i in range(IMPORT_PROBES):
            code, wall, _ = self.spawn([sys.executable, "-c", "import dmkde.cli"],
                                       self.work / "logs" / f"import{i}")
            if code != 0:
                self.failed += 1
                self.problems.append(f"import dmkde.cli exited with code {code}")
            times.append(wall)
        return times


# -- metrics -----------------------------------------------------------------

def _per_command(passes: list[Pass], attr: str) -> dict[str, list[float]]:
    """Command -> samples of ``attr`` over ``passes``, generate left out."""
    samples: dict[str, list[float]] = defaultdict(list)
    for p in passes:
        for cmd, value in getattr(p, attr).items():
            if cmd != "generate":
                samples[cmd].append(value)
    return samples


def _workload_s(passes: list[Pass]) -> float:
    """Sum over the timed commands of each one's median wall time."""
    return sum(statistics.median(v) for v in _per_command(passes, "wall").values())


def end_to_end(session: Session) -> dict[str, list[float]]:
    """Samples of each end-to-end metric over the untraced passes.

    ``setup_s`` is the mean of every set-up in the run, not a median: a
    set-up of the small sets takes a few milliseconds, and on a shared
    host whose speed switches between two levels every second or so, the
    median of such short samples jumps from one level to the other.
    """
    plain = [p for p in session.passes if not p.traced]
    wall = _per_command(plain, "wall")
    rss = _per_command(plain, "rss_kb")
    return {
        "setup_s": [statistics.fmean(session.setup_times)],
        "fit_s": wall["fit"],
        "eval_s": wall["eval"],
        "predict_rows_per_s": [session.wl.rows / t for t in wall["predict"]],
        "workload_s": [_workload_s(plain)],
        "peak_rss_mb": [max(statistics.median(v) for v in rss.values()) / 1024.0],
        "model_bytes": [session.model_bytes],
        "test_f1_weighted": [session.test_f1],
    }


@dataclass
class LayerStats:
    """Span totals of one traced pass, keyed by span name."""

    total: dict = field(default_factory=lambda: defaultdict(float))
    self_time: dict = field(default_factory=lambda: defaultdict(float))
    calls: Counter = field(default_factory=Counter)
    attrs: Counter = field(default_factory=Counter)  # (span, attr) -> sum
    counts: Counter = field(default_factory=Counter)  # counted-only functions

    @classmethod
    def of(cls, docs: list[dict]) -> "LayerStats":
        stats = cls()
        for doc in docs:
            spans = doc["spans"]
            covered = [0.0] * len(spans)
            for name, start, end, parent, _ in spans:
                if parent >= 0:
                    covered[parent] += end - start
            for i, (name, start, end, _, attrs) in enumerate(spans):
                stats.total[name] += end - start
                stats.self_time[name] += end - start - covered[i]
                stats.calls[name] += 1
                for key, value in attrs.items():
                    stats.attrs[name, key] += value
            stats.counts.update(doc["counts"])
        return stats

    def deterministic(self) -> dict:
        """Counts that must repeat exactly for identical inputs."""
        facts = {f"{name}.calls": n for name, n in self.calls.items()}
        facts.update({f"{name}.{key}": v for (name, key), v in self.attrs.items()})
        facts.update(self.counts)
        return facts


def _rate(mb: float, seconds: float) -> float:
    return mb / seconds if seconds > 0 else 0.0


def layer_metrics(stats: LayerStats, session: Session) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    t, s, n, a = stats.total, stats.self_time, stats.calls, stats.attrs
    scored = a["density.estimate_density_batch", "rows"]
    repeated = a["density.estimate_density_batch", "repeat_rows"]
    epochs = a["embedding.train_aff", "epochs"]
    embed_dim = int(session.wl.config["embed_dim"])
    metrics = {
        "dataio.load_csv.s": t["dataio.load_csv"],
        "dataio.load_csv.mb_per_s": _rate(a["dataio.load_csv", "bytes"] / 1e6,
                                          t["dataio.load_csv"]),
        "dataio.save_csv.s": t["dataio.save_csv"],
        "dataio.generate_synthetic.s": t["dataio.generate_synthetic"],
        "dataio.apply_standardizer.calls": n["dataio.apply_standardizer"],
        "embedding.embed.s": t["embedding.embed"],
        "embedding.embed.rows": a["embedding.embed", "rows"],
        "embedding.train_aff.s": t["embedding.train_aff"],
        "embedding.train_aff.s_per_epoch": (t["embedding.train_aff"] / epochs
                                            if epochs else 0.0),
        "embedding.train_aff.fell_back": a["embedding.train_aff", "fell_back"],
        "embedding.default_sigma_grid.s": t["embedding.default_sigma_grid"],
        "density.build_density_matrix.s": t["density.build_density_matrix"],
        "density.build_density_matrix.calls": n["density.build_density_matrix"],
        "density.build_density_matrix.gflops": a["density.build_density_matrix", "flop"] / 1e9,
        "density.DensityMatrix.init.s": t["density.DensityMatrix.init"],
        "density.DensityMatrix.init.calls": n["density.DensityMatrix.init"],
        "density.estimate_density_batch.s": t["density.estimate_density_batch"],
        "density.estimate_density_batch.rows": scored,
        "density.estimate_density_batch.gflops": a["density.estimate_density_batch", "flop"] / 1e9,
        "density.estimate_density.calls": stats.counts["density.estimate_density"],
        "density.score_useful_ratio": (scored - repeated) / scored if scored else 0.0,
        "density.R.bytes": 8 * embed_dim * embed_dim,
        "detector.fit.self_s": s["detector.fit"],
        "detector.grid_search.self_s": s["detector.grid_search"],
        "detector.fit_with_internal_split.s": t["detector.fit_with_internal_split"],
        "detector.predict_batch.s": t["detector.predict_batch"],
        "detector.predict_batch.rows": a["detector.predict_batch", "rows"],
        "modelio.save_model.s": t["modelio.save_model"],
        "modelio.save_model.bytes": a["modelio.save_model", "bytes"],
        "modelio.load_model.s": t["modelio.load_model"],
        "modelio.load_model.mb_per_s": _rate(a["modelio.load_model", "bytes"] / 1e6,
                                             t["modelio.load_model"]),
        "oracle.reference_classifier.s": t["oracle.reference_classifier"],
        "oracle.kde_exact_batch.s": t["oracle.kde_exact_batch"],
        "oracle.kde_exact.calls": stats.counts["oracle.kde_exact"],
    }
    for cmd in ("fit", "eval", "predict", "benchmark", "generate"):
        metrics[f"cli.{cmd}.self_s"] = s[f"cli.{cmd}"]
    return metrics


def traced_metrics(session: Session) -> dict[str, list[float]]:
    """Samples of each per-layer metric, and checks that need every pass."""
    traced = [p for p in session.passes if p.traced and p.complete]
    plain = [p for p in session.passes if not p.traced]
    all_stats = [LayerStats.of(p.spans) for p in traced]
    required = COMMON_SPANS + session.wl.expect
    for i, stats in enumerate(all_stats):
        silent = [name for name in required if stats.calls[name] == 0]
        if silent:
            session.failed += 1
            session.problems.append(f"traced pass {i}: spans never hit: {silent}")
    first = all_stats[0].deterministic()
    for i, stats in enumerate(all_stats[1:], start=1):
        facts = stats.deterministic()
        drifted = sorted(k for k in first.keys() | facts.keys() if first.get(k) != facts.get(k))
        if drifted:
            session.failed += 1
            session.problems.append(f"defect: counts differ between traced passes 0 and {i}: "
                                    f"{drifted}")
    samples: dict[str, list[float]] = defaultdict(list)
    for stats in all_stats:
        for name, value in layer_metrics(stats, session).items():
            samples[name].append(value)
    samples["process.import_s"] = session.import_time()
    samples["trace.overhead_s"] = [_workload_s(traced) - _workload_s(plain)]
    return dict(samples)


# -- entry point -------------------------------------------------------------

def _summarise(samples: dict[str, list[float]], declared: list[dict]) -> dict:
    metrics = {}
    for entry in declared:
        values = samples[entry["name"]]
        metrics[entry["name"]] = {"value": statistics.median(values), "unit": entry["unit"]}
    return metrics


def _print_table(title: str, samples: dict, declared: list[dict]) -> None:
    print(title)
    for entry in declared:
        values = samples[entry["name"]]
        print(f"  {entry['name']:40s} {statistics.median(values):14.6g} {entry['unit']:16s}"
              f" median of {len(values)}, min {min(values):.6g}, max {max(values):.6g}")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Closed-loop benchmark of the dmkde CLI.")
    parser.add_argument("--workload", required=True,
                        choices=tuple(workloads(smoke=False)))
    parser.add_argument("--seed", type=int, required=True, help="workload seed")
    parser.add_argument("--seconds", type=float, required=True,
                        help="measurement time; at least one pass always runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from traced passes")
    parser.add_argument("--smoke", action="store_true", help="toy sizes, for tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # Terminating the run unwinds it: the running child is killed, work files removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "dmkde" / "cli.py").is_file():
        print(f"error: the dmkde sources are missing under {SRC}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    why = {w["name"]: w["why"] for w in declared["workloads"]}
    pinned = pin_blas_threads()
    sys.path.insert(0, str(SRC))

    wl = workloads(args.smoke)[args.workload]
    work = WORK / f"{wl.name}-{args.seed}-{os.getpid()}"
    session = Session(wl, args.seed, work)
    try:
        session.setup(*SETUP_FIRST)
        session.warm_up()
        session.measure(args.seconds, bool(args.trace))
        if args.trace:
            samples, kind = traced_metrics(session), "per_layer"
        else:
            samples, kind = end_to_end(session), "end_to_end"
        env = environment(args.seed, pinned)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    _print_table(f"{wl.name} seed={args.seed} trace={args.trace}"
                 f" passes={len(session.passes)}", samples, declared[kind])
    for problem in session.problems:
        print(f"  FAILED {problem}")
    detail = {
        "environment": env,
        "workload": {"name": wl.name, "why": why[wl.name], "rows": wl.rows,
                     "config": wl.config, "smoke": args.smoke},
        "error_rate": session.failed / session.attempted,
        "oracle_label_agreement": session.oracle_agreement,
        "samples": samples,
        "passes": [{"traced": p.traced, "wall_s": p.wall,
                    "spans": {doc["argv"][0]: doc["spans"] for doc in p.spans}}
                   for p in session.passes],
        "setup_samples_s": session.setup_times,
        "problems": session.problems,
    }
    print(json.dumps(detail, sort_keys=True))
    result = {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": _summarise(samples, declared[kind]),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
