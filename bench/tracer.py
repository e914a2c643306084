"""Run one ``dmkde`` command with the package's public functions timed.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python bench/tracer.py --spans OUT.json -- fit data.csv --out model.json

Before calling ``dmkde.cli.main(argv)`` the tracer replaces each function
named in ``TRACED`` at every place it is bound: the defining module and
every ``dmkde`` module that imported the name directly (``cli`` does
``from .density import ...``, for example), so no call escapes by going
through another binding.  ``DensityMatrix.__init__`` is wrapped on the
class, which covers construction, validation and model loading.

Each wrapped call records a span ``[name, start, end, parent, attrs]``:
spans nest by call order and ``parent`` is the index of the enclosing
span, or -1.  Functions in ``COUNTED`` are called once per row, so they
only count calls; a span each would cost more than the work they do.
Spans stay in memory and are written to ``--spans``, with the command
line and the counts, when the command ends; all spans of one command
share that file.  The file is read by ``bench/run.py``.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import importlib
import itertools
import json
import os
import sys
import time
import weakref

# Layer -> functions that get a span.  Names are the package's own.
TRACED = {
    "dataio": ("load_csv", "save_csv", "generate_synthetic", "apply_standardizer"),
    "embedding": ("embed", "train_aff", "default_sigma_grid"),
    "density": ("build_density_matrix", "estimate_density_batch"),
    "detector": ("fit", "grid_search", "fit_with_internal_split", "predict_batch"),
    "modelio": ("save_model", "load_model"),
    "oracle": ("reference_classifier", "kde_exact_batch"),
    "cli": ("cmd_fit", "cmd_eval", "cmd_predict", "cmd_benchmark", "cmd_generate"),
}
# Per-row inner functions: call counts only.
COUNTED = {
    "density": ("estimate_density",),
    "oracle": ("kde_exact",),
}
# Rows sampled to recognise a repeated scoring of the same embeddings.
_KEY_ROWS = 64


def _file_bytes(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _rows(x) -> int:
    shape = getattr(x, "shape", None)
    if shape is None:
        return len(x)
    return int(shape[0]) if len(shape) == 2 else 1


class Tracer:
    """Span recorder plus the per-function attribute extractors."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        # id(DensityMatrix) -> (weakref, token); the weakref detects id reuse.
        self._dm_tokens: dict[int, tuple] = {}
        self._next_token = itertools.count()
        self._scored: set = set()

    def _dm_token(self, dm) -> int:
        entry = self._dm_tokens.get(id(dm))
        if entry is None or entry[0]() is not dm:
            entry = (weakref.ref(dm), next(self._next_token))
            self._dm_tokens[id(dm)] = entry
        return entry[1]

    def _attrs(self, name: str, args, kwargs, result) -> dict:
        """Work counts of one call, derived from argument and result shapes."""
        if name == "dataio.load_csv":
            return {"bytes": _file_bytes(args[0])}
        if name == "modelio.save_model":
            return {"bytes": _file_bytes(args[1])}
        if name == "modelio.load_model":
            return {"bytes": _file_bytes(args[0])}
        if name == "embedding.embed":
            return {"rows": _rows(args[1])}
        if name == "embedding.train_aff":
            cfg = args[2] if len(args) > 2 else kwargs["cfg"]
            return {"epochs": int(cfg.epochs), "fell_back": int(result is args[0])}
        if name == "density.build_density_matrix":
            n, d = int(result.sample_count), int(result.embed_dim)
            return {"n": n, "D": d, "flop": 2 * n * d * d}
        if name == "density.estimate_density_batch":
            dm, phis = args[0], args[1]
            rows, d = _rows(phis), int(dm.embed_dim)
            repeat = self._seen_before(dm, phis)
            return {"rows": rows, "D": d, "flop": 2 * rows * d * d,
                    "repeat_rows": rows if repeat else 0}
        if name == "detector.predict_batch":
            return {"rows": _rows(args[1])}
        return {}

    def _seen_before(self, dm, phis) -> bool:
        """True when these embeddings were already scored against ``dm``."""
        import numpy

        rows = len(phis)
        sample = numpy.ascontiguousarray(phis[::max(1, rows // _KEY_ROWS)]).tobytes()
        key = (self._dm_token(dm), rows, hashlib.blake2b(sample, digest_size=16).digest())
        if key in self._scored:
            return True
        self._scored.add(key)
        return False

    def span(self, name: str, func):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            record = [name, 0.0, 0.0, parent, {}]
            tracer.spans.append(record)
            tracer._stack.append(index)
            record[1] = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                tracer._stack.pop()
            record[4] = tracer._attrs(name, args, kwargs, result)
            return result

        return wrapper

    def counter(self, name: str, func):
        counts = self.counts
        counts[name] = 0

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return func(*args, **kwargs)

        return wrapper


def _rebind(original, replacement) -> None:
    """Replace ``original`` at each of its bindings in the loaded dmkde modules."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "dmkde" or mod_name.startswith("dmkde.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap every traced function at every binding; fail on a missing name."""
    importlib.import_module("dmkde.cli")  # loads every module that binds a name
    for table, make in ((TRACED, tracer.span), (COUNTED, tracer.counter)):
        for layer, names in table.items():
            module = importlib.import_module(f"dmkde.{layer}")
            for fn in names:
                original = getattr(module, fn, None)
                if not callable(original):
                    raise SystemExit(f"tracer: dmkde.{layer}.{fn} is missing; "
                                     "update bench/tracer.py")
                label = f"{layer}.{fn[4:] if layer == 'cli' else fn}"
                _rebind(original, make(label, original))
    density = importlib.import_module("dmkde.density")
    cls = density.DensityMatrix
    cls.__init__ = tracer.span("density.DensityMatrix.init", cls.__init__)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="JSON file to write the spans to")
    parser.add_argument("argv", nargs=argparse.REMAINDER, help="-- then the dmkde arguments")
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    tracer = Tracer()
    install(tracer)
    from dmkde import cli

    code = cli.main(argv)
    doc = {
        "argv": argv,
        "counts": tracer.counts,
        "spans": tracer.spans,
    }
    with open(args.spans, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
