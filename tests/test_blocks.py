"""The block map: row blocks run on several threads, bit for bit as one.

Embedding, scoring and AFF's cosine table run their row blocks through
``density._for_blocks`` on ``density._WORKERS`` threads; sums over blocks
run in block order on the calling thread.  Results must not depend on the
worker count, errors must be the ones a serial loop raises, and helpers
must call no public function.  Each call starts its own helper threads and
joins them before it returns or raises, so none outlives the call, and a
forked child inherits none.
"""

import contextlib
import functools
import inspect
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dmkde
from dmkde import (
    AffConfig,
    DetectorModel,
    build_density_matrix,
    embed,
    estimate_density_batch,
    sample_rff_params,
    score_batch,
    train_aff,
)
from dmkde import density
from dmkde.cli import EXIT_OK, main
from dmkde.density import _BLOCK, DensityFactor, _for_blocks, sketch_density_matrix
from tests.conftest import random_unit_vectors

WORKER_COUNTS = (1, 2, 3)
ROW_COUNTS = (0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 300, 3 * _BLOCK + 5)
SRC = str(Path(dmkde.__file__).resolve().parent.parent)


@contextlib.contextmanager
def workers(count):
    """``count`` workers, which take every call of two or more blocks."""
    saved = density._WORKERS, density._HANDOFF_BLOCKS
    density._WORKERS, density._HANDOFF_BLOCKS = count, 1
    try:
        yield
    finally:
        density._WORKERS, density._HANDOFF_BLOCKS = saved


def at_each_count(compute):
    """``compute()`` at every worker count, each result as raw bytes."""
    out = []
    for count in WORKER_COUNTS:
        with workers(count):
            result = compute()
        out.append(b"".join(np.asarray(part).tobytes() for part in result))
    return out


def assert_same_bits(outputs):
    assert all(out == outputs[0] for out in outputs[1:])


class TestSameBitsAtAnyWorkerCount:
    @settings(max_examples=12, deadline=None)
    @given(rows=st.sampled_from(ROW_COUNTS), dim=st.sampled_from((64, 100)),
           seed=st.integers(0, 2**32 - 1))
    def test_embed(self, rows, dim, seed):
        params = sample_rff_params(3, dim, 1.5, seed)
        x = np.random.default_rng(seed).normal(size=(rows, 3))
        assert_same_bits(at_each_count(lambda: [embed(params, x)]))

    @settings(max_examples=12, deadline=None)
    @given(rows=st.sampled_from(ROW_COUNTS), dim=st.sampled_from((64, 100)),
           seed=st.integers(0, 2**32 - 1))
    def test_estimate_density_batch_dense_and_factor(self, rows, dim, seed):
        rng = np.random.default_rng(seed)
        dm = build_density_matrix(random_unit_vectors(rng, 40, dim))
        factor = rng.normal(size=(dim, 7))
        factor = DensityFactor(factor / np.linalg.norm(factor), 40)
        phis = random_unit_vectors(rng, rows, dim)
        assert_same_bits(at_each_count(
            lambda: [estimate_density_batch(dm, phis), estimate_density_batch(factor, phis)]))

    @settings(max_examples=10, deadline=None)
    @given(n=st.sampled_from((1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 150)),
           dim=st.sampled_from((196, 256)), seed=st.integers(0, 2**32 - 1))
    def test_sketch_density_matrix(self, n, dim, seed):
        phis = random_unit_vectors(np.random.default_rng(seed), n, dim)

        def sketch():
            dm, beta = sketch_density_matrix(phis, seed)
            return [dm.factor if dm is not None else np.empty(0), np.float64(beta)]

        assert_same_bits(at_each_count(sketch))

    @settings(max_examples=8, deadline=None)
    @given(rows=st.sampled_from(ROW_COUNTS), seed=st.integers(0, 2**32 - 1))
    def test_score_batch(self, rows, seed):
        rng = np.random.default_rng(seed)
        params = sample_rff_params(4, 100, 2.0, seed)
        dm = build_density_matrix(embed(params, rng.normal(size=(60, 4))))
        model = DetectorModel(params, dm, 0.1, 0.05, False, np.zeros(4), np.ones(4), None)
        x = rng.normal(size=(rows, 4))
        assert_same_bits(at_each_count(lambda: [score_batch(model, x)]))

    @settings(max_examples=6, deadline=None)
    @given(rows=st.sampled_from((2, _BLOCK + 1, 300)), dim=st.sampled_from((16, 20)),
           pairs=st.sampled_from((1, _BLOCK, 3 * _BLOCK + 1)), seed=st.integers(0, 2**32 - 1))
    def test_train_aff(self, rows, dim, pairs, seed):
        x = np.random.default_rng(seed).normal(size=(rows, 2))
        init = sample_rff_params(2, dim, 1.0, seed)
        # A learning rate this large moves the parameters far in two epochs,
        # so that a gradient bit that changed would show in the result.
        cfg = AffConfig(num_pairs=pairs, epochs=2, learning_rate=1.0)

        def trained():
            out = train_aff(init, x, cfg, seed)
            return [out.weights, out.offsets]

        assert_same_bits(at_each_count(trained))


class TestScoreRowsKernel:
    """``score_batch`` takes raw rows to densities one block at a time, by
    the same steps as ``embed`` and ``estimate_density_batch``."""

    @settings(max_examples=24, deadline=None)
    @given(rows=st.sampled_from((1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 8 * _BLOCK + 1)),
           dim=st.sampled_from((64, 100)), factor=st.booleans(), standardize=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_equals_embed_then_estimate(self, rows, dim, factor, standardize, seed):
        rng = np.random.default_rng(seed)
        params = sample_rff_params(4, dim, 2.0, seed)
        if factor:
            f = rng.normal(size=(dim, 7))
            dm = DensityFactor(f / np.linalg.norm(f), 60)
        else:
            dm = build_density_matrix(embed(params, rng.normal(size=(60, 4))))
        shift, scale = (rng.normal(size=4), rng.uniform(0.5, 2.0, 4)) if standardize else (None,
                                                                                            None)
        model = DetectorModel(params, dm, 0.1, 0.05, False, shift, scale,
                              0.0 if factor else None)
        x = rng.normal(size=(rows, 4))
        outputs = at_each_count(lambda: [
            score_batch(model, x),
            estimate_density_batch(model.dm, embed(model.embedding, model.standardize(x)))])
        assert all(out[:rows * 8] == out[rows * 8:] for out in outputs)
        assert_same_bits(outputs)

    def test_memory_is_blocks_per_worker_not_rows(self):
        """Fixed before measuring: three ``(_BLOCK, D)`` buffers per worker
        (two are used) plus 32 bytes per input value and row."""
        rows, d, dim, count = 4 * density._CHUNK, 8, 1024, 2
        rng = np.random.default_rng(2)
        params = sample_rff_params(d, dim, 2.0, 2)
        dm = build_density_matrix(embed(params, rng.normal(size=(200, d))))
        model = DetectorModel(params, dm, 0.1, 0.05, False, np.zeros(d), np.ones(d), None)
        x = rng.normal(size=(rows, d))
        bound = 3 * count * (_BLOCK * 8 * dim) + 32 * rows * (d + 1)
        with workers(count):
            score_batch(model, x[:_BLOCK])
            tracemalloc.start()
            try:
                score_batch(model, x)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < bound


class TestBlockMap:
    @pytest.mark.parametrize("count", WORKER_COUNTS)
    def test_lowest_failing_block_raises(self, count):
        def work(start, block):
            if start == _BLOCK:
                time.sleep(0.05)  # block 1 fails after block 3 has failed
                raise ValueError("block 1")
            if start == 3 * _BLOCK:
                raise KeyError("block 3")

        with workers(count), pytest.raises(ValueError, match="block 1"):
            _for_blocks(5 * _BLOCK, work, 8)

    @pytest.mark.parametrize("count", WORKER_COUNTS)
    def test_each_worker_owns_zeroed_buffers(self, count):
        shapes = []

        def work(start, block):
            assert not block.any()
            shapes.append(block.shape)

        with workers(count):
            _for_blocks(4 * _BLOCK, work, 17)
        assert shapes == [(_BLOCK, 17)] * 4

    def test_stress_more_workers_than_cpus(self):
        """Every block runs exactly once, with the interpreter switching
        threads as often as it can."""
        blocks = 400
        runs = [0] * blocks

        def work(start, block):
            runs[start // _BLOCK] += 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with workers(2 * (os.cpu_count() or 1) + 1):
                started = time.monotonic()
                _for_blocks(blocks * _BLOCK, work, 1)
        finally:
            sys.setswitchinterval(interval)
        assert time.monotonic() - started < 30
        assert runs == [1] * blocks


class TestHelpersCallNoPublicFunction:
    """``bench/tracer.py`` wraps public functions and keeps one span stack,
    the calling thread's; a helper that called one would corrupt it."""

    @pytest.fixture()
    def off_thread(self, monkeypatch):
        """``(public, blocks)``: the public functions called off the calling
        thread, and how many blocks helpers loaded, with 2 workers taking
        every call of two or more blocks.  Until a helper has loaded a block,
        the calling thread sleeps 10 ms at each of its own loads, so that it
        cannot take every block of a short call before a helper starts."""
        caller = threading.get_ident()
        public, blocks = [], []

        def watch(func, calls, name):
            @functools.wraps(func)
            def watched(*args, **kwargs):
                if threading.get_ident() != caller:
                    calls.append(name)
                elif calls is blocks and not blocks:
                    time.sleep(0.01)
                return func(*args, **kwargs)
            return watched

        targets = [(getattr(dmkde, name), public, name) for name in dmkde.__all__
                   if inspect.isfunction(getattr(dmkde, name))]
        targets.append((density._load, blocks, "_load"))
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] != "dmkde":
                continue
            for func, calls, name in targets:
                if getattr(module, name, None) is func:
                    monkeypatch.setattr(module, name, watch(func, calls, name))
        monkeypatch.setattr(density, "_WORKERS", 2)
        monkeypatch.setattr(density, "_HANDOFF_BLOCKS", 1)
        return public, blocks

    def test_fit_search_score_and_sketch(self, off_thread):
        public, blocks = off_thread
        rng = np.random.default_rng(5)
        train, val = rng.normal(size=(300, 2)), rng.normal(size=(130, 2))
        aff = AffConfig(num_pairs=300, epochs=2, learning_rate=0.1)
        models = [dmkde.fit(train, val, 0.1, dmkde.FitConfig(None, 64, use_aff=use_aff,
                                                             aff=aff, seed=3))[0]
                  for use_aff in (False, True)]
        labels = (np.arange(val.shape[0]) % 10 == 0).astype(np.int64)
        dmkde.grid_search(train, val, labels, 0.1,
                          [dmkde.FitConfig(sigma, 64, use_aff=use_aff, aff=aff, seed=3)
                           for sigma in (1.0, 2.0) for use_aff in (False, True)])
        for model in models:
            score_batch(model, rng.normal(size=(3 * _BLOCK + 5, 2)))
        sketch_density_matrix(random_unit_vectors(rng, 150, 256), 3)
        assert blocks, "no helper ran a block"
        assert public == []


class TestWorkerRule:
    @pytest.fixture()
    def cpus(self, monkeypatch):
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)

        def set_cpus(count):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)),
                                raising=False)
        set_cpus(4)
        return set_cpus

    def test_unset_means_one_worker(self, cpus):
        assert density._worker_count() == 1

    @pytest.mark.parametrize("var", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
    @pytest.mark.parametrize("threads,expected", [("1", 4), ("2", 2), ("3", 1), ("8", 1)])
    def test_cpus_over_blas_threads(self, cpus, monkeypatch, var, threads, expected):
        monkeypatch.setenv(var, threads)
        assert density._worker_count() == expected

    @pytest.mark.parametrize("garbage", ["", "two", "0", "-1", "1.5"])
    def test_garbage_is_skipped(self, cpus, monkeypatch, garbage):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", garbage)
        assert density._worker_count() == 1
        monkeypatch.setenv("OMP_NUM_THREADS", "2")
        assert density._worker_count() == 2

    def test_openblas_first(self, cpus, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setenv("OMP_NUM_THREADS", "4")
        assert density._worker_count() == 4

    def test_one_cpu(self, cpus, monkeypatch):
        cpus(1)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        assert density._worker_count() == 1

    def test_cpu_count_without_affinity(self, cpus, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        assert density._worker_count() == 3


def run_python(code, threads, timeout=120, **kwargs):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads),
               MKL_NUM_THREADS=str(threads), PYTHONPATH=os.pathsep.join(
                   p for p in (SRC, os.environ.get("PYTHONPATH", "")) if p))
    return subprocess.run([sys.executable, *code], env=env, capture_output=True, text=True,
                          timeout=timeout, **kwargs)


class TestProcesses:
    def test_cli_files_identical_at_one_and_all_blas_threads(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text('{"name": "two_cluster", "components": ['
                        '{"mean": [-3.0, 0.0], "cov": 0.5, "count": 1025},'
                        '{"mean": [3.0, 0.0], "cov": 2.0, "count": 1025}],'
                        '"anomaly_count": 50, "box_low": [-9.0, -9.0],'
                        '"box_high": [9.0, 9.0], "exclusion_radius": 3.5}', encoding="utf-8")
        data = tmp_path / "two_cluster.csv"
        assert main(["generate", str(spec), "--out", str(data), "--seed", "4"]) == EXIT_OK
        config = tmp_path / "run.cfg"
        # 1,028 training rows at D = 2048 make a factor model: embedding them
        # and sketching take 9 blocks each, AFF's cosine table of up to 2,100
        # rows takes 17, and predict's first chunk 8.
        config.write_text("embed_dim = 2048\nuse_aff = true\naff_epochs = 2\n"
                          "aff_num_pairs = 2100\nseed = 2\n", encoding="utf-8")
        outputs = []
        for threads in (1, os.cpu_count() or 1):
            out = tmp_path / f"threads{threads}"
            out.mkdir()
            cfg = ["--config", str(config)]
            for argv in (
                ["fit", str(data), "--out", str(out / "model.json"), "--report",
                 str(out / "fit.json"), "--predictions", str(out / "fit.csv")] + cfg,
                ["eval", str(data), "--model", str(out / "model.json"), "--report",
                 str(out / "eval.json"), "--predictions", str(out / "eval.csv")] + cfg,
                ["predict", str(data), "--model", str(out / "model.json"),
                 "--out", str(out / "predict.csv")],
            ):
                done = run_python(["-m", "dmkde.cli", *argv], threads)
                assert done.returncode == 0, done.stderr
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert len(outputs[0]) == 6
        assert outputs[0] == outputs[1]

    def test_forked_child_scores_and_exits(self):
        probe = (
            "import os\n"
            "import signal\n"
            "import numpy as np\n"
            "from dmkde import build_density_matrix, estimate_density_batch\n"
            "from dmkde import density\n"
            "density._WORKERS = 2\n"
            "rng = np.random.default_rng(1)\n"
            "phis = rng.normal(size=(density._HANDOFF_BLOCKS * density._BLOCK + 1, 64))\n"
            "phis /= np.linalg.norm(phis, axis=1, keepdims=True)\n"
            "dm = build_density_matrix(phis)\n"
            "before = estimate_density_batch(dm, phis)\n"
            "pid = os.fork()\n"
            "if pid == 0:\n"
            "    signal.alarm(30)  # a child that hangs ends rather than outlives the test\n"
            "    os._exit(0 if np.array_equal(estimate_density_batch(dm, phis), before) else 3)\n"
            "_, status = os.waitpid(pid, 0)\n"
            "raise SystemExit(os.waitstatus_to_exitcode(status))\n"
        )
        if not hasattr(os, "fork"):
            pytest.skip("no fork on this platform")
        assert run_python(["-c", probe], 1, timeout=60).returncode == 0

    def test_helpers_do_not_multiply(self):
        probe = (
            "import threading\n"
            "import numpy as np\n"
            "from dmkde import DetectorModel, build_density_matrix, embed\n"
            "from dmkde import sample_rff_params, score_batch\n"
            "from dmkde import density\n"
            "params = sample_rff_params(4, 64, 1.0, 1)\n"
            "x = np.random.default_rng(1).normal(size=(3000, 4))\n"
            "dm = build_density_matrix(embed(params, x[:200]))\n"
            "model = DetectorModel(params, dm, 0.1, 0.05, False, None, None, None)\n"
            "for _ in range(3):\n"
            "    score_batch(model, x)\n"
            "print(density._WORKERS, threading.active_count())\n"
        )
        done = run_python(["-c", probe], 1, check=True)
        workers_in_force, threads = map(int, done.stdout.split())
        assert workers_in_force == len(os.sched_getaffinity(0))
        assert threads == 1


@pytest.mark.parametrize("blocks,helped", [(density._HANDOFF_BLOCKS - 1, False),
                                           (density._HANDOFF_BLOCKS, True)])
def test_calls_below_the_hand_off_size_stay_on_the_caller(blocks, helped):
    threads = set()

    def work(start, block):
        threads.add(threading.get_ident())
        time.sleep(0.01)  # long enough for a helper to take a block

    saved = density._WORKERS
    density._WORKERS = 2
    try:
        _for_blocks(blocks * _BLOCK, work, 4)
    finally:
        density._WORKERS = saved
    assert (threads != {threading.get_ident()}) == helped


@pytest.mark.parametrize("count", WORKER_COUNTS)
def test_no_helper_outlives_the_call(count):
    ran = set()

    def work(start, block):
        ran.add(threading.current_thread())
        time.sleep(0.01)  # long enough for every helper to take a block

    with workers(count):
        before = threading.active_count()
        _for_blocks(10 * _BLOCK, work, 4)
    assert threading.active_count() == before
    assert len(ran) == count and threading.current_thread() in ran
    assert all(not thread.is_alive() for thread in ran - {threading.current_thread()})


def test_helper_that_fails_to_start_leaves_no_thread(monkeypatch):
    start = threading.Thread.start
    starts = []

    def start_once(self):
        starts.append(self)
        if len(starts) == 2:
            raise RuntimeError("can't start new thread")
        start(self)

    before = threading.active_count()
    monkeypatch.setattr(threading.Thread, "start", start_once)
    with workers(3), pytest.raises(RuntimeError, match="can't start new thread"):
        _for_blocks(10 * _BLOCK, lambda start, block: time.sleep(0.01), 4)
    assert len(starts) == 2
    assert threading.active_count() == before
    assert not starts[0].is_alive()
