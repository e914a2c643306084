import json
import sys
from pathlib import Path

import numpy as np
import pytest

from dmkde import GaussianComponent, SyntheticSpec, fit_standardizer, generate_synthetic

# Optional user-supplied ODDS conversions (see README for the recipe);
# tests that need them skip when the files are absent.
ODDS_DIR = Path(__file__).resolve().parent.parent / "data" / "odds"


def two_cluster_spec() -> SyntheticSpec:
    """Canonical desk-scale benchmark: two Gaussian clusters of different
    spread plus far-box anomalies."""
    return SyntheticSpec(
        components=[
            GaussianComponent(np.array([-3.0, 0.0]), 0.5, 250),
            GaussianComponent(np.array([3.0, 0.0]), 2.0, 250),
        ],
        anomaly_count=25,
        box_low=np.array([-9.0, -9.0]),
        box_high=np.array([9.0, 9.0]),
        exclusion_radius=3.5,
        name="two_cluster",
    )


@pytest.fixture(scope="session")
def two_cluster_dataset():
    return generate_synthetic(two_cluster_spec(), seed=11)


def random_unit_vectors(rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    v = rng.normal(size=(count, dim))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


@pytest.fixture()
def standardizer_fits(monkeypatch):
    """List that gains one entry per ``fit_standardizer`` call, made through
    any module of the package that binds the name."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return fit_standardizer(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        bound = getattr(module, "fit_standardizer", None)
        if name.split(".")[0] == "dmkde" and bound is fit_standardizer:
            monkeypatch.setattr(module, "fit_standardizer", counted)
    return calls


def model_header(path) -> dict:
    """The header of a version 3 model file: its first line, as JSON."""
    with open(path, "rb") as file:
        return json.loads(file.readline())


def with_header(path, out, **fields) -> None:
    """Write ``out``: the version 3 model file ``path`` with the header fields
    ``fields`` replaced, the line padded to whole 8-byte words again."""
    data = Path(path).read_bytes()
    end = data.index(b"\n")
    text = json.dumps(json.loads(data[:end]) | fields).encode("ascii")
    Path(out).write_bytes(text.ljust(-(-(len(text) + 1) // 8) * 8 - 1) + data[end:])
