"""Versioned, bit-exact model file format.

A model is one JSON document with a fixed field order:

    format, version, input_dim, embed_dim, sample_count, sigma, theta,
    anomaly_rate, use_aff, shift, scale, weights, offsets, density

Scalars are JSON numbers (Python's shortest-repr float round trip keeps
them bit-exact; a rate-0 threshold serializes as the ``-Infinity``
token).  Arrays are base64-encoded little-endian float64 buffers,
row-major for matrices, which makes the round trip bit-exact by
construction.  ``shift``/``scale`` are null when standardization is off.
"""

from __future__ import annotations

import base64
import json
from pathlib import Path

import numpy as np

from .density import DensityMatrix
from .detector import DetectorModel
from .embedding import EmbeddingParams
from .errors import ParseError

FORMAT_NAME = "dmkde-model"
FORMAT_VERSION = 1


def _encode(arr: np.ndarray | None) -> str | None:
    if arr is None:
        return None
    buf = np.ascontiguousarray(arr, dtype="<f8").tobytes()
    return base64.b64encode(buf).decode("ascii")


def _decode(text: str | None, shape: tuple[int, ...]):
    if text is None:
        return None
    if not isinstance(text, str):
        raise ParseError(f"array payload must be a base64 string, got {type(text).__name__}")
    try:
        buf = base64.b64decode(text.encode("ascii"), validate=True)
        arr = np.frombuffer(buf, dtype="<f8").astype(np.float64)
    except (ValueError, TypeError) as exc:
        raise ParseError(f"bad array payload: {exc}") from exc
    if arr.size != int(np.prod(shape)):
        raise ParseError(f"array payload has {arr.size} values, expected shape {shape}")
    return arr.reshape(shape)


def _field(doc: dict, key: str, kind: type):
    """``doc[key]``, which must have the JSON type ``kind``: a ``float`` field
    takes any JSON number, ``-Infinity`` included, and a bool is no number."""
    value = doc[key]
    allowed = (int, float) if kind is float else kind
    if not isinstance(value, allowed) or (kind is not bool and isinstance(value, bool)):
        name = "number" if kind is float else kind.__name__
        raise ParseError(f"model field {key!r} must be a JSON {name}, got {value!r}")
    return value


def model_to_document(model: DetectorModel) -> dict:
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "input_dim": model.embedding.input_dim,
        "embed_dim": model.embedding.embed_dim,
        "sample_count": model.dm.sample_count,
        "sigma": float(model.embedding.sigma),
        "theta": float(model.theta),
        "anomaly_rate": float(model.anomaly_rate),
        "use_aff": bool(model.use_aff),
        "shift": _encode(model.shift),
        "scale": _encode(model.scale),
        "weights": _encode(model.embedding.weights),
        "offsets": _encode(model.embedding.offsets),
        "density": _encode(model.dm.matrix),
    }


def model_from_document(doc: dict) -> DetectorModel:
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_NAME:
        raise ParseError(f"not a {FORMAT_NAME} document")
    try:
        if _field(doc, "version", int) != FORMAT_VERSION:
            raise ParseError(f"unsupported model version {doc['version']!r}")
        d = _field(doc, "input_dim", int)
        embed_dim = _field(doc, "embed_dim", int)
        n = _field(doc, "sample_count", int)
        embedding = EmbeddingParams(
            weights=_decode(doc["weights"], (embed_dim, d)),
            offsets=_decode(doc["offsets"], (embed_dim,)),
            sigma=_field(doc, "sigma", float),
            input_dim=d,
            embed_dim=embed_dim,
        )
        dm = DensityMatrix(_decode(doc["density"], (embed_dim, embed_dim)), n)
        return DetectorModel(
            embedding=embedding,
            dm=dm,
            theta=_field(doc, "theta", float),
            anomaly_rate=_field(doc, "anomaly_rate", float),
            use_aff=_field(doc, "use_aff", bool),
            shift=_decode(doc["shift"], (d,)),
            scale=_decode(doc["scale"], (d,)),
        )
    except KeyError as exc:
        raise ParseError(f"model document is missing field {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        if isinstance(exc, ParseError):
            raise
        raise ParseError(f"model document is invalid: {exc}") from exc


def save_model(model: DetectorModel, path) -> None:
    Path(path).write_text(json.dumps(model_to_document(model)) + "\n", encoding="utf-8")


def load_model(path) -> DetectorModel:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    return model_from_document(doc)
