"""Versioned, bit-exact model file format.

A model is one JSON document with a fixed field order:

    format, version, input_dim, embed_dim, sample_count, sigma, theta,
    anomaly_rate, use_aff, shift, scale, weights, offsets, form,
    sketch_bound, density

Scalars are JSON numbers (Python's shortest-repr float round trip keeps
them bit-exact; a rate-0 threshold serializes as the ``-Infinity``
token).  Arrays are base64-encoded little-endian float64 buffers,
row-major for matrices, which makes the round trip bit-exact by
construction.  ``shift``/``scale`` are null when standardization is off.

``form`` names what ``density`` holds: ``"dense"``, the upper triangle of
the density matrix row by row (``D (D + 1) / 2`` values; the matrix is
exactly symmetric, so mirroring restores it bit for bit), or
``"factor"``, the ``D x k`` Nystrom factor.  ``sketch_bound`` is the
factor's density error bound, or that of the sketch a dense model was
built instead of, or null.  Version 1 documents, which hold the full
matrix and have neither field, still load.
"""

from __future__ import annotations

import base64
import json
from pathlib import Path

import numpy as np

from .density import DensityFactor, DensityMatrix, _whole_lanes
from .detector import DetectorModel
from .embedding import EmbeddingParams
from .errors import ParseError

FORMAT_NAME = "dmkde-model"
FORMAT_VERSION = 2


def _encode(arr: np.ndarray | None) -> str | None:
    if arr is None:
        return None
    buf = np.ascontiguousarray(arr, dtype="<f8").tobytes()
    return base64.b64encode(buf).decode("ascii")


def _decode(text: str | None, shape: tuple[int, ...] | None):
    """The array ``text`` encodes, of ``shape``, or flat when ``shape`` is None."""
    if text is None:
        return None
    if not isinstance(text, str):
        raise ParseError(f"array payload must be a base64 string, got {type(text).__name__}")
    try:
        # A read-only view of the decoded bytes: no array is copied on load.
        arr = np.frombuffer(base64.b64decode(text, validate=True), dtype="<f8")
    except (ValueError, TypeError) as exc:
        raise ParseError(f"bad array payload: {exc}") from exc
    if shape is None:
        return arr
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


def _encode_density(dm: DensityMatrix | DensityFactor) -> tuple[str, str]:
    """``(form, payload)`` of a serving form."""
    if isinstance(dm, DensityFactor):
        return "factor", _encode(dm.factor)
    # Row i of the triangle is R[i, i:], as _decode_density reads it.
    return "dense", _encode(np.concatenate([dm.matrix[i, i:] for i in range(dm.embed_dim)]))


def _decode_density(doc: dict, version: int, embed_dim: int, n: int):
    """The serving form a document's ``density`` payload holds."""
    text = _field(doc, "density", str)
    if version == 1:
        return DensityMatrix(_decode(text, (embed_dim, embed_dim)), n)
    form = _field(doc, "form", str)
    if form == "factor":
        values = _decode(text, None)
        if values.size == 0 or values.size % embed_dim:
            raise ParseError(f"factor payload has {values.size} values, "
                             f"not a positive multiple of embed_dim {embed_dim}")
        return DensityFactor(values.reshape(embed_dim, -1), n)
    if form != "dense":
        raise ParseError(f"unknown density form {form!r}")
    values = _decode(text, (embed_dim * (embed_dim + 1) // 2,))
    # Row by row (row i of the triangle is R[i, i:]), without a D x D mask,
    # into a lane-padded buffer that DensityMatrix keeps as its own.
    width = _whole_lanes(embed_dim)
    matrix = np.zeros((width, width))[:embed_dim, :embed_dim]
    start = 0
    for i in range(embed_dim):
        row = values[start:start + embed_dim - i]
        matrix[i, i:] = row
        matrix[i:, i] = row
        start += embed_dim - i
    return DensityMatrix(matrix, n)


def model_to_document(model: DetectorModel) -> dict:
    form, density = _encode_density(model.dm)
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
        "form": form,
        "sketch_bound": model.sketch_bound,
        "density": density,
    }


def model_from_document(doc: dict) -> DetectorModel:
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_NAME:
        raise ParseError(f"not a {FORMAT_NAME} document")
    try:
        version = _field(doc, "version", int)
        if version not in (1, FORMAT_VERSION):
            raise ParseError(f"unsupported model version {version!r}")
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
        bound = None if version == 1 or doc["sketch_bound"] is None else _field(
            doc, "sketch_bound", float)
        return DetectorModel(
            embedding=embedding,
            dm=_decode_density(doc, version, embed_dim, n),
            theta=_field(doc, "theta", float),
            anomaly_rate=_field(doc, "anomaly_rate", float),
            use_aff=_field(doc, "use_aff", bool),
            shift=_decode(doc["shift"], (d,)),
            scale=_decode(doc["scale"], (d,)),
            sketch_bound=bound,
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
    del text  # the document holds every payload; the text would be a second copy
    return model_from_document(doc)
