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
from collections.abc import Iterator
from pathlib import Path

import numpy as np

from .dataio import _read_json
from .density import _BLOCK, DensityFactor, DensityMatrix, _whole_lanes
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


def _density_pieces(dm: DensityMatrix | DensityFactor) -> Iterator[bytes]:
    """Base64 of a serving form's payload, in pieces that concatenate to it.

    The payload goes ``_BLOCK`` rows at a time: the factor's rows, or the
    triangle's, row ``i`` being ``R[i, i:]`` as :func:`_decode_density`
    reads it.  Each piece but the last encodes a whole number of 3-byte
    groups, with the fewer than 3 values left over carried into the next,
    so no piece is padded and the pieces are the base64 of the whole.
    """
    dim = dm.embed_dim
    carry = np.empty(0)
    for start in range(0, dim, _BLOCK):
        stop = min(start + _BLOCK, dim)
        rows = ([dm.factor[start:stop].ravel()] if isinstance(dm, DensityFactor)
                else [dm.matrix[i, i:] for i in range(start, stop)])
        values = np.concatenate([carry, *rows], dtype="<f8")
        whole = values.size - values.size % 3
        carry = values[whole:].copy()
        yield base64.b64encode(values[:whole])
    yield base64.b64encode(carry)


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


def _document(model: DetectorModel, density: str) -> dict:
    """The model's document, with ``density`` as its last field's text."""
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "input_dim": model.embedding.input_dim,
        "embed_dim": model.embedding.embed_dim,
        "sample_count": model.dm.sample_count,
        "sigma": model.embedding.sigma,
        "theta": model.theta,
        "anomaly_rate": model.anomaly_rate,
        "use_aff": bool(model.use_aff),
        "shift": _encode(model.shift),
        "scale": _encode(model.scale),
        "weights": _encode(model.embedding.weights),
        "offsets": _encode(model.embedding.offsets),
        "form": "factor" if isinstance(model.dm, DensityFactor) else "dense",
        "sketch_bound": model.sketch_bound,
        "density": density,
    }


def model_to_document(model: DetectorModel) -> dict:
    return _document(model, b"".join(_density_pieces(model.dm)).decode("ascii"))


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
    """Write ``json.dumps(model_to_document(model))`` and a newline to
    ``path``, with the density payload streamed piece by piece: base64
    needs no JSON escape, so the file is that text byte for byte, and no
    whole copy of the payload is held."""
    head = json.dumps(_document(model, "")).encode("ascii")
    with open(path, "wb") as out:
        out.write(head[:-len(b'"}')])  # up to the payload's opening quote
        out.writelines(_density_pieces(model.dm))  # drops each piece once written
        out.write(b'"}\n')


def load_model(path) -> DetectorModel:
    return model_from_document(_read_json(Path(path), ParseError))
