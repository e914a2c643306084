"""Versioned, bit-exact model file format.

A model file (version 3) is one line of JSON, the header, then the arrays
as raw little-endian float64 buffers, row-major, as in NumPy's ``.npy``
(NEP 1).  The header's fields, in order:

    format, version, input_dim, embed_dim, sample_count, sigma, theta,
    anomaly_rate, use_aff, form, sketch_bound, arrays

Scalars are JSON numbers (Python's shortest-repr float round trip keeps
them bit-exact; a rate-0 threshold serializes as the ``-Infinity``
token).  ``arrays`` gives the dtype, shape and byte offset, counted from
the end of the line, which spaces pad to whole 8-byte words, of
``shift``, ``scale``, ``weights``, ``offsets`` and ``density``, which
follow it in that order; ``shift``/``scale`` are null when
standardization is off.

``form`` names what ``density`` holds: ``"dense"``, the upper triangle of
the density matrix row by row (``D (D + 1) / 2`` values; the matrix is
exactly symmetric, so mirroring restores it bit for bit), or
``"factor"``, the ``D x k`` Nystrom factor.  ``sketch_bound`` is the
factor's density error bound, or that of the sketch a dense model was
built instead of, or null.  Version 2 files, one JSON document with each
array in a base64 field (:func:`model_to_document`), and version 1
documents, the full matrix without ``form`` or ``sketch_bound``, still
load.
"""

from __future__ import annotations

import base64
import json
import math
import os
from functools import partial
from pathlib import Path

import numpy as np

from .dataio import _json, _read_json
from .density import _BLOCK, DensityFactor, DensityMatrix, _whole_lanes
from .detector import DetectorModel
from .embedding import EmbeddingParams
from .errors import ParseError

FORMAT_NAME = "dmkde-model"
FORMAT_VERSION = 3
_DOCUMENT_VERSION = 2  # what model_to_document writes
_ARRAYS = ("shift", "scale", "weights", "offsets", "density")  # in file order


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


def _arrays(model: DetectorModel) -> dict:
    """Each array's shape and the buffers whose values it holds in order, or
    None: the factor, or the triangle's rows, row ``i`` being ``R[i, i:]``."""
    arrays = {name: None if value is None else (list(value.shape), [value]) for name, value in (
        ("shift", model.shift), ("scale", model.scale), ("weights", model.embedding.weights),
        ("offsets", model.embedding.offsets), ("density", getattr(model.dm, "factor", None)))}
    if isinstance(model.dm, DensityMatrix):
        dim = model.dm.embed_dim
        arrays["density"] = ([dim * (dim + 1) // 2], [model.dm.matrix[i, i:] for i in range(dim)])
    return arrays


def _document(model: DetectorModel, fields: dict) -> dict:
    """The model's version 2 document, ``fields`` giving each array's field."""
    return {
        "format": FORMAT_NAME,
        "version": _DOCUMENT_VERSION,
        "input_dim": model.embedding.input_dim,
        "embed_dim": model.embedding.embed_dim,
        "sample_count": model.dm.sample_count,
        "sigma": model.embedding.sigma,
        "theta": model.theta,
        "anomaly_rate": model.anomaly_rate,
        "use_aff": bool(model.use_aff),
        "shift": fields["shift"],
        "scale": fields["scale"],
        "weights": fields["weights"],
        "offsets": fields["offsets"],
        "form": "factor" if isinstance(model.dm, DensityFactor) else "dense",
        "sketch_bound": model.sketch_bound,
        "density": fields["density"],
    }


def model_to_document(model: DetectorModel) -> dict:
    return _document(model, {
        name: None if array is None else _encode(np.concatenate([b.ravel() for b in array[1]]))
        for name, array in _arrays(model).items()})


def _model(doc: dict, versions: tuple[int, ...], read) -> DetectorModel:
    """The model whose fields ``doc`` holds, of one of ``versions``: its scalar
    fields are checked first, then ``read(version, form, input_dim, embed_dim)``
    gives the five arrays by name, a dense density as the full matrix."""
    try:
        version, d, embed_dim, n = (_field(doc, key, int) for key in (
            "version", "input_dim", "embed_dim", "sample_count"))
        if version not in versions:
            raise ParseError(f"unsupported model version {version!r}")
        sigma, theta, rate = (_field(doc, key, float) for key in ("sigma", "theta", "anomaly_rate"))
        use_aff = _field(doc, "use_aff", bool)
        form = "dense" if version == 1 else _field(doc, "form", str)
        if form not in ("dense", "factor"):
            raise ParseError(f"unknown density form {form!r}")
        bound = None if version == 1 or doc["sketch_bound"] is None else _field(
            doc, "sketch_bound", float)
        arrays = read(version, form, d, embed_dim)
        return DetectorModel(
            embedding=EmbeddingParams(weights=arrays["weights"], offsets=arrays["offsets"],
                                      sigma=sigma, input_dim=d, embed_dim=embed_dim),
            dm=(DensityFactor if form == "factor" else DensityMatrix)(arrays["density"], n),
            theta=theta, anomaly_rate=rate, use_aff=use_aff, shift=arrays["shift"],
            scale=arrays["scale"], sketch_bound=bound)
    except KeyError as exc:
        raise ParseError(f"model document is missing field {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        if isinstance(exc, ParseError):
            raise
        raise ParseError(f"model document is invalid: {exc}") from exc


def _document_arrays(doc: dict, version: int, form: str, d: int, embed_dim: int) -> dict:
    """The arrays a version 1 or 2 document's base64 fields encode."""
    arrays = {name: _decode(doc[name], shape) for name, shape in (
        ("shift", (d,)), ("scale", (d,)), ("weights", (embed_dim, d)), ("offsets", (embed_dim,)))}
    text = _field(doc, "density", str)
    if version == 1:
        arrays["density"] = _decode(text, (embed_dim, embed_dim))
    elif form == "factor":  # D x k, any k: reshape and DensityFactor check it
        arrays["density"] = _decode(text, None).reshape(embed_dim, -1)
    else:
        rows = iter(np.split(_decode(text, (embed_dim * (embed_dim + 1) // 2,)),
                             np.cumsum(np.arange(embed_dim, 1, -1))))
        arrays["density"] = _triangle(embed_dim, lambda row: np.copyto(row, next(rows)))
    return arrays


def model_from_document(doc: dict) -> DetectorModel:
    if not isinstance(doc, dict) or doc.get("format") != FORMAT_NAME:
        raise ParseError(f"not a {FORMAT_NAME} document")
    return _model(doc, (1, _DOCUMENT_VERSION), partial(_document_arrays, doc))


def save_model(model: DetectorModel, path) -> None:
    """Write the version 3 file: the header line, then each array's buffers
    as they lie in memory, the triangle a row at a time, so no copy is held."""
    arrays = _arrays(model)
    table, offset = {}, 0
    for name, array in arrays.items():
        table[name] = None if array is None else {"dtype": "<f8", "shape": array[0],
                                                  "offset": offset}
        offset += 0 if array is None else 8 * math.prod(array[0])
    fields = {key: value for key, value in _document(model, dict.fromkeys(_ARRAYS)).items()
              if key not in _ARRAYS}
    text = json.dumps(fields | {"version": FORMAT_VERSION, "arrays": table})
    with open(path, "wb") as out:
        out.write(text.ljust(-(-(len(text) + 1) // 8) * 8 - 1).encode("ascii") + b"\n")
        for array in filter(None, arrays.values()):
            out.writelines(np.ascontiguousarray(buf, dtype="<f8") for buf in array[1])


def _triangle(dim: int, fill) -> np.ndarray:
    """The symmetric matrix whose upper triangle ``fill(row)`` writes, row ``i``
    being ``R[i, i:]``, mirrored a ``_BLOCK``-square tile at a time: the top-left
    view of a zeroed lane-padded buffer, which ``DensityMatrix`` adopts."""
    matrix = np.zeros((_whole_lanes(dim),) * 2, dtype="<f8")[:dim, :dim]
    for i in range(dim):
        fill(matrix[i, i:])
    below = np.tri(_BLOCK, k=-1, dtype=bool)
    for i in range(0, dim, _BLOCK):
        tile = matrix[i:i + _BLOCK, i:i + _BLOCK]
        np.copyto(tile, tile.T, where=below[:tile.shape[0], :tile.shape[0]])
        for j in range(i + _BLOCK, dim, _BLOCK):
            matrix[j:j + _BLOCK, i:i + _BLOCK] = matrix[i:i + _BLOCK, j:j + _BLOCK].T
    return matrix


def _read(file, path: Path, buf: np.ndarray) -> np.ndarray:
    """``buf``, filled from ``file`` with ``readinto``."""
    if file.readinto(buf) != buf.nbytes:
        raise ParseError(f"{path}: the file ended inside an array")
    return buf


def _rank(entry) -> int:
    """``k`` of a factor's array entry of shape ``[D, k]``, or 0 for none."""
    shape = entry.get("shape") if isinstance(entry, dict) else None
    return shape[1] if isinstance(shape, list) and len(shape) == 2 and type(shape[1]) is int else 0


def _file_arrays(file, path: Path, start: int, size: int, doc: dict,
                 version: int, form: str, d: int, embed_dim: int) -> dict:
    """The arrays of a version 3 file of ``size`` bytes, whose header ``doc`` ends
    at byte ``start``.  Before any read, each array's entry must give its shape
    for ``input_dim`` and ``embed_dim`` and the offset where the one before it
    ends, and the last must end the file."""
    table = _field(doc, "arrays", dict)
    if list(table) != list(_ARRAYS):
        raise ParseError(f"{path}: the array table must name {', '.join(_ARRAYS)}, in order")
    shapes = {"shift": [d], "scale": [d], "weights": [embed_dim, d], "offsets": [embed_dim],
              "density": [embed_dim * (embed_dim + 1) // 2] if form == "dense"
              else [embed_dim, _rank(table["density"])]}
    end = 0
    for name, entry in table.items():
        want = {"dtype": "<f8", "shape": shapes[name], "offset": end}
        if entry != want and not (entry is None and name in ("shift", "scale")):
            raise ParseError(f"{path}: array {name!r} is {json.dumps(entry)}, "
                             f"expected {json.dumps(want)}")
        end += 8 * math.prod(shapes[name]) if entry else 0
    if end != size - start:
        raise ParseError(f"{path}: {size - start} bytes follow the header, "
                         f"whose arrays end at offset {end}")
    arrays = dict.fromkeys(_ARRAYS)
    for name in filter(table.get, _ARRAYS):  # in file order, from the end of the header
        arrays[name] = (_triangle(embed_dim, partial(_read, file, path))
                        if name == "density" and form == "dense"
                        else _read(file, path, np.empty(shapes[name], dtype="<f8")))
    return arrays


def load_model(path) -> DetectorModel:
    """The model in ``path``, whose first line is JSON, read under the rules
    and messages of :func:`dmkde.dataio._read_json`: a version 3 header, or
    a whole version 1 or 2 document, as every save wrote one."""
    path = Path(path)
    try:
        with open(path, "rb") as file:
            size = os.fstat(file.fileno()).st_size
            line = file.readline()
            head = _json(line.decode("utf-8"), path, ParseError)
            if (isinstance(head, dict) and head.get("format") == FORMAT_NAME
                    and head.get("version") == FORMAT_VERSION):
                return _model(head, (FORMAT_VERSION,),
                              partial(_file_arrays, file, path, len(line), size, head))
    except (OSError, UnicodeDecodeError) as exc:  # as dataio._read_text words it
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return model_from_document(head if len(line) == size else _read_json(path, ParseError))
