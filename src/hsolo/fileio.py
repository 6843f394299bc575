"""Text formats for correspondence pools and estimation results.

Correspondence files are comma-separated with a version header. Full rows
carry both feature points plus their scale/angle byproducts; point-only rows
(four coordinates) are accepted for data from sources that do not export
byproducts, and ``LoadedCorrespondences.byproduct_pool`` rejects them where
byproducts are required. An optional trailing 0/1 column marks ground-truth
inliers.

Result documents are line-oriented key: value text with a fixed key order so
runs can be diffed. Timing is written as 0 unless explicitly included, keeping
default outputs byte-reproducible.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path
from typing import TextIO

import numpy as np

from .exceptions import FileFormatError, InvalidFeature
from .geometry import Pool, as_pool
from .robust import EstimationResult

CORR_HEADER = "hsolo-corr v1"
RESULT_HEADER = "hsolo-result v1"

_FULL_FIELDS = 8  # u1,v1,s1,theta1,u2,v2,s2,theta2
_POINT_FIELDS = 4  # u1,v1,u2,v2


@dataclass(frozen=True)
class LoadedCorrespondences:
    """A parsed correspondence file.

    ``correspondences`` is the file's rows as a :class:`~hsolo.geometry.Pool`.
    ``inlier_mask`` is None when the file carries no ground-truth column.
    ``has_byproducts`` is False for point-only files, whose features carry
    placeholder scale 1 / angle 0, and True for full files and files with no rows.
    """

    correspondences: Pool
    inlier_mask: np.ndarray | None
    has_byproducts: bool

    def byproduct_pool(self) -> Pool:
        """``correspondences``, or :class:`FileFormatError` for a point-only file."""
        if not self.has_byproducts:
            raise FileFormatError(
                "point-only file: the hsolo method and gate calibration need the "
                "scale/angle byproduct columns (8-field rows); only ransac can run on it"
            )
        return self.correspondences


def load_correspondences(path) -> LoadedCorrespondences:
    """Read a correspondence file, reporting malformed lines by number."""
    text = Path(path).read_text()
    lines = text.splitlines()
    if not lines:
        raise FileFormatError("empty file", line=1)
    header = lines[0].strip()
    if header != CORR_HEADER:
        if header.startswith("hsolo-corr"):
            raise FileFormatError(
                f"unsupported format version {header!r}, expected {CORR_HEADER!r}", line=1
            )
        raise FileFormatError(f"missing {CORR_HEADER!r} header", line=1)

    rows: list[list[float]] = []
    linenos: list[int] = []
    flags: list[bool] = []
    n_fields: int | None = None
    for lineno, raw in enumerate(lines[1:], start=2):
        stripped = raw.strip()
        if not stripped:
            continue
        try:
            n_fields, values, flag = _parse_line(stripped, lineno, n_fields)
        except FileFormatError:
            _pool(rows, linenos)  # a bad value on an earlier line is reported first
            raise
        if flag is not None:
            flags.append(flag)
        if len(values) == _POINT_FIELDS:
            u1, v1, u2, v2 = values
            values = [u1, v1, 1.0, 0.0, u2, v2, 1.0, 0.0]
        rows.append(values)
        linenos.append(lineno)

    mask = np.array(flags, dtype=bool) if flags else None
    # a file with no rows is not point-only: the estimators reject it for its size
    has_byproducts = n_fields not in (_POINT_FIELDS, _POINT_FIELDS + 1)
    return LoadedCorrespondences(_pool(rows, linenos), mask, has_byproducts)


def _parse_line(stripped: str, lineno: int, n_fields: int | None):
    """One row's field count, numeric fields and ground-truth flag (None without the column)."""
    fields = [f.strip() for f in stripped.split(",")]
    if n_fields is None:
        if len(fields) not in (_POINT_FIELDS, _POINT_FIELDS + 1, _FULL_FIELDS, _FULL_FIELDS + 1):
            raise FileFormatError(
                f"expected 4, 5, 8 or 9 comma-separated fields, got {len(fields)}", line=lineno
            )
        n_fields = len(fields)
    elif len(fields) != n_fields:
        raise FileFormatError(
            f"expected {n_fields} fields as on previous lines, got {len(fields)}", line=lineno
        )
    flag = None
    if n_fields in (_POINT_FIELDS + 1, _FULL_FIELDS + 1):
        flag_field = fields.pop()
        if flag_field not in ("0", "1"):
            raise FileFormatError(f"ground-truth flag must be 0 or 1, got {flag_field!r}", line=lineno)
        flag = flag_field == "1"
    try:
        return n_fields, [float(f) for f in fields], flag
    except ValueError as exc:
        raise FileFormatError(f"non-numeric field: {exc}", line=lineno) from None


def _pool(rows: list[list[float]], linenos: list[int]) -> Pool:
    """The parsed rows as a pool; a row that breaks a feature invariant is reported by line."""
    try:
        return Pool(np.array(rows, dtype=float).reshape(-1, _FULL_FIELDS))
    except (InvalidFeature, ValueError) as exc:
        raise FileFormatError(str(exc), line=linenos[exc.row]) from None


def save_correspondences(path, correspondences, inlier_mask=None) -> None:
    """Write a full-format correspondence file (17 significant digits).

    ``correspondences`` is a :class:`Pool` or a sequence of correspondences.
    ``inlier_mask``, when given, must match its length and adds the trailing
    ground-truth column.
    """
    rows = as_pool(correspondences).rows
    fmt = ",".join(["%.17g"] * _FULL_FIELDS)
    if inlier_mask is not None:
        if len(inlier_mask) != len(rows):
            raise ValueError(f"mask length {len(inlier_mask)} != {len(rows)} correspondences")
        rows = np.column_stack([rows, np.asarray(inlier_mask, dtype=bool)])
        fmt += ",%d"
    lines = [fmt % tuple(row) for row in rows.tolist()]
    Path(path).write_text("\n".join([CORR_HEADER, *lines]) + "\n")


def _config_echo(config) -> str:
    parts = []
    for field in dataclasses.fields(config):
        parts.append(f"{field.name}={getattr(config, field.name)!r}")
    return " ".join(parts)


def write_result(stream: TextIO, result: EstimationResult, config, include_timing: bool = False) -> None:
    """Write a result document to an open text stream.

    Key order is fixed: model, inliers, support, iterations, elapsed_s,
    config. ``elapsed_s`` is 0 unless ``include_timing``; real wall time makes
    otherwise-identical runs differ byte-wise.
    """
    entries = " ".join(repr(float(v)) for v in result.model.m.ravel())
    indices = " ".join(str(int(i)) for i in result.inlier_indices)
    stream.write(f"{RESULT_HEADER}\n")
    stream.write(f"model: {entries}\n")
    stream.write(f"inliers: {indices}\n")
    stream.write(f"support: {result.support}\n")
    stream.write(f"iterations: {result.iterations_run}\n")
    elapsed = f"{result.elapsed:.6f}" if include_timing else "0"
    stream.write(f"elapsed_s: {elapsed}\n")
    stream.write(f"config: {_config_echo(config)}\n")


def save_result(path, result: EstimationResult, config, include_timing: bool = False) -> None:
    """Write a result document to a file. See :func:`write_result`."""
    with open(path, "w") as fh:
        write_result(fh, result, config, include_timing=include_timing)
