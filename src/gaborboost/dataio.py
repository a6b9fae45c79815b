"""Loading, normalizing, and serializing images and feature tables.

Images come in as 8/16-bit PGM (P2 or P5) or plain CSV matrices and are
normalized to [0, 1] float64 on load. Feature tables are CSV files with a
fixed column layout shared by every producer and consumer in the package.
"""

from __future__ import annotations

import csv
import math
import re
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, ParseError, SchemaError, SizeError


@dataclass(frozen=True)
class GrayImage:
    """A grayscale image; ``data`` is float64 with shape (height, width)."""

    data: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.ndim != 2 or arr.size == 0:
            raise SizeError("image data must be a nonempty 2D array")
        if not np.isfinite(arr).all():
            raise ConfigError("image contains non-finite intensities")
        object.__setattr__(self, "data", arr)

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def height(self) -> int:
        return self.data.shape[0]


@dataclass
class LabeledDataset:
    """Images with parallel string labels and per-image names."""

    images: list[GrayImage]
    labels: list[str]
    names: list[str]

    def __post_init__(self):
        if not (len(self.images) == len(self.labels) == len(self.names)):
            raise ConfigError("images, labels, and names must have equal length")

    def __len__(self) -> int:
        return len(self.images)

    @property
    def classes(self) -> list[str]:
        return sorted(set(self.labels))


# ---------------------------------------------------------------------------
# image loading


# In a PGM header a comment runs from '#' to the end of its line, and a
# token is a run of bytes that are neither whitespace nor '#'.
_PGM_LEXEME = re.compile(rb"#[^\n]*|[^ \t\r\n#]+")
# A P2 raster holds no comments: every run of non-whitespace is a pixel.
_P2_PIXEL = re.compile(r"\S+")


def _pgm_header_tokens(buf: bytes, path):
    """The magic and the three header fields as (token, line) pairs, and the
    offset where the raster begins."""
    tokens = []
    for match in _PGM_LEXEME.finditer(buf):
        if match[0].startswith(b"#"):
            continue
        line = buf.count(b"\n", 0, match.start()) + 1
        tokens.append((match[0].decode("ascii", "replace"), line))
        if len(tokens) == 4:
            # raster begins after exactly one whitespace byte following maxval
            return tokens, match.end() + 1
    lines = buf.count(b"\n") + 1
    raise ParseError(f"{path}: line {lines}: truncated PGM header")


def load_pgm(path: str | Path) -> GrayImage:
    """Read an 8- or 16-bit P2/P5 PGM and normalize by its declared maxval."""
    path = Path(path)
    buf = path.read_bytes()
    magic = buf[:2].decode("ascii", "replace")
    if magic not in ("P2", "P5"):
        raise ParseError(f"{path}: line 1: not a PGM file (magic {magic!r})")
    tokens, raster_at = _pgm_header_tokens(buf, path)
    for token, line in tokens[1:]:  # int() would also read "+4" and "2_55"
        if not token.isdigit():
            raise ParseError(f"{path}: line {line}: bad header token {token!r}")
    width, height, maxval = (int(token) for token, _ in tokens[1:])
    if width <= 0 or height <= 0:
        raise ParseError(f"{path}: non-positive dimensions {width}x{height}")
    if not 0 < maxval < 65536:
        raise ParseError(f"{path}: maxval {maxval} out of range")

    count = width * height
    if magic == "P5":
        itemsize = 2 if maxval > 255 else 1
        raster = buf[raster_at : raster_at + count * itemsize]
        if len(raster) < count * itemsize:
            raise ParseError(f"{path}: raster truncated ({len(raster)} bytes)")
        dtype = ">u2" if itemsize == 2 else np.uint8
        values = np.frombuffer(raster, dtype=dtype, count=count).astype(np.float64)
        over = np.flatnonzero(values > maxval)
        if over.size:
            y, x = divmod(int(over[0]), width)
            raise ParseError(f"{path}: pixel ({x}, {y}) is {int(values[over[0]])}, "
                             f"above maxval {maxval}")
    else:
        text = buf.decode("ascii", "replace")
        pixels = list(_P2_PIXEL.finditer(text, raster_at - 1))
        if len(pixels) < count:
            raise ParseError(f"{path}: expected {count} pixels, found {len(pixels)}")
        for pixel in pixels[:count]:
            if not pixel[0].isdigit() or int(pixel[0]) > maxval:
                line = text.count("\n", 0, pixel.start()) + 1
                raise ParseError(f"{path}: line {line}: pixel {pixel[0]!r} "
                                 f"is not an integer in 0..{maxval}")
        values = np.array([int(p[0]) for p in pixels[:count]], dtype=np.float64)
    return GrayImage(values.reshape(height, width) / maxval)


def load_csv_image(path: str | Path) -> GrayImage:
    """Read a CSV matrix; values are scaled by the max absolute value."""
    path = Path(path)
    rows: list[list[float]] = []
    for lineno, record in list(_csv_records(path)):  # a ragged row is reported first
        for cell in record:  # float() would read a quoted "3\n" as 3.0
            if "\n" in cell or "\r" in cell:
                raise ParseError(f"{path}: line {lineno}: line break in value {cell!r}")
        try:
            values = [plain_number(p) for p in record]
        except ValueError:
            raise ParseError(f"{path}: line {lineno}: non-numeric value") from None
        for v in values:
            if not math.isfinite(v):
                raise ParseError(f"{path}: line {lineno}: non-finite value {v}")
        rows.append(values)
    if not rows:
        raise ParseError(f"{path}: empty CSV image")
    arr = np.array(rows, dtype=np.float64)
    peak = np.abs(arr).max()
    if peak > 0:
        arr = arr / peak
    return GrayImage(arr)


def load_image(path: str | Path) -> GrayImage:
    """Load one image, as PGM or CSV by its file suffix."""
    path = Path(path)
    suffix = path.suffix.lower()
    if suffix == ".pgm":
        return load_pgm(path)
    if suffix == ".csv":
        return load_csv_image(path)
    raise ConfigError(f"cannot infer image format from {path.name!r}")


def write_pgm(img: GrayImage, path: str | Path) -> None:
    """Write a 16-bit binary PGM; intensities are clipped to [0, 1]."""
    arr = np.clip(img.data, 0.0, 1.0)
    quantized = np.round(arr * 65535.0).astype(">u2")
    header = f"P5\n{img.width} {img.height}\n65535\n".encode("ascii")
    Path(path).write_bytes(header + quantized.tobytes())


def plain_number(text: str, kind: type = float) -> int | float:
    """``kind(text)``, kind being float or int, for a CSV cell or a numeric flag;
    a ValueError, as from ``kind``, for text with digit-group underscores or
    non-ASCII characters such as Arabic-Indic digits, which ``kind`` reads."""
    if "_" in text or not text.isascii():
        raise ValueError(f"not a plain number: {text!r}")
    return kind(text)


def _csv_records(path: Path, keyed: bool = False) -> Iterator[tuple[int, list[str]]]:
    """Yield (line, record) for each record of a CSV text file that is not
    blank (no field, or one field of only whitespace); line is the physical
    line the record starts on. Every record must be as wide as the first;
    with ``keyed`` the first is a header and no two later records share
    their first field. Undecodable bytes and malformed CSV, such as a field
    over the csv module's size limit, are a ParseError before any yield."""
    records, start = [], 1
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            try:
                for record in reader:
                    if len(record) > 1 or "".join(record).strip():
                        records.append((start, record))
                    start = reader.line_num + 1
            except csv.Error as exc:
                raise ParseError(f"{path}: line {reader.line_num}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not a text file: {exc}") from None
    first_lines = {}
    for k, (line, record) in enumerate(records):
        if len(record) != len(records[0][1]):
            raise ParseError(f"{path}: ragged row at line {line}")
        if keyed and k and (first := first_lines.setdefault(record[0], line)) != line:
            raise ParseError(f"{path}: {record[0]!r} listed twice, at lines {first} and {line}")
        yield line, record


def load_dataset(directory: str | Path) -> LabeledDataset:
    """Load every image listed in <directory>/labels.csv, sorted by filename."""
    directory = Path(directory)
    manifest = directory / "labels.csv"
    if not manifest.is_file():
        raise ParseError(f"{manifest}: missing labels manifest")
    records = _csv_records(manifest, keyed=True)
    _, header = next(records, (None, None))
    if header != ["filename", "label"]:
        raise SchemaError(f"{manifest}: expected header filename,label, got {header}")
    listed = []
    for line, (fname, label) in records:
        if not label:
            raise ParseError(f"{manifest}: line {line}: empty label")
        listed.append((fname, label))
    images, labels, names = [], [], []
    for fname, label in sorted(listed):
        images.append(load_image(directory / fname))
        labels.append(label)
        names.append(fname)
    return LabeledDataset(images, labels, names)


# ---------------------------------------------------------------------------
# label-preserving transforms


def flip_horizontal(img: GrayImage) -> GrayImage:
    """Mirror an image about its vertical center line."""
    return GrayImage(img.data[:, ::-1].copy())


def reduce_classes(
    ds: LabeledDataset,
    merge_map: dict[str, str],
    flip_set: set[str] | frozenset[str] = frozenset(),
) -> LabeledDataset:
    """Map labels through ``merge_map``; flip images whose original label is
    in ``flip_set`` (for orientation classes folded into their mirror class).

    Raises ConfigError for a label missing from ``merge_map``, and for a
    ``merge_map`` key or ``flip_set`` class that no image carries, which
    is most likely a misspelling.
    """
    images, labels = [], []
    for img, label in zip(ds.images, ds.labels):
        if label not in merge_map:
            raise ConfigError(f"label {label!r} missing from merge map")
        images.append(flip_horizontal(img) if label in flip_set else img)
        labels.append(merge_map[label])
    unused = sorted((set(merge_map) | set(flip_set)) - set(ds.labels))
    if unused:
        raise ConfigError(f"class {unused[0]!r} to merge or flip matches no image; "
                          f"the dataset's classes are {ds.classes}")
    return LabeledDataset(images, labels, list(ds.names))


# ---------------------------------------------------------------------------
# feature tables

PF_COLUMNS = ("pf_amp", "pf_center", "pf_width", "pf_skew", "pf_offset")
BASE_COLUMNS = (
    "id",
    "sigma_x",
    "sigma_y",
    "lambda",
    "x_star",
    "y_star",
    "q_tl",
    "q_tr",
    "q_bl",
    "q_br",
    "egf_tl_bl",
    "egf_tr_br",
    "egf_tl_tr",
    "egf_bl_br",
)

# Table columns and model-input names that differ from their FeatureRow field.
_COLUMN_TO_ATTR = {"lambda": "lam", "x_star_norm": "x_star", "y_star_norm": "y_star"}


@dataclass
class FeatureRow:
    """One image's extracted features plus its label.

    ``lam`` maps to the CSV column named ``lambda``, and :meth:`value`
    also reads ``x_star`` and ``y_star`` by their model-input names
    ``x_star_norm`` and ``y_star_norm``. The five ``pf_*``
    fields are either all present or all None; NaN values mark a failed
    profile fit. ``roi_clamped`` is diagnostic only and is not serialized.
    """

    id: str
    sigma_x: float
    sigma_y: float
    lam: float
    x_star: float
    y_star: float
    q_tl: float
    q_tr: float
    q_bl: float
    q_br: float
    egf_tl_bl: float
    egf_tr_br: float
    egf_tl_tr: float
    egf_bl_br: float
    label: str
    pf_amp: float | None = None
    pf_center: float | None = None
    pf_width: float | None = None
    pf_skew: float | None = None
    pf_offset: float | None = None
    roi_clamped: bool = False

    @property
    def has_pf(self) -> bool:
        return self.pf_amp is not None

    @property
    def pf_failed(self) -> bool:
        return self.has_pf and math.isnan(self.pf_amp)

    def value(self, column: str) -> float | str:
        return getattr(self, _COLUMN_TO_ATTR.get(column, column))


def _table_columns(with_pf: bool) -> tuple[str, ...]:
    cols = BASE_COLUMNS + (PF_COLUMNS if with_pf else ()) + ("label",)
    return cols


def write_feature_table(rows: list[FeatureRow], path: str | Path) -> None:
    """Write rows as CSV; floats use repr so they round-trip exactly.

    An empty row list still writes the header line (base schema).
    """
    with_pf = rows[0].has_pf if rows else False
    if any(r.has_pf != with_pf for r in rows):
        raise SchemaError("rows mix PF and non-PF schemas")
    columns = _table_columns(with_pf)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        # csv quotes only the line terminator's "\n"; a bare "\r" would read
        # back as a line break, so a row holding one is quoted whole.
        quoting = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL)
        writer.writerow(columns)
        for row in rows:
            cells = [v if isinstance(v, str) else repr(float(v)) for v in map(row.value, columns)]
            (quoting if any("\r" in c for c in cells) else writer).writerow(cells)


def read_feature_table(path: str | Path) -> list[FeatureRow]:
    """Read a feature CSV written by :func:`write_feature_table`."""
    path = Path(path)
    records = _csv_records(path, keyed=True)
    _, header = next(records, (None, None))
    if header is None:
        raise SchemaError(f"{path}: empty feature table")
    for expect_pf in (False, True):
        if tuple(header) == _table_columns(expect_pf):
            with_pf = expect_pf
            break
    else:
        known = set(_table_columns(True))
        unknown = [c for c in header if c not in known]
        if unknown:
            raise SchemaError(f"{path}: unknown column {unknown[0]!r}")
        raise SchemaError(f"{path}: header mismatch: {header}")
    columns = _table_columns(with_pf)
    rows = []
    for lineno, record in records:
        kwargs = {}
        for col, cell in zip(columns, record):
            attr = _COLUMN_TO_ATTR.get(col, col)
            if col == "label" and not cell:
                raise ParseError(f"{path}: line {lineno}: empty label")
            if col in ("id", "label"):
                kwargs[attr] = cell
            else:
                try:
                    kwargs[attr] = plain_number(cell)
                except ValueError:
                    raise ParseError(
                        f"{path}: line {lineno}: bad value {cell!r} in {col}"
                    ) from None
        rows.append(FeatureRow(**kwargs))
    return rows
