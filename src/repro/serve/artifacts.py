"""On-demand artifact rendering from cached results.

One request (or one ``repro artifacts NAME`` invocation) turns a
cached experiment result into the paper-facing artifacts -- the
``make_results.py`` shape of replication packages, except rendered
from the content-addressed result cache instead of a CSV dump:

``json``
    The full provenance document: experiment, resolved params, cache
    key, canonical checksum, every figure table (columns + rows), and
    the canonical raw data -- byte-comparable against ``repro run
    --out`` output.
``md``
    A markdown report: provenance header plus every
    :class:`~repro.analysis.figures.FigureTable` as a GFM table.
``png``
    A horizontal bar chart of the first figure table's numeric
    column, encoded by a tiny pure-stdlib PNG writer (no plotting
    libraries exist offline); title/provenance ride in ``tEXt``
    metadata chunks.

Rendering is pure (result -> bytes): the HTTP layer serves artifacts
only for already-cached results, while the CLI computes through
:func:`repro.exp.runner.run_experiment` first (cache-aware), so both
paths render identical bytes for identical cached results.
"""

from __future__ import annotations

import json
import struct
import zlib

from repro.analysis.figures import FigureTable, iter_tables
from repro.exp.cache import canonical_digest, canonicalize

#: Supported artifact formats and their media types.
CONTENT_TYPES = {
    "json": "application/json",
    "md": "text/markdown; charset=utf-8",
    "png": "image/png",
}


class ArtifactError(ValueError):
    """The requested artifact cannot be rendered from this result."""


# ----------------------------------------------------------------------
# json / markdown
# ----------------------------------------------------------------------
def artifact_doc(name: str, params: dict, key: str, value) -> dict:
    """The machine-readable artifact: provenance + tables + raw data."""
    data = canonicalize(value)
    return {
        "experiment": name,
        "params": canonicalize(params),
        "key": key,
        "checksum": canonical_digest(data),
        "tables": [
            {"title": t.title, "columns": list(t.columns),
             "rows": canonicalize(t.rows), "notes": list(t.notes)}
            for t in iter_tables(value)
        ],
        "data": data,
    }


def render_markdown(name: str, params: dict, key: str, value) -> str:
    """The human-readable artifact: provenance header + GFM tables."""
    tables = list(iter_tables(value))
    data = canonicalize(value)
    lines = [f"# `{name}` — cached result artifact", "",
             f"- cache key: `{key}`",
             f"- checksum: `{canonical_digest(data)}`",
             f"- params: `{json.dumps(canonicalize(params), sort_keys=True)}`",
             ""]
    for table in tables:
        lines.append(table.to_markdown())
        lines.append("")
    if not tables:
        lines += ["```json",
                  json.dumps(data, indent=1, sort_keys=True),
                  "```", ""]
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Pure-stdlib PNG encoding
# ----------------------------------------------------------------------
def _chunk(tag: bytes, payload: bytes) -> bytes:
    return (struct.pack(">I", len(payload)) + tag + payload
            + struct.pack(">I", zlib.crc32(tag + payload) & 0xFFFFFFFF))


def encode_png(width: int, height: int, rows: list[bytes],
               texts: dict[str, str] | None = None) -> bytes:
    """Encode RGB scanlines as a PNG (filter 0, zlib-compressed)."""
    if len(rows) != height or any(len(r) != width * 3 for r in rows):
        raise ArtifactError("scanline geometry does not match the header")
    raw = b"".join(b"\x00" + row for row in rows)
    out = [b"\x89PNG\r\n\x1a\n",
           _chunk(b"IHDR", struct.pack(">IIBBBBB", width, height,
                                       8, 2, 0, 0, 0))]
    for keyword, text in (texts or {}).items():
        out.append(_chunk(b"tEXt", keyword.encode("latin-1") + b"\x00"
                          + text.encode("latin-1", "replace")))
    out.append(_chunk(b"IDAT", zlib.compress(raw, 9)))
    out.append(_chunk(b"IEND", b""))
    return b"".join(out)


_BG = (255, 255, 255)
_AXIS = (70, 70, 70)
_BARS = ((58, 110, 189), (122, 160, 220))  # alternating series blues


def _numeric_column(table: FigureTable) -> tuple[str, list[float]]:
    """The right-most all-numeric column (charts plot the metric, and
    metrics conventionally sit right of their labels)."""
    for idx in range(len(table.columns) - 1, -1, -1):
        values = [row[idx] for row in table.rows]
        if values and all(isinstance(v, (int, float))
                          and not isinstance(v, bool) for v in values):
            return table.columns[idx], [float(v) for v in values]
    raise ArtifactError(
        f"table {table.title!r} has no numeric column to chart")


def render_png(name: str, value) -> bytes:
    """Bar-chart the first figure table's numeric column."""
    tables = list(iter_tables(value))
    if not tables:
        raise ArtifactError(
            f"result of {name!r} contains no figure table to chart")
    table = tables[0]
    column, values = _numeric_column(table)

    bar_h, gap, margin, width = 12, 4, 10, 480
    height = margin * 2 + len(values) * (bar_h + gap) - gap
    peak = max((v for v in values if v > 0), default=1.0)
    span = width - 2 * margin - 1

    rows: list[bytes] = []
    for y in range(height):
        line = bytearray()
        slot, offset = divmod(y - margin, bar_h + gap)
        in_bar = (0 <= y - margin
                  and slot < len(values) and offset < bar_h)
        bar_px = 0
        if in_bar:
            frac = max(0.0, values[slot]) / peak
            bar_px = int(round(frac * span))
        color = _BARS[slot % 2] if in_bar else _BG
        for x in range(width):
            if x == margin - 1 and margin <= y < height - margin + 1:
                line.extend(_AXIS)  # the zero axis
            elif in_bar and margin <= x < margin + bar_px:
                line.extend(color)
            else:
                line.extend(_BG)
        rows.append(bytes(line))
    return encode_png(width, height, rows, texts={
        "Title": f"{name}: {table.title}",
        "Description": f"bars = column {column!r}, top to bottom "
                       f"row order; peak = {peak:g}",
        "Software": "repro serve artifact layer (stdlib PNG encoder)",
    })


# ----------------------------------------------------------------------
# Dispatch
# ----------------------------------------------------------------------
def render_artifact(name: str, params: dict, key: str, value,
                    fmt: str) -> tuple[str, bytes]:
    """Render one artifact; returns ``(content_type, payload)``."""
    if fmt == "json":
        payload = json.dumps(artifact_doc(name, params, key, value),
                             indent=1, sort_keys=True).encode() + b"\n"
    elif fmt == "md":
        payload = render_markdown(name, params, key, value).encode()
    elif fmt == "png":
        payload = render_png(name, value)
    else:
        raise ArtifactError(
            f"unknown artifact format {fmt!r}; formats: "
            f"{', '.join(sorted(CONTENT_TYPES))}")
    return CONTENT_TYPES[fmt], payload
