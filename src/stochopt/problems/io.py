"""Instance file parsers: a minimal TSPLIB subset and a plain bin-packing format.

TSP files give EUC_2D node coordinates; bin-packing files give the item
count, the capacity, then one size per token ('#' starts a comment).
Files are read as UTF-8 (`read_text`).  Every malformed line raises a
ParseError naming the file and line.
"""

from __future__ import annotations

import math
from pathlib import Path

from ..core import ParseError, read_text
from .binpacking import BinPackingInstance
from .tsp import TspInstance


def parse_tsp_file(path) -> TspInstance:
    """Minimal TSPLIB subset: EUC_2D coordinates, full-precision distances."""
    path = Path(path)
    header: dict = {}
    coords: dict = {}
    in_coords = False
    dim_line = None
    for lineno, raw in enumerate(read_text(path).split("\n"), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.upper() == "EOF":
            break
        if in_coords:
            parts = line.split()
            if len(parts) != 3:
                raise ParseError(f"{path}:{lineno}: expected 'index x y' in NODE_COORD_SECTION")
            try:
                idx = int(parts[0])
                xy = (float(parts[1]), float(parts[2]))
            except ValueError:
                raise ParseError(f"{path}:{lineno}: non-numeric coordinate line") from None
            if not all(map(math.isfinite, xy)):
                raise ParseError(f"{path}:{lineno}: coordinates must be finite")
            if idx in coords:
                raise ParseError(f"{path}:{lineno}: duplicate node index {idx}")
            coords[idx] = xy
            continue
        if line.upper().startswith("NODE_COORD_SECTION"):
            if dim_line is None:
                raise ParseError(
                    f"{path}:{lineno}: DIMENSION must appear before NODE_COORD_SECTION"
                )
            in_coords = True
            continue
        if ":" in line:
            key, _, value = line.partition(":")
            key = key.strip().upper()
            value = value.strip()
            if key == "DIMENSION":
                try:
                    header["DIMENSION"] = int(value)
                except ValueError:
                    raise ParseError(f"{path}:{lineno}: DIMENSION must be an integer") from None
                dim_line = lineno
            elif key == "TYPE" and value.upper() != "TSP":
                raise ParseError(f"{path}:{lineno}: only TYPE: TSP is supported")
            elif key == "EDGE_WEIGHT_TYPE" and value.upper() != "EUC_2D":
                raise ParseError(
                    f"{path}:{lineno}: unknown edge weight type {value!r} (only EUC_2D)"
                )
            else:
                header[key] = value
            continue
        raise ParseError(f"{path}:{lineno}: unrecognized line {line!r}")
    if "DIMENSION" not in header:
        raise ParseError(f"{path}: missing DIMENSION")
    n = header["DIMENSION"]
    if len(coords) != n:
        raise ParseError(
            f"{path}: NODE_COORD_SECTION has {len(coords)} entries, DIMENSION says {n}"
        )
    indices = sorted(coords)
    if indices != list(range(1, n + 1)) and indices != list(range(n)):
        raise ParseError(f"{path}: node indices must be 1..{n} (or 0..{n - 1})")
    pts = [coords[i] for i in indices]
    return TspInstance.from_coords(pts, name=header.get("NAME", path.stem))


def parse_binpacking_file(path) -> BinPackingInstance:
    """Plain text: item count, capacity, then the sizes ('#' comments ok)."""
    path = Path(path)
    tokens: list = []
    for lineno, raw in enumerate(read_text(path).split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        for tok in line.split():
            tokens.append((lineno, tok))
    if len(tokens) < 2:
        raise ParseError(f"{path}: need an item count and a capacity")

    def number(pos: int, caster, what: str):
        lineno, tok = tokens[pos]
        try:
            value = caster(tok)
        except ValueError:
            kind = "whole number" if caster is int else "number"
            raise ParseError(f"{path}:{lineno}: {what} must be a {kind}, got {tok!r}") from None
        if not math.isfinite(value):
            raise ParseError(f"{path}:{lineno}: {what} must be finite, got {tok!r}")
        return value

    count = number(0, int, "item count")
    if count < 1:
        raise ParseError(f"{path}:{tokens[0][0]}: item count must be positive")
    capacity = number(1, float, "capacity")
    if capacity <= 0:
        raise ParseError(f"{path}:{tokens[1][0]}: capacity must be positive")
    if len(tokens) - 2 != count:
        raise ParseError(f"{path}: expected {count} sizes, found {len(tokens) - 2}")
    sizes = []
    for pos in range(2, len(tokens)):
        size = number(pos, float, "item size")
        lineno = tokens[pos][0]
        if size <= 0:
            raise ParseError(f"{path}:{lineno}: item size must be positive")
        if size > capacity:
            raise ParseError(f"{path}:{lineno}: item size {size} exceeds the capacity {capacity}")
        sizes.append(size)
    return BinPackingInstance(sizes, capacity=capacity, name=path.stem)
