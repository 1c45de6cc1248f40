"""Parsing and validation of pullback specification files.

A specification is a JSON document:

.. code-block:: json

    {
      "point_group_order": 4,
      "blocks": ["line-minus", "line-minus", "plane-i", "plane-i"],
      "options": {"oracle": false, "full_product_oracle": false,
                  "tor_depth": 0, "format": "human"}
    }

A block entry is either the name of a catalog block or an inline object:

.. code-block:: json

    {
      "name": "interval",
      "dimension": 1,
      "cells": {"0": [4, 4], "1": [2]},
      "differentials": {"0": [[...], ...]}
    }

``cells`` lists the isotropy order of every cell orbit per degree and
``differentials`` gives the flattened integer matrix from each degree to
the next; every cell contributes ``point_group_order`` columns in listed
order.  Inline blocks are validated (divisor conditions, shapes,
equivariance, d^2 = 0) before a run starts; differentials are geometric
input and are never inferred.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

from .complexes import GcwBlock, builtin_block, builtin_block_names, validate_block
from .intlinalg import IntMatrix
from .pullback import PullbackSpec
from .repring import PointGroup

FORMATS = ("human", "machine")
MAX_POINT_GROUP_ORDER = 64


class SpecParseError(Exception):
    """A malformed or invalid specification document."""

    def __init__(self, message: str, location: str = "$"):
        super().__init__(f"{location}: {message}")
        self.location = location
        self.reason = message


@dataclass
class SpecOptions:
    oracle: bool = False
    full_product_oracle: bool = False
    tor_depth: int = 0
    format: str = "human"
    output: Optional[str] = None


@dataclass
class SpecDocument:
    """A validated specification, ready to convert into a pipeline run."""

    point_group: PointGroup
    blocks: list
    options: SpecOptions = field(default_factory=SpecOptions)

    def block_names(self) -> list:
        return [b.name for b in self.blocks]

    def to_pullback_spec(self, oracle: Optional[bool] = None,
                         full_product_oracle: Optional[bool] = None,
                         tor_depth: Optional[int] = None) -> PullbackSpec:
        """Build the engine spec; keyword arguments override file options."""
        return PullbackSpec(
            self.point_group,
            tuple(self.blocks),
            oracle_check=self.options.oracle if oracle is None else oracle,
            full_product_oracle=(self.options.full_product_oracle
                                 if full_product_oracle is None
                                 else full_product_oracle),
            tor_depth=self.options.tor_depth if tor_depth is None else tor_depth,
        )


def _is_int(value) -> bool:
    """A JSON integer: an int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def _expect(condition: bool, message: str, location: str) -> None:
    if not condition:
        raise SpecParseError(message, location)


def _parse_custom_block(obj: dict, pg: PointGroup, location: str) -> GcwBlock:
    _expect(isinstance(obj.get("name"), str) and obj["name"],
            "custom block needs a nonempty 'name'", location)
    name = obj["name"]
    dim = obj.get("dimension")
    _expect(_is_int(dim) and dim >= 0,
            "'dimension' must be a nonnegative integer",
            f"{location}.dimension")
    cells_obj = obj.get("cells")
    _expect(isinstance(cells_obj, dict), "'cells' must be an object keyed by degree",
            location)
    cells = []
    for d in range(dim + 1):
        key = str(d)
        _expect(key in cells_obj, f"missing cell list for degree {d}",
                f"{location}.cells")
        orders = cells_obj[key]
        _expect(isinstance(orders, list) and orders
                and all(_is_int(m) for m in orders),
                f"degree {d} cells must be a nonempty list of integers",
                f"{location}.cells.{d}")
        cells.append(tuple(orders))
    diff_obj = obj.get("differentials", {})
    _expect(isinstance(diff_obj, dict),
            "'differentials' must be an object keyed by degree", location)
    diffs = []
    n = pg.order
    for d in range(dim):
        key = str(d)
        _expect(key in diff_obj, f"missing differential for degree {d}",
                f"{location}.differentials")
        rows = diff_obj[key]
        loc = f"{location}.differentials.{d}"
        _expect(isinstance(rows, list)
                and all(isinstance(r, list) and all(_is_int(x) for x in r)
                        for r in rows),
                "differential must be a nested integer array", loc)
        expected_rows = len(cells[d + 1]) * n
        expected_cols = len(cells[d]) * n
        _expect(len(rows) == expected_rows
                and all(len(r) == expected_cols for r in rows),
                f"differential must be {expected_rows}x{expected_cols}", loc)
        diffs.append(IntMatrix(expected_rows, expected_cols, rows))
    block = GcwBlock(name, pg, dim, tuple(cells), tuple(diffs))
    report = validate_block(block)
    if not report.ok:
        raise SpecParseError("invalid block: " + "; ".join(report.findings),
                             location)
    return block


def parse_spec(text: str) -> SpecDocument:
    """Parse and validate a specification document.

    Raises :class:`SpecParseError` with a JSON-path style location on any
    malformed or invalid input.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecParseError(f"not valid JSON: {exc}", "$")
    _expect(isinstance(doc, dict), "top level must be an object", "$")

    order = doc.get("point_group_order")
    _expect(_is_int(order) and order >= 1,
            "'point_group_order' must be an integer >= 1", "$.point_group_order")
    _expect(order <= MAX_POINT_GROUP_ORDER,
            f"'point_group_order' exceeds the limit MAX_POINT_GROUP_ORDER = "
            f"{MAX_POINT_GROUP_ORDER}", "$.point_group_order")
    pg = PointGroup(order)

    blocks_obj = doc.get("blocks")
    _expect(isinstance(blocks_obj, list), "'blocks' must be a list", "$.blocks")
    _expect(len(blocks_obj) > 0, "at least one block is required", "$.blocks")
    blocks = []
    for idx, entry in enumerate(blocks_obj):
        loc = f"$.blocks[{idx}]"
        if isinstance(entry, str):
            try:
                block = builtin_block(entry)
            except KeyError:
                raise SpecParseError(
                    f"unknown block {entry!r}; catalog: "
                    f"{', '.join(builtin_block_names())}", loc)
            _expect(block.point_group == pg,
                    f"catalog block {entry!r} has point group order "
                    f"{block.point_group.order}, spec says {pg.order}", loc)
            blocks.append(block)
        elif isinstance(entry, dict):
            blocks.append(_parse_custom_block(entry, pg, loc))
        else:
            raise SpecParseError("block must be a catalog name or an object", loc)

    options = SpecOptions()
    opt_obj = doc.get("options", {})
    _expect(isinstance(opt_obj, dict), "'options' must be an object", "$.options")
    known = {"oracle", "full_product_oracle", "tor_depth", "format", "output"}
    for key in opt_obj:
        _expect(key in known, f"unknown option {key!r}", "$.options")
    for key in ("oracle", "full_product_oracle"):
        if key in opt_obj:
            _expect(isinstance(opt_obj[key], bool), f"'{key}' must be a boolean",
                    f"$.options.{key}")
            setattr(options, key, opt_obj[key])
    if "tor_depth" in opt_obj:
        _expect(_is_int(opt_obj["tor_depth"]) and opt_obj["tor_depth"] >= 0,
                "'tor_depth' must be a nonnegative integer", "$.options.tor_depth")
        options.tor_depth = opt_obj["tor_depth"]
    if "format" in opt_obj:
        _expect(opt_obj["format"] in FORMATS,
                f"'format' must be one of {FORMATS}", "$.options.format")
        options.format = opt_obj["format"]
    if "output" in opt_obj and opt_obj["output"] is not None:
        _expect(isinstance(opt_obj["output"], str), "'output' must be a string",
                "$.options.output")
        options.output = opt_obj["output"]

    return SpecDocument(pg, blocks, options)
