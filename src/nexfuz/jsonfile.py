"""Reading the JSON input files: models, metric spaces and sequents."""

from __future__ import annotations

import json


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"JSON object has the key {key!r} twice")
        obj[key] = value
    return obj


def load(path: str):
    """The JSON document in the file at `path`.  An object that repeats a
    key raises `ValueError` naming it, where `json.load` would keep its
    last value only."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh, object_pairs_hook=_unique_keys)
