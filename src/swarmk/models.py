"""The built-in multi-robot systems.

Each built-in model is its shipped .mas file (``models_mas/<name>.mas``),
parsed on first use and kept until ``forget_parsed_files`` (the CLI calls
it at the start of each command).  The file states the whole model: the
domain of each parameter, its derived declarations (foraging's ``tau``,
every initial count) and, for a difference model, ``synchronous``.  A
build sets parameters by their names in the file; the diagram checks
them against their domains and derives the rest.
"""
from __future__ import annotations

from functools import lru_cache
from importlib import resources

from .parser import parse_model

BUILTIN_NAMES = ("foraging", "sugawara", "stickpull-simple",
                 "stickpull-delayed", "stickpull-counts", "collab-difference",
                 "stickpull-simple-depletion", "stickpull-delayed-depletion")


def shipped_source(name):
    """Text of the shipped .mas file for a built-in model."""
    ref = resources.files("swarmk").joinpath(f"models_mas/{name}.mas")
    return ref.read_text(encoding="utf-8")


@lru_cache(maxsize=None)
def _shipped_diagram(name):
    return parse_model(shipped_source(name), origin=name)


def forget_parsed_files():
    """Drop the parsed shipped files; the next build reads them again."""
    _shipped_diagram.cache_clear()


def build_builtin(name, **params):
    """A built-in model with parameters set by name (``with_params``)."""
    if name not in BUILTIN_NAMES:
        raise KeyError(f"unknown built-in model {name!r}; "
                       f"available: {', '.join(BUILTIN_NAMES)}")
    return _shipped_diagram(name).with_params(**params)
