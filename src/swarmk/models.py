"""Canonical builders for the built-in multi-robot systems.

Each built-in model is its shipped .mas file (``models_mas/<name>.mas``),
parsed on first use and kept until ``forget_parsed_files`` (the CLI calls
it at the start of each command).  The file states the whole model: its
derived declarations (foraging's ``tau``, every initial count) and, for a
difference model, ``synchronous``.  A builder checks its parameter
dataclass and sets the file's parameters from its fields; the diagram
derives the rest.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields as _dc_fields, \
    replace as _dc_replace
from functools import lru_cache
from importlib import resources

from .diagram import Transition
from .errors import ModelError
from .expr import BinOp, Name, Neg, Num
from .parser import ModelSource, parse_model

BUILTIN_NAMES = ("foraging", "sugawara", "stickpull-simple",
                 "stickpull-delayed", "stickpull-counts", "collab-difference")


def shipped_source(name):
    """Text of the shipped .mas file for a built-in model."""
    ref = resources.files("swarmk").joinpath(f"models_mas/{name}.mas")
    return ref.read_text(encoding="utf-8")


@lru_cache(maxsize=None)
def _shipped_diagram(name):
    return parse_model(ModelSource(shipped_source(name), origin=name))


def forget_parsed_files():
    """Drop the parsed shipped files; the next build reads them again."""
    _shipped_diagram.cache_clear()


def _floats(values):
    # the parser yields floats; "+ 0.0" turns -0.0 into the 0.0 it parses
    return {k: float(v) + 0.0 for k, v in values.items()}


def _from_shipped(name, params):
    """The shipped diagram with the builder's parameters (a dict of
    name -> value) set."""
    return _shipped_diagram(name).with_params(**_floats(params))


def _require_finite(p):
    """Refuse a non-finite numeric field of ``p``."""
    for name in (f.name for f in _dc_fields(p)):
        v = getattr(p, name)
        if not isinstance(v, bool) and not math.isfinite(v):
            raise ValueError(f"{name} must be finite")


# ---------------------------------------------------------------------------
# Foraging with homing and mutual avoidance (dimensional, seconds)


@dataclass(frozen=True)
class ForagingParams:
    n0: int = 5            # robots
    m0: int = 20           # pucks
    alpha_p: float = 0.015  # puck-detection rate
    alpha_r: float = 0.04   # robot-detection rate while searching
    alpha_r2: float = 0.08  # robot-detection rate while homing
    tau0: float = 3.0       # avoid duration for a single robot
    tau_slope: float = 0.2  # avoid-duration increase per added robot
    tau_h0: float = 16.0    # collision-free homing time

    def __post_init__(self):
        _require_finite(self)
        if self.n0 < 1 or self.m0 < 1:
            raise ValueError("n0 and m0 must be >= 1")
        for f in ("alpha_p", "alpha_r", "alpha_r2", "tau0", "tau_h0"):
            if not getattr(self, f) > 0:
                raise ValueError(f"{f} must be positive")
        if self.tau_slope < 0:
            raise ValueError("tau_slope must be non-negative")


def build_foraging(p=ForagingParams()):
    return _from_shipped(
        "foraging", dict(ap=p.alpha_p, ar=p.alpha_r, arp=p.alpha_r2,
                         n0=p.n0, m0=p.m0, tau0=p.tau0,
                         tau_slope=p.tau_slope, tau_h0=p.tau_h0))


# ---------------------------------------------------------------------------
# Stick pulling, dimensionless (fractions; time in units of 1/(alpha*M0))


@dataclass(frozen=True)
class StickPullParams:
    beta: float = 0.5       # robots-to-sticks ratio N0/M0
    r_g: float = 0.35       # detection ratio for gripped vs free sticks
    gamma: float = 0.2      # release rate (simplified model)
    tau: float = 5.0        # gripping time (delayed model)
    replacement: bool = True  # sticks re-inserted after extraction
    mu_prime: float = 0.0   # external task-addition rate (depletion mode)

    def __post_init__(self):
        _require_finite(self)
        if not self.beta > 0:
            raise ValueError("beta must be positive")
        if not 0 < self.r_g <= 1:
            raise ValueError("r_g must be in (0, 1]")
        if self.gamma < 0 or self.tau < 0 or self.mu_prime < 0:
            raise ValueError("gamma, tau and mu_prime must be non-negative")


# the success transition of both stick-pulling files
_SUCCESS = Transition("g", "s", BinOp("*", BinOp("*", BinOp(
    "*", Name("rg"), Name("beta")), Name("s")), Name("g")))


def _stickpull(name, p, params):
    d = _from_shipped(name, params)
    if p.replacement:
        return d
    # depletion: each success removes beta sticks (m -= beta); with
    # mu_prime > 0 new sticks arrive at rate mu (rate(mu): s -> s ; m += 1)
    if _SUCCESS not in d.transitions:
        raise ModelError(f"{name}.mas has no success transition "
                         "rate(rg * beta * s * g): g -> s")
    transitions = [_dc_replace(tr, env_effects=(("m", Neg(Name("beta"))),))
                   if tr == _SUCCESS else tr for tr in d.transitions]
    params = d.params
    if p.mu_prime > 0:
        params = {**params, "mu": float(p.mu_prime)}
        transitions.append(Transition("s", "s", Name("mu"),
                                      (("m", Num(1.0)),)))
    return _dc_replace(d, params=params, transitions=tuple(transitions))


def build_stickpull_simple(p=StickPullParams()):
    return _stickpull("stickpull-simple", p,
                      dict(beta=p.beta, gamma=p.gamma, rg=p.r_g))


def build_stickpull_delayed(p=StickPullParams()):
    return _stickpull("stickpull-delayed", p,
                      dict(beta=p.beta, tau=p.tau, rg=p.r_g))


# ---------------------------------------------------------------------------
# Stick pulling, dimensional counts (for stochastic / exact engines)


@dataclass(frozen=True)
class StickPullCountsParams:
    n0: int = 4
    m0: int = 4
    alpha: float = 0.25     # defaults make alpha*m0 = 1 (dimensionless clock)
    r_g: float = 0.35
    gamma_d: float = 0.2

    def __post_init__(self):
        _require_finite(self)
        if self.n0 < 1 or self.m0 < 1:
            raise ValueError("n0 and m0 must be >= 1")
        if not self.alpha > 0 or not 0 < self.r_g <= 1 or self.gamma_d < 0:
            raise ValueError("invalid rate parameters")


def build_stickpull_counts(p=StickPullCountsParams()):
    return _from_shipped(
        "stickpull-counts",
        dict(alpha=p.alpha, rg=p.r_g, gammad=p.gamma_d, m0=p.m0, n0=p.n0))


# ---------------------------------------------------------------------------
# Communicating foragers (Sugawara-style), dimensional


@dataclass(frozen=True)
class SugawaraParams:
    alpha: float = 0.05
    b: float = 0.2
    tau: float = 5.0
    x: float = 4.0
    a: float = 1.0
    l_x: float = 0.05
    d: float = 5.0
    v: float = 10.0
    gamma_loc: float = 10.0  # the paper's localized-puck help-find rate
    n0: int = 8
    k_target: float = 20.0

    def __post_init__(self):
        _require_finite(self)
        fields = ("alpha", "b", "tau", "x", "a", "l_x", "d", "v", "gamma_loc")
        if any(getattr(self, f) < 0 for f in fields):
            raise ValueError("rates and durations must be non-negative")
        if self.tau <= 0 or self.d <= 0:
            raise ValueError("tau and d must be positive")
        if self.n0 < 1:
            raise ValueError("n0 must be >= 1")
        if self.k_target < 1:
            raise ValueError("k_target must be >= 1")


def build_sugawara(p=SugawaraParams()):
    return _from_shipped(
        "sugawara", dict(alpha=p.alpha, b=p.b, tau=p.tau, x=p.x, a=p.a,
                         l_x=p.l_x, d=p.d, v=p.v, gloc=p.gamma_loc,
                         k_target=p.k_target, n0=p.n0))


# ---------------------------------------------------------------------------
# Fine-grained collaboration model, synchronous finite differences


@dataclass(frozen=True)
class CollabDiffParams:
    alpha: float = 0.003     # free-stick encounter rate per step
    alpha_t: float = 0.00105  # gripped-stick encounter rate per step
    alpha_w: float = 0.005   # wall encounter rate per step
    alpha_r: float = 0.005   # robot encounter rate per step
    m0: int = 16
    n0: int = 8
    t_a: int = 5       # avoidance
    t_ia: int = 10     # interference + avoidance
    t_ca: int = 8      # centering + avoidance
    t_cda: int = 11    # centering + dance + avoidance
    t_cga: int = 58    # centering + gripping + avoidance
    t_ga: int = 55     # gripping + avoidance (help window)

    def __post_init__(self):
        _require_finite(self)
        for f in ("t_a", "t_ia", "t_ca", "t_cda", "t_cga", "t_ga"):
            v = getattr(self, f)
            if v != int(v) or v < 0:
                raise ValueError(f"{f} must be a non-negative integer")
        for f in ("alpha", "alpha_t", "alpha_w", "alpha_r"):
            if not 0 <= getattr(self, f) <= 1:
                raise ValueError(f"{f} must be a per-step rate in [0, 1]")
        if self.alpha_t * self.n0 >= 1:
            raise ValueError("alpha_t * n0 must stay below 1 (help probability)")


def build_collab_difference(p=CollabDiffParams()):
    return _from_shipped(
        "collab-difference",
        dict(alpha=p.alpha, at=p.alpha_t, aw=p.alpha_w, ar=p.alpha_r,
             m0=p.m0, ta=p.t_a, tia=p.t_ia, tca=p.t_ca, tcda=p.t_cda,
             tcga=p.t_cga, tga=p.t_ga, n0=p.n0))


# ---------------------------------------------------------------------------

# name -> (builder, parameter dataclass)
_BUILDERS = {
    "foraging": (build_foraging, ForagingParams),
    "sugawara": (build_sugawara, SugawaraParams),
    "stickpull-simple": (build_stickpull_simple, StickPullParams),
    "stickpull-delayed": (build_stickpull_delayed, StickPullParams),
    "stickpull-counts": (build_stickpull_counts, StickPullCountsParams),
    "collab-difference": (build_collab_difference, CollabDiffParams),
}


def build_builtin(name, **overrides):
    """Build a built-in model with overrides by name.

    A field of the model's parameter dataclass goes to the dataclass,
    which checks it (integral floats are coerced for integer-valued
    fields); any other name must be a parameter of the diagram and is set
    with ``with_params``.  This is the one place that knows the split.
    """
    try:
        builder, cls = _BUILDERS[name]
    except KeyError:
        raise KeyError(f"unknown built-in model {name!r}; "
                       f"available: {', '.join(BUILTIN_NAMES)}") from None
    kwargs = {}
    for f in _dc_fields(cls):
        if f.name not in overrides:
            continue
        v = overrides.pop(f.name)
        if isinstance(f.default, bool):
            v = bool(v)
        elif isinstance(f.default, int) and float(v).is_integer():
            v = int(v)
        kwargs[f.name] = v
    d = builder(cls(**kwargs))
    return d.with_params(**overrides) if overrides else d
