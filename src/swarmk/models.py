"""Canonical builders for the built-in multi-robot systems.

Each builder renders a .mas template with its parameter values and parses
it, so the shipped .mas files and the programmatic builders are the same
source of truth (tested for structural identity).
"""
from __future__ import annotations

from dataclasses import dataclass, fields as _dc_fields, \
    replace as _dc_replace
from importlib import resources

from .expr import format_number
from .parser import ModelSource, parse_model

BUILTIN_NAMES = ("foraging", "sugawara", "stickpull-simple",
                 "stickpull-delayed", "stickpull-counts", "collab-difference")


def _render(template, **values):
    return template.format(**{k: format_number(v) for k, v in values.items()})


def _parse(text, name):
    return parse_model(ModelSource(text, origin=name))


# ---------------------------------------------------------------------------
# Foraging with homing and mutual avoidance (dimensional, seconds)

FORAGING_TEMPLATE = """\
# Foraging with homing: searching / homing / avoiding robots, undelivered pucks.
param ap = {ap}         # puck-detection rate
param ar = {ar}         # robot-detection rate while searching
param arp = {arp}       # robot-detection rate while homing
param tau = {tau}       # avoid-maneuver duration
param tauh = {tauh}     # effective homing time
state s = {n0}
state h = 0
state avs = 0
state avh = 0
env m = {m0}
rate(ap * s * (m - h - avh)): s -> h
rate(ar * s * (s + N0)): s -> avs
rate(avs / tau): avs -> s
rate(arp * h * (h + N0)): h -> avh
rate(avh / tau): avh -> h
rate(h / tauh): h -> s ; m -= 1
"""


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
        if self.n0 < 1 or self.m0 < 1:
            raise ValueError("n0 and m0 must be >= 1")
        for f in ("alpha_p", "alpha_r", "alpha_r2", "tau0", "tau_h0"):
            if not getattr(self, f) > 0:
                raise ValueError(f"{f} must be positive")
        if self.tau_slope < 0:
            raise ValueError("tau_slope must be non-negative")

    @property
    def tau(self):
        """Avoid duration grows linearly with the group size."""
        return self.tau0 + self.tau_slope * (self.n0 - 1)

    @property
    def tau_h(self):
        """Effective homing time including interference near home."""
        return self.tau_h0 * (1.0 + self.alpha_r2 * self.tau * self.n0)


def _render_foraging(p):
    return _render(FORAGING_TEMPLATE, ap=p.alpha_p, ar=p.alpha_r,
                   arp=p.alpha_r2, tau=p.tau, tauh=p.tau_h, n0=p.n0, m0=p.m0)


def build_foraging(p=ForagingParams()):
    return _parse(_render_foraging(p), "foraging")


# ---------------------------------------------------------------------------
# Stick pulling, dimensionless (fractions; time in units of 1/(alpha*M0))

STICKPULL_SIMPLE_TEMPLATE = """\
# Stick pulling, simplified controller: release at rate gamma (dimensionless).
param beta = {beta}     # robots per stick
param gamma = {gamma}   # stick release rate
param rg = {rg}         # gripped/free detection ratio
state s = 1
state g = 0
env m = 1
rate(s * (m + beta * s - beta)): s -> g
rate(rg * beta * s * g): g -> s{success_effect}
rate(gamma * g): g -> s
"""

STICKPULL_DELAYED_TEMPLATE = """\
# Stick pulling with a deterministic gripping timer (dimensionless, delayed).
param beta = {beta}     # robots per stick
param tau = {tau}       # gripping time
param rg = {rg}         # gripped/free detection ratio
state s = 1
state g = 0
env m = 1
rate(s * (m + beta * s - beta)): s -> g
rate(rg * beta * s * g): g -> s{success_effect}
rate(delay(s * (m + beta * s - beta), tau) * exp(-rg * beta * histint(s, tau)) * step(t - tau)): g -> s
"""


@dataclass(frozen=True)
class StickPullParams:
    beta: float = 0.5       # robots-to-sticks ratio N0/M0
    r_g: float = 0.35       # detection ratio for gripped vs free sticks
    gamma: float = 0.2      # release rate (simplified model)
    tau: float = 5.0        # gripping time (delayed model)
    replacement: bool = True  # sticks re-inserted after extraction
    mu_prime: float = 0.0   # external task-addition rate (depletion mode)

    def __post_init__(self):
        if not self.beta > 0:
            raise ValueError("beta must be positive")
        if not 0 < self.r_g <= 1:
            raise ValueError("r_g must be in (0, 1]")
        if self.gamma < 0 or self.tau < 0 or self.mu_prime < 0:
            raise ValueError("gamma, tau and mu_prime must be non-negative")

    @property
    def beta_tilde(self):
        return self.r_g * self.beta


def _render_stickpull(template, p, **values):
    text = template.format(
        success_effect="" if p.replacement else " ; m -= beta",
        **{k: format_number(v) for k, v in values.items()})
    if not p.replacement and p.mu_prime > 0:
        text += f"param mu = {format_number(p.mu_prime)}\n"
        text += "rate(mu): s -> s ; m += 1\n"
    return text


def _render_stickpull_simple(p):
    return _render_stickpull(STICKPULL_SIMPLE_TEMPLATE, p,
                             beta=p.beta, gamma=p.gamma, rg=p.r_g)


def _render_stickpull_delayed(p):
    return _render_stickpull(STICKPULL_DELAYED_TEMPLATE, p,
                             beta=p.beta, tau=p.tau, rg=p.r_g)


def build_stickpull_simple(p=StickPullParams()):
    return _parse(_render_stickpull_simple(p), "stickpull-simple")


def build_stickpull_delayed(p=StickPullParams()):
    return _parse(_render_stickpull_delayed(p), "stickpull-delayed")


# ---------------------------------------------------------------------------
# Stick pulling, dimensional counts (for stochastic / exact engines)

STICKPULL_COUNTS_TEMPLATE = """\
# Stick pulling at the level of integer robot counts (dimensional).
param alpha = {alpha}     # free-stick detection rate
param rg = {rg}           # gripped/free detection ratio
param gammad = {gammad}   # stick release rate
param m0 = {m0}           # sticks
state s = {n0}
state g = 0
rate(alpha * s * (m0 - g)): s -> g
rate(rg * alpha * s * g): g -> s
rate(gammad * g): g -> s
"""


@dataclass(frozen=True)
class StickPullCountsParams:
    n0: int = 4
    m0: int = 4
    alpha: float = 0.25     # defaults make alpha*m0 = 1 (dimensionless clock)
    r_g: float = 0.35
    gamma_d: float = 0.2

    def __post_init__(self):
        if self.n0 < 1 or self.m0 < 1:
            raise ValueError("n0 and m0 must be >= 1")
        if not self.alpha > 0 or not 0 < self.r_g <= 1 or self.gamma_d < 0:
            raise ValueError("invalid rate parameters")


def _render_stickpull_counts(p):
    return _render(STICKPULL_COUNTS_TEMPLATE, alpha=p.alpha, rg=p.r_g,
                   gammad=p.gamma_d, m0=p.m0, n0=p.n0)


def build_stickpull_counts(p=StickPullCountsParams()):
    return _parse(_render_stickpull_counts(p), "stickpull-counts")


# ---------------------------------------------------------------------------
# Communicating foragers (Sugawara-style), dimensional

SUGAWARA_TEMPLATE = """\
# Communicating foragers: searching, broadcasting, homing, moving-to-signal,
# avoiding (crowding near a broadcaster); cumulative deliveries counter.
param alpha = {alpha}    # puck-find rate
param b = {b}            # signal-loss rate
param tau = {tau}        # home-return time
param x = {x}            # interaction (broadcast) duration
param a = {a}            # signal-catch probability
param lx = {lx}          # turn-angle factor l(x)
param d = {d}            # mean robot separation
param v = {v}            # robot speed
param gloc = {gloc}      # help-find rate near a broadcaster
param k_target = {k}     # deliveries that complete the task
state s = {n0}
state bc = 0
state h = 0
state mv = 0
state av = 0
env delivered = 0
rate(alpha * s): s -> bc
rate(bc / (x + 1)): bc -> h
rate(h / tau): h -> s ; delivered += 1
rate(a * lx * s * bc): s -> mv
rate(b * mv): mv -> s
rate(v / d * mv): mv -> av
rate(gloc / (a + av) * av): av -> bc
"""


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
        fields = ("alpha", "b", "tau", "x", "a", "l_x", "d", "v", "gamma_loc")
        if any(getattr(self, f) < 0 for f in fields):
            raise ValueError("rates and durations must be non-negative")
        if self.tau <= 0 or self.d <= 0:
            raise ValueError("tau and d must be positive")
        if self.n0 < 1:
            raise ValueError("n0 must be >= 1")


def _render_sugawara(p):
    # x = 0 means no broadcast interaction at all: the turn-angle coupling
    # is switched off so robots never react to signals.
    lx = 0.0 if p.x == 0 else p.l_x
    return _render(SUGAWARA_TEMPLATE, alpha=p.alpha, b=p.b, tau=p.tau,
                   x=p.x, a=p.a, lx=lx, d=p.d, v=p.v, gloc=p.gamma_loc,
                   k=p.k_target, n0=p.n0)


def build_sugawara(p=SugawaraParams()):
    return _parse(_render_sugawara(p), "sugawara")


# ---------------------------------------------------------------------------
# Fine-grained collaboration model, synchronous finite differences

COLLAB_DIFFERENCE_TEMPLATE = """\
# Fine-grained stick pulling as synchronous finite differences: searching
# robots enter delay pipelines (wall avoidance, robot interference,
# centering/dance after success, grip/timeout) and re-enter searching a
# fixed number of steps later.
param alpha = {alpha}   # free-stick encounter rate per step
param at = {at}         # gripped-stick encounter rate per step
param aw = {aw}         # wall encounter rate per step
param ar = {ar}         # robot encounter rate per step
param m0 = {m0}         # sticks
param ta = {ta}         # steps: avoidance
param tia = {tia}       # steps: interference + avoidance
param tca = {tca}       # steps: centering + avoidance
param tcda = {tcda}     # steps: centering + dance + avoidance
param tcga = {tcga}     # steps: centering + gripping + avoidance
param tga = {tga}       # steps: gripping + avoidance (the help window)
state s = {n0}
state av = 0
state intf = 0
state ca = 0
state cda = 0
state g = 0
rate(aw * s): s -> av
rate(delay(aw * s, ta) * step(t - ta)): av -> s
rate(ar * s): s -> intf
rate(delay(ar * s, tia) * step(t - tia)): intf -> s
rate(at * g * s): s -> ca
rate(delay(at * g * s, tca) * step(t - tca)): ca -> s
rate(at * g * s): g -> cda
rate(delay(at * g * s, tcda) * step(t - tcda)): cda -> s
rate(alpha * (m0 - g) * s): s -> g
rate(delay(alpha * (m0 - g), tcda) * delay(s, tcga) * exp(histint(ln(1 - at * s), tga)) * step(t - tga)): g -> s
"""


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
        for f in ("t_a", "t_ia", "t_ca", "t_cda", "t_cga", "t_ga"):
            v = getattr(self, f)
            if v != int(v) or v < 0:
                raise ValueError(f"{f} must be a non-negative integer")
        for f in ("alpha", "alpha_t", "alpha_w", "alpha_r"):
            if not 0 <= getattr(self, f) <= 1:
                raise ValueError(f"{f} must be a per-step rate in [0, 1]")
        if self.alpha_t * self.n0 >= 1:
            raise ValueError("alpha_t * n0 must stay below 1 (help probability)")


def _render_collab_difference(p):
    return _render(COLLAB_DIFFERENCE_TEMPLATE, alpha=p.alpha, at=p.alpha_t,
                   aw=p.alpha_w, ar=p.alpha_r, m0=p.m0, n0=p.n0, ta=p.t_a,
                   tia=p.t_ia, tca=p.t_ca, tcda=p.t_cda, tcga=p.t_cga,
                   tga=p.t_ga)


def build_collab_difference(p=CollabDiffParams()):
    d = _parse(_render_collab_difference(p), "collab-difference")
    return _dc_replace(d, discrete=True)


# ---------------------------------------------------------------------------

# name -> (builder, parameter dataclass, .mas text renderer)
_BUILDERS = {
    "foraging": (build_foraging, ForagingParams, _render_foraging),
    "sugawara": (build_sugawara, SugawaraParams, _render_sugawara),
    "stickpull-simple": (build_stickpull_simple, StickPullParams,
                         _render_stickpull_simple),
    "stickpull-delayed": (build_stickpull_delayed, StickPullParams,
                          _render_stickpull_delayed),
    "stickpull-counts": (build_stickpull_counts, StickPullCountsParams,
                         _render_stickpull_counts),
    "collab-difference": (build_collab_difference, CollabDiffParams,
                          _render_collab_difference),
}


def _builder_entry(name):
    try:
        return _BUILDERS[name]
    except KeyError:
        raise KeyError(f"unknown built-in model {name!r}; "
                       f"available: {', '.join(BUILTIN_NAMES)}") from None


def builder_fields(name):
    """Field names of a built-in model's parameter dataclass."""
    return tuple(f.name for f in _dc_fields(_builder_entry(name)[1]))


def build_builtin(name, **overrides):
    """Build a built-in model, optionally overriding builder fields.

    Overrides are fields of the model's parameter dataclass (group sizes
    and anything else baked into the rendered .mas text), not only the
    parameters of the resulting diagram.  Integral floats are coerced for
    integer-valued fields.
    """
    builder, cls, _ = _builder_entry(name)
    if not overrides:
        return builder()
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
    if overrides:
        raise KeyError(f"unknown field(s) for {name!r}: "
                       f"{', '.join(sorted(overrides))}")
    return builder(cls(**kwargs))


def shipped_source(name):
    """Text of the shipped .mas file for a built-in model."""
    ref = resources.files("swarmk").joinpath(f"models_mas/{name}.mas")
    return ref.read_text(encoding="utf-8")


def render_default_sources():
    """Render every built-in at default parameters (used to generate and
    cross-check the shipped .mas files)."""
    return {name: render(cls())
            for name, (_, cls, render) in _BUILDERS.items()}
