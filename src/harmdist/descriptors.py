"""JSON mapping descriptors and the tiny dilatation expression grammar.

Descriptor shape (strict: unknown keys are rejected):

    {"h": <entry>, "g": <entry> | null, "omega": <entry> | null}

with exactly one of g/omega present (non-null) for a harmonic map, or
neither for an analytic one.  An <entry> is one of

    {"name": "identity" | "halfplane" | "koebe" | "logtype"}
    {"name": "exp", "params": {"c": <complex>}}
    {"name": "mobius", "params": {"a": ..., "b": ..., "c": ..., "d": ...}}
    {"coefficients": [<complex>, ...]}            # Taylor coefficients c_0..c_N, N >= 0
    {"expr": "0.3z + 0.1z^3"}                     # sums of c * z^k
    {"compose_sigma": {"a": <complex>, "inner": <entry>}}   # sigma_a(entry(z))

Complex numbers are written as a number, a string ("0.5+0.3i") or a
two-element [re, im] list.
"""

from __future__ import annotations

import cmath
import json
import re
from pathlib import Path

import numpy as np

from .analytic import (
    AnalyticMap, Compose, ExpMap, HalfPlane, Identity, Koebe, LinearCombo,
    LogMap, Mobius, Monomial, SeriesMap, disk_automorphism_map,
)
from .errors import ConfigError, DomainError, NotSensePreservingError, SingularError
from .harmonic import HarmonicMap, from_h_and_omega
from .series import TaylorSeries

_SIMPLE = {
    "identity": Identity,
    "halfplane": HalfPlane,
    "koebe": Koebe,
    "logtype": LogMap,
}

_TERM_RE = re.compile(
    r"^\s*(?P<coef>[^z]*?)\s*(?:\*\s*)?(?P<z>z(?:\^(?P<pow>\d+))?)?\s*$"
)
# Terms are split at a "+", dropped, and before a "-", but not at the sign
# of an exponent ("1e-3z").
_TERM_SPLIT = re.compile(r"(?<![eE])\+|(?<![eE])(?=-)")


def parse_complex(v) -> complex:
    """A finite complex number; NaN and infinite parts are a ConfigError."""
    try:
        if isinstance(v, (int, float)):
            z = complex(v)
        elif isinstance(v, str):
            z = complex(v.replace(" ", "").replace("i", "j"))
        elif isinstance(v, (list, tuple)) and len(v) == 2:
            z = complex(float(v[0]), float(v[1]))
        else:
            raise ValueError
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"cannot parse complex number {v!r}") from exc
    if not cmath.isfinite(z):
        raise ConfigError(f"complex number {v!r} is not finite")
    return z


def parse_expr(expr: str) -> AnalyticMap:
    """Parse sums of c * z^k terms, e.g. '0.4z', 'z^2', '0.5z^3 + 0.1z', '1e-3z'."""
    terms = []
    for raw in _TERM_SPLIT.split(expr):
        if not raw.strip():
            continue
        m = _TERM_RE.match(raw)
        if not m:
            raise ConfigError(f"cannot parse term {raw!r} in expression {expr!r}")
        coef_s = m.group("coef").strip()
        if coef_s in ("", "-"):
            if m.group("z") is None:
                raise ConfigError(f"term {raw.strip()!r} in expression {expr!r} "
                                  "has no number and no z")
            coef = -1.0 if coef_s == "-" else 1.0
        else:
            coef = parse_complex(coef_s)
        if m.group("z") is None:
            power = 0
        else:
            power = int(m.group("pow") or 1)
        terms.append(Monomial(coef, power))
    if not terms:
        raise ConfigError(f"empty expression {expr!r}")
    if len(terms) == 1:
        return terms[0]
    return LinearCombo([(1.0, t) for t in terms], name=expr)


def _check_keys(d: dict, allowed: set[str], where: str):
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")


def parse_entry(entry, where: str = "entry") -> AnalyticMap:
    """The map of one descriptor entry; an entry that cannot be built is a ConfigError.

    Such an entry is a compose_sigma point outside the disc, a mobius map
    with its pole in the closed disc or with ad - bc = 0, or exp with c = 0.
    """
    try:
        return _build_entry(entry, where)
    except (DomainError, SingularError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _build_entry(entry, where: str) -> AnalyticMap:
    if not isinstance(entry, dict):
        raise ConfigError(f"{where}: expected an object, got {type(entry).__name__}")
    _check_keys(entry, {"name", "params", "coefficients", "expr", "compose_sigma"}, where)
    tagged = [k for k in ("name", "coefficients", "expr", "compose_sigma") if k in entry]
    if len(tagged) != 1:
        raise ConfigError(
            f"{where}: exactly one of name/coefficients/expr/compose_sigma required"
        )
    tag = tagged[0]
    if tag == "name":
        name = entry["name"]
        params = entry.get("params", {})
        if name in _SIMPLE:
            if params:
                raise ConfigError(f"{where}: {name} takes no params")
            return _SIMPLE[name]()
        if name == "exp":
            _check_keys(params, {"c"}, f"{where}.params")
            return ExpMap(parse_complex(params.get("c", 1.0)))
        if name == "mobius":
            _check_keys(params, {"a", "b", "c", "d"}, f"{where}.params")
            return Mobius(*(parse_complex(params.get(k, dv))
                            for k, dv in (("a", 1), ("b", 0), ("c", 0), ("d", 1))))
        raise ConfigError(f"{where}: unknown map name {name!r}")
    if tag == "coefficients":
        listed = entry["coefficients"]
        if not isinstance(listed, list) or not listed:
            raise ConfigError(f"{where}: coefficients must be a non-empty list, got {listed!r}")
        coeffs = np.array([parse_complex(c) for c in listed])
        return SeriesMap(TaylorSeries(coeffs), name=f"{where}-series")
    if tag == "expr":
        return parse_expr(entry["expr"])
    spec = entry["compose_sigma"]
    _check_keys(spec, {"a", "inner"}, f"{where}.compose_sigma")
    a = parse_complex(spec["a"])
    inner = parse_entry(spec["inner"], f"{where}.compose_sigma.inner")
    return Compose(disk_automorphism_map(a), inner, name=f"sigma_{a}o({inner.name})")


def parse_descriptor(desc: dict) -> HarmonicMap:
    """Build a HarmonicMap (g = 0 for analytic) from a JSON descriptor.

    An omega entry gives the order-120 series g of ``from_h_and_omega``."""
    if not isinstance(desc, dict):
        raise ConfigError("mapping descriptor must be a JSON object")
    _check_keys(desc, {"h", "g", "omega"}, "descriptor")
    if "h" not in desc:
        raise ConfigError("descriptor requires an 'h' entry")
    h = parse_entry(desc["h"], "h")
    g = desc.get("g")
    omega = desc.get("omega")
    if g is not None and omega is not None:
        raise ConfigError("descriptor must give at most one of g/omega")
    from .harmonic import analytic_as_harmonic

    if g is not None:
        return HarmonicMap(h, parse_entry(g, "g"))
    if omega is not None:
        try:
            return from_h_and_omega(h, parse_entry(omega, "omega"))
        except NotSensePreservingError as exc:
            raise ConfigError(f"descriptor omega {json.dumps(omega)}: {exc}") from exc
    return analytic_as_harmonic(h)


def load_descriptor(path: str | Path) -> HarmonicMap:
    try:
        desc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:  # a directory, no permission, not UTF-8
        raise ConfigError(f"cannot read descriptor {path}: {exc}") from exc
    return parse_descriptor(desc)
