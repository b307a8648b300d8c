"""Model catalog, spec-string parsing, and the standard example list."""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Callable

from .basic import cotangent_t2, disc_d4, s1_d3
from .blowup import blowup_d4
from .handles import attach_2handle, weinstein_1handle, weinstein_2handle
from .model import HamiltonianModel
from .planar import DEFAULT_HOLES, disc_bundle_over_surface, free_action_planar
from .prequant import prequantization_s2
from .sphere import cotangent_s2


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    builder: Callable[..., HamiltonianModel]
    signature: str
    summary: str


def _disc_bundle(holes=0, collar: float = 0.1):
    if isinstance(holes, (int, float)):
        if not float(holes).is_integer():
            raise ValueError(f"hole count {holes} is not an integer")
        n = int(holes)
        if n + 1 not in DEFAULT_HOLES:
            raise ValueError(f"no default hole layout for {n} holes")
        holes = DEFAULT_HOLES[n + 1]
    return disc_bundle_over_surface(holes, collar)


CATALOG: dict[str, CatalogEntry] = {
    e.name: e
    for e in [
        CatalogEntry(
            "disc_d4",
            disc_d4,
            "disc_d4(m,n)",
            "weighted rotation of the round 4-ball",
        ),
        CatalogEntry(
            "s1_d3",
            s1_d3,
            "s1_d3(k,m)",
            "circle times 3-ball with translation and rotation weights",
        ),
        CatalogEntry(
            "cotangent_t2",
            cotangent_t2,
            "cotangent_t2(m1,m2)",
            "momentum-linear flow on the cotangent disc bundle of the 2-torus",
        ),
        CatalogEntry(
            "cotangent_s2",
            cotangent_s2,
            "cotangent_s2()",
            "cosphere-bounded cotangent bundle of the round 2-sphere",
        ),
        CatalogEntry(
            "weinstein_2handle",
            weinstein_2handle,
            "weinstein_2handle()",
            "rotation-invariant saddle block with contact outer face",
        ),
        CatalogEntry(
            "weinstein_1handle",
            weinstein_1handle,
            "weinstein_1handle(m)",
            "index-zero block whose critical set is a fixed surface",
        ),
        CatalogEntry(
            "free_action_planar",
            free_action_planar,
            "free_action_planar(k)",
            "free action over a planar pit potential with k boundary circles",
        ),
        CatalogEntry(
            "disc_bundle_over_surface",
            _disc_bundle,
            "disc_bundle_over_surface(holes,collar)",
            "trivialized disc bundle with fiber rotation over a potential sublevel",
        ),
        CatalogEntry(
            "prequantization_s2",
            prequantization_s2,
            "prequantization_s2()",
            "circle-bundle quotient models over the round sphere",
        ),
        CatalogEntry(
            "blowup_d4",
            blowup_d4,
            "blowup_d4(m,n,size)",
            "weighted ball rotation after blowing up the center",
        ),
        CatalogEntry(
            "attach_2handle",
            attach_2handle,
            "attach_2handle(base,eps,kappa)",
            "base model with a saddle block grafted along a boundary orbit",
        ),
    ]
}


ZOO = (
    "disc_d4(1,1)",
    "disc_d4(1,-1)",
    "disc_d4(2,3)",
    "disc_d4(1,0)",
    "s1_d3(1,0)",
    "s1_d3(0,1)",
    "s1_d3(2,1)",
    "cotangent_t2(1,0)",
    "cotangent_s2()",
    "weinstein_2handle()",
    "weinstein_1handle(1)",
    "free_action_planar(1)",
    "free_action_planar(2)",
    "free_action_planar(3)",
    "disc_bundle_over_surface()",
    "prequantization_s2()",
    "blowup_d4(1,-1,0.2)",
    "attach_2handle(s1_d3(1,0))",
)


def _split_args(text: str) -> list[str]:
    parts: list[str] = []
    depth = 0
    token = ""
    for ch in text:
        if ch == "(":
            depth += 1
            token += ch
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ValueError(f"unbalanced parentheses in {text!r}")
            token += ch
        elif ch == "," and depth == 0:
            parts.append(token.strip())
            token = ""
        else:
            token += ch
    if token.strip():
        parts.append(token.strip())
    if depth != 0:
        raise ValueError(f"unbalanced parentheses in {text!r}")
    return parts


def _parse_value(token: str):
    if "(" in token:
        return build(token)
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError as exc:
        raise ValueError(f"cannot parse argument {token!r}") from exc


def build(spec: str) -> HamiltonianModel:
    """Construct a model from its textual spec, e.g. ``"disc_d4(1,-1)"``."""
    spec = spec.strip()
    open_idx = spec.find("(")
    if open_idx < 0 or not spec.endswith(")"):
        raise ValueError(f"model spec must look like name(args), got {spec!r}")
    name = spec[:open_idx].strip()
    if name not in CATALOG:
        raise KeyError(f"unknown model {name!r}; known: {', '.join(sorted(CATALOG))}")
    body = spec[open_idx + 1 : -1]
    args = []
    kwargs = {}
    for token in _split_args(body):
        if "=" in token and "(" not in token.split("=", 1)[0]:
            key, val = token.split("=", 1)
            kwargs[key.strip()] = _parse_value(val.strip())
        else:
            args.append(_parse_value(token))
    entry = CATALOG[name]
    try:
        inspect.signature(entry.builder).bind(*args, **kwargs)
    except TypeError as exc:
        raise ValueError(f"{spec!r} does not match {entry.signature}: {exc}") from None
    return entry.builder(*args, **kwargs)
