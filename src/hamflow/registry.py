"""Model catalog, spec-string parsing, and the standard example list."""

from __future__ import annotations

import ast
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
    if not float(holes).is_integer():
        raise ValueError(f"hole count {holes} is not an integer")
    if int(holes) + 1 not in DEFAULT_HOLES:
        raise ValueError(f"no default hole layout for {int(holes)} holes")
    return disc_bundle_over_surface(DEFAULT_HOLES[int(holes) + 1], collar)


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


def build(spec: str) -> HamiltonianModel:
    """Construct a model from its textual spec, e.g. ``"disc_d4(1,-1)"``.

    A spec is a Python call expression: a catalog name called with int or
    float literals, positionally or by keyword, for the parameters its
    ``CatalogEntry.signature`` lists, and with a nested spec only where the
    builder takes a model.  Anything else raises ValueError.
    """
    try:
        node = ast.parse(spec.strip(), mode="eval").body
    except SyntaxError as exc:
        raise ValueError(f"cannot parse model spec {spec!r}: {exc.msg}") from None
    return _build_call(node)


def _build_call(node: ast.expr) -> HamiltonianModel:
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
        raise ValueError(f"model spec must look like name(args), got {ast.unparse(node)!r}")
    if node.func.id not in CATALOG:
        raise KeyError(f"unknown model {node.func.id!r}; known: {', '.join(sorted(CATALOG))}")
    entry = CATALOG[node.func.id]
    declared = [p.id for p in ast.parse(entry.signature, mode="eval").body.args]
    sig = inspect.signature(entry.builder, eval_str=True)
    sig = sig.replace(parameters=[p for p in sig.parameters.values() if p.name in declared])
    keywords = {kw.arg: kw.value for kw in node.keywords}
    try:
        if None in keywords or len(keywords) < len(node.keywords):
            raise TypeError("each keyword must be a name, given once")
        bound = sig.bind(*node.args, **keywords)
    except TypeError as exc:
        raise ValueError(f"{ast.unparse(node)!r} does not match {entry.signature}: {exc}") from None
    kwargs = {}
    for name, arg in bound.arguments.items():
        if sig.parameters[name].annotation is HamiltonianModel:
            if not isinstance(arg, ast.Call):
                raise ValueError(f"{entry.name}: {name} takes a model spec, got {ast.unparse(arg)!r}")
            kwargs[name] = _build_call(arg)
            continue
        try:
            value = ast.literal_eval(arg)
        except (ValueError, TypeError):
            value = None
        if type(value) not in (int, float):
            raise ValueError(f"{entry.name}: {name} takes an int or a float, got {ast.unparse(arg)!r}")
        kwargs[name] = value
    return entry.builder(**kwargs)
