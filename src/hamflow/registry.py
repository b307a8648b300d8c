"""Model catalog, spec-string parsing, and the standard example list."""

from __future__ import annotations

import ast
import inspect
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

from .basic import cotangent_t2, disc_d4, s1_d3
from .blowup import blowup_d4
from .handles import attach_2handle, weinstein_1handle, weinstein_2handle
from .model import HamiltonianModel
from .planar import disc_bundle_over_surface, free_action_planar
from .prequant import prequantization_s2
from .sphere import cotangent_s2


@dataclass(frozen=True)
class CatalogEntry:
    """A catalog name and its builder, whose own parameters are the spec's parameters."""

    name: str
    builder: Callable[..., HamiltonianModel]
    summary: str

    @cached_property
    def parameters(self) -> inspect.Signature:
        """The builder's signature with its annotations evaluated, read once per entry."""
        return inspect.signature(self.builder, eval_str=True)

    @property
    def usage(self) -> str:
        """The spec signature, e.g. ``disc_d4(m,n)``."""
        return f"{self.name}({','.join(self.parameters.parameters)})"


CATALOG: dict[str, CatalogEntry] = {
    builder.__name__: CatalogEntry(builder.__name__, builder, summary)
    for builder, summary in [
        (disc_d4, "weighted rotation of the round 4-ball"),
        (s1_d3, "circle times 3-ball with translation and rotation weights"),
        (cotangent_t2, "momentum-linear flow on the cotangent disc bundle of the 2-torus"),
        (cotangent_s2, "cosphere-bounded cotangent bundle of the round 2-sphere"),
        (weinstein_2handle, "rotation-invariant saddle block with contact outer face"),
        (weinstein_1handle, "index-zero block whose critical set is a fixed surface"),
        (free_action_planar, "free action over a planar pit potential with k boundary circles"),
        (disc_bundle_over_surface, "trivialized disc bundle with fiber rotation over a potential sublevel"),
        (prequantization_s2, "circle-bundle quotient models over the round sphere"),
        (blowup_d4, "weighted ball rotation after blowing up the center"),
        (attach_2handle, "base model with a saddle block grafted along a boundary orbit"),
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
    float literals, positionally or by keyword, for the builder's own
    parameters, and with a nested spec only where the builder takes a model.
    Anything else raises ValueError.
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
    sig = entry.parameters
    keywords = {kw.arg: kw.value for kw in node.keywords}
    try:
        if None in keywords or len(keywords) < len(node.keywords):
            raise TypeError("each keyword must be a name, given once")
        bound = sig.bind(*node.args, **keywords)
    except TypeError as exc:
        raise ValueError(f"{ast.unparse(node)!r} does not match {entry.usage}: {exc}") from None
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
