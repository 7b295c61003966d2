"""The model zoo: named graph builders and weighted mixes.

The synthesis subsystem selects each task's network from a registry of
zero-argument graph builders spanning real dynamic range — from the
~0.25 ms MLP-Mixer chain to the ~140 ms ResNet34 — and mixes them
according to named weight vectors (``zoo mixes``), which are a sweepable
axis of the experiment grid.

Registering a model or mix is enough to make it sweepable::

    from repro.workloads.synth import zoo
    zoo.register_model("my_net", build_my_net, "custom detector")
    zoo.register_mix("my_mix", (("my_net", 0.5), ("resnet18", 0.5)))
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.dnn.graph import LayerGraph
from repro.dnn.mixer import build_mlp_mixer
from repro.dnn.mobilenet import build_mobilenet_small
from repro.dnn.models import build_mlp, build_simple_cnn, build_vgg11
from repro.dnn.resnet import build_resnet18, build_resnet34
from repro.numeric import sum_in_order


@dataclass(frozen=True)
class ZooModel:
    """One registered network: a zero-argument builder plus metadata."""

    key: str
    builder: Callable[[], LayerGraph]
    description: str


MODEL_ZOO: Dict[str, ZooModel] = {}


def register_model(
    key: str, builder: Callable[[], LayerGraph], description: str = ""
) -> None:
    """Add a network to the zoo under ``key`` (overwrites silently)."""
    if not key:
        raise ValueError("model key must be non-empty")
    MODEL_ZOO[key] = ZooModel(key=key, builder=builder, description=description)


def get_model(key: str) -> ZooModel:
    """Look up a zoo entry; raises ``KeyError`` with the known keys."""
    try:
        return MODEL_ZOO[key]
    except KeyError:
        raise KeyError(
            f"unknown zoo model {key!r}; known: {sorted(MODEL_ZOO)}"
        ) from None


def list_models() -> List[ZooModel]:
    """All registered models in registration order."""
    return list(MODEL_ZOO.values())


register_model("resnet18", build_resnet18, "the paper's benchmark (~3.6 GFLOPs)")
register_model("resnet34", build_resnet34, "deeper ResNet (~7.3 GFLOPs)")
register_model("vgg11", build_vgg11, "conv-heavy with a huge FC head (~15 GFLOPs)")
register_model(
    "mobilenet_small",
    build_mobilenet_small,
    "depthwise-separable edge net (~52 MFLOPs)",
)
register_model(
    "mlp_mixer", build_mlp_mixer, "all-linear mixer chain (~13 MFLOPs)"
)
register_model("simple_cnn", build_simple_cnn, "LeNet-style mini CNN (~4 MFLOPs)")
register_model("mlp", build_mlp, "plain MLP, linear/ReLU only (~1 MFLOP)")


#: A zoo mix: ``(model key, weight)`` pairs; weights need not sum to 1.
Mix = Tuple[Tuple[str, float], ...]

ZOO_MIXES: Dict[str, Mix] = {}


def register_mix(name: str, mix: Mix) -> None:
    """Register a named mix after validating its models and weights."""
    if not mix:
        raise ValueError("mix must be non-empty")
    for key, weight in mix:
        get_model(key)
        if weight <= 0:
            raise ValueError(f"mix {name!r}: weight for {key!r} must be > 0")
    ZOO_MIXES[name] = tuple(mix)


def get_mix(name: str) -> Mix:
    """Look up a named mix; raises ``KeyError`` with the known names."""
    try:
        return ZOO_MIXES[name]
    except KeyError:
        raise KeyError(
            f"unknown zoo mix {name!r}; known: {sorted(ZOO_MIXES)}"
        ) from None


def list_mixes() -> Dict[str, Mix]:
    """All registered mixes."""
    return dict(ZOO_MIXES)


register_mix("resnet18_only", (("resnet18", 1.0),))
register_mix(
    "fleet",
    (("resnet18", 0.45), ("mobilenet_small", 0.30), ("resnet34", 0.25)),
)
register_mix(
    "surveillance",
    (("resnet18", 0.60), ("simple_cnn", 0.25), ("mobilenet_small", 0.15)),
)
register_mix(
    "edge",
    (("mobilenet_small", 0.40), ("simple_cnn", 0.35), ("mlp_mixer", 0.25)),
)
register_mix("heavyweight", (("resnet34", 0.60), ("vgg11", 0.40)))


def pick_model(mix_name: str, rng: random.Random) -> str:
    """Draw one model key from a named mix, weighted, via ``rng``.

    Consumes exactly one ``rng.random()`` call regardless of mix size, so
    the synthesis RNG stream stays stable when mixes are re-weighted.
    """
    mix = get_mix(mix_name)
    total = sum_in_order(weight for _, weight in mix)
    draw = rng.random() * total
    cumulative = 0.0
    for key, weight in mix:
        cumulative += weight
        if draw < cumulative:
            return key
    return mix[-1][0]  # float residue lands on the last entry
