"""The one config reader, ``stats.from_dict``, against ``dataclasses.asdict``."""

import hashlib
import json
import math
import re
from dataclasses import asdict, fields, replace
from typing import get_type_hints

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailbias.bias import BiasSpec
from tailbias.harness import LossConfig, ModelSpec, OptimizerConfig, TrainConfig
from tailbias.stats import LabelSpace, from_dict
from tailbias.synth import SynthConfig

floats = st.floats(allow_nan=False, allow_infinity=False)


def declared(cls, name: str):
    """The values the field ``name`` of ``cls`` may hold by its declared rule
    (``stats.ruled``), within the type the reader takes: a 64-bit integer or a
    finite float."""
    rule = next(f.metadata for f in fields(cls) if f.name == name)
    if "choices" in rule:
        return st.sampled_from(rule["choices"])
    lo, hi = rule.get("ge", rule.get("gt")), rule.get("le", rule.get("lt"))
    if get_type_hints(cls)[name] is int:
        lo = -(2**63) if lo is None else lo + ("gt" in rule)
        return st.integers(lo, 2**63 - 1 if hi is None else hi - ("lt" in rule))
    return st.floats(lo, hi, exclude_min="gt" in rule, exclude_max="lt" in rule,
                     allow_nan=False, allow_infinity=False)


def draw_fields(draw, cls, **given):
    """``cls`` of ``given`` values and every other field drawn by :func:`declared`."""
    return cls(**given, **{f.name: draw(declared(cls, f.name)) for f in fields(cls)
                           if f.name not in given})


@st.composite
def label_spaces(draw):
    ne, nr = draw(st.integers(1, 6)), draw(st.integers(1, 6))  # small, for the names drawn
    names = [
        draw(st.just(()) | st.lists(st.text(), min_size=n, max_size=n, unique=True).map(tuple))
        for n in (ne, nr)
    ]
    return LabelSpace(ne, nr, *names)


@st.composite
def synth_configs(draw):
    objects_min = draw(st.integers(2, 10**6))
    return draw_fields(
        draw, SynthConfig, label_space=draw(label_spaces()), objects_min=objects_min,
        objects_max=draw(st.integers(objects_min, 2 * objects_min)),
    )


@st.composite
def bias_specs(draw):
    a = draw(declared(BiasSpec, "a"))
    return draw_fields(draw, BiasSpec, a=a, a_eval=draw(st.floats(0.0, a)),
                       background=draw(st.none() | floats))


@st.composite
def model_specs(draw):
    n_h = draw(st.integers(1, 8))
    return draw_fields(draw, ModelSpec, n_h=n_h, d_model=n_h * draw(st.integers(1, 8)))


@st.composite
def loss_configs(draw):
    return draw_fields(draw, LossConfig, reweight_normalize=draw(st.booleans()))


@st.composite
def optimizer_configs(draw):
    return draw_fields(draw, OptimizerConfig)


@st.composite
def train_configs(draw):
    loss = draw(loss_configs())
    bias = draw(bias_specs()) if loss.kind == "rtpb" else draw(st.none() | bias_specs())
    return draw_fields(
        draw, TrainConfig,
        label_space=draw(label_spaces()),
        model=draw(model_specs()),
        loss=loss,
        bias=bias,
        optimizer=draw(optimizer_configs()),
        data=tuple(draw(st.lists(st.tuples(st.text(), st.text()), max_size=3))),
        eval_ks=tuple(draw(st.lists(st.integers(1, 2**63 - 1), min_size=1, max_size=4,
                                    unique=True).map(sorted))),
    )


@pytest.mark.parametrize(
    "cls, configs",
    [
        (LabelSpace, label_spaces()),
        (SynthConfig, synth_configs()),
        (BiasSpec, bias_specs()),
        (ModelSpec, model_specs()),
        (LossConfig, loss_configs()),
        (OptimizerConfig, optimizer_configs()),
        (TrainConfig, train_configs()),
    ],
    ids=["LabelSpace", "SynthConfig", "BiasSpec", "ModelSpec", "LossConfig", "OptimizerConfig",
         "TrainConfig"],
)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_json_round_trip(cls, configs, data):
    config = data.draw(configs)
    assert from_dict(cls, json.loads(json.dumps(asdict(config)))) == config


CONFIGS = (LabelSpace, SynthConfig, BiasSpec, ModelSpec, LossConfig, OptimizerConfig, TrainConfig)
SPACE = {"num_object_classes": 2, "num_relations": 2}
# The required keys of each config with them.
REQUIRED = {
    LabelSpace: SPACE,
    SynthConfig: {"label_space": SPACE, "num_train": 1, "num_val": 1, "num_test": 1},
    BiasSpec: {"kind": "cb"},
    TrainConfig: {"label_space": SPACE},
}
# A value just outside a bound of each end, added to the bound.
OUTSIDE = {"ge": -1, "gt": 0, "le": 1, "lt": 0}
RULES = [(cls, f.name, end, bound) for cls in CONFIGS for f in fields(cls)
         for end, bound in f.metadata.items()]


@pytest.mark.parametrize("cls, key, end, bound", RULES,
                         ids=[f"{cls.__name__}-{key}-{end}" for cls, key, end, _ in RULES])
def test_a_value_its_declared_rule_refuses_is_named_by_its_key(cls, key, end, bound):
    value = "nope" if end == "choices" else bound + OUTSIDE[end]
    message = rf"^{key} must be one of .*, not 'nope'$" if end == "choices" else (
        rf"^{key} must (be|lie in) .*{re.escape(str(bound))}")
    with pytest.raises(ValueError, match=message):
        from_dict(cls, {**REQUIRED.get(cls, {}), key: value})


FLOAT_RULES = [(cls, f.name) for cls in CONFIGS for f in fields(cls)
               if f.metadata and get_type_hints(cls)[f.name] is float]


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("cls, key", FLOAT_RULES,
                         ids=[f"{cls.__name__}-{key}" for cls, key in FLOAT_RULES])
def test_a_ruled_float_refuses_a_non_finite_value_by_its_key(cls, key, value):
    """Direct construction (``replace`` runs ``__post_init__``) refuses what
    the reader refuses, so no config can be written that cannot be read back."""
    base = from_dict(cls, REQUIRED.get(cls, {}))
    with pytest.raises(ValueError, match=rf"^{key} must be a finite number$"):
        replace(base, **{key: value})
    with pytest.raises(ValueError, match=rf" key '{key}' must be a finite number$"):
        from_dict(cls, {**REQUIRED.get(cls, {}), key: value})


# Two config documents, and the sha256 of the JSON they were read and written
# back as before one reader and asdict replaced each class's from_dict and
# to_dict. README showed both documents then.
WRITTEN_BACK = [
    (SynthConfig,
     {"label_space": {"num_object_classes": 20, "num_relations": 30},
      "num_train": 2000, "num_val": 100, "num_test": 500,
      "zipf_s": 1.5, "objects_min": 4, "objects_max": 6,
      "d_v": 16, "noise_sigma": 1.5, "background_fraction": 0.7, "seed": 42},
     "02a96544211833490ad85aee61fe5c7902cab9387219142fae575287aa60143f"),
    (TrainConfig,
     {"label_space": {"num_object_classes": 20, "num_relations": 30},
      "task": "predcls",
      "model": {"kind": "linear"},
      "loss": {"kind": "rtpb"},
      "bias": {"kind": "cb", "a": 1.0, "epsilon": 0.001},
      "optimizer": {"learning_rate": 0.3, "momentum": 0.9,
                    "iterations": 2000, "batch_size": 8},
      "seed": 7,
      "data": [["train", "data/train.jsonl"]],
      "eval_ks": [20, 50, 100]},
     "b03f86062d6df943e45f4db669ca42000d13238dbfdda5f96d4ba9ee75db5d97"),
]


@pytest.mark.parametrize("cls, doc, digest", WRITTEN_BACK, ids=["synth", "train"])
def test_config_documents_are_written_back_as_before(cls, doc, digest):
    text = json.dumps(asdict(from_dict(cls, doc)))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_integer_in_float_field_is_stored_as_float():
    space = asdict(LabelSpace(2, 2))
    config = from_dict(
        TrainConfig, {"label_space": space, "optimizer": {"learning_rate": 1}, "seed": 3}
    )
    assert type(config.optimizer.learning_rate) is float and config.optimizer.learning_rate == 1.0
    assert json.dumps(asdict(config.optimizer)).startswith('{"learning_rate": 1.0,')
    assert type(from_dict(BiasSpec, {"kind": "cb", "background": -2}).background) is float


def test_sections_are_named():
    space = asdict(LabelSpace(2, 2))
    for doc, message in [
        ({"label_space": space, "model": None}, "^config section 'model' must be an object$"),
        ({"label_space": space, "bias": []}, "^bias spec must be an object$"),
        ({"label_space": [2, 2]}, "^label space must be an object$"),
        ({"label_space": {"num_relations": 2}},
         "^missing key 'num_object_classes' in label space$"),
        ({"label_space": space, "bias": {"kind": "cb", "a": "1"}},
         "^bias spec key 'a' must be a number$"),
        ({"label_space": space, "bias": {"kind": "cb", "background": False}},
         "^bias spec key 'background' must be a number$"),
    ]:
        with pytest.raises(ValueError, match=message):
            from_dict(TrainConfig, doc)
