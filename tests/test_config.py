"""The one config reader, ``stats.from_dict``, against ``dataclasses.asdict``."""

import hashlib
import json
import re
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailbias.bias import GLOBAL_KINDS, PAIR_KINDS, BiasSpec
from tailbias.harness import LOSS_KINDS, LossConfig, ModelSpec, OptimizerConfig, TrainConfig
from tailbias.model import MODEL_KINDS, MODES
from tailbias.stats import LabelSpace, from_dict
from tailbias.synth import SynthConfig

README = Path(__file__).resolve().parents[1] / "README.md"

floats = st.floats(allow_nan=False, allow_infinity=False)
nonnegative = st.floats(min_value=0.0, allow_infinity=False)
ints = st.integers(-(2**63), 2**63 - 1)
positive = st.integers(1, 2**63 - 1)


@st.composite
def label_spaces(draw):
    ne, nr = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    names = [
        draw(st.just(()) | st.lists(st.text(), min_size=n, max_size=n, unique=True).map(tuple))
        for n in (ne, nr)
    ]
    return LabelSpace(ne, nr, *names)


@st.composite
def synth_configs(draw):
    objects_min = draw(st.integers(2, 10**6))
    return SynthConfig(
        label_space=draw(label_spaces()),
        num_train=draw(ints), num_val=draw(ints), num_test=draw(ints),
        zipf_s=draw(nonnegative),
        objects_min=objects_min,
        objects_max=draw(st.integers(objects_min, 2 * objects_min)),
        d_v=draw(ints),
        noise_sigma=draw(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)),
        background_fraction=draw(st.floats(0.0, 1.0, exclude_max=True)),
        detector_sharpness=draw(floats),
        detector_noise=draw(nonnegative),
        seed=draw(ints),
    )


@st.composite
def bias_specs(draw):
    a = draw(nonnegative)
    return BiasSpec(
        kind=draw(st.sampled_from(GLOBAL_KINDS + PAIR_KINDS)),
        a=a,
        epsilon=draw(st.floats(0.0, 1.0)),
        a_eval=draw(st.floats(0.0, a)),
        background=draw(st.none() | floats),
    )


@st.composite
def model_specs(draw):
    n_h = draw(st.integers(1, 8))
    return ModelSpec(
        kind=draw(st.sampled_from(MODEL_KINDS)),
        d_model=n_h * draw(st.integers(1, 8)),
        n_h=n_h,
        n_o=draw(positive), n_r=draw(positive),
        d_ff=draw(positive), d_e=draw(positive), d_pos=draw(positive),
        object_loss_weight=draw(floats),
    )


loss_configs = st.builds(
    LossConfig, kind=st.sampled_from(LOSS_KINDS), beta=floats, gamma=floats, alpha=floats,
    margin_c=floats, reweight_normalize=st.booleans(),
)
optimizer_configs = st.builds(
    OptimizerConfig, learning_rate=floats, momentum=floats, iterations=positive,
    batch_size=positive,
)


@st.composite
def train_configs(draw):
    loss = draw(loss_configs)
    bias = draw(bias_specs()) if loss.kind == "rtpb" else draw(st.none() | bias_specs())
    return TrainConfig(
        label_space=draw(label_spaces()),
        task=draw(st.sampled_from(MODES)),
        model=draw(model_specs()),
        loss=loss,
        bias=bias,
        optimizer=draw(optimizer_configs),
        seed=draw(ints),
        data=tuple(draw(st.lists(st.tuples(st.text(), st.text()), max_size=3))),
        eval_ks=tuple(draw(st.lists(positive, min_size=1, max_size=4, unique=True).map(sorted))),
        background_ratio=draw(nonnegative),
    )


@pytest.mark.parametrize(
    "cls, configs",
    [
        (LabelSpace, label_spaces()),
        (SynthConfig, synth_configs()),
        (BiasSpec, bias_specs()),
        (ModelSpec, model_specs()),
        (LossConfig, loss_configs),
        (OptimizerConfig, optimizer_configs),
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


def readme_json(name: str) -> dict:
    """The JSON block that follows the README's description of ``name``."""
    text = README.read_text(encoding="utf-8")
    return json.loads(re.search(rf"`{name}` is a .*?```json\n(.*?)```", text, re.S).group(1))


@pytest.mark.parametrize(
    "name, cls, digest",
    [
        ("synth.json", SynthConfig,
         "02a96544211833490ad85aee61fe5c7902cab9387219142fae575287aa60143f"),
        ("train.json", TrainConfig,
         "b03f86062d6df943e45f4db669ca42000d13238dbfdda5f96d4ba9ee75db5d97"),
    ],
)
def test_readme_configs_are_written_back_as_before(name, cls, digest):
    # sha256 of the JSON the readme's configs were read and written back as,
    # before one reader and asdict replaced each class's from_dict and to_dict.
    text = json.dumps(asdict(from_dict(cls, readme_json(name))))
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
