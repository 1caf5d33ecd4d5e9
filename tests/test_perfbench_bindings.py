"""The benchmark in ``perfbench/`` binds program functions and parameter names
when it is imported, its tracer patches module globals, and its set-up reads
the bias API; a refactor that renames or drops one must fail here, in the
regular suite, rather than at benchmark time."""

import importlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np

import tailbias.gradcert as gradcert
import tailbias.harness as harness
import tailbias.losses as losses
import tailbias.metrics as metrics
import tailbias.model as model
import tailbias.numerics as numerics
from tailbias import bias, synth
from tailbias.stats import LabelSpace, ingest, read_config
from tailbias.synth import all_ordered_pairs
from test_model import make_image

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def test_every_probe_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")  # binds probed parameter names
    assert layers.PROBES
    for name in layers.PROBES:
        assert callable(layers._resolve(name)), name


def test_ref_linear_is_the_committed_reference_pipeline(monkeypatch):
    """The ref_linear workload writes the reference configuration out itself;
    its seed-0 configs must be ``configs/reference/``, trained for fewer
    iterations per cycle."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    ref_linear = importlib.import_module("workloads").WORKLOADS["ref_linear"]
    configs = ROOT / "configs" / "reference"
    assert ref_linear.synth_config(0) == read_config(synth.SynthConfig, str(configs / "synth.json"))
    config = ref_linear.train_config(0)
    config = replace(config, optimizer=replace(config.optimizer, iterations=2000))
    assert config == read_config(harness.TrainConfig, str(configs / "train_cb.json"))


def test_traced_functions_keep_their_module_bindings():
    """The tracer patches these module globals and its own tests check that
    they are restored; each must exist and be the defining function."""
    assert harness.ce is losses.ce
    assert harness.biased_ce is losses.biased_ce
    assert harness.forward is model.forward
    assert harness.rank is metrics.rank
    assert harness.score_triplets is metrics.score_triplets
    assert gradcert.grad_check is numerics.grad_check
    assert gradcert.encoder_layer is numerics.encoder_layer
    assert model.encoder_layer is numerics.encoder_layer


def test_tracing_restores_every_binding_of_a_function_with_two_probe_names(monkeypatch):
    """``model.linear_forward`` and ``model.forward`` name one function, as do
    the two backwards. With the benchmark's tracer installed, one forward and
    one backward per model kind run through its wrappers; afterwards every
    ``tailbias`` module attribute is the object it was before. The span test
    in ``perfbench/tests`` checks this too, but that suite is not run here."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    spans = importlib.import_module("spans")
    assert model.linear_forward is model.forward and model.linear_backward is model.backward
    before = [(mod, dict(vars(mod))) for mod in spans.tailbias_modules()]
    tracer, untraced = spans.Tracer(layers.PROBES), model.forward
    rng = np.random.default_rng(0)
    space = LabelSpace(num_object_classes=4, num_relations=3)
    with tracer.installed():
        assert harness.forward is model.forward is model.linear_forward is not untraced
        for kind in model.MODEL_KINDS:
            spec = model.ModelSpec(kind=kind, d_model=8, d_e=4, d_pos=4, n_o=1, n_r=1, d_ff=8)
            params = model.model_for(spec).init(spec, space, 5, rng)
            image = make_image(rng, 3, space.num_object_classes, 5)
            out = model.forward(image, image.unions, all_ordered_pairs(3), params, spec)
            d_obj = None if out.object_logits is None else np.ones_like(out.object_logits)
            grads = numerics.unflatten(params, np.zeros(numerics.flatten(params).size))
            model.backward(d_obj, np.ones_like(out.relation_logits), out, params, spec, grads)
    for mod, attrs in before:
        now = vars(mod)
        assert now.keys() == attrs.keys(), mod.__name__
        moved = [name for name, value in attrs.items() if now[name] is not value]
        assert not moved, (mod.__name__, moved)
    traced = [tracer.names[i] for i in tracer.name_id]
    assert traced.count("model.forward") == traced.count("model.backward") == 2
    assert "model.embed_objects" in traced


def test_biased_ce_calls_ce_through_the_module_global(monkeypatch):
    """A traced ``losses.ce`` must see the calls ``biased_ce`` makes."""
    calls = []
    ce = losses.ce

    def counting_ce(z, y):
        calls.append(np.shape(z))
        return ce(z, y)

    monkeypatch.setattr(losses, "ce", counting_ce)
    losses.biased_ce(np.zeros((4, 3)), np.zeros((4, 3)), np.ones(4, dtype=int))
    assert calls == [(4, 3)]


def test_bias_api_the_benchmark_reads():
    """``perfbench/workloads.py`` checks a computed bias through these names."""
    stats = ingest([(0, 1, 1), (1, 2, 2), (0, 1, 2)], LabelSpace(3, 2))
    vector = bias.compute_bias(bias.BiasSpec(kind="cb", a=1.0, epsilon=1e-3), stats)
    table = bias.compute_bias(bias.BiasSpec(kind="pb", a=1.0, epsilon=1e-3), stats)
    assert isinstance(vector, bias.BiasVector)
    assert not isinstance(table, bias.BiasVector)
    vectors = [table.fallback, *table.entries.values()]
    assert all(isinstance(v, bias.BiasVector) for v in vectors)
    values = np.concatenate([v.values for v in [vector, *vectors]])
    assert values.shape == (3 * (1 + 1 + len(table.entries)),)
    assert bias.lookup_pair_bias(table, 0, 1) is table.entries[(0, 1)]


def test_split_api_the_benchmark_uses(monkeypatch, tmp_path):
    """``perfbench/workloads.py`` writes splits by the ``path`` parameter,
    reads them back, takes their statistics and ``len``, and evaluates and
    sweeps ``split[i : i + size]`` chunks; ``perfbench/layers.py`` counts a
    sweep's image-points from its ``images`` argument."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    layers = importlib.import_module("layers")
    ls = LabelSpace(num_object_classes=4, num_relations=3)
    cfg = synth.SynthConfig(
        label_space=ls, num_train=12, num_val=0, num_test=7, objects_min=2, objects_max=4,
        d_v=4, seed=5,
    )
    splits = {}
    for name in ("train", "test"):
        path = tmp_path / f"{name}.jsonl"
        synth.write_images_jsonl(synth.generate_split(cfg, name), path=str(path))
        splits[name] = synth.read_images_jsonl(str(path))
    train, test = splits["train"], splits["test"]
    assert (len(train), len(test)) == (12, 7)
    stats = harness.training_stats(train, ls)
    assert stats.total == len(train.gt) > 0
    spec = bias.BiasSpec(kind="cb", a=1.0, epsilon=1e-3)
    config = harness.TrainConfig(
        label_space=ls, loss=harness.LossConfig(kind="rtpb"), bias=spec,
        optimizer=harness.OptimizerConfig(iterations=2, batch_size=4), eval_ks=(1, 5),
    )
    checkpoint, _ = harness.train(config, train)
    chunks = workloads._chunks(test, 3)
    assert [len(c) for c in chunks] == [3, 3, 1]
    for chunk in chunks:
        results = harness.evaluate(checkpoint, chunk)
        assert sorted(results) == sorted(harness.CONSTRAINTS)
        args = (checkpoint, stats, spec, [0.0, 1.0], chunk)
        assert [a for a, _ in harness.sweep(*args)] == [0.0, 1.0]
        assert layers._image_points(args, {}, None) == 2.0 * len(chunk)


def test_params_vector_is_a_fresh_copy_in_leaf_order(tmp_path):
    """``perfbench/workloads.py`` digests ``numerics.flatten(checkpoint.params)``
    and compares it across a save and load; a training step taken after the
    call must not reach the vector it returned."""
    ls = LabelSpace(num_object_classes=4, num_relations=3)
    cfg = synth.SynthConfig(
        label_space=ls, num_train=8, num_val=0, num_test=0, objects_min=3, objects_max=3,
        d_v=4, seed=3,
    )
    config = harness.TrainConfig(
        label_space=ls,
        model=model.ModelSpec(kind="dual_encoder", d_model=8, d_e=4, d_pos=4, n_o=1, n_r=1, d_ff=8),
        optimizer=harness.OptimizerConfig(iterations=2, batch_size=2),
    )
    checkpoint, _ = harness.train(config, synth.generate_split(cfg, "train"))
    vec = numerics.flatten(checkpoint.params)
    arrays = numerics.leaves(checkpoint.params)
    assert vec.dtype == np.float64 and vec.shape == (sum(a.size for a in arrays),)
    assert np.array_equal(vec, np.concatenate([a.ravel() for a in arrays]))
    path = tmp_path / "checkpoint.json"
    harness.save_checkpoint(checkpoint, str(path))
    assert vec.tolist() == json.loads(path.read_text())["param_data"]
    kept = vec.copy()
    arrays[0].base[:] -= 0.5  # one more step on the training buffer
    assert np.array_equal(vec, kept)
    assert not np.array_equal(numerics.flatten(checkpoint.params), kept)
