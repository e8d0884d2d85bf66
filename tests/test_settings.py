"""One rule for every numeric setting, at every entry point that takes one.

A setting is a number of its kind (an int setting takes no float), not a
bool, finite and >= 0; a positive one is > 0 (>= 1 for an int). None is
legal only where the type hint allows it. Anything else raises
ConfigurationError whose message names the setting.
"""

import math
import numbers
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pmvl.adversarial import GanConfig
from pmvl.baselines import SvdParams, concat_classify
from pmvl.data import MissingSpec, split, synth_dataset
from pmvl.errors import ConfigurationError
from pmvl.metrics import evaluate_clustering, kmeans
from pmvl.nets import DenseNet, init_net
from pmvl.supervised import TrainConfig

INT, REAL = numbers.Integral, numbers.Real
DATA = synth_dataset(12, 2, 2, [3, 2], seed=0)
TRAIN, TEST = split(DATA, 0.5, seed=0)
POINTS = np.random.default_rng(0).normal(size=(8, 2))


def keyword(entry, name):
    return lambda v: entry(**{name: v})


def synth(**kw):
    # one class, so that n's boundary (n=1) is a legal dataset
    return synth_dataset(**{"n": 6, "classes": 1, "latent_dim": 2, "view_dims": [3, 2], **kw})


# (entry point, setting, kind, positive, None allowed, call with the setting set to v)
SETTINGS = [
    *[("TrainConfig", name, kind, positive, optional, keyword(TrainConfig, name))
      for name, kind, positive, optional in [
          ("latent_dim", INT, True, False), ("lam", REAL, True, False),
          ("lr_nets", REAL, True, False), ("lr_latent", REAL, True, False),
          ("epochs", INT, True, False), ("retune_epochs", INT, False, False),
          ("infer_iters", INT, True, False), ("infer_lr", REAL, True, True),
          ("seed", INT, False, False), ("tol", REAL, True, False),
          ("l2_coefficient", REAL, False, False)]],
    *[("GanConfig", name, kind, positive, False, keyword(GanConfig, name))
      for name, kind, positive in [
          ("latent_dim", INT, True), ("lr", REAL, True), ("epochs", INT, True),
          ("d_steps", INT, True), ("adv_weight", REAL, False), ("seed", INT, False)]],
    ("SvdParams", "rank", INT, True, True, keyword(SvdParams, "rank")),
    ("SvdParams", "shrinkage", REAL, False, True, keyword(SvdParams, "shrinkage")),
    ("SvdParams", "iters", INT, True, False, keyword(SvdParams, "iters")),
    ("MissingSpec", "target_rate", REAL, False, False, lambda v: MissingSpec(v)),
    ("MissingSpec", "seed", INT, False, False, lambda v: MissingSpec(0.3, seed=v)),
    *[("synth_dataset", name, INT, True, False, keyword(synth, name))
      for name in ("n", "classes", "latent_dim")],
    ("synth_dataset", "view_dims", INT, True, False, lambda v: synth(view_dims=[3, v])),
    ("synth_dataset", "seed", INT, False, False, keyword(synth, "seed")),
    *[("synth_dataset", name, REAL, False, False, keyword(synth, name))
      for name in ("noise_scale", "center_scale", "nuisance_scale")],
    ("split", "train_fraction", REAL, True, False, lambda v: split(DATA, v)),
    ("split", "seed", INT, False, False, lambda v: split(DATA, 0.5, seed=v)),
    ("kmeans", "k", INT, True, False, lambda v: kmeans(POINTS, v)),
    ("kmeans", "seed", INT, False, False, lambda v: kmeans(POINTS, 2, seed=v)),
    ("evaluate_clustering", "seed", INT, False, False,
     lambda v: evaluate_clustering(POINTS, np.arange(8) % 2, seed=v)),
    ("concat_classify", "k", INT, True, False,
     lambda v: concat_classify(TRAIN, TEST, rule="knn", k=v)),
    ("init_net", "layer_dims", INT, True, False, lambda v: init_net([2, v])),
    ("init_net", "l2_coefficient", REAL, False, False,
     lambda v: init_net([2, 1], l2_coefficient=v)),
    ("init_net", "rng", INT, False, False, lambda v: init_net([2, 1], rng=v)),
    ("DenseNet", "layer_dims", INT, True, False,
     lambda v: DenseNet([2, v], [np.zeros((1, 2))], [np.zeros(1)])),
    ("DenseNet", "l2_coefficient", REAL, False, False,
     lambda v: DenseNet([2, 1], [np.zeros((1, 2))], [np.zeros(1)], l2_coefficient=v)),
]
IDS = [f"{entry}-{name}" for entry, name, *_ in SETTINGS]


def bad_values(kind, positive, optional):
    """Every kind of value the rule refuses for such a setting."""
    odd = [math.nan, math.inf, -math.inf, True, False, "1"] + ([] if optional else [None])
    if kind is INT:  # no float at all, 2.0 included
        below = st.integers(max_value=0 if positive else -1) | st.floats()
    else:
        below = st.floats(max_value=0.0, allow_nan=False).filter(lambda x: positive or x < 0)
    return st.sampled_from(odd) | below


@pytest.mark.parametrize("entry, name, kind, positive, optional, call", SETTINGS, ids=IDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_every_setting_refuses_what_the_rule_refuses(entry, name, kind, positive, optional,
                                                     call, data):
    value = data.draw(bad_values(kind, positive, optional), label=name)
    with pytest.raises(ConfigurationError) as exc:
        call(value)
    assert re.match(rf"{name}(\[\d+\])? must be ", str(exc.value)), str(exc.value)


@pytest.mark.parametrize("entry, name, kind, positive, optional, call", SETTINGS, ids=IDS)
def test_every_setting_accepts_its_boundary(entry, name, kind, positive, optional, call):
    if kind is INT:
        call(1 if positive else 0)
    else:
        call(math.ulp(0.0) if positive else 0.0)  # the least float above / at the bound
    if optional:
        call(None)
