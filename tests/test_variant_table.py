"""The variant table: every consumer accepts the same names and applies the same rules."""

import pytest

from netoco.algorithm import VARIANTS, make_schedule, variant_spec
from netoco.bench import ConfigError, load_config
from netoco.metrics import bound_constants

BOUND_KW = dict(n_units=6, window=2, zeta=0.5, p=12, G=1.0, radius=1.0, C=1.0, dimension=4)


def parameters(variant):
    """c for convex variants, sigma for strongly convex ones."""
    return dict(sigma=2.0) if variant_spec(variant).strongly_convex else dict(c=0.5)


def test_the_table_names_the_four_variants_in_order():
    assert VARIANTS == (
        "convex-full",
        "strongly-convex-full",
        "convex-bandit",
        "strongly-convex-bandit",
    )
    facts = {name: (variant_spec(name).strongly_convex, variant_spec(name).bandit) for name in VARIANTS}
    assert facts == {
        "convex-full": (False, False),
        "strongly-convex-full": (True, False),
        "convex-bandit": (False, True),
        "strongly-convex-bandit": (True, True),
    }


@pytest.mark.parametrize("variant", VARIANTS)
def test_load_config_accepts_every_variant(tmp_path, variant):
    if variant_spec(variant).strongly_convex:
        body = f"[problem]\nrho = 1.0\n[algorithm]\nvariant = {variant}\n"
    else:
        body = f"[algorithm]\nvariant = {variant}\nc = 0.5\n"
    path = tmp_path / "scenario.ini"
    path.write_text(body, encoding="utf-8")
    assert load_config(path).variant == variant


@pytest.mark.parametrize("variant", VARIANTS)
def test_make_schedule_accepts_every_variant(variant):
    hyper = make_schedule(variant, p=2, G=1.0, radius=1.0, horizon=64, **parameters(variant))
    assert hyper.is_bandit == variant_spec(variant).bandit
    assert hyper.is_strongly_convex == variant_spec(variant).strongly_convex


@pytest.mark.parametrize("variant", VARIANTS)
def test_bound_constants_accepts_every_variant(variant):
    constants = bound_constants(variant, **parameters(variant), **BOUND_KW)
    assert constants.sreg_bound(256) > 0.0
    assert constants.cacv_bound(256) > 0.0


def test_every_consumer_rejects_an_unknown_variant(tmp_path):
    path = tmp_path / "scenario.ini"
    path.write_text("[algorithm]\nvariant = convex-partial\nc = 0.5\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="unknown variant"):
        load_config(path)
    with pytest.raises(ValueError, match="unknown variant"):
        make_schedule("convex-partial", p=2, G=1.0, radius=1.0, horizon=64, c=0.5)
    with pytest.raises(ValueError, match="unknown variant"):
        bound_constants("convex-partial", c=0.5, **BOUND_KW)
    with pytest.raises(ValueError, match="unknown variant"):
        variant_spec("convex-partial")


@pytest.mark.parametrize("variant", ["strongly-convex-full", "strongly-convex-bandit"])
def test_bound_constants_ignore_a_for_strongly_convex_variants(variant):
    # The strongly convex formulas never use a, so the convex-only rule a > 1 does not apply.
    loose = bound_constants(variant, sigma=2.0, a=1.0, **BOUND_KW)
    assert loose == bound_constants(variant, sigma=2.0, **BOUND_KW)
