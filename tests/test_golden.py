"""Golden trajectories: tiny `curverl train`, `passk`, `compare` and `weights`
runs pinned by artifact digests.

Each case runs one small config end to end through the CLI and compares the
sha256 of every deterministic artifact against a committed value. A refactor
that claims to change no behaviour must leave all of them untouched; if one
ever has to change, that is a deliberate, logged change to this check.

The digests were written with numpy ``GOLDEN_NUMPY``. Float arithmetic in
numpy can differ in the last bit between releases, so a mismatch under a
different numpy version is reported with both versions named.
"""

import hashlib
import json

import numpy as np
import pytest

from curverl.cli import main
from curverl.config import ExperimentConfig
from curverl.passrate import DifficultyProfile, make_population, population_digest

GOLDEN_NUMPY = "2.4.6"

ARTIFACTS = ("train_log.csv", "refdist.csv", "per_prompt.csv", "population.json")


def golden_config(scheme, **train_overrides):
    train = {
        "steps": 6,
        "scheme": scheme,
        "batch_size": 32,
        "n_rollouts": 8,
        "t0": 3,
        "learning_rate": 4.0,
        "seed": 11,
        "min_window_count": 16,
    }
    train.update(train_overrides)
    return {
        "version": 1,
        "population": {
            "size": 40,
            "m": 8,
            "seed": 7,
            "difficulty": {"kind": "beta", "alpha": 1.0, "beta": 3.0,
                           "unsolvable_fraction": 0.1},
        },
        "train": train,
    }


def wide_config(scheme):
    """P = 300 prompts at M = 256, B = 300, N = 64: the gradient kernel runs
    several row blocks, the last one ragged."""
    doc = golden_config(scheme, steps=3, batch_size=300, n_rollouts=64, t0=1,
                        log_per_prompt=True)
    doc["population"].update(size=300, m=256)
    return doc


CASES = {
    # min_window_count above one batch: steps 0 and 1 both use the uniform
    # cold-start reference before the window takes over
    "curve_window_cold_start": golden_config(
        {"name": "curve", "reference": "window"}, min_window_count=40, log_per_prompt=True,
    ),
    "integrated_product": golden_config({"name": "integrated_product"}),
    "entropic_risk": golden_config({"name": "entropic_risk", "eta": 2.0}),
    # exact pass rates are off the rollout grid, so every weight is a snapped query
    "curve_exact_pass_rate": golden_config(
        {"name": "curve"}, weight_at_exact_pass_rate=True, log_per_prompt=True,
    ),
    "wide_reinforce": wide_config({"name": "reinforce"}),
    "wide_curve_window": wide_config({"name": "curve", "reference": "window"}),
    # 30 steps of B = 300: per_prompt.csv's 9,000 rows span two CSV row blocks
    "blocks_curve_window": golden_config(
        {"name": "curve", "reference": "window"}, steps=30, batch_size=300, log_per_prompt=True,
    ),
    # the weight path of a compare at exact pass rates: log p and log F at
    # off-grid rates, and the entropic weight's expm1
    "integrated_product_exact_pass_rate": golden_config(
        {"name": "integrated_product"}, weight_at_exact_pass_rate=True, log_per_prompt=True,
    ),
    "entropic_risk_exact_pass_rate": golden_config(
        {"name": "entropic_risk", "eta": 2.0}, weight_at_exact_pass_rate=True,
        log_per_prompt=True,
    ),
    # the remaining weights on the rollout grid, each weight pinned in per_prompt.csv
    "grpo_per_prompt": golden_config({"name": "grpo"}, log_per_prompt=True),
    "maxrl_per_prompt": golden_config({"name": "maxrl"}, log_per_prompt=True),
    "integrated_convex_per_prompt": golden_config(
        {"name": "integrated_convex", "lam": 0.25}, log_per_prompt=True,
    ),
}

DIGESTS = {
    "curve_exact_pass_rate": {
        "train_log.csv": "0926c525dc474712816a53cdc3f19ffef10e67bd72eb2651ccc8309e27b79530",
        "refdist.csv": "f3fc2acdbb1acea9dbff5baf370def5f1ee787ff6b2662a137505e8ddd830fce",
        "per_prompt.csv": "725ea4b830fd9e6e484c40b7f6c6255b0201d9a851c573041fcaa55cc41a70dd",
        "population.json": "2a73109efd9567e1c2cb8071874570c6541e6580f913e9653bc60e7001386a2a",
    },
    "curve_window_cold_start": {
        "train_log.csv": "4d1e6e5a8cbb04a5643de8855fff058f24291bda640daefd41c977f6558bef82",
        "refdist.csv": "761577fb3bc7b3797695f13b90115975b807c81b0049dcacb6df7c95af69f49b",
        "per_prompt.csv": "62b1f3a54eba7e8c9a2fda69f21ed184c3feab7f6472f65a94c5033ce0649969",
        "population.json": "2a73109efd9567e1c2cb8071874570c6541e6580f913e9653bc60e7001386a2a",
    },
    "entropic_risk": {
        "train_log.csv": "a26b3946c9aaed12bee79075264a1c607cf7e49bc65a27508c978d2cfc78f0ef",
        "refdist.csv": "bcbf228cc4961cf427b126a1ee01c89803c8b4a2342419281db5066af40a7a03",
        "population.json": "2a73109efd9567e1c2cb8071874570c6541e6580f913e9653bc60e7001386a2a",
    },
    "entropic_risk_exact_pass_rate": {
        "train_log.csv": "9fe70c65a2bdf829096b6f183925879bdac40d5587e1b5c7a47d14426ac4e21c",
        "refdist.csv": "11e83fc53a2330f8cea48f364026a00bfe17b9cefb6090d230cdad108470ce1c",
        "per_prompt.csv": "580bc72a0a756554a05ee6e60e81def53e57cf57e05a4811ade2c18dfd777c5e",
        "population.json": "2a73109efd9567e1c2cb8071874570c6541e6580f913e9653bc60e7001386a2a",
    },
    "grpo_per_prompt": {
        "train_log.csv": "4d385f33663044db967e7050cb2634f94f378abcf355efbe5eec33ab0c42dccb",
        "refdist.csv": "d536fd20b34972ee1cfe62175f21393cc58d3eb45ea00d6c0dac2791aa93b3ac",
        "per_prompt.csv": "fa3ef5bed0a90af1681b8eef05f4898d4b95140d66f0825d98fac22420c8c807",
        "population.json": "2a73109efd9567e1c2cb8071874570c6541e6580f913e9653bc60e7001386a2a",
    },
    "integrated_convex_per_prompt": {
        "train_log.csv": "91371afb64b96e00ff9060fada0b7d9a926513bc5251be897033c1d3f779c50b",
        "refdist.csv": "761577fb3bc7b3797695f13b90115975b807c81b0049dcacb6df7c95af69f49b",
        "per_prompt.csv": "8137ea98710f1da0cbbff6b0f308d8610c9811f589a7121901380f765e5ae7b1",
        "population.json": "2a73109efd9567e1c2cb8071874570c6541e6580f913e9653bc60e7001386a2a",
    },
    "integrated_product": {
        "train_log.csv": "74a1b5091ec26e8c8a648e51bed8c9bbe9936c22c4df075ea375e6d19e23aef2",
        "refdist.csv": "4544be8c9f2095cdf61be4b033e716ffa462184a2c5d5963ea4be3c1c7eed128",
        "population.json": "2a73109efd9567e1c2cb8071874570c6541e6580f913e9653bc60e7001386a2a",
    },
    "integrated_product_exact_pass_rate": {
        "train_log.csv": "6ba7871800381271277dd38780a979db4ea4cc7f0163edf89a34e1f0def982ec",
        "refdist.csv": "8d46a7d84b799ee492b4ea6d0614bdf2585f68d9b3cbb3aedc17f7d8705c80a6",
        "per_prompt.csv": "1826302b445ba29a001bc7960d5489cbfa787f037075df785e64426184c9a142",
        "population.json": "2a73109efd9567e1c2cb8071874570c6541e6580f913e9653bc60e7001386a2a",
    },
    "maxrl_per_prompt": {
        "train_log.csv": "7f7e0101bdbc99ea8f9825727d52696c290e725bc84cd24759bb02d9485e4ea6",
        "refdist.csv": "761577fb3bc7b3797695f13b90115975b807c81b0049dcacb6df7c95af69f49b",
        "per_prompt.csv": "3d3f7c73c4c46fc7a933cad8f17b1ca4f3f8922ca3cd4b6dd25f0ca217ba45ec",
        "population.json": "2a73109efd9567e1c2cb8071874570c6541e6580f913e9653bc60e7001386a2a",
    },
    "blocks_curve_window": {
        "train_log.csv": "02a0d1cf69fce12f3ccf28365da29ce7de4945c56ef8ced3779575dd93454232",
        "refdist.csv": "b1729f1c64098507778823f4292d77f384b4215d0c9254a2c3c923446d4278fd",
        "per_prompt.csv": "7e88a66ad7926d6004f315ff54b21cf74a2ed8e5783ce9c7e03ecdf5f9ed9c2e",
        "population.json": "2a73109efd9567e1c2cb8071874570c6541e6580f913e9653bc60e7001386a2a",
    },
    "wide_curve_window": {
        "train_log.csv": "0aa417488a02bab11a5cb0086928e839395abaff535cb50ab5a143e0c59a4521",
        "refdist.csv": "4c249ca4f5a3003ce9987cf81f2d8d852aa739419ad86fea470176ead85ca10e",
        "per_prompt.csv": "3fff0003c594fb25aa25227ee403c299ef1e5d2a4efc8fa4220f5918e561f82b",
        "population.json": "87caea52c7e1d9028f28cb7ed954d565c1ff449a3ffe488bc0327e3bd6728ce2",
    },
    "wide_reinforce": {
        "train_log.csv": "c88d8c7509ee462e392361c2b3f50de0ee22b7548ae04fbe783e6dbfd60c5cba",
        "refdist.csv": "8537718a3164b9ca0d8392405726a2ab0f82824d594861f0a34c71c320ab061a",
        "per_prompt.csv": "ac46235bea738bf1f5131d80fd90c097b66a77a10d526eae57506cce519ec6fe",
        "population.json": "87caea52c7e1d9028f28cb7ed954d565c1ff449a3ffe488bc0327e3bd6728ce2",
    },
}


def run_digests(tmp_path, doc) -> dict[str, str]:
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "run"
    assert main(["train", "--config", str(config), "--out", str(out)]) == 0
    return {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ARTIFACTS
        if (out / name).exists()
    }


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_trajectory(tmp_path, case):
    got = run_digests(tmp_path, CASES[case])
    assert sorted(got) == sorted(DIGESTS[case]), "a different set of artifacts was written"
    for name, digest in DIGESTS[case].items():
        assert got[name] == digest, (
            f"{case}/{name} digest changed (golden written with numpy {GOLDEN_NUMPY}, "
            f"running numpy {np.__version__})"
        )


# pass@k evaluation: a fixed profile whose first target sits near 1 gives
# all-right pools, the unsolvable fraction gives all-wrong ones, and k_list
# spans 1 to the pool size
EVAL_CONFIG = {
    "version": 1,
    "population": {
        "size": 24,
        "m": 8,
        "seed": 5,
        "difficulty": {"kind": "fixed", "targets": [0.9995, 0.6, 0.2, 0.05],
                       "unsolvable_fraction": 0.25},
    },
    "train": {"steps": 4, "scheme": {"name": "curve"}, "batch_size": 16, "n_rollouts": 8,
              "t0": 2, "learning_rate": 4.0, "seed": 3, "min_window_count": 0},
    "eval": {"rollouts": 16, "k_list": [1, 2, 5, 16], "seed": 9},
}

# manifest layout: the JSON each config is written back as, out_dir unset.
# Beside the configs above, two layouts the config writer decides: an
# integrated_convex scheme and an integer in a float field. The fields of each
# section are written in their declared order, so a fixed profile also writes
# alpha and beta, integrated_convex writes lam before reference, and a float
# field's value is a float (int_float's layout is entropic_risk's)
LAYOUT_CASES = {
    **CASES,
    "eval": EVAL_CONFIG,
    "integrated_convex": golden_config({"name": "integrated_convex", "lam": 0.25}),
    "int_float": golden_config({"name": "entropic_risk", "eta": 2}, learning_rate=4),
}

LAYOUT_DIGESTS = {
    "blocks_curve_window": "945fd04b75042df7c92c498120cc0fd73412ab69bcbd4104f88e0d495b0ae1ea",
    "curve_exact_pass_rate": "6dbc786f30686c30fef4413bac554ea8a78518d9ab3b8348029c394ff2fdca94",
    "curve_window_cold_start": "99142c4d06c9d3d75f14862f5c3f285883e753a93ecf69cdfedeb6ecb342638d",
    "entropic_risk": "ad55a5b8db2cb1eb9ea0dee88749cf29352b82e8f0207bbd9ab4a7e9c30791b0",
    "entropic_risk_exact_pass_rate": "56a97f8cb7915a6ebd0616cc8d2011ed8702c09a77e5becbc780a71f699e3409",
    "eval": "1b7c1fb20e768693db5886e799713f2ed6c8d8080dc8e0f8efa2d0d31825acfd",
    "grpo_per_prompt": "d3a4d1fbe832c017ad59d422d9c2a1e4215c49e8c67889ce18d411b71e1b98f2",
    "int_float": "ad55a5b8db2cb1eb9ea0dee88749cf29352b82e8f0207bbd9ab4a7e9c30791b0",
    "integrated_convex": "a5220fd3ef920b28ef3a887119f4d127a098369e34b4e4d4a3a24489282f6283",
    "integrated_convex_per_prompt": "15d034d7566eb4c21f734aa056564629823cf741873138b167b6e1788a07852f",
    "integrated_product": "35f33f31c509255de6bd3f07c5dd9c4cb91192fa462990049673b6095fc99cdd",
    "integrated_product_exact_pass_rate": "34f6e30b37d8a8c227b1cc41e7216c9ed51828072e134b3711adb04f050baaa2",
    "maxrl_per_prompt": "b4625c8bcf1b890aeb2facd65e66e6f06c103ff2bcfb883823908b337219712f",
    "wide_curve_window": "3929a2066cffed76ae2ebfcfdc495c96a5967aebdafa29888339c90ea342b2ca",
    "wide_reinforce": "496db6967676272059a44dd38efd09af699bb01aaf29d70f5ef41d3b322cbe16",
}


@pytest.mark.parametrize("case", sorted(LAYOUT_CASES))
def test_manifest_layout(case):
    text = ExperimentConfig.from_dict(LAYOUT_CASES[case]).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == LAYOUT_DIGESTS[case], (
        f"the manifest layout of {case} changed:\n{text}"
    )


# a manifest as written before fields were dumped in their declared order:
# the fixed profile has no alpha and beta, reference precedes lam, the
# learning rate is an integer, and eval carries the retired resamples key
OLD_LAYOUT_MANIFEST = {
    "version": 1,
    "population": {"size": 24, "m": 8, "seed": 5, "difficulty": {
        "kind": "fixed", "targets": [0.9995, 0.6, 0.2, 0.05], "unsolvable_fraction": 0.25}},
    "train": {"steps": 4, "scheme": {"name": "integrated_convex", "reference": "window",
                                     "lam": 0.25},
              "batch_size": 16, "n_rollouts": 8, "t0": 2, "learning_rate": 4, "seed": 3,
              "min_window_count": 0, "log_per_prompt": False,
              "weight_at_exact_pass_rate": False},
    "eval": {"rollouts": 16, "k_list": [1, 2, 5, 16], "resamples": 64, "seed": 9},
}


def test_old_manifest_layout_loads_to_an_equal_config():
    doc = json.loads(json.dumps(EVAL_CONFIG))
    doc["train"].update(scheme={"name": "integrated_convex", "lam": 0.25}, learning_rate=4.0)
    old = ExperimentConfig.from_dict(OLD_LAYOUT_MANIFEST)
    assert old == ExperimentConfig.from_dict(doc)
    assert ExperimentConfig.from_dict(json.loads(old.to_json())) == old


def eval_config(**eval_overrides):
    """EVAL_CONFIG with some of its eval fields replaced."""
    return {**EVAL_CONFIG, "eval": {**EVAL_CONFIG["eval"], **eval_overrides}}


POWERS_OF_TWO_K = [1, 2, 4, 8, 16, 32, 64, 128]

# case -> (command, config)
EVAL_CASES = {
    "passk": (["passk"], EVAL_CONFIG),
    "compare": (["compare", "--schemes", "grpo", "curve"], EVAL_CONFIG),
    # three policies share each prompt's pool uniforms; their buckets differ,
    # so some pools are all right or all wrong for one policy and not another
    "compare_three": (["compare", "--schemes", "reinforce", "integrated_product",
                       "entropic_risk:eta=2"], EVAL_CONFIG),
    # the benchmark's evaluation shape on a few prompts: a pool of 256 and
    # k up to 128
    "passk_r256": (["passk"], eval_config(rollouts=256, k_list=POWERS_OF_TWO_K)),
    "compare_r256": (["compare", "--schemes", "reinforce", "integrated_product",
                      "entropic_risk:eta=2"],
                     eval_config(rollouts=256, k_list=POWERS_OF_TWO_K)),
    # a pool size that is no power of two
    "passk_r200": (["passk"], eval_config(rollouts=200, k_list=POWERS_OF_TWO_K)),
    # a k that is no power of two
    "passk_odd_draw": (["passk"], eval_config(rollouts=256, k_list=[1, 2, 8, 13, 16, 128])),
}

EVAL_DIGESTS = {
    "passk": {
        "passk.csv": "73efb6512b3b2d0019caed060226ebcc196f8fef6947a59a292613afdf2d2b03",
        "passk_buckets.csv": "800ac5f4e5d08d6507ec844107bebd7055f153dd2ad5feb52846678f697451f2",
    },
    "compare": {
        "compare.csv": "3eae494da55c39a21a1d25a2142c403ae54b711cef50da64d665a8efe953418a",
        "compare_buckets.csv": "1a5c7865e1741f59fa98ee6d864a34920308580ba1526970a54eb0cde7e4a233",
    },
    "compare_three": {
        "compare.csv": "22d13cbe6ba0db443d81e731a39134b1396371dcf04ffbbf8b6a5d5541f17dbf",
        "compare_buckets.csv": "3b1c6f9e7c2cf83ba135bab2630e2911446a63e8195c6312afbc144c3c4376d6",
    },
    "passk_r256": {
        "passk.csv": "c2956430f7782fa5d83c8b18a1560aab4a2b1e2ee34035ad58e1bf5ce7b1ed5f",
        "passk_buckets.csv": "f314bfefa0923ccad01bab9d839acfcb6ff0b9b6070bb74ced15879ecf579b46",
    },
    "compare_r256": {
        "compare.csv": "dd8e08380154624792b528585b32f6c9b63d48467be899e703b0518959c73eb6",
        "compare_buckets.csv": "a5fab9f0599d60cb9e86533b2ca5584c5f47563f05b66c8e7b4ef74108d02c3c",
    },
    "passk_r200": {
        "passk.csv": "41fb65a20562a4fa0fd176da807774306eb23d8048f3cd80b1c9139c306ddfdd",
        "passk_buckets.csv": "f314bfefa0923ccad01bab9d839acfcb6ff0b9b6070bb74ced15879ecf579b46",
    },
    "passk_odd_draw": {
        "passk.csv": "3261342a1640dbb22e5a3fd790cfd067498c6f4785b141f6bfa35ea6ec49073f",
        "passk_buckets.csv": "f314bfefa0923ccad01bab9d839acfcb6ff0b9b6070bb74ced15879ecf579b46",
    },
}


@pytest.mark.parametrize("case", sorted(EVAL_CASES))
def test_golden_evaluation(tmp_path, case):
    config = tmp_path / "config.json"
    command, doc = EVAL_CASES[case]
    config.write_text(json.dumps(doc))
    out = tmp_path / "run"
    assert main([*command, "--config", str(config), "--out", str(out)]) == 0
    for name, digest in EVAL_DIGESTS[case].items():
        got = hashlib.sha256((out / name).read_bytes()).hexdigest()
        assert got == digest, (
            f"{case}/{name} digest changed (golden written with numpy {GOLDEN_NUMPY}, "
            f"running numpy {np.__version__})"
        )


# weight tables: one read from a trained run's refdist.csv, one closed form
WEIGHTS_CASES = {
    "integrated_convex_refdist": ["--scheme", "integrated_convex:lam=0.25", "--ref", "refdist.csv"],
    "entropic_risk_n16": ["--scheme", "entropic_risk:eta=2", "--n-rollouts", "16"],
}

WEIGHTS_DIGESTS = {
    "entropic_risk_n16": "52e37f1a460c38a2dc7bb76fce45d6d15a446ed89b8b9fd80a3e4a60499c99c2",
    "integrated_convex_refdist": "053560be72cc0da3edaabd577bcaa1a7cbc369f717e103349840f208dd94b4fb",
}


@pytest.mark.parametrize("case", sorted(WEIGHTS_CASES))
def test_golden_weights(tmp_path, case):
    args = WEIGHTS_CASES[case]
    if "refdist.csv" in args:
        run_digests(tmp_path, CASES["curve_window_cold_start"])
        args = [str(tmp_path / "run" / a) if a == "refdist.csv" else a for a in args]
    out = tmp_path / "weights.csv"
    assert main(["weights", *args, "--out", str(out)]) == 0
    got = hashlib.sha256(out.read_bytes()).hexdigest()
    assert got == WEIGHTS_DIGESTS[case], (
        f"weights/{case} digest changed (golden written with numpy {GOLDEN_NUMPY}, "
        f"running numpy {np.__version__})"
    )


# populations at M = 64, where a correct set holds up to 16 responses (at
# M = 8 above it holds at most 2), at beta targets and at the clipped ends
# of (0, 1)
POPULATION_CASES = {
    "beta_unsolvable": (DifficultyProfile(kind="beta", alpha=0.5, beta=0.5,
                                          unsolvable_fraction=0.25), 13),
    "fixed_extremes": (DifficultyProfile(kind="fixed",
                                         targets=(1e-8, 2e-8, 0.5, 1.0 - 2e-8, 1.0 - 1e-8)), 17),
}

POPULATION_DIGESTS = {
    "beta_unsolvable": "2add33aebfb6f0b90c658e8634e8b206f367fa96502b6c42729d64e3b8b60c34",
    "fixed_extremes": "47711f6b9fb16002745669b23f7e2332e21bbc075929809d886fd4fe7ddc598e",
}


@pytest.mark.parametrize("case", sorted(POPULATION_CASES))
def test_golden_population(case):
    profile, seed = POPULATION_CASES[case]
    pop = make_population(64, 64, profile, seed=seed)
    assert pop.correct.sum(axis=1).max() >= 8
    assert population_digest(pop) == POPULATION_DIGESTS[case], (
        f"population digest changed for {case} (golden written with numpy "
        f"{GOLDEN_NUMPY}, running numpy {np.__version__})"
    )
