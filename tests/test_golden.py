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
from curverl.passrate import DifficultyProfile, make_population, population_to_json

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
        "train_log.csv": "8819ea2530d96b5493062ef640707e786cb75f269342afbdae895331379817ed",
        "refdist.csv": "f3fc2acdbb1acea9dbff5baf370def5f1ee787ff6b2662a137505e8ddd830fce",
        "per_prompt.csv": "725ea4b830fd9e6e484c40b7f6c6255b0201d9a851c573041fcaa55cc41a70dd",
        "population.json": "45b3f64601d4d329304d5a0227d4fdf08d1feadd8c2c059f498badf70ffe1b83",
    },
    "curve_window_cold_start": {
        "train_log.csv": "a8f1f30676e6bd7432059d7ab6fa295a3663b7834d47d60ed71a40ac9d60cff2",
        "refdist.csv": "761577fb3bc7b3797695f13b90115975b807c81b0049dcacb6df7c95af69f49b",
        "per_prompt.csv": "62b1f3a54eba7e8c9a2fda69f21ed184c3feab7f6472f65a94c5033ce0649969",
        "population.json": "45b3f64601d4d329304d5a0227d4fdf08d1feadd8c2c059f498badf70ffe1b83",
    },
    "entropic_risk": {
        "train_log.csv": "cfeab18494a5f0760f71a695d7e69269ef04e80318bc751014a5f062ab924365",
        "refdist.csv": "bcbf228cc4961cf427b126a1ee01c89803c8b4a2342419281db5066af40a7a03",
        "population.json": "45b3f64601d4d329304d5a0227d4fdf08d1feadd8c2c059f498badf70ffe1b83",
    },
    "entropic_risk_exact_pass_rate": {
        "train_log.csv": "ca4aa13b4f02df4385a7844d45faecd116701675fc54a188ded8f656100ef1a6",
        "refdist.csv": "11e83fc53a2330f8cea48f364026a00bfe17b9cefb6090d230cdad108470ce1c",
        "per_prompt.csv": "70be0aa27cbea0ed3634ca6e9ed635e4414bc179bda1cb9185209a358e2f2973",
        "population.json": "45b3f64601d4d329304d5a0227d4fdf08d1feadd8c2c059f498badf70ffe1b83",
    },
    "grpo_per_prompt": {
        "train_log.csv": "3ef6eb14dfadc07a4188d8801813b03947ce9f7705adc93fa985aae0b6aa723b",
        "refdist.csv": "d536fd20b34972ee1cfe62175f21393cc58d3eb45ea00d6c0dac2791aa93b3ac",
        "per_prompt.csv": "fa3ef5bed0a90af1681b8eef05f4898d4b95140d66f0825d98fac22420c8c807",
        "population.json": "45b3f64601d4d329304d5a0227d4fdf08d1feadd8c2c059f498badf70ffe1b83",
    },
    "integrated_convex_per_prompt": {
        "train_log.csv": "2e7846bb76bd87096a311f7bbd78eff3a5112714cb1aa947e843cd1e78abfb69",
        "refdist.csv": "761577fb3bc7b3797695f13b90115975b807c81b0049dcacb6df7c95af69f49b",
        "per_prompt.csv": "8137ea98710f1da0cbbff6b0f308d8610c9811f589a7121901380f765e5ae7b1",
        "population.json": "45b3f64601d4d329304d5a0227d4fdf08d1feadd8c2c059f498badf70ffe1b83",
    },
    "integrated_product": {
        "train_log.csv": "624f9f89c14f64245550acd25f49c89518c867caa771148c89fcf7f01d15a749",
        "refdist.csv": "4544be8c9f2095cdf61be4b033e716ffa462184a2c5d5963ea4be3c1c7eed128",
        "population.json": "45b3f64601d4d329304d5a0227d4fdf08d1feadd8c2c059f498badf70ffe1b83",
    },
    "integrated_product_exact_pass_rate": {
        "train_log.csv": "e02275019ebbbf4b3f5d49fae77392f399d0ee857f7817086ee247c4856aec40",
        "refdist.csv": "8d46a7d84b799ee492b4ea6d0614bdf2585f68d9b3cbb3aedc17f7d8705c80a6",
        "per_prompt.csv": "313cabf8994a6a35e938f94e036e4c8445094d7a0fff543d63d97a70bdac1ef0",
        "population.json": "45b3f64601d4d329304d5a0227d4fdf08d1feadd8c2c059f498badf70ffe1b83",
    },
    "maxrl_per_prompt": {
        "train_log.csv": "a73996106a3ccce0649a5779ddca2a7e5992ee13b347bad6f09cb49a7f914028",
        "refdist.csv": "761577fb3bc7b3797695f13b90115975b807c81b0049dcacb6df7c95af69f49b",
        "per_prompt.csv": "3d3f7c73c4c46fc7a933cad8f17b1ca4f3f8922ca3cd4b6dd25f0ca217ba45ec",
        "population.json": "45b3f64601d4d329304d5a0227d4fdf08d1feadd8c2c059f498badf70ffe1b83",
    },
    "blocks_curve_window": {
        "train_log.csv": "2c15a83944672c587637e53d6cf153d8913dd3274bf653bc56b5d27f4ebfc10d",
        "refdist.csv": "b1729f1c64098507778823f4292d77f384b4215d0c9254a2c3c923446d4278fd",
        "per_prompt.csv": "7e88a66ad7926d6004f315ff54b21cf74a2ed8e5783ce9c7e03ecdf5f9ed9c2e",
        "population.json": "45b3f64601d4d329304d5a0227d4fdf08d1feadd8c2c059f498badf70ffe1b83",
    },
    "wide_curve_window": {
        "train_log.csv": "1ea43631976ee31cb6990a72e268bf5c8d4c6e7cbf3ade40405d0d221cbaef62",
        "refdist.csv": "4c249ca4f5a3003ce9987cf81f2d8d852aa739419ad86fea470176ead85ca10e",
        "per_prompt.csv": "3fff0003c594fb25aa25227ee403c299ef1e5d2a4efc8fa4220f5918e561f82b",
        "population.json": "8794cd0cc57a4b81271b532ecb131bbc7504daeb8f2a7ea6fb6c1c8984337d2c",
    },
    "wide_reinforce": {
        "train_log.csv": "7f33b6506883d6a86938fa8856ce439e9f74e344ccc682f0a6258d448d408c4b",
        "refdist.csv": "8537718a3164b9ca0d8392405726a2ab0f82824d594861f0a34c71c320ab061a",
        "per_prompt.csv": "ac46235bea738bf1f5131d80fd90c097b66a77a10d526eae57506cce519ec6fe",
        "population.json": "8794cd0cc57a4b81271b532ecb131bbc7504daeb8f2a7ea6fb6c1c8984337d2c",
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
    "eval": {"rollouts": 16, "k_list": [1, 2, 5, 16], "resamples": 64, "seed": 9},
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
    "blocks_curve_window": "087c3b3bc7d1a02a02c78d90ea93978a6de853d605b3203404d12cc646e05352",
    "curve_exact_pass_rate": "5625156c2ec41b3d94b2d4e85e2411302669e61db447619d1e6739fee8c62951",
    "curve_window_cold_start": "3ed1c9207912733d452ee4948d2668b0fa66df32dab284503d2d0b9311cf36b6",
    "entropic_risk": "f7bc5a28813c1463015c2a3356797a1aad5606307819b1f14c2606f567ccadcc",
    "entropic_risk_exact_pass_rate": "c05283e55d57061943b0aa98874562569093642cd3f1e6a67635a5372f35b427",
    "eval": "e822076bc07d0e1847b123aeea6dc4487429595866daf8a1f241d504e6c1fc93",
    "grpo_per_prompt": "c642ad76ee2fbddd2c696012c90ebfc3682e8e5d2b3ed5eafd2f828797b23e8c",
    "int_float": "f7bc5a28813c1463015c2a3356797a1aad5606307819b1f14c2606f567ccadcc",
    "integrated_convex": "ea8e2f7bd91d027bd0aacea9fafdec65701b53ef5f93750627cfd4a6c4fa1bc9",
    "integrated_convex_per_prompt": "f93395cd2356ed3df203dfab35a6137ab92ee3789261ef46900d04c0d73ccefa",
    "integrated_product": "bbf4e51211f0ac4bd615e01419d73e8f90d8e45ce1d43427f569adab3a6a716b",
    "integrated_product_exact_pass_rate": "a4974e943982b99adf127252e39d2502c19cc2d5decbd4bd91f39d81895c5ef8",
    "maxrl_per_prompt": "0f3d37e741e63367fd3af9657cb5c705265447002326536806e5f68bf173a8ad",
    "wide_curve_window": "05e7510e048e5c8382be251dfdc45cbdcc7c38b21665fc451ccb1c8cc8983f6f",
    "wide_reinforce": "bbb6dbe4543e1f8aca0ff7cfa2f43f19826d719003f30582da92789ad15fa61f",
}


@pytest.mark.parametrize("case", sorted(LAYOUT_CASES))
def test_manifest_layout(case):
    text = ExperimentConfig.from_dict(LAYOUT_CASES[case]).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == LAYOUT_DIGESTS[case], (
        f"the manifest layout of {case} changed:\n{text}"
    )


# a manifest as written before fields were dumped in their declared order:
# the fixed profile has no alpha and beta, reference precedes lam, and the
# learning rate is an integer
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
    # three policies share each prompt's bootstrap draws; their buckets
    # differ, so some prompts are live for one policy and constant for another
    "compare_three": (["compare", "--schemes", "reinforce", "integrated_product",
                       "entropic_risk:eta=2"], EVAL_CONFIG),
    # the benchmark's evaluation shape on a few prompts: a power-of-two pool
    # and (resamples, k) index draws large enough for the raw-word draw path
    "passk_r256": (["passk"], eval_config(rollouts=256, k_list=POWERS_OF_TWO_K,
                                          resamples=1000)),
    "compare_r256": (["compare", "--schemes", "reinforce", "integrated_product",
                      "entropic_risk:eta=2"],
                     eval_config(rollouts=256, k_list=POWERS_OF_TWO_K, resamples=1000)),
    # a pool size that is no power of two: every draw goes through integers
    "passk_r200": (["passk"], eval_config(rollouts=200, k_list=POWERS_OF_TWO_K,
                                          resamples=1000)),
    # 999 * 13 draws is odd: the generator keeps a buffered half word, so the
    # even draws after it (k = 16, 128) go through integers too
    "passk_odd_draw": (["passk"], eval_config(rollouts=256, k_list=[1, 2, 8, 13, 16, 128],
                                              resamples=999)),
}

EVAL_DIGESTS = {
    "passk": {
        "passk.csv": "b29272a32682238232356c6c572a4de39f088a36e5b774ff9e8b078e2ba1baca",
        "passk_buckets.csv": "800ac5f4e5d08d6507ec844107bebd7055f153dd2ad5feb52846678f697451f2",
    },
    "compare": {
        "compare.csv": "7cb33979186234673082085b199246d60bc261d9de0cee2e54d8e2f262224304",
        "compare_buckets.csv": "1a5c7865e1741f59fa98ee6d864a34920308580ba1526970a54eb0cde7e4a233",
    },
    "compare_three": {
        "compare.csv": "acf9640e2fb58548656d097e11e5d8c9bd50a301c4fc51d9339ce083d7f30e12",
        "compare_buckets.csv": "3b1c6f9e7c2cf83ba135bab2630e2911446a63e8195c6312afbc144c3c4376d6",
    },
    "passk_r256": {
        "passk.csv": "f96f08a2de3a392efdaff7611dc452269c07fed6e7457cc3d3e84083ab11cc03",
        "passk_buckets.csv": "f314bfefa0923ccad01bab9d839acfcb6ff0b9b6070bb74ced15879ecf579b46",
    },
    "compare_r256": {
        "compare.csv": "ee0d1cee4ef3c21705496de589fb140ce863af097ce49ccc3ce85f489050b257",
        "compare_buckets.csv": "a5fab9f0599d60cb9e86533b2ca5584c5f47563f05b66c8e7b4ef74108d02c3c",
    },
    "passk_r200": {
        "passk.csv": "a4242bb4706e6cd6641f591a05708cda518d3adacdfb59d82dcd48159ffc5750",
        "passk_buckets.csv": "f314bfefa0923ccad01bab9d839acfcb6ff0b9b6070bb74ced15879ecf579b46",
    },
    "passk_odd_draw": {
        "passk.csv": "3c70ffea3ea286b1463d038c0b097be5162a968f6da2fce211abca182e767e6d",
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


# populations at M = 64, where a correct set holds up to 16 responses: the
# solver's correct-mass sum spreads a set of 8 or more over numpy's eight
# pairwise-sum accumulators, so a gather padded to a common width would
# change these bytes (at M = 8 above no set reaches 8)
POPULATION_CASES = {
    "beta_unsolvable": (DifficultyProfile(kind="beta", alpha=0.5, beta=0.5,
                                          unsolvable_fraction=0.25), 13),
    "fixed_extremes": (DifficultyProfile(kind="fixed",
                                         targets=(1e-8, 2e-8, 0.5, 1.0 - 2e-8, 1.0 - 1e-8)), 17),
}

POPULATION_DIGESTS = {
    "beta_unsolvable": "4b11cd1d4a9ade58dd736d03edcc45f9d1f0bed6b2464626486ea36113f0979d",
    "fixed_extremes": "d87511053d8348bb1f0962ebe9155441ecbe8726c9435fd8eed26b735b678465",
}


@pytest.mark.parametrize("case", sorted(POPULATION_CASES))
def test_golden_population(case):
    profile, seed = POPULATION_CASES[case]
    pop = make_population(64, 64, profile, seed=seed)
    assert pop.correct.sum(axis=1).max() >= 8
    got = hashlib.sha256(population_to_json(pop).encode()).hexdigest()
    assert got == POPULATION_DIGESTS[case], (
        f"population.json digest changed for {case} (golden written with numpy "
        f"{GOLDEN_NUMPY}, running numpy {np.__version__})"
    )
