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
        "train_log.csv": "2c56303bada03cc7345cc31c723cbe52320ce7cc916ebd4101b434d5424d6902",
        "refdist.csv": "4f59db38b8b396f0ad756f71f0ad12ca2003b98ebc7abeeb7fdf36881217cb64",
        "per_prompt.csv": "615b8fbbaaf7fedcc97241887690e41fbcdec7be33456bb0b5d9edfb8e65d430",
        "population.json": "f0d6b33675a869c48dc0471662996d607e3a6cbc03387663997ebf7870c977ef",
    },
    "curve_window_cold_start": {
        "train_log.csv": "6b57322d090e5aad517b5c06a9fd7054dcc81d1a094d25b7bc2c976cc394f833",
        "refdist.csv": "c37d304d6aa3ee497403379f2f176327c4cf091eb5b06a0b8af8e3c77e508b32",
        "per_prompt.csv": "4143106273ca500b3aa08128c27baa7da236a2435eba83bda59003624e02af51",
        "population.json": "f0d6b33675a869c48dc0471662996d607e3a6cbc03387663997ebf7870c977ef",
    },
    "entropic_risk": {
        "train_log.csv": "11befb65de252f89d19e54c15ce9141ca5883846840e7059a4cc02ee34f9fca3",
        "refdist.csv": "45727f3f653cbf7ded4ef1134545a86e862f87361280b4b1ec3f3940b011254b",
        "population.json": "f0d6b33675a869c48dc0471662996d607e3a6cbc03387663997ebf7870c977ef",
    },
    "entropic_risk_exact_pass_rate": {
        "train_log.csv": "6cafb89edade25826938fa42dbb9e6c829d110c31df8c350c9446ceed4d27545",
        "refdist.csv": "45727f3f653cbf7ded4ef1134545a86e862f87361280b4b1ec3f3940b011254b",
        "per_prompt.csv": "a8679363bd79a05d7918792f97a5bbe7d8652e86e50fc654f2b7ac7e57145aa7",
        "population.json": "f0d6b33675a869c48dc0471662996d607e3a6cbc03387663997ebf7870c977ef",
    },
    "grpo_per_prompt": {
        "train_log.csv": "1aff32e37859e0f666e34d6dd14cb2cfb3431a40065238b883dc77910c81296d",
        "refdist.csv": "abbdbaa5b6c58b3294e824e00cab7bc02574506ad522be8ecf18a2cac452c6a1",
        "per_prompt.csv": "b54ba32a261e817b654b57eb13f96b16b8d013cf21400578dccc2a9aa5a41d86",
        "population.json": "f0d6b33675a869c48dc0471662996d607e3a6cbc03387663997ebf7870c977ef",
    },
    "integrated_convex_per_prompt": {
        "train_log.csv": "7c418e388e6c31f7fc83de6d5cf44ab0a5895a31c11ef28dd2d5b7d83b00f11a",
        "refdist.csv": "c37d304d6aa3ee497403379f2f176327c4cf091eb5b06a0b8af8e3c77e508b32",
        "per_prompt.csv": "9d8bdf6a1ef08aca48f50d5d40020378af49a2e6733acd6ae81391100be75470",
        "population.json": "f0d6b33675a869c48dc0471662996d607e3a6cbc03387663997ebf7870c977ef",
    },
    "integrated_product": {
        "train_log.csv": "a509f2de05bbe648b8b235a1c24b7e75d9057be4e13d0c217040a74deadd0581",
        "refdist.csv": "d109f20ef5cead7c4654654e53c32cc8375f1c4e572e136e378a2ac5ae4e980c",
        "population.json": "f0d6b33675a869c48dc0471662996d607e3a6cbc03387663997ebf7870c977ef",
    },
    "integrated_product_exact_pass_rate": {
        "train_log.csv": "85106ef45d3e78af34a020afda236bf08e0036ddcc6f4d84397c439c6c557fb1",
        "refdist.csv": "b1b28cb6b4f58efbae1b2aa3b3ec34a1b2300826167cd1e0ae284127358b9744",
        "per_prompt.csv": "7f82045c9e1ea1c853e6653a657eaf8c6989982cf117d025323e539379684088",
        "population.json": "f0d6b33675a869c48dc0471662996d607e3a6cbc03387663997ebf7870c977ef",
    },
    "maxrl_per_prompt": {
        "train_log.csv": "748f8efb0110d9a78aa64bb167b29baa12e9c15497f95ed052dcd0c9b623ea94",
        "refdist.csv": "c37d304d6aa3ee497403379f2f176327c4cf091eb5b06a0b8af8e3c77e508b32",
        "per_prompt.csv": "13e0597f68238ff739ae53c26bf0006ad6dfb3198f856bb9d6ec6c6f89831452",
        "population.json": "f0d6b33675a869c48dc0471662996d607e3a6cbc03387663997ebf7870c977ef",
    },
    "blocks_curve_window": {
        "train_log.csv": "feb781330dfdab8ceefdf981c8fd82eb7022ca3669e70c9b93f1752f06a0e3ef",
        "refdist.csv": "5fbcebf1f3d6ba8dc276044874df42e7b9a70227e0ce2141202b67ba838ff4c8",
        "per_prompt.csv": "64bc9b6c7f0734ec71bb2e6d9dfa9e3128fefbcaf0b4a95b7cc9838b5bef794c",
        "population.json": "f0d6b33675a869c48dc0471662996d607e3a6cbc03387663997ebf7870c977ef",
    },
    "wide_curve_window": {
        "train_log.csv": "5c0451d47026a2ccda87c6b680b44980ca6697c0bb22e799bd467b4854bbc484",
        "refdist.csv": "cc9d5e6379db9fae1cb20bfae39ee3cf59df24572a2108c694816c393a56bf08",
        "per_prompt.csv": "e8b28194c3b306f0dd4ad6a4d827b05cfcd39f1ec4e6325561a3092e06122011",
        "population.json": "042d203ed0f87d521d559df5fc0605ca43c579b9449a8f742758b66e93f16f75",
    },
    "wide_reinforce": {
        "train_log.csv": "38e2bfb0d1eccd8d6fc4e3c24f0dcdc7b56f7d217afdf8e26c8f4461b6a9a0d9",
        "refdist.csv": "79bbd9e7f76355617b790461c22e441e7fde18962543f7ee683807e414ddf067",
        "per_prompt.csv": "f7cb2f64591adce165ea329c0c04c13af5f90d864f264f54bd66f4f4c45de056",
        "population.json": "042d203ed0f87d521d559df5fc0605ca43c579b9449a8f742758b66e93f16f75",
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
# rates near 1, the unsolvable fraction gives rates of 0, and k_list spans
# 1 to 16
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
    "eval": {"k_list": [1, 2, 5, 16]},
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
    "blocks_curve_window": "9d53aad6ee29fe258114293db3fe23b3118113a3b9dd2ec3b57b94bebf6af39d",
    "curve_exact_pass_rate": "2a4ba9c8e9fef5f92b1154d17a5a9bc72ac98b67eddcd89ed5cccc3ee1468e3c",
    "curve_window_cold_start": "8bfaf7bf8ca335afa81d1797ae43f64b00c7932c9545524cd0017f4860c71c84",
    "entropic_risk": "91726972d24dedb6a2c60d00703c0eec35eaa7ccc64c9b4ecce85e573f46f213",
    "entropic_risk_exact_pass_rate": "47afa9dcfd3f7ad810bf11f75ec430d95f0ff9fef92cd51a5d6506c70d931a66",
    "eval": "f5e39fae226c4dc5627034d71527235b7c633662d43009f6334a00a32e8cb52b",
    "grpo_per_prompt": "839459255476d7ff70f22554dbd72a94ccc7314d01de2938f9550cbf6870d1b1",
    "int_float": "91726972d24dedb6a2c60d00703c0eec35eaa7ccc64c9b4ecce85e573f46f213",
    "integrated_convex": "f4e76b8076c59257dfccc36be249a187c32bcdaa8c5777deb5769ec23a6fde1d",
    "integrated_convex_per_prompt": "7857efb480f00f1fdad8c135a44acc7dba896105d710dbc9dcf37de9063cc60a",
    "integrated_product": "d70f7eeb6d9232b818ee0f855dbdd7daa551e42c707c8a0a760677b875b9428d",
    "integrated_product_exact_pass_rate": "b5aeb68d2aadb969b97269e32f032d07adc1c75d9ecf94287887e13b644b013e",
    "maxrl_per_prompt": "5a1db01d2761dae66948f72500c97eb30b8895ed45ea1229e33b3ff8e32d11bc",
    "wide_curve_window": "322b57a1fc13112e1590f249e3d18bec5c685e787bfd944738d4d2049c1bbc99",
    "wide_reinforce": "0817e942949012c58656f4b23df469bfb13fd448f0617605b00f47b8b9fe32c6",
}


@pytest.mark.parametrize("case", sorted(LAYOUT_CASES))
def test_manifest_layout(case):
    text = ExperimentConfig.from_dict(LAYOUT_CASES[case]).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == LAYOUT_DIGESTS[case], (
        f"the manifest layout of {case} changed:\n{text}"
    )


# a manifest as written before fields were dumped in their declared order:
# the fixed profile has no alpha and beta, reference precedes lam, the
# learning rate is an integer, and eval carries the retired resamples,
# rollouts and seed keys
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


def eval_config(k_list):
    """EVAL_CONFIG with another k_list."""
    return {**EVAL_CONFIG, "eval": {"k_list": k_list}}


POWERS_OF_TWO_K = [1, 2, 4, 8, 16, 32, 64, 128]

# case -> (command, config). A case pins only the files no other case
# writes the same: the buckets depend on the policies, not on k_list
EVAL_CASES = {
    "passk": (["passk"], EVAL_CONFIG),
    "compare": (["compare", "--schemes", "grpo", "curve"], EVAL_CONFIG),
    # three trained policies, whose buckets differ
    "compare_three": (["compare", "--schemes", "reinforce", "integrated_product",
                       "entropic_risk:eta=2"], EVAL_CONFIG),
    # the benchmark's k_list, 1 to 128 (the name keeps the pool size of 256
    # these cases were written for)
    "passk_r256": (["passk"], eval_config(k_list=POWERS_OF_TWO_K)),
    "compare_r256": (["compare", "--schemes", "reinforce", "integrated_product",
                      "entropic_risk:eta=2"], eval_config(k_list=POWERS_OF_TWO_K)),
    # a k that is no power of two
    "passk_odd_draw": (["passk"], eval_config(k_list=[1, 2, 8, 13, 16, 128])),
}

EVAL_DIGESTS = {
    "passk": {
        "passk.csv": "9df29b7c993b86fa07d2f06e45f3f2a647994030f3dbf82e0de19158e2a047f5",
        "passk_buckets.csv": "e0c957dcb97d86bc42424f84fda13a35c50bffe3ac7934b580f546857ddac214",
    },
    "compare": {
        "compare.csv": "29eba01618460f5dd8adfa469885da2cfa7a9fbf1bca2250710fc0b4bf588ee9",
        "compare_buckets.csv": "c6ed1695702d1c8595d67f5845fd9448fd1610c239f3669347f779d12fb84cec",
    },
    "compare_three": {
        "compare.csv": "1028a7aba91a16b04d55ca31b3657986658a9e5bc3eea682eebcef9cf041462a",
        "compare_buckets.csv": "f04a8bb98e5b446ad7fb083ba5838d050fef3030fe5b5bdbea481adb651519ac",
    },
    "passk_r256": {
        "passk.csv": "698f18fba5d73fe8dbebeae7d2b6daa8955ce74fd2023977fbe1cefc4755612c",
    },
    "compare_r256": {
        "compare.csv": "f25e6fdb5daecd0406f00db3a9ae7acc88b38c6022493e410b09ab2a5f596b95",
    },
    "passk_odd_draw": {
        "passk.csv": "873bfbca28cfe9b4ad971f339132fdc52feca34682f6375cda562569aac005eb",
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
    "integrated_convex_refdist": "5171b1be912f1b15cee1932785cde59e9e9006d6d9c0f9a61a2a6d6151f899c4",
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
    "beta_unsolvable": "28e45bb4747100fbd16718f35e0ffd4da203919092dcdd6cd8a6ef2ce5fbc76a",
    "fixed_extremes": "99d7b0381bfd1fccf31e8ee136ff8eb09191ea793421dbdd8be6b0248b2a3310",
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
