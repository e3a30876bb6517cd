from dataclasses import asdict

import pytest

from planarmimic.config import (ConfigError, TrainConfig, apply_overrides,
                                config_to_mapping, default_config, load_config,
                                parse_config_text, save_config)


class TestParsing:
    def test_empty_text_gives_defaults(self):
        cfg = parse_config_text("")
        assert asdict(cfg) == asdict(TrainConfig())

    def test_dotted_keys_reach_nested_sections(self):
        cfg = parse_config_text("""
            # comment line
            task = backflip
            seed = 9
            disc.loss_kind = lsgan
            disc.horizon = 16
            ppo.gamma = 0.95
            reward.gamma = 0.95
            reward.w_imitation = 0.8
            sim.body_mass = 3.0
            dtw.open_end = false
        """)
        assert cfg.task == "backflip"
        assert cfg.seed == 9
        assert cfg.disc.loss_kind == "lsgan"
        assert cfg.disc.horizon == 16
        assert cfg.ppo.gamma == 0.95
        assert cfg.reward.w_imitation == 0.8
        assert cfg.sim.body_mass == 3.0
        assert cfg.dtw.open_end is False

    def test_task_defaults_apply_regardless_of_order(self):
        a = parse_config_text("disc.horizon = 3\ntask = backflip\n")
        b = parse_config_text("task = backflip\ndisc.horizon = 3\n")
        assert a.disc.horizon == 3
        assert b.disc.horizon == 3
        # unoverridden per-task default survives
        c = parse_config_text("task = backflip\n")
        assert c.disc.horizon == 8

    def test_unknown_key_collected(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text("bogus_key = 1\nppo.nonsense = 2\n")
        text = str(err.value)
        assert "bogus_key" in text
        assert "nonsense" in text

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("just some words\n")

    def test_tuple_field(self):
        cfg = parse_config_text("ppo.hidden_sizes = 32,32\n")
        assert cfg.ppo.hidden_sizes == (32, 32)

    def test_bool_coercion(self):
        cfg = parse_config_text("disc.full_state = true\nppo.adaptive_lr = off\n")
        assert cfg.disc.full_state is True
        assert cfg.ppo.adaptive_lr is False


class TestRoundTrip:
    def test_serialize_parse_identity(self, tmp_path):
        cfg = default_config("standup", "lsgan")
        cfg.seed = 123
        cfg.ppo.num_envs = 7
        cfg.disc.w_gp = 2.5
        cfg.refs = "some/path"
        path = tmp_path / "config.txt"
        save_config(cfg, path)
        loaded = load_config(path)
        assert asdict(cfg) == asdict(loaded)

    def test_mapping_covers_every_field(self):
        mapping = config_to_mapping(TrainConfig())
        for key in ("task", "seed", "sim.body_mass", "disc.horizon",
                    "ppo.clip", "reward.w_imitation", "dtw.step_pattern",
                    "eval.rollouts"):
            assert key in mapping


class TestValidation:
    def test_default_is_valid(self):
        assert default_config().validate() == []

    def test_every_violation_enumerated(self):
        cfg = default_config()
        cfg.task = "flying"
        cfg.iterations = 0
        cfg.ppo.clip = -1.0
        cfg.disc.horizon = 0
        cfg.reward.w_action_rate = +0.1
        cfg.dtw.step_pattern = "zigzag"
        cfg.sim.contact_stiffness = 0.5
        cfg.sim.mass_perturb_low = -3.0
        cfg.sim.mass_perturb_high = -4.0
        cfg.eval.episode_frames = -1
        errors = cfg.validate()
        assert len(errors) >= 10
        joined = "\n".join(errors)
        for fragment in ("task", "iterations", "ppo.clip", "disc.horizon",
                         "reward.w_action_rate", "dtw.step_pattern",
                         "sim.contact_stiffness",
                         "sim.mass_perturb_high must be >= sim.mass_perturb_low",
                         "sim.body_mass + sim.mass_perturb_low must be > 0",
                         "eval.episode_frames"):
            assert fragment in joined

    @pytest.mark.parametrize("low, high, fragment", [
        # a reversed range used to pay a constant +low
        (1.0, 0.5, "sim.mass_perturb_high must be >= sim.mass_perturb_low"),
        # a negative body mass used to train
        (-3.0, -3.0, "sim.body_mass + sim.mass_perturb_low must be > 0"),
    ])
    def test_mass_perturbation_range(self, low, high, fragment):
        cfg = default_config()
        cfg.sim.mass_perturb_low, cfg.sim.mass_perturb_high = low, high
        assert cfg.validate() == [fragment]

    def test_gamma_consistency_enforced(self):
        cfg = default_config()
        cfg.ppo.gamma = 0.95
        assert any("gamma" in e for e in cfg.validate())

    def test_require_valid_raises(self):
        cfg = default_config()
        cfg.iterations = -1
        with pytest.raises(ConfigError):
            cfg.require_valid()


class TestOverrides:
    def test_cli_style_overrides(self):
        cfg = default_config()
        apply_overrides(cfg, ["ppo.num_envs=3", "disc.learning_rate=1e-5"])
        assert cfg.ppo.num_envs == 3
        assert cfg.disc.learning_rate == 1e-5

    def test_bad_override_format(self):
        with pytest.raises(ConfigError):
            apply_overrides(default_config(), ["ppo.num_envs"])

    def test_unknown_override_key(self):
        with pytest.raises(ConfigError):
            apply_overrides(default_config(), ["ppo.warp_speed=9"])

    def test_task_override_brings_its_defaults_before_explicit_keys(self):
        assert apply_overrides(default_config(), ["task=backflip"]).disc.horizon == 8
        cfg = apply_overrides(default_config(), ["disc.horizon=4", "task=backflip"])
        assert (cfg.task, cfg.disc.horizon) == ("backflip", 4)


class TestTaskDefaults:
    def test_per_task_values(self):
        assert default_config("leap").disc.horizon == 2
        assert default_config("backflip").disc.horizon == 8
        assert default_config("backflip").reward.w_imitation == 2.0

    def test_loss_switch_preserves_everything_else(self):
        a = default_config("wave", "wgan")
        b = default_config("wave", "lsgan")
        a.disc.loss_kind = "lsgan"
        assert asdict(a) == asdict(b)
